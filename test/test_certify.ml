(* Soundness tests for the interval certifier: the certified enclosures
   must contain everything the concrete (scalar) semantics can produce.
   Random points are drawn from a fixed seed so a failure reproduces
   exactly; the oracle is the blind grid solver, deliberately independent
   of both the seeded production solver and the interval machinery. *)

module P = Power_core.Paper_data
module Pl = Power_core.Power_law
module N = Power_core.Numerical_opt
module Ab = Power_core.Absint
module Iv = Numerics.Interval

let flavors =
  [ Device.Technology.ull; Device.Technology.ll; Device.Technology.hs ]

let rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs b)

let points_per_box = 200

(* Every (f, vdd) sample point of a parameter box must evaluate inside
   the box's certified Ptot range — for all 13 rows x 3 flavors, with a
   +/-5% frequency box and the full supply search range. *)
let test_range_soundness () =
  let rng = Numerics.Rng.create 20060702 in
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let f_box =
            Iv.make (problem.Pl.f *. 0.95) (problem.Pl.f *. 1.05)
          in
          let box = Ab.box ~f:f_box problem in
          let enc = Ab.ptot_over box in
          for _ = 1 to points_per_box do
            let f =
              f_box.Iv.lo
              +. Numerics.Rng.float rng (f_box.Iv.hi -. f_box.Iv.lo)
            in
            let vdd =
              box.Ab.vdd.Iv.lo
              +. Numerics.Rng.float rng
                   (box.Ab.vdd.Iv.hi -. box.Ab.vdd.Iv.lo)
            in
            let p = N.ptot_on_constraint (Pl.at_frequency problem ~f) vdd in
            if Float.is_finite p && not (Iv.contains enc p) then
              Alcotest.failf
                "%s/%s: Ptot(f=%.6g, vdd=%.6g) = %.12g outside %s"
                (Device.Technology.name tech)
                row.P.label f vdd p (Iv.to_string enc)
          done)
        P.table1)
    flavors

(* The certified minimiser bracket and minimum enclosure must contain the
   grid-oracle optimum for every paper row x flavor, and the enclosure
   endpoints must bound the oracle power to 1e-6 relative slack. *)
let test_bracket_contains_oracle () =
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let cert = Ab.certify (Ab.box problem) in
          let oracle = N.optimum_grid problem in
          let fail msg =
            Alcotest.failf "%s/%s: %s (bracket %s, ptot %s)"
              (Device.Technology.name tech)
              row.P.label msg
              (Iv.to_string cert.Ab.vdd_bracket)
              (Iv.to_string cert.Ab.ptot)
          in
          (* The oracle refines to ~1e-9 in vdd; allow it that slop at
             the bracket edges. *)
          let slack = 1e-6 *. Float.max 1.0 oracle.Pl.vdd in
          if
            oracle.Pl.vdd < cert.Ab.vdd_bracket.Iv.lo -. slack
            || oracle.Pl.vdd > cert.Ab.vdd_bracket.Iv.hi +. slack
          then
            fail
              (Printf.sprintf "oracle vdd %.9g outside bracket"
                 oracle.Pl.vdd);
          if oracle.Pl.total < cert.Ab.ptot.Iv.lo *. (1.0 -. 1e-6) then
            fail
              (Printf.sprintf "oracle ptot %.9g below certified lower bound"
                 oracle.Pl.total);
          if oracle.Pl.total > cert.Ab.ptot.Iv.hi *. (1.0 +. 1e-6) then
            fail
              (Printf.sprintf "oracle ptot %.9g above certified upper bound"
                 oracle.Pl.total);
          (* The enclosure should also be useful, not just sound: the
             incumbent is a real point evaluation, so the upper end must
             be within a few percent of the oracle minimum. *)
          if rel cert.Ab.ptot.Iv.hi oracle.Pl.total > 0.05 then
            fail
              (Printf.sprintf "upper bound %.9g is loose vs oracle %.9g"
                 cert.Ab.ptot.Iv.hi oracle.Pl.total))
        P.table1)
    flavors

(* Dse.prune_against over a 1k-slice cut of the supply axis, for all 13
   rows x 3 flavors. The incumbent is achieved: the least certified point
   evaluation at a slice midpoint. At least half the slices must be
   excluded, and never one holding the grid-oracle optimum. *)
let test_dse_prune () =
  let lo, hi = Pl.vdd_search_range in
  let n = 1000 in
  let step = (hi -. lo) /. float_of_int n in
  List.iter
    (fun tech ->
      List.iter
        (fun (row : P.table1_row) ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let oracle = N.optimum_grid problem in
          let slices =
            List.init n (fun i ->
                let a = lo +. (float_of_int i *. step) in
                Ab.box ~vdd:(Iv.make a (a +. step)) problem)
          in
          let incumbent =
            List.fold_left
              (fun acc (b : Ab.box) ->
                let mid = { b with Ab.vdd = Iv.of_float (Iv.mid b.Ab.vdd) } in
                Float.min acc (Ab.ptot_over mid).Iv.hi)
              infinity slices
          in
          let what =
            Printf.sprintf "%s/%s" (Device.Technology.name tech) row.P.label
          in
          let excluded = ref 0 and optimum_slices = ref 0 in
          List.iter
            (fun (b : Ab.box) ->
              let gone = Power_core.Dse.prune_against b ~incumbent in
              if gone then incr excluded;
              if Iv.contains b.Ab.vdd oracle.Pl.vdd then begin
                incr optimum_slices;
                if gone then
                  Alcotest.failf "%s: excluded the slice %s holding the \
                                  oracle optimum"
                    what (Iv.to_string b.Ab.vdd)
              end)
            slices;
          if !optimum_slices = 0 then
            Alcotest.failf "%s: no slice holds the oracle optimum" what;
          if !excluded * 2 < n then
            Alcotest.failf "%s: excluded only %d/%d slices (need >= 50%%)"
              what !excluded n)
        P.table1)
    flavors

(* The closed-form interval lift must enclose the scalar closed form
   across a frequency box, whenever the scalar evaluation is feasible. *)
let test_eq13_enclosure () =
  let rng = Numerics.Rng.create 20060703 in
  List.iter
    (fun tech ->
      List.iter
        (fun row ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency row
          in
          let f_box =
            Iv.make (problem.Pl.f *. 0.9) (problem.Pl.f *. 1.1)
          in
          match Power_core.Closed_form.evaluate_iv problem ~f:f_box with
          | Error _ -> ()
          | Ok enc ->
            for _ = 1 to 50 do
              let f =
                f_box.Iv.lo
                +. Numerics.Rng.float rng (f_box.Iv.hi -. f_box.Iv.lo)
              in
              match
                Power_core.Closed_form.evaluate
                  (Pl.at_frequency problem ~f)
              with
              | exception Power_core.Closed_form.Infeasible _ -> ()
              | r ->
                let check what value iv =
                  if not (Iv.contains iv value) then
                    Alcotest.failf "%s/%s: %s %.12g outside %s at f=%.6g"
                      (Device.Technology.name tech)
                      row.P.label what value (Iv.to_string iv) f
                in
                check "vdd_opt" r.Power_core.Closed_form.vdd_opt
                  enc.Power_core.Closed_form.vdd_opt_iv;
                check "vth_opt" r.Power_core.Closed_form.vth_opt
                  enc.Power_core.Closed_form.vth_opt_iv;
                check "ptot" r.Power_core.Closed_form.ptot
                  enc.Power_core.Closed_form.ptot_iv
            done)
        P.table1)
    flavors

let () =
  Alcotest.run "certify"
    [
      ( "soundness",
        [
          Alcotest.test_case "random points inside certified Ptot range"
            `Slow test_range_soundness;
          Alcotest.test_case "certified bracket contains grid oracle" `Slow
            test_bracket_contains_oracle;
          Alcotest.test_case "Eq. 13 interval lift encloses scalar form"
            `Quick test_eq13_enclosure;
        ] );
      ( "dse",
        [
          Alcotest.test_case
            "prune discards >= 50% and never the optimum box" `Slow
            test_dse_prune;
        ] );
    ]
