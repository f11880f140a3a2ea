(* Differential test of the Eq.13-seeded warm-start solver against the
   blind grid-scan oracle it replaced ([Numerical_opt.optimum_grid], the
   pre-seeding solver kept verbatim). Both refine to tol 1e-9, so wherever
   the objective is unimodal they must land on the same minimum to well
   under 1e-6 relative — in the supply AND in the power (the latter is
   flat at the optimum, so it agrees much tighter). Cases cover the
   calibrated Table 1 rows, the three technology flavors and three
   frequency decades from a fixed seed, so a failure reproduces exactly. *)

module P = Power_core.Paper_data
module Pl = Power_core.Power_law
module N = Power_core.Numerical_opt

let min_cases = 200
let max_draws = 20_000

let tech_of_int = function
  | 0 -> Device.Technology.ll
  | 1 -> Device.Technology.ull
  | _ -> Device.Technology.hs

let log_uniform rng lo hi =
  lo *. Float.exp (Numerics.Rng.float rng (Float.log (hi /. lo)))

let rel a b = Float.abs (a -. b) /. Float.max 1e-30 (Float.abs b)

(* A calibrated row under a random flavor and throughput: the production
   population the seeded solver actually faces. *)
let random_problem rng =
  let rows = Array.of_list P.table1 in
  let tech = tech_of_int (Numerics.Rng.int rng 3) in
  let row = rows.(Numerics.Rng.int rng (Array.length rows)) in
  let f = log_uniform rng 1e6 1e9 in
  Power_core.Calibration.problem_of_row tech ~f row

let check_close ~what ~tol problem expected actual =
  if rel actual expected > tol then
    Alcotest.failf "%s: seeded %.12g vs oracle %.12g (rel %.3g, tech %s, f=%.4g)"
      what actual expected (rel actual expected)
      (Device.Technology.name problem.Pl.tech)
      problem.Pl.f

let with_counters f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let count name = Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

let test_seeded_matches_grid () =
  with_counters (fun () ->
      let rng = Numerics.Rng.create 20060501 in
      let checked = ref 0 and drawn = ref 0 in
      while !checked < min_cases do
        incr drawn;
        if !drawn > max_draws then
          Alcotest.failf "only %d/%d comparable cases in %d draws" !checked
            min_cases max_draws;
        let problem = random_problem rng in
        let oracle = N.optimum_grid problem in
        (* On-boundary optima are clamps, not stationary points: the two
           refinement paths may stop on different sides of the wall. Skip
           them (the population keeps >200 interior cases). *)
        let lo, hi = Pl.vdd_search_range in
        if
          Float.is_finite oracle.Pl.total
          && oracle.Pl.vdd > lo +. 0.01
          && oracle.Pl.vdd < hi -. 0.01
        then begin
          incr checked;
          let seeded = N.optimum problem in
          check_close ~what:"vdd" ~tol:1e-6 problem oracle.Pl.vdd
            seeded.Pl.vdd;
          check_close ~what:"ptot" ~tol:1e-6 problem oracle.Pl.total
            seeded.Pl.total;
          (* A warm start from a deliberately bad neighbour (up to ±10%
             off) must still fall into the same basin. *)
          let off = 0.90 +. Numerics.Rng.float rng 0.2 in
          let from = Pl.at problem ~vdd:(seeded.Pl.vdd *. off) in
          let warm = N.optimum ~from problem in
          check_close ~what:"warm vdd" ~tol:1e-6 problem oracle.Pl.vdd
            warm.Pl.vdd;
          check_close ~what:"warm ptot" ~tol:1e-6 problem oracle.Pl.total
            warm.Pl.total
        end
      done;
      (* The comparison is only meaningful if the seeded fast path was
         actually exercised (not just fallback-vs-oracle, which is the
         same code on both sides). *)
      if count "opt.seeded_solves" < min_cases / 2 then
        Alcotest.failf "seeded path taken only %d times in %d cases"
          (count "opt.seeded_solves") !checked)

let test_fallback_counts () =
  with_counters (fun () ->
      (* Push the throughput up in octaves until chi*A exceeds 1: there
         Eq. 13 is infeasible, no seed exists, and [optimum] must fall
         back to the grid scan. *)
      let row = P.table1_find "RCA" in
      (* [problem_of_row] recalibrates chi' to the requested frequency, so
         its closed form is f-invariant; fixing the params and raising f
         through [Power_law.make] is what actually drives chi*A past 1. *)
      let params =
        Power_core.Calibration.params_of_row Device.Technology.ll
          ~f:P.frequency row
      in
      let problem_at f = Pl.make Device.Technology.ll params ~f in
      let rec first_infeasible f =
        if f > 1e13 then
          Alcotest.fail "no infeasible frequency below 10 THz"
        else
          match Power_core.Closed_form.evaluate (problem_at f) with
          | _ -> first_infeasible (2.0 *. f)
          | exception Power_core.Closed_form.Infeasible _ -> f
      in
      let problem = problem_at (first_infeasible 1e8) in
      ignore (N.optimum problem);
      Alcotest.(check int) "one fallback" 1 (count "opt.seed_fallbacks");
      Alcotest.(check int) "no seeded solve" 0 (count "opt.seeded_solves");
      if count "opt.grid_evals" <= 0 then
        Alcotest.fail "fallback did not run the grid scan";
      (* And a seedable problem leaves the fallback counter alone. *)
      ignore (N.optimum (problem_at P.frequency));
      Alcotest.(check int) "still one fallback" 1 (count "opt.seed_fallbacks"))

(* Yield-style die populations: the default spread's draws, with every
   25th die forced onto a +-3 sigma leakage/speed corner, so the warm
   chains also take the largest jumps the engine meets in practice. *)
let chain_dies = 2048
let chain = 64
let spread = Power_core.Variation.default_spread

let die_population rng (problem : Pl.problem) =
  Array.init chain_dies (fun i ->
      let _, cap_factor, _, alpha, varied =
        Power_core.Variation.draw_factors spread rng problem
      in
      if i mod 25 <> 0 then varied
      else
        (* Corners cycle through (+,+) (-,+) (+,-) (-,-). *)
        let corner = i / 25 mod 4 in
        let tail sigma bit =
          Float.exp ((if corner land bit = 0 then 3.0 else -3.0) *. sigma)
        in
        Power_core.Variation.apply_factors problem ~cap_factor ~alpha
          ~leak_factor:(tail spread.sigma_leak 1)
          ~speed_factor:(tail spread.sigma_speed 2))

(* Chains of 64 dies headed by the nominal optimum, as [Variation.yield_mc]
   runs them. Returns the optima and the mean seeded-refinement
   iterations per solve over the population. *)
let solve_chains ~nominal dies =
  let out = Array.make (Array.length dies) nominal in
  let before_iters = count "opt.brent_iters"
  and before_solves = count "opt.seeded_solves" in
  let pos = ref 0 in
  while !pos < Array.length dies do
    let base = !pos in
    let n = Stdlib.min chain (Array.length dies - base) in
    N.solve_chain_into ~head:nominal
      ~problem_of:(fun k -> dies.(base + k))
      ~n
      ~write:(fun k pt -> out.(base + k) <- pt)
      ();
    pos := base + n
  done;
  let iters = count "opt.brent_iters" - before_iters
  and solves = count "opt.seeded_solves" - before_solves in
  (out, float_of_int iters /. float_of_int (Stdlib.max 1 solves), solves)

let chain_cases =
  [
    ("Wallace", Device.Technology.ll);
    ("RCA", Device.Technology.ull);
    ("Sequential", Device.Technology.hs);
  ]

let test_warm_chains_match_grid () =
  with_counters (fun () ->
      let rng = Numerics.Rng.create 20061031 in
      List.iter
        (fun (label, tech) ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency
              (P.table1_find label)
          in
          let nominal = N.optimum problem in
          let dies = die_population rng problem in
          let optima, mean_iters, solves = solve_chains ~nominal dies in
          Alcotest.(check int)
            (label ^ ": every die solved on the seeded path")
            chain_dies solves;
          Array.iteri
            (fun i die ->
              let oracle = N.optimum_grid die in
              check_close ~what:(Printf.sprintf "%s die %d vdd" label i)
                ~tol:1e-6 die oracle.Pl.vdd optima.(i).Pl.vdd;
              check_close ~what:(Printf.sprintf "%s die %d ptot" label i)
                ~tol:1e-6 die oracle.Pl.total optima.(i).Pl.total)
            dies;
          (* Deterministic cost pin: the log-form Newton needs 3-4
             residual evaluations from the previous die's optimum. *)
          if mean_iters > 6.0 then
            Alcotest.failf "%s: %.2f refinement iterations per solve (> 6)"
              label mean_iters)
        chain_cases)

(* A caller bracket that excludes the interior optimum: the minimum over
   the bracket is the nearer wall, and the seeded path must land on the
   same wall as the grid, from a warm seed inside or outside the
   bracket. *)
let test_narrow_bracket_walls () =
  with_counters (fun () ->
      List.iter
        (fun (label, tech) ->
          let problem =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency
              (P.table1_find label)
          in
          let nominal = N.optimum problem in
          let v = nominal.Pl.vdd in
          List.iter
            (fun (vdd_lo, vdd_hi, from_scale) ->
              let fallbacks = count "opt.seed_fallbacks" in
              let from = Pl.at problem ~vdd:(v *. from_scale) in
              let got = N.optimum ~vdd_lo ~vdd_hi ~from problem in
              let oracle = N.optimum_grid ~vdd_lo ~vdd_hi problem in
              let what =
                Printf.sprintf "%s [%.3f, %.3f] from %.3f" label vdd_lo vdd_hi
                  from.Pl.vdd
              in
              check_close ~what:(what ^ " vdd") ~tol:1e-6 problem
                oracle.Pl.vdd got.Pl.vdd;
              check_close ~what:(what ^ " ptot") ~tol:1e-6 problem
                oracle.Pl.total got.Pl.total;
              Alcotest.(check int) (what ^ ": no fallback") fallbacks
                (count "opt.seed_fallbacks"))
            [
              (0.5 *. v, 0.8 *. v, 1.0);
              (0.5 *. v, 0.8 *. v, 0.6);
              (1.2 *. v, 1.6 *. v, 1.0);
              (1.2 *. v, 1.6 *. v, 1.4);
            ])
        chain_cases)

(* Degenerate dies (no switching activity, no leakage, no cells) have no
   finite stationarity residual: the seeded path must hand them to the
   counted grid fallback, which returns the oracle's bits. *)
let test_degenerate_fallback () =
  with_counters (fun () ->
      let problem =
        Power_core.Calibration.problem_of_row Device.Technology.ll
          ~f:P.frequency (P.table1_find "Wallace")
      in
      let nominal = N.optimum problem in
      List.iter
        (fun (what, params) ->
          let die = { problem with Pl.params } in
          let fallbacks = count "opt.seed_fallbacks"
          and seeded = count "opt.seeded_solves"
          and grid = count "opt.grid_evals" in
          let got = N.optimum ~from:nominal die in
          Alcotest.(check int) (what ^ ": one fallback") (fallbacks + 1)
            (count "opt.seed_fallbacks");
          Alcotest.(check int) (what ^ ": not seeded") seeded
            (count "opt.seeded_solves");
          if count "opt.grid_evals" <= grid then
            Alcotest.failf "%s: fallback did not run the grid scan" what;
          let oracle = N.optimum_grid die in
          Alcotest.(check bool) (what ^ ": oracle bits") true
            (Int64.equal
               (Int64.bits_of_float oracle.Pl.vdd)
               (Int64.bits_of_float got.Pl.vdd)))
        [
          ("activity 0", { problem.params with activity = 0.0 });
          ("io_cell 0", { problem.params with io_cell = 0.0 });
          ("n_cells 0", { problem.params with n_cells = 0.0 });
        ])

let () =
  Alcotest.run "solver_equiv"
    [
      ( "differential",
        [
          Alcotest.test_case "seeded optimum matches grid oracle (1e-6)" `Slow
            test_seeded_matches_grid;
          Alcotest.test_case "unseedable problems fall back to the grid"
            `Quick test_fallback_counts;
          Alcotest.test_case "yield-style warm chains match grid (1e-6)"
            `Slow test_warm_chains_match_grid;
          Alcotest.test_case "narrow brackets pin the grid's wall" `Quick
            test_narrow_bracket_walls;
          Alcotest.test_case "degenerate params take the counted fallback"
            `Quick test_degenerate_fallback;
        ] );
    ]
