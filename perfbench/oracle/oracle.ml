(* The perfbench oracle: in-process references that perfbench/run.py
   checks the optpower binary's outputs against, and
   per-call timings of the public functions of layers that have no span
   of their own in the binary.

   Usage (every input file holds one JSON value or frame per line):
     oracle explore FILE             axes -> {"text": exhaustive report}
     oracle yield FILE               {arch,dies,sampler} -> {"text": report}
     oracle serve STORE FILE         request frame -> expected reply frame
     oracle layers-explore FILE SCRATCH STORE...   -> per-call costs
     oracle layers-serve STORE FILE                -> per-call costs *)

module J = Serve.Json
module E = Power_core.Explorer

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("oracle: " ^ s);
      exit 2)
    fmt

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let parse_obj line =
  match J.parse line with Ok v -> v | Error e -> fail "bad input: %s" e

let field name v =
  match J.member name v with Some x -> x | None -> fail "missing %s" name

let to_int = function J.Num x -> int_of_float x | _ -> fail "not a number"
let to_str = function J.Str s -> s | _ -> fail "not a string"

let to_list f = function J.Arr l -> List.map f l | _ -> fail "not a list"

let techs_of_name = function
  | "all" -> Device.Technology.all
  | n -> (
    match
      List.find_opt
        (fun t -> Device.Technology.name t = n)
        Device.Technology.all
    with
    | Some t -> [ t ]
    | None -> fail "unknown tech %s" n)

(* Axes as run.py writes them; fmults travel as the exact strings given to
   the CLI so both sides parse the same floats. *)
let axes_of_json v =
  {
    E.bits = to_int (field "bits" v);
    families =
      to_list
        (fun f ->
          match E.family_of_string (to_str f) with
          | Some f -> f
          | None -> fail "unknown family")
        (field "families" v);
    radices = to_list to_int (field "radices" v);
    signednesses =
      [
        (if field "signed" v = J.Bool true then Multipliers.Booth.Signed
         else Multipliers.Booth.Unsigned);
      ];
    stages = to_list to_int (field "stages" v);
    copies = to_list to_int (field "copies" v);
    fmults = to_list (fun s -> float_of_string (to_str s)) (field "fmults" v);
    techs = techs_of_name (to_str (field "tech" v));
  }

let emit_text s = print_endline (J.to_string (J.Obj [ ("text", J.Str s) ]))

let explore_mode file =
  List.iter
    (fun line ->
      let axes = axes_of_json (parse_obj line) in
      let r = E.explore ~prune:false axes in
      emit_text
        (Report.Dse_report.render_axes axes ^ "\n\n"
        ^ Report.Dse_report.render r ^ "\n"))
    (read_lines file)

let problem_of_arch label =
  Power_core.Calibration.problem_of_row Device.Technology.ll
    ~f:Power_core.Paper_data.frequency
    (Power_core.Paper_data.table1_find label)

(* The `optpower yield` body: fixed generator seed 2006, 4096-die chunks. *)
let yield_mode file =
  List.iter
    (fun line ->
      let v = parse_obj line in
      let sampler =
        match to_str (field "sampler" v) with
        | "pseudo" -> `Pseudo
        | "sobol" -> `Sobol
        | s -> fail "unknown sampler %s" s
      in
      let r =
        Power_core.Variation.yield_mc ~dies:(to_int (field "dies" v))
          ~chunk:4096 ~sampler ~rng:(Numerics.Rng.create 2006)
          (problem_of_arch (to_str (field "arch" v)))
      in
      emit_text (Report.Studies.render_yield r))
    (read_lines file)

let reply ?store line =
  match Serve.Protocol.parse_frame line with
  | Ok { id; call } ->
    Serve.Protocol.ok_frame ~id (Serve.Engine.run_call ?store call)
  | Error (id, code, msg) -> Serve.Protocol.error_frame ~id code msg

let serve_mode store_dir file =
  let store = Power_core.Warm.open_store ~readonly:true ~path:store_dir () in
  List.iter (fun line -> print_endline (reply ?store line)) (read_lines file);
  Option.iter Store.close store

(* ---- Per-call layer costs ------------------------------------------- *)

let now_us () = Obs.now_ns () /. 1e3

let time_us f =
  let t0 = now_us () in
  let r = f () in
  (now_us () -. t0, r)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median of [reps] timings of [f], in microseconds. *)
let cost_us ?(reps = 3) f =
  median (List.init reps (fun _ -> fst (time_us (fun () -> ignore (f ())))))

(* Counts [counter] increments made by [f] (Obs on only while it runs). *)
let counted counter f =
  Obs.reset ();
  Obs.set_enabled true;
  let r = f () in
  let n = Obs.counter_value counter in
  Obs.set_enabled false;
  (n, r)

let num x = J.Num (if Float.is_finite x then x else 0.0)

(* The Explorer's own substrate build (its build memo's body). *)
let build_substrate ~bits (s : E.substrate) =
  match s.family with
  | E.Booth ->
    Multipliers.Booth.generate ~signedness:s.signedness ~stages:s.stages
      ~radix:s.radix ~bits ()
  | E.Dadda -> Multipliers.Spec_optimize.run (Multipliers.Dadda.basic ~bits)
  | E.Wallace ->
    Multipliers.Spec_optimize.run
      (if s.stages <= 1 then Multipliers.Wallace.basic ~bits
       else Multipliers.Wallace.pipelined ~bits ~stages:s.stages)

(* The Explorer's characterisation, split at the layer boundary: netlist
   statistics, placement and timing (netlist), then random-stimulus
   activity (logicsim). *)
let sta (spec : Multipliers.Spec.t) =
  let stats = Multipliers.Spec.stats spec in
  let placement = Netlist.Placement.place spec.circuit in
  let avg_cap =
    (Netlist.Placement.refine_stats spec.circuit placement).avg_cap_with_wires
  in
  (stats, avg_cap, Multipliers.Spec.logical_depth_effective spec)

type sub_cost = {
  build_us : float;
  sta_us : float;
  activity_us : float;
  params : Power_core.Arch_params.t;
}

let ref_tech = Device.Technology.ll

let substrate_cost =
  let memo = Hashtbl.create 32 in
  fun ~bits (s : E.substrate) ->
    let key = (bits, s) in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
      let build_us = cost_us (fun () -> build_substrate ~bits s) in
      let spec = build_substrate ~bits s in
      let sta_us = cost_us (fun () -> sta spec) in
      let stats, avg_cap, ld_eff = sta spec in
      let activity_us, measured =
        time_us (fun () ->
            Multipliers.Harness.measure_activity ~seed:7 ~cycles:160 spec)
      in
      let params =
        {
          Power_core.Arch_params.label = "perfbench";
          n_cells = float_of_int stats.cell_total;
          activity = measured.activity;
          avg_cap;
          io_cell = stats.avg_leak_factor *. ref_tech.Device.Technology.io;
          ld_eff;
          area = stats.area;
        }
      in
      let c = { build_us; sta_us; activity_us; params } in
      Hashtbl.replace memo key c;
      c

(* The candidates' problems, formed as the Explorer forms them. *)
let problems (axes : E.axes) =
  List.concat_map
    (fun s ->
      let base = (substrate_cost ~bits:axes.bits s).params in
      List.concat_map
        (fun copies ->
          let p =
            if copies = 1 then base
            else (Power_core.Transform.parallelize ~copies ()).apply base
          in
          List.concat_map
            (fun tech ->
              let params =
                Power_core.Tech_compare.adapt_params ~reference:ref_tech tech p
              in
              List.map
                (fun m ->
                  Power_core.Power_law.make tech params
                    ~f:(m *. Power_core.Paper_data.frequency))
                axes.fmults)
            axes.techs)
        axes.copies)
    (E.substrate_combos axes)

(* At most [n] elements, evenly spaced through [l]. *)
let spread_sample n l =
  let a = Array.of_list l in
  let len = Array.length a in
  if len <= n then l
  else List.init n (fun i -> a.(i * len / n))

let store_namespaces =
  Power_core.Warm.[ ns_chars; ns_opt; ns_ledger; ns_solve ]

let store_records st =
  List.concat_map
    (fun ns ->
      let acc = ref [] in
      Store.iter st ~ns (fun k v -> acc := (ns, k, v) :: !acc);
      List.rev !acc)
    store_namespaces

let open_ro path =
  match Power_core.Warm.open_store ~readonly:true ~path () with
  | Some st -> st
  | None -> fail "cannot open store %s" path

let find_cost st records =
  if records = [] then 0.0
  else
    let us, () =
      time_us (fun () ->
          List.iter (fun (ns, k, _) -> ignore (Store.find st ~ns k)) records)
    in
    us /. float_of_int (List.length records)

let layers_explore file scratch stores =
  let axes_list =
    List.map (fun l -> axes_of_json (parse_obj l)) (read_lines file)
  in
  let per_axes =
    List.map
      (fun (axes : E.axes) ->
        let subs =
          List.map (substrate_cost ~bits:axes.bits) (E.substrate_combos axes)
        in
        let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 subs in
        J.Obj
          [
            ("combos", num (float_of_int (List.length subs)));
            ("build_us", num (sum (fun c -> c.build_us)));
            ("sta_us", num (sum (fun c -> c.sta_us)));
            ("activity_us", num (sum (fun c -> c.activity_us)));
          ])
      axes_list
  in
  let all = List.concat_map problems axes_list in
  let eq13_us, () =
    time_us (fun () ->
        List.iter
          (fun p ->
            try ignore (Power_core.Closed_form.evaluate p)
            with Power_core.Closed_form.Infeasible _ -> ())
          all)
  in
  let sample =
    List.filter_map
      (fun p ->
        let pt = Power_core.Numerical_opt.optimum p in
        if Float.is_finite pt.Power_core.Power_law.total then
          Some (Power_core.Absint.box p, pt.Power_core.Power_law.total)
        else None)
      (spread_sample 48 all)
  in
  (* Boxes per call with Obs on, time per call with Obs off. *)
  let absint_cost run =
    List.fold_left
      (fun (us, boxes, calls) b ->
        let n, () = counted "cert.boxes" (fun () -> ignore (run b)) in
        (us +. cost_us ~reps:1 (fun () -> run b), boxes + n, calls + 1))
      (0.0, 0, 0) sample
  in
  let c_us, c_boxes, c_calls =
    absint_cost (fun (b, _) -> Power_core.Absint.certify b)
  in
  (* The explorer asks excludes about candidates strictly above an
     achieved front value; 0.8x the candidate's own optimum is such a
     threshold. *)
  let x_us, x_boxes, x_calls =
    absint_cost (fun (b, total) ->
        Power_core.Dse.prune_against b ~incumbent:(0.8 *. total))
  in
  let records =
    List.concat_map
      (fun path ->
        let st = open_ro path in
        let r = store_records st in
        Store.close st;
        r)
      stores
  in
  let open_ms, fresh =
    time_us (fun () -> Power_core.Warm.open_store ~path:scratch ())
  in
  let fresh =
    match fresh with Some st -> st | None -> fail "cannot open %s" scratch
  in
  let miss_us = find_cost fresh records in
  let put_us, () =
    time_us (fun () ->
        List.iter (fun (ns, k, v) -> Store.put fresh ~ns k v) records)
  in
  let hit_us = find_cost fresh records in
  Store.close fresh;
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("axes", J.Arr per_axes);
            ("problems", num (float_of_int (List.length all)));
            ("eq13_us", num (per (List.length all) eq13_us));
            ("certify_us", num (per c_calls c_us));
            ("certify_boxes", num (per c_calls (float_of_int c_boxes)));
            ("certify_us_per_box", num (per c_boxes c_us));
            ("excludes_us", num (per x_calls x_us));
            ("excludes_us_per_box", num (per x_boxes x_us));
            ("store_open_ms", num (open_ms /. 1e3));
            ("store_find_miss_us", num miss_us);
            ("store_find_hit_us", num hit_us);
            ("store_put_us", num (per (List.length records) put_us));
            ("store_records", num (float_of_int (List.length records)));
          ]))

(* Repeats [f] over [items] until at least 20 ms have passed; returns the
   mean cost per item in microseconds. *)
let per_item_us items f =
  let n = List.length items in
  if n = 0 then 0.0
  else
    let rec go rounds total =
      let us, () = time_us (fun () -> List.iter f items) in
      let total = total +. us and rounds = rounds + 1 in
      if total < 20_000.0 && rounds < 1000 then go rounds total
      else total /. float_of_int (rounds * n)
    in
    go 0 0.0

let layers_serve store_dir file =
  let frames = read_lines file in
  let decode_us =
    per_item_us frames (fun l -> ignore (Serve.Protocol.parse_frame l))
  in
  let calls =
    List.filter_map
      (fun l ->
        match Serve.Protocol.parse_frame l with
        | Ok r -> Some r
        | Error _ -> None)
      frames
  in
  let store = Some (open_ro store_dir) in
  let method_of (r : Serve.Protocol.request) =
    Serve.Protocol.method_name r.call
  in
  let methods = List.sort_uniq compare (List.map method_of calls) in
  let per_method =
    List.map
      (fun m ->
        let mine = List.filter (fun r -> method_of r = m) calls in
        let sample = spread_sample 24 mine in
        let timed =
          List.map
            (fun (r : Serve.Protocol.request) ->
              time_us (fun () -> Serve.Engine.run_call ?store r.call))
            sample
        in
        let engine_us = median (List.map fst timed) in
        let encode_us =
          per_item_us (List.map snd timed) (fun p ->
              ignore (Serve.Protocol.ok_frame ~id:(J.Num 0.0) p))
        in
        ( m,
          J.Obj
            [
              ("requests", num (float_of_int (List.length mine)));
              ("engine_us", num engine_us);
              ("encode_us", num encode_us);
            ] ))
      methods
  in
  let st = Option.get store in
  let records = store_records st in
  let find_us = find_cost st records in
  Store.close st;
  let open_ms =
    median
      (List.init 5 (fun _ ->
           let us, s = time_us (fun () -> open_ro store_dir) in
           Store.close s;
           us /. 1e3))
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("decode_us", num decode_us);
            ("methods", J.Obj per_method);
            ("store_find_us", num find_us);
            ("store_open_ms", num open_ms);
            ("store_records", num (float_of_int (List.length records)));
          ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "explore"; file ] -> explore_mode file
  | [ "yield"; file ] -> yield_mode file
  | [ "serve"; store; file ] -> serve_mode store file
  | "layers-explore" :: file :: scratch :: stores ->
    layers_explore file scratch stores
  | [ "layers-serve"; store; file ] -> layers_serve store file
  | _ ->
    prerr_endline
      "usage: oracle (explore FILE | yield FILE | serve STORE FILE | \
       layers-explore FILE SCRATCH STORE... | layers-serve STORE FILE)";
    exit 2
