module Bus = Logicsim.Bus
module Compiled = Logicsim.Compiled

(* Compile each spec's netlist to the flat-array form once and stamp out
   simulator instances from it — repeated measurements (benchmark
   iterations, pool tasks) skip the well-formedness check and the lowering.
   Keyed by spec name with a physical-identity check on the circuit so a
   rebuilt spec never reuses a stale compilation; the mutex keeps the table
   safe under [Parallel.Pool]. *)
let static_cache : (string, Compiled.static) Hashtbl.t = Hashtbl.create 16
let static_cache_mutex = Mutex.create ()

let compiled_static (spec : Spec.t) =
  Mutex.protect static_cache_mutex (fun () ->
      match Hashtbl.find_opt static_cache spec.name with
      | Some st when st.Compiled.circuit == spec.circuit -> st
      | Some _ | None ->
        Netlist.Check.assert_well_formed spec.circuit;
        let st = Compiled.compile spec.circuit in
        Hashtbl.replace static_cache spec.name st;
        st)

let fresh_simulator (spec : Spec.t) = Compiled.of_static (compiled_static spec)

let compute (spec : Spec.t) sim x y =
  Bus.drive sim spec.a_bus x;
  Bus.drive sim spec.b_bus y;
  Compiled.data_cycle sim ~ticks:spec.latency_ticks;
  Bus.read_exn sim spec.p_bus

let check_pairs (spec : Spec.t) pairs =
  let sim = fresh_simulator spec in
  List.filter_map
    (fun (x, y) ->
      let got = compute spec sim x y in
      let expected = x * y in
      if got = expected then None else Some (x, y, expected, got))
    pairs

let check_random ?(seed = 42) (spec : Spec.t) ~samples =
  let rng = Numerics.Rng.create seed in
  let bound = 1 lsl spec.bits in
  let pairs =
    List.init samples (fun _ ->
        (Numerics.Rng.int rng bound, Numerics.Rng.int rng bound))
  in
  check_pairs spec pairs

let check_corners (spec : Spec.t) =
  let top = (1 lsl spec.bits) - 1 in
  let alternating = 0x5555 land top and alternating' = 0xAAAA land top in
  let values = [ 0; 1; top; alternating; alternating' ] in
  let pairs =
    List.concat_map (fun x -> List.map (fun y -> (x, y)) values) values
  in
  check_pairs spec pairs

type measured = {
  activity : float;
  glitch_ratio : float;
  toggles_per_cycle : float;
}

let measure_activity ?(seed = 7) ?(cycles = 160) (spec : Spec.t) =
  Obs.Span.with_ ~name:"sim.activity" ~attrs:[ ("arch", spec.name) ]
  @@ fun () ->
  let sim = fresh_simulator spec in
  let rng = Numerics.Rng.create seed in
  let drive =
    Logicsim.Activity.random_drive ~rng ~buses:[ spec.a_bus; spec.b_bus ]
  in
  let result =
    Logicsim.Activity.measure ~warmup:6
      ~ticks_per_cycle:spec.ticks_per_cycle ~cycles ~drive sim
  in
  {
    activity = result.activity;
    glitch_ratio = result.glitch_ratio;
    toggles_per_cycle = result.toggles_per_cycle;
  }

let measure_activity_many ?seed ?cycles specs =
  (* One simulator (and one stimulus generator, seeded per spec exactly as
     in the sequential path) per task: the simulator stays single-owner and
     the per-spec result is identical to a sequential [measure_activity]
     call whatever the pool size. *)
  Parallel.Pool.map (fun spec -> measure_activity ?seed ?cycles spec) specs
