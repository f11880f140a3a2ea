type result = {
  activity : float;
  toggles_per_cycle : float;
  glitch_ratio : float;
  cycles : int;
  per_cell : float array;
}

type drive = Compiled.t -> cycle:int -> unit

(* Necessary-transition accounting: one transition per driven net whose
   settled value changed 0<->1 across a data cycle; anything beyond is
   glitch. Two allocation-free strategies, selected per circuit (the
   kernel-selection rule of DESIGN.md par.10):

   - Sequential circuits compare against a baseline the kernel maintains
     incrementally — only nets that actually committed since the last
     cycle are inspected.
   - Combinational circuits batch the settled primary-input values of up
     to 62 consecutive cycles into the lanes of the bit-parallel engine;
     one zero-delay pass then yields every cycle's count from word ops.
     Settled event-kernel values equal the zero-delay fixpoint on acyclic
     logic, so the two strategies agree bitwise. *)
type batched = { bp : Bitpar.t; pis : int array; mutable pending : int }
type accounting = Incremental | Batched of batched

let start_accounting sim =
  if Compiled.has_dffs sim then begin
    Compiled.snapshot_baseline sim;
    Incremental
  end
  else begin
    let st = Compiled.static sim in
    let bp = Bitpar.create st in
    let pis = st.Compiled.pis in
    (* Lane 0 carries the pre-measurement settled state — the baseline the
       first measured cycle is compared against. *)
    Array.iter
      (fun net -> Bitpar.set_input bp ~net ~lane:0 (Compiled.value sim net))
      pis;
    Batched { bp; pis; pending = 0 }
  end

let flush_batch b necessary_total =
  if b.pending > 0 then begin
    Bitpar.run b.bp;
    necessary_total :=
      !necessary_total + Bitpar.adjacent_necessary b.bp ~pairs:b.pending;
    (* The last settled state becomes the next batch's baseline. *)
    Bitpar.copy_lane b.bp ~src:b.pending ~dst:0;
    b.pending <- 0
  end

(* Record one settled data cycle with the chosen strategy. *)
let account_cycle acc sim necessary_total =
  match acc with
  | Incremental ->
    necessary_total := !necessary_total + Compiled.necessary_transitions sim
  | Batched b ->
    if b.pending = Bitpar.lanes - 1 then flush_batch b necessary_total;
    b.pending <- b.pending + 1;
    Array.iter
      (fun net ->
        Bitpar.set_input b.bp ~net ~lane:b.pending (Compiled.value sim net))
      b.pis

let finish_accounting acc necessary_total =
  match acc with
  | Incremental -> ()
  | Batched b -> flush_batch b necessary_total

(* Warm up and zero the counters, then return [run count], which measures
   the next [count] data cycles, and [finish], which assembles the result
   over every cycle measured so far: [measure] runs once, [measure_until]
   once per batch. *)
let measurement ~warmup ~ticks_per_cycle ~drive sim =
  let data_cycle cycle =
    drive sim ~cycle;
    Compiled.data_cycle sim ~ticks:ticks_per_cycle
  in
  for cycle = 0 to warmup - 1 do
    data_cycle cycle
  done;
  Compiled.reset_toggles sim;
  let acc = start_accounting sim in
  let necessary_total = ref 0 and measured = ref 0 in
  let run count =
    for i = 0 to count - 1 do
      data_cycle (warmup + !measured + i);
      account_cycle acc sim necessary_total
    done;
    measured := !measured + count
  in
  let finish () =
    finish_accounting acc necessary_total;
    let total = Compiled.total_toggles sim in
    let n = Compiled.countable_cells sim in
    let fcycles = float_of_int !measured in
    let toggles_per_cycle = float_of_int total /. fcycles in
    let glitch_ratio =
      if total = 0 then 0.0
      else float_of_int (total - !necessary_total) /. float_of_int total
    in
    {
      activity = toggles_per_cycle /. float_of_int (max 1 n);
      toggles_per_cycle;
      glitch_ratio = Float.max 0.0 glitch_ratio;
      cycles = !measured;
      per_cell =
        Array.map
          (fun toggles -> float_of_int toggles /. fcycles)
          (Compiled.cell_toggles sim);
    }
  in
  (run, finish)

let measure ?(warmup = 4) ?(ticks_per_cycle = 1) ~cycles ~drive sim =
  if cycles < 1 then invalid_arg "Activity.measure: cycles < 1";
  if ticks_per_cycle < 1 then
    invalid_arg "Activity.measure: ticks_per_cycle < 1";
  let run, finish = measurement ~warmup ~ticks_per_cycle ~drive sim in
  run cycles;
  finish ()

type converged = {
  result : result;
  relative_stderr : float;
  batches : int;
}

(* Standard error of the per-batch activities over their mean; infinite
   below two batches. *)
let relative_stderr = function
  | _ :: _ :: _ as xs ->
    let mean = Numerics.Stats.mean xs in
    if mean <= 0.0 then 0.0
    else
      Numerics.Stats.stddev xs /. sqrt (float_of_int (List.length xs)) /. mean
  | [ _ ] | [] -> infinity

let measure_until ?(warmup = 4) ?(ticks_per_cycle = 1) ?(batch = 40)
    ?(rel_tol = 0.02) ?(max_cycles = 2000) ~drive sim =
  if batch < 2 then invalid_arg "Activity.measure_until: batch < 2";
  if rel_tol <= 0.0 then invalid_arg "Activity.measure_until: rel_tol <= 0";
  let run, finish = measurement ~warmup ~ticks_per_cycle ~drive sim in
  let n = max 1 (Compiled.countable_cells sim) in
  let batch_activities = ref [] and batches = ref 0 in
  let run_batch () =
    let start_toggles = Compiled.total_toggles sim in
    run batch;
    incr batches;
    let batch_toggles = Compiled.total_toggles sim - start_toggles in
    batch_activities :=
      float_of_int batch_toggles /. float_of_int (batch * n)
      :: !batch_activities
  in
  run_batch ();
  while
    (not (relative_stderr !batch_activities < rel_tol))
    && (!batches + 1) * batch <= max_cycles
  do
    run_batch ()
  done;
  {
    result = finish ();
    relative_stderr = relative_stderr !batch_activities;
    batches = !batches;
  }

let random_drive ~rng ~buses =
  let drive sim ~cycle =
    ignore cycle;
    List.iter
      (fun bus ->
        let width = Array.length bus in
        let bound = if width >= 62 then max_int else 1 lsl width in
        Bus.drive sim bus (Numerics.Rng.int rng bound))
      buses
  in
  drive
