module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic

type event = { net : C.net; target : Logic.value; serial : int }

(* Flushed once per [settle] from per-call deltas, so the event loop itself
   carries no instrumentation at all and the disabled cost is a single
   branch per settle. The names resolve to the same Obs counters as the
   compiled kernel's — whichever kernel runs, the counts mean the same. *)
let c_events = Obs.Counter.make "sim.events"
let c_gate_evals = Obs.Counter.make "sim.gate_evals"
let c_settles = Obs.Counter.make "sim.settles"

type t = {
  circuit : C.t;
  fanout : (C.cell_id * int) list array;
  dffs : C.cell array;
      (* sequential cells in descending id order — the order the historical
         per-tick prepend-built list produced, so queue tie-breaks are
         unchanged *)
  dff_samples : Logic.value array;  (* pre-edge D values, reused per tick *)
  values : Logic.value array;
  pending : Logic.value option array;
  serials : int array;
  toggles : int array;  (* per cell *)
  queue : event Event_queue.t;
  mutable time : float;
  mutable committed : int;
  mutable total : int;
  mutable evals : int;  (* gate evaluations, like [committed] for events *)
}

let circuit t = t.circuit
let now t = t.time
let value t net = t.values.(net)
let cell_toggles t = Array.copy t.toggles
let total_toggles t = t.total
let reset_toggles t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  t.total <- 0

let snapshot_values t = Array.copy t.values
let events_processed t = t.committed

(* Schedule a transition of [net] to [target] at [time], superseding any
   pending transition (inertial delay). *)
let schedule t ~time net target =
  let projected =
    match t.pending.(net) with Some v -> v | None -> t.values.(net)
  in
  if not (Logic.equal target projected) then begin
    t.serials.(net) <- t.serials.(net) + 1;
    if Logic.equal target t.values.(net) then
      (* The pulse is reverted before committing: swallow it. *)
      t.pending.(net) <- None
    else begin
      t.pending.(net) <- Some target;
      Event_queue.push t.queue ~time
        { net; target; serial = t.serials.(net) }
    end
  end

let evaluate_cell t ~time (cell : C.cell) =
  t.evals <- t.evals + 1;
  let inputs = Array.map (fun n -> t.values.(n)) cell.inputs in
  let outputs = Cell.eval cell.kind inputs in
  Array.iteri
    (fun o net ->
      let delay = Cell.delay cell.kind ~output:o in
      schedule t ~time:(time +. delay) net outputs.(o))
    cell.outputs

let commit t ~time event =
  let old_value = t.values.(event.net) in
  t.values.(event.net) <- event.target;
  t.pending.(event.net) <- None;
  t.committed <- t.committed + 1;
  (* Count a real 0<->1 toggle against the driving cell. *)
  (match (old_value, event.target) with
  | Logic.Zero, Logic.One | Logic.One, Logic.Zero -> begin
    match C.driver t.circuit event.net with
    | Some (id, _) ->
      t.toggles.(id) <- t.toggles.(id) + 1;
      t.total <- t.total + 1
    | None -> ()
  end
  | (Logic.Zero | Logic.One | Logic.X), _ -> ());
  List.iter
    (fun (reader, _) ->
      let cell = C.get_cell t.circuit reader in
      if not (Cell.is_sequential cell.kind) then
        evaluate_cell t ~time cell)
    t.fanout.(event.net)

let settle ?(event_limit = 10_000_000) t =
  let committed0 = t.committed and evals0 = t.evals in
  let processed = ref 0 in
  let rec loop () =
    match Event_queue.pop t.queue with
    | None -> ()
    | Some (time, event) ->
      if event.serial = t.serials.(event.net) && t.pending.(event.net) <> None
      then begin
        incr processed;
        if !processed > event_limit then
          failwith "Reference.settle: event limit exceeded (oscillation?)";
        t.time <- Float.max t.time time;
        commit t ~time event
      end;
      loop ()
  in
  loop ();
  if Obs.enabled () then begin
    Obs.Counter.incr c_settles;
    Obs.Counter.add c_events (t.committed - committed0);
    Obs.Counter.add c_gate_evals (t.evals - evals0)
  end

let set_input t net v =
  if not (C.is_primary_input t.circuit net) then
    invalid_arg "Reference.set_input: not a primary input";
  schedule t ~time:t.time net v

let clock_tick t =
  (* Sample every D simultaneously against pre-edge values, then launch Q.
     The flip-flop list is precomputed at [create] instead of re-filtering
     every cell of the circuit on every tick. *)
  let n = Array.length t.dffs in
  for k = 0 to n - 1 do
    t.dff_samples.(k) <- t.values.(t.dffs.(k).inputs.(0))
  done;
  for k = 0 to n - 1 do
    schedule t ~time:(t.time +. Cell.clk_to_q) t.dffs.(k).outputs.(0)
      t.dff_samples.(k)
  done

let create circuit =
  Netlist.Check.assert_well_formed circuit;
  let nets = C.net_count circuit in
  let dffs =
    (* Prepending over the ascending cell iteration yields descending id
       order — the order the per-tick list historically produced. *)
    let acc = ref [] in
    C.iter_cells
      (fun cell -> if Cell.is_sequential cell.kind then acc := cell :: !acc)
      circuit;
    Array.of_list !acc
  in
  let t =
    {
      circuit;
      fanout = C.fanout circuit;
      dffs;
      dff_samples = Array.make (Array.length dffs) Logic.X;
      values = Array.make nets Logic.X;
      pending = Array.make nets None;
      serials = Array.make nets 0;
      toggles = Array.make (C.cell_count circuit) 0;
      queue = Event_queue.create ();
      time = 0.0;
      committed = 0;
      total = 0;
      evals = 0;
    }
  in
  (* Power-up: ties drive their constants, flip-flops take their init
     values; everything else resolves from there. *)
  C.iter_cells
    (fun cell ->
      match cell.kind with
      | Cell.Tie0 -> schedule t ~time:0.0 cell.outputs.(0) Logic.Zero
      | Cell.Tie1 -> schedule t ~time:0.0 cell.outputs.(0) Logic.One
      | Cell.Dff ->
        schedule t ~time:0.0 cell.outputs.(0) (C.dff_init circuit cell.id)
      | Cell.Inv | Cell.Buf | Cell.Nand2 | Cell.Nor2 | Cell.And2 | Cell.Or2
      | Cell.Xor2 | Cell.Xnor2 | Cell.Mux2 | Cell.Half_adder
      | Cell.Full_adder ->
        ())
    circuit;
  settle t;
  reset_toggles t;
  t
