module C = Netlist.Circuit
module Cell = Netlist.Cell
module Logic = Netlist.Logic

(* Value codes. 0/1/2 = Zero/One/X; 3 marks "no pending transition" in the
   pending plane. Kind codes follow [code_of_kind] below. *)

let code_of_logic = function Logic.Zero -> 0 | Logic.One -> 1 | Logic.X -> 2
let logic_of_code = function 0 -> Logic.Zero | 1 -> Logic.One | _ -> Logic.X

let code_of_kind = function
  | Cell.Tie0 -> 0
  | Cell.Tie1 -> 1
  | Cell.Inv -> 2
  | Cell.Buf -> 3
  | Cell.Nand2 -> 4
  | Cell.Nor2 -> 5
  | Cell.And2 -> 6
  | Cell.Or2 -> 7
  | Cell.Xor2 -> 8
  | Cell.Xnor2 -> 9
  | Cell.Mux2 -> 10
  | Cell.Half_adder -> 11
  | Cell.Full_adder -> 12
  | Cell.Dff -> 13

type static = {
  circuit : C.t;
  n_nets : int;
  n_cells : int;
  kind : int array;
  in_off : int array;
  in_net : int array;
  out_off : int array;
  out_net : int array;
  out_delay : float array;
  fan_off : int array;
  fan_cell : int array;
  driver : int array;
  dffs : int array;
  dff_init_code : int array;
  init_net : int array;
  init_code : int array;
  pis : int array;
  countable : int;
  topo : int array Lazy.t;
}

let compile circuit =
  let n_cells = C.cell_count circuit in
  let n_nets = C.net_count circuit in
  let kind = Array.make n_cells 0 in
  let in_off = Array.make (n_cells + 1) 0 in
  let out_off = Array.make (n_cells + 1) 0 in
  C.iter_cells
    (fun cell ->
      kind.(cell.id) <- code_of_kind cell.kind;
      in_off.(cell.id + 1) <- Array.length cell.inputs;
      out_off.(cell.id + 1) <- Array.length cell.outputs)
    circuit;
  for i = 1 to n_cells do
    in_off.(i) <- in_off.(i) + in_off.(i - 1);
    out_off.(i) <- out_off.(i) + out_off.(i - 1)
  done;
  let in_net = Array.make in_off.(n_cells) 0 in
  let out_net = Array.make out_off.(n_cells) 0 in
  let out_delay = Array.make out_off.(n_cells) 0.0 in
  let driver = Array.make n_nets (-1) in
  C.iter_cells
    (fun cell ->
      Array.iteri
        (fun i n -> in_net.(in_off.(cell.id) + i) <- n)
        cell.inputs;
      Array.iteri
        (fun o n ->
          out_net.(out_off.(cell.id) + o) <- n;
          out_delay.(out_off.(cell.id) + o) <- Cell.delay cell.kind ~output:o;
          driver.(n) <- cell.id)
        cell.outputs)
    circuit;
  (* Combinational fanout in the exact reader order (and multiplicity) of
     [Circuit.fanout] — the commit loop must evaluate readers in the same
     sequence as the reference kernel for serial numbers and queue
     tie-breaks to line up bitwise. *)
  let raw_fanout = C.fanout circuit in
  let fan_off = Array.make (n_nets + 1) 0 in
  for n = 0 to n_nets - 1 do
    let comb_readers =
      List.fold_left
        (fun acc (reader, _) ->
          if kind.(reader) = 13 then acc else acc + 1)
        0 raw_fanout.(n)
    in
    fan_off.(n + 1) <- fan_off.(n) + comb_readers
  done;
  let fan_cell = Array.make fan_off.(n_nets) 0 in
  for n = 0 to n_nets - 1 do
    let slot = ref fan_off.(n) in
    List.iter
      (fun (reader, _) ->
        if kind.(reader) <> 13 then begin
          fan_cell.(!slot) <- reader;
          incr slot
        end)
      raw_fanout.(n)
  done;
  let dff_list = ref [] and init_list = ref [] and countable = ref 0 in
  C.iter_cells
    (fun cell ->
      (match cell.kind with
      | Cell.Tie0 -> init_list := (cell.outputs.(0), 0) :: !init_list
      | Cell.Tie1 -> init_list := (cell.outputs.(0), 1) :: !init_list
      | Cell.Dff ->
        dff_list := cell.id :: !dff_list;
        init_list :=
          (cell.outputs.(0), code_of_logic (C.dff_init circuit cell.id))
          :: !init_list
      | Cell.Inv | Cell.Buf | Cell.Nand2 | Cell.Nor2 | Cell.And2 | Cell.Or2
      | Cell.Xor2 | Cell.Xnor2 | Cell.Mux2 | Cell.Half_adder
      | Cell.Full_adder ->
        ());
      match cell.kind with
      | Cell.Tie0 | Cell.Tie1 -> ()
      | _ -> incr countable)
    circuit;
  let dffs = Array.of_list (List.rev !dff_list) in
  let dff_init_code =
    Array.map
      (fun id -> code_of_logic (C.dff_init circuit id))
      dffs
  in
  let inits = List.rev !init_list in
  {
    circuit;
    n_nets;
    n_cells;
    kind;
    in_off;
    in_net;
    out_off;
    out_net;
    out_delay;
    fan_off;
    fan_cell;
    driver;
    dffs;
    dff_init_code;
    init_net = Array.of_list (List.map fst inits);
    init_code = Array.of_list (List.map snd inits);
    pis = Array.of_list (C.primary_inputs circuit);
    countable = !countable;
    topo =
      lazy (Array.of_list (Netlist.Topo.combinational circuit));
  }

(* The event calendar. Event times are sums of a few distinct positive
   gate delays, so only a handful of *distinct* times are pending at once
   (gate delays span a short horizon — measured ≤ 16 distinct times live
   against several hundred queued events on a 16-bit Wallace tree). The
   calendar therefore keeps a short sorted array of distinct-time buckets,
   not a comparison heap: pop is O(1) with no sift, and push is a short
   scan from the back of the sorted array, since new events carry the
   latest times. Each bucket is a FIFO chain of nodes, and a node is a
   slot of three flat [int] arrays (payload words and next link), so
   neither a push nor a pop allocates or writes a pointer; popped nodes go
   on a free list.

   The pop order is exactly the (time, insertion order) total order of a
   comparison heap: entries within one bucket share identical float bits
   and drain FIFO (= insertion order), buckets drain in ascending float
   order, and a retired time that reappears is re-inserted at its sorted
   position ahead of every later-time bucket. Times must be totally
   ordered (no NaN) — event times are finite sums of positive delays.

   It lives in this compilation unit, next to the kernel, because the dev
   profile builds with [-opaque]: a call into another module is never
   inlined, and a float crossing such a call is boxed. The kernel's hot
   path ([push_after], [pop]) passes only ints: the calendar reads the
   current time and the output delay itself, and the popped time lands
   in a flat [float array] cell. *)
module Calendar = struct
  type t = {
    now : float array;  (* length 1: the current time, for [push_after] *)
    delay : float array;  (* [push_after]'s delay table *)
    (* Sorted ascending distinct times; the live slice is
       [first, first + nb). *)
    mutable bt : float array;
    mutable bhead : int array;  (* per bucket: oldest node *)
    mutable btail : int array;  (* per bucket: newest node *)
    mutable first : int;
    mutable nb : int;
    (* Nodes: payload words and the next node of the same bucket ([-1]
       ends the chain, and the free list). *)
    mutable node_a : int array;
    mutable node_b : int array;
    mutable next : int array;
    mutable free : int;  (* free-list head, [-1] when empty *)
    mutable fresh : int;  (* nodes [fresh ..] unused since the last clear *)
    mutable len : int;
    top_time : float array;
        (* length 1: flat float storage, so depositing the popped time never
           allocates a box (a mutable float field in this mixed record
           would) *)
    mutable top_a : int;
    mutable top_b : int;
  }

  let initial_nodes = 64

  let make ~now ~delay =
    {
      now;
      delay;
      bt = [||];
      bhead = [||];
      btail = [||];
      first = 0;
      nb = 0;
      node_a = Array.make initial_nodes 0;
      node_b = Array.make initial_nodes 0;
      next = Array.make initial_nodes (-1);
      free = -1;
      fresh = 0;
      len = 0;
      top_time = [| 0.0 |];
      top_a = 0;
      top_b = 0;
    }

  let create () = make ~now:[| 0.0 |] ~delay:[||]
  let length c = c.len
  let is_empty c = c.len = 0
  let top_time c = Array.unsafe_get c.top_time 0
  let top_a c = c.top_a
  let top_b c = c.top_b
  let peek_time c = if c.len = 0 then None else Some c.bt.(c.first)

  (* Every node becomes fresh again: no walk over the chains. *)
  let clear c =
    c.first <- 0;
    c.nb <- 0;
    c.free <- -1;
    c.fresh <- 0;
    c.len <- 0

  let grow_nodes c =
    let cap = Array.length c.node_a in
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    c.node_a <- grow c.node_a 0;
    c.node_b <- grow c.node_b 0;
    c.next <- grow c.next (-1)

  let alloc_node c =
    let k = c.free in
    if k >= 0 then begin
      c.free <- Array.unsafe_get c.next k;
      k
    end
    else begin
      let k = c.fresh in
      if k = Array.length c.node_a then grow_nodes c;
      c.fresh <- k + 1;
      k
    end

  (* Guarantee a free slot at the end of the bucket table: slide the live
     slice back to the front when only the tail is exhausted, double
     otherwise. *)
  let ensure_slot c =
    let cap = Array.length c.bt in
    if c.first + c.nb = cap then
      if c.first > 0 then begin
        Array.blit c.bt c.first c.bt 0 c.nb;
        Array.blit c.bhead c.first c.bhead 0 c.nb;
        Array.blit c.btail c.first c.btail 0 c.nb;
        c.first <- 0
      end
      else begin
        let ncap = max 16 (2 * cap) in
        let bt = Array.make ncap 0.0 in
        let bhead = Array.make ncap 0 and btail = Array.make ncap 0 in
        Array.blit c.bt 0 bt 0 c.nb;
        Array.blit c.bhead 0 bhead 0 c.nb;
        Array.blit c.btail 0 btail 0 c.nb;
        c.bt <- bt;
        c.bhead <- bhead;
        c.btail <- btail
      end

  (* Inlined into both pushes, so [time] stays an unboxed local. *)
  let[@inline] insert c time a b =
    let node = alloc_node c in
    Array.unsafe_set c.node_a node a;
    Array.unsafe_set c.node_b node b;
    Array.unsafe_set c.next node (-1);
    c.len <- c.len + 1;
    ensure_slot c;
    let first = c.first in
    let last = first + c.nb - 1 in
    let bt = c.bt in
    (* Scan from the back: pushed times never precede the front bucket
       (delays are strictly positive) and are usually among the latest. *)
    let i = ref last in
    while !i >= first && Array.unsafe_get bt !i > time do
      decr i
    done;
    if !i >= first && Array.unsafe_get bt !i = time then begin
      Array.unsafe_set c.next (Array.unsafe_get c.btail !i) node;
      Array.unsafe_set c.btail !i node
    end
    else begin
      let pos = !i + 1 in
      let tail = last - pos + 1 in
      if tail > 0 then begin
        Array.blit bt pos bt (pos + 1) tail;
        Array.blit c.bhead pos c.bhead (pos + 1) tail;
        Array.blit c.btail pos c.btail (pos + 1) tail
      end;
      Array.unsafe_set bt pos time;
      Array.unsafe_set c.bhead pos node;
      Array.unsafe_set c.btail pos node;
      c.nb <- c.nb + 1
    end

  let push c ~time ~a ~b = insert c time a b

  (* Schedule at the current time plus [delay.(k)]. *)
  let push_after c k ~a ~b =
    insert c
      (Array.unsafe_get c.now 0 +. Array.unsafe_get c.delay k)
      a b

  let pop c =
    if c.len = 0 then false
    else begin
      let i = c.first in
      let node = Array.unsafe_get c.bhead i in
      Array.unsafe_set c.top_time 0 (Array.unsafe_get c.bt i);
      c.top_a <- Array.unsafe_get c.node_a node;
      c.top_b <- Array.unsafe_get c.node_b node;
      let next = Array.unsafe_get c.next node in
      Array.unsafe_set c.next node c.free;
      c.free <- node;
      c.len <- c.len - 1;
      if next < 0 then begin
        c.first <- i + 1;
        c.nb <- c.nb - 1;
        if c.nb = 0 then c.first <- 0
      end
      else Array.unsafe_set c.bhead i next;
      true
    end
end

(* Flushed once per [settle] from per-call deltas, exactly like the
   reference kernel (the names resolve to the same Obs counters). *)
let c_events = Obs.Counter.make "sim.events"
let c_gate_evals = Obs.Counter.make "sim.gate_evals"
let c_settles = Obs.Counter.make "sim.settles"

type t = {
  st : static;
  (* Aliases of [st]'s hot arrays: one load instead of two ([t.st] then the
     field) on every access inside the event loop. *)
  kind : int array;
  in_off : int array;
  in_net : int array;
  out_off : int array;
  out_net : int array;
  fan_off : int array;
  fan_cell : int array;
  driver : int array;
  values : Bytes.t;  (* per net: value code *)
  pending : Bytes.t;  (* per net: value code, 3 = none *)
  serials : int array;
  toggles : int array;
  cal : Calendar.t;
  before : Bytes.t;  (* per net: value at the last baseline *)
  mutable dirty : int array;  (* driven nets committed since baseline *)
  mutable n_dirty : int;
  dirty_mark : Bytes.t;
  time : float array;
      (* length 1: flat storage keeps the per-event time update
         allocation-free (a mutable float field in a mixed record boxes on
         every store). Shared with [cal], whose [push_after] reads it. *)
  mutable committed : int;
  mutable total : int;
  mutable evals : int;
}

let static t = t.st
let circuit t = t.st.circuit
let now t = Array.unsafe_get t.time 0
let countable_cells t = t.st.countable
let has_dffs t = Array.length t.st.dffs > 0

let bget b i = Char.code (Bytes.unsafe_get b i)
let bset b i v = Bytes.unsafe_set b i (Char.unsafe_chr v)

let value t net = logic_of_code (Char.code (Bytes.get t.values net))

let cell_toggles t = Array.copy t.toggles

let cell_toggles_into t buffer =
  if Array.length buffer <> t.st.n_cells then
    invalid_arg "Compiled.cell_toggles_into: buffer length mismatch";
  Array.blit t.toggles 0 buffer 0 t.st.n_cells

let total_toggles t = t.total

let reset_toggles t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  t.total <- 0

let snapshot_values t =
  Array.init t.st.n_nets (fun n -> logic_of_code (bget t.values n))

let events_processed t = t.committed

(* Three-valued ops on codes, mirroring [Netlist.Logic] case by case. *)
let lnot_c v = if v = 2 then 2 else 1 - v
let land_c a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else 2
let lor_c a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else 2
let lxor_c a b = if a = 2 || b = 2 then 2 else a lxor b

let mux_c d0 d1 sel =
  if sel = 0 then d0
  else if sel = 1 then d1
  else if d0 = d1 && d0 <> 2 then d0
  else 2

(* Majority: known as soon as two inputs agree. *)
let carry_c a b c =
  if (a = 1 && b = 1) || (a = 1 && c = 1) || (b = 1 && c = 1) then 1
  else if (a = 0 && b = 0) || (a = 0 && c = 0) || (b = 0 && c = 0) then 0
  else 2

(* Schedule a transition of [net] to [target] at [time], superseding any
   pending transition (inertial delay) — the reference [schedule], on
   codes. *)
let schedule t ~time net target =
  let pending = bget t.pending net in
  let projected = if pending <> 3 then pending else bget t.values net in
  if target <> projected then begin
    let serial = Array.unsafe_get t.serials net + 1 in
    Array.unsafe_set t.serials net serial;
    if target = bget t.values net then
      (* The pulse is reverted before committing: swallow it. *)
      bset t.pending net 3
    else begin
      bset t.pending net target;
      Calendar.push t.cal ~time ~a:((net lsl 2) lor target) ~b:serial
    end
  end

(* [schedule] for a cell output at the current time plus the delay of
   output [doo]. It takes no float: the calendar reads the current time
   and the delay table itself, so nothing is boxed per event. *)
let schedule_out t doo net target =
  let pending = bget t.pending net in
  let projected = if pending <> 3 then pending else bget t.values net in
  if target <> projected then begin
    let serial = Array.unsafe_get t.serials net + 1 in
    Array.unsafe_set t.serials net serial;
    if target = bget t.values net then bset t.pending net 3
    else begin
      bset t.pending net target;
      Calendar.push_after t.cal doo ~a:((net lsl 2) lor target) ~b:serial
    end
  end

(* Each arity reads its operands and schedules its outputs inline — no
   local [out]/[inp] helpers, which the non-flambda compiler would allocate
   as closures on every evaluation. The outputs launch from the current
   time [t.time]. *)
let eval_cell t id =
  t.evals <- t.evals + 1;
  let io = Array.unsafe_get t.in_off id in
  let oo = Array.unsafe_get t.out_off id in
  let values = t.values in
  let in_net = t.in_net and out_net = t.out_net in
  match Array.unsafe_get t.kind id with
  | 2 (* Inv *) ->
    let a = bget values (Array.unsafe_get in_net io) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (lnot_c a)
  | 3 (* Buf *) ->
    let a = bget values (Array.unsafe_get in_net io) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) a
  | 4 (* Nand2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo)
      (lnot_c (land_c a b))
  | 5 (* Nor2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo)
      (lnot_c (lor_c a b))
  | 6 (* And2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (land_c a b)
  | 7 (* Or2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (lor_c a b)
  | 8 (* Xor2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (lxor_c a b)
  | 9 (* Xnor2 *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo)
      (lnot_c (lxor_c a b))
  | 10 (* Mux2: inputs d0; d1; sel *) ->
    let d0 = bget values (Array.unsafe_get in_net io)
    and d1 = bget values (Array.unsafe_get in_net (io + 1))
    and sel = bget values (Array.unsafe_get in_net (io + 2)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (mux_c d0 d1 sel)
  | 11 (* Half_adder *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo) (lxor_c a b);
    schedule_out t (oo + 1)
      (Array.unsafe_get out_net (oo + 1))
      (land_c a b)
  | 12 (* Full_adder *) ->
    let a = bget values (Array.unsafe_get in_net io)
    and b = bget values (Array.unsafe_get in_net (io + 1))
    and c = bget values (Array.unsafe_get in_net (io + 2)) in
    schedule_out t oo
      (Array.unsafe_get out_net oo)
      (lxor_c (lxor_c a b) c);
    schedule_out t (oo + 1)
      (Array.unsafe_get out_net (oo + 1))
      (carry_c a b c)
  | _ (* ties and flip-flops never reach the evaluator *) -> ()

let mark_dirty t net =
  if bget t.dirty_mark net = 0 then begin
    bset t.dirty_mark net 1;
    let n = t.n_dirty in
    if n = Array.length t.dirty then begin
      let grown = Array.make (max 64 (2 * n)) 0 in
      Array.blit t.dirty 0 grown 0 n;
      t.dirty <- grown
    end;
    Array.unsafe_set t.dirty n net;
    t.n_dirty <- n + 1
  end

let commit t net target =
  let old_value = bget t.values net in
  bset t.values net target;
  bset t.pending net 3;
  t.committed <- t.committed + 1;
  let driver = Array.unsafe_get t.driver net in
  if driver >= 0 then begin
    (* Count a real 0<->1 toggle against the driving cell ([lxor = 1] holds
       exactly for the {0,1} pairs — X resolutions are not toggles). *)
    if old_value lxor target = 1 then begin
      Array.unsafe_set t.toggles driver (Array.unsafe_get t.toggles driver + 1);
      t.total <- t.total + 1
    end;
    mark_dirty t net
  end;
  let lo = Array.unsafe_get t.fan_off net
  and hi = Array.unsafe_get t.fan_off (net + 1) in
  for slot = lo to hi - 1 do
    eval_cell t (Array.unsafe_get t.fan_cell slot)
  done

let settle ?(event_limit = 10_000_000) t =
  let committed0 = t.committed and evals0 = t.evals in
  let processed = ref 0 in
  let cal = t.cal in
  let serials = t.serials and pending = t.pending in
  let continue = ref true in
  while !continue do
    if not (Calendar.pop cal) then continue := false
    else begin
      let a = cal.top_a in
      let net = a lsr 2 and target = a land 3 in
      if cal.top_b = Array.unsafe_get serials net && bget pending net <> 3
      then begin
        incr processed;
        if !processed > event_limit then
          failwith "Compiled.settle: event limit exceeded (oscillation?)";
        (* [Float.max] without the call: times are never NaN here. Every
           queued time is at least [t.time] (pushes launch from it with
           non-negative delays), so [t.time] becomes the popped time —
           the time [commit] evaluates the readers at. *)
        let time = Array.unsafe_get cal.top_time 0 in
        if time > Array.unsafe_get t.time 0 then
          Array.unsafe_set t.time 0 time;
        commit t net target
      end
    end
  done;
  if Obs.enabled () then begin
    Obs.Counter.incr c_settles;
    Obs.Counter.add c_events (t.committed - committed0);
    Obs.Counter.add c_gate_evals (t.evals - evals0)
  end

let set_input t net v =
  if net < 0 || net >= t.st.n_nets || t.st.driver.(net) >= 0 then
    invalid_arg "Compiled.set_input: not a primary input";
  schedule t ~time:(Array.unsafe_get t.time 0) net (code_of_logic v)

let clock_tick t =
  (* Sample every D simultaneously against pre-edge values, then launch Q.
     Descending id order matches the reference kernel's prepend-built
     sample list, keeping queue tie-breaks identical. The launch time is
     hoisted: one float for the whole edge instead of one per flip-flop. *)
  let dffs = t.st.dffs in
  let time = Array.unsafe_get t.time 0 +. Cell.clk_to_q in
  for k = Array.length dffs - 1 downto 0 do
    let id = Array.unsafe_get dffs k in
    let d =
      bget t.values (Array.unsafe_get t.in_net (Array.unsafe_get t.in_off id))
    in
    schedule t ~time
      (Array.unsafe_get t.out_net (Array.unsafe_get t.out_off id))
      d
  done

let data_cycle t ~ticks =
  settle t;
  for _ = 1 to ticks do
    clock_tick t;
    settle t
  done

let snapshot_baseline t =
  Bytes.blit t.values 0 t.before 0 t.st.n_nets;
  for k = 0 to t.n_dirty - 1 do
    bset t.dirty_mark t.dirty.(k) 0
  done;
  t.n_dirty <- 0

let necessary_transitions t =
  let count = ref 0 in
  for k = 0 to t.n_dirty - 1 do
    let net = t.dirty.(k) in
    bset t.dirty_mark net 0;
    let old_value = bget t.before net and new_value = bget t.values net in
    if old_value <> new_value then begin
      if old_value < 2 && new_value < 2 then incr count;
      bset t.before net new_value
    end
  done;
  t.n_dirty <- 0;
  !count

let of_static st =
  let time = [| 0.0 |] in
  let t =
    {
      st;
      kind = st.kind;
      in_off = st.in_off;
      in_net = st.in_net;
      out_off = st.out_off;
      out_net = st.out_net;
      fan_off = st.fan_off;
      fan_cell = st.fan_cell;
      driver = st.driver;
      values = Bytes.make st.n_nets '\002' (* X *);
      pending = Bytes.make st.n_nets '\003' (* none *);
      serials = Array.make st.n_nets 0;
      toggles = Array.make st.n_cells 0;
      cal = Calendar.make ~now:time ~delay:st.out_delay;
      before = Bytes.make st.n_nets '\002';
      dirty = [||];
      n_dirty = 0;
      dirty_mark = Bytes.make st.n_nets '\000';
      time;
      committed = 0;
      total = 0;
      evals = 0;
    }
  in
  (* Power-up: ties drive their constants, flip-flops take their init
     values; everything else resolves from there. *)
  for i = 0 to Array.length st.init_net - 1 do
    schedule t ~time:0.0 st.init_net.(i) st.init_code.(i)
  done;
  settle t;
  reset_toggles t;
  t

let create circuit =
  Netlist.Check.assert_well_formed circuit;
  of_static (compile circuit)

