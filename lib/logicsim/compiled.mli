(** The event-driven gate-level simulator with inertial delays, standing
    in for the paper's timing-annotated ModelSIM runs. Gate delays come
    from {!Netlist.Cell.delay}, so unequal path depths glitch as they do
    in the paper's diagonally pipelined multipliers.

    {!compile} lowers a {!Netlist.Circuit.t} once into a {!static}:
    per-cell kind codes, CSR (offset + flat index) arrays for cell inputs,
    cell outputs (with the per-output delay alongside) and per-net
    combinational fanout, the driving cell of every net, the flip-flop
    list for {!clock_tick} and the power-up schedule. The event loop then
    touches only these arrays plus [Bytes.t] value planes and the
    {!Calendar}, and allocates nothing per event. The differential suite
    holds it bitwise equal (serial numbers, tie-breaks, toggle counts,
    settled values) to the original boxed kernel, a test-only oracle,
    across the whole multiplier catalog.

    Toggle accounting: a committed 0↔1 transition on a cell's output
    increments that cell's counter (X resolutions are not counted). The
    inertial model cancels a pending transition when a newer evaluation
    reverts it before it commits — pulses shorter than the gate delay are
    swallowed, longer ones propagate as glitches.

    Logic values are coded [0 = Zero], [1 = One], [2 = X] (and [3 = no
    pending transition] in the pending plane). *)

(** {1 Compiled circuit} *)

type static = {
  circuit : Netlist.Circuit.t;  (** The source netlist (for names/VCD). *)
  n_nets : int;
  n_cells : int;
  kind : int array;  (** Per cell: {!code_of_kind} of its library kind. *)
  in_off : int array;  (** Cell inputs CSR: spans into [in_net]. *)
  in_net : int array;
  out_off : int array;  (** Cell outputs CSR: spans into [out_net]. *)
  out_net : int array;
  out_delay : float array;  (** Propagation delay, aligned with [out_net]. *)
  fan_off : int array;
      (** Per-net combinational fanout CSR: spans into [fan_cell]. Reader
          order (and multiplicity) matches [Circuit.fanout], with
          sequential readers dropped — the event loop never evaluates
          them. *)
  fan_cell : int array;
  driver : int array;  (** Per net: driving cell id, [-1] for inputs. *)
  dffs : int array;  (** Flip-flop cell ids, ascending. *)
  dff_init_code : int array;  (** Power-up Q value code, aligned. *)
  init_net : int array;
      (** Power-up schedule (ties and flip-flop Qs) in cell order. *)
  init_code : int array;
  pis : int array;  (** Primary inputs in declaration order. *)
  countable : int;  (** Cells that count towards activity (non-ties). *)
  topo : int array Lazy.t;
      (** Combinational cells in dependency order (for the zero-delay
          engines; forced on first use). *)
}

val code_of_kind : Netlist.Cell.kind -> int
val code_of_logic : Netlist.Logic.value -> int
val logic_of_code : int -> Netlist.Logic.value

val compile : Netlist.Circuit.t -> static
(** Lower the circuit. Does not validate — {!create} runs
    {!Netlist.Check.assert_well_formed} first, like the reference kernel. *)

(** {1 Event calendar} *)

(** Bucket calendar of timed integer payloads: the queue the event kernel
    schedules through.

    The kernel only ever holds a handful of {e distinct} event times at
    once (gate delays span a short horizon), so instead of a comparison
    heap the calendar keeps a short sorted [float array] of distinct
    times, each with a FIFO chain of nodes stored in flat [int] arrays:
    popping is O(1) with no sift, pushing is a short scan from the back
    of the sorted array, and steady-state operation never allocates
    (popped nodes go on a free list; {!clear} frees them all in O(1)).

    Pop order is the (time, insertion order) total order: entries at
    bit-identical times drain FIFO, buckets drain in ascending time order,
    and a time that reappears after its bucket drained sorts back into
    place. Times must not be NaN. Popping
    deposits the entry into three scratch cells read with
    {!top_time}/{!top_a}/{!top_b} instead of returning a tuple. *)
module Calendar : sig
  type t

  val create : unit -> t

  val length : t -> int
  val is_empty : t -> bool

  val clear : t -> unit
  (** Drop every entry (capacity is kept). *)

  val push : t -> time:float -> a:int -> b:int -> unit
  (** Schedule payload words [a] and [b] at [time]. *)

  val pop : t -> bool
  (** Remove the earliest entry, exposing it through {!top_time},
      {!top_a} and {!top_b}; [false] when the calendar is empty (scratch
      cells are then stale). *)

  val top_time : t -> float
  val top_a : t -> int
  val top_b : t -> int
  (** The entry removed by the last successful {!pop}. *)

  val peek_time : t -> float option
  (** Earliest scheduled time without removing the entry. *)
end

(** {1 Event-driven kernel} *)

type t

val create : Netlist.Circuit.t -> t
(** Compile, initialise ties and flip-flops, settle, zero the toggle
    counters. @raise Failure on a malformed circuit. *)

val of_static : static -> t
(** Fresh simulation state over an existing compilation. *)

val static : t -> static
val circuit : t -> Netlist.Circuit.t
val now : t -> float

val value : t -> Netlist.Circuit.net -> Netlist.Logic.value
val set_input : t -> Netlist.Circuit.net -> Netlist.Logic.value -> unit
(** Schedule a primary-input change at the current time.
    @raise Invalid_argument if the net is not a primary input. *)

val settle : ?event_limit:int -> t -> unit
(** Run the event loop until quiescent; advances [now] to the last event.
    @raise Failure if [event_limit] (default 10 million) is exceeded —
    indicates oscillation. *)

val clock_tick : t -> unit
(** Synchronous clock edge: samples every flip-flop's D simultaneously and
    schedules Q updates after the clk→q delay. *)

val data_cycle : t -> ticks:int -> unit
(** The rest of one data cycle once its stimulus is applied: {!settle},
    then [ticks] times a {!clock_tick} followed by a {!settle}. *)

val cell_toggles : t -> int array
val cell_toggles_into : t -> int array -> unit
(** Copy the per-cell toggle counters into a caller-owned buffer
    (length [n_cells]) without allocating. *)

val total_toggles : t -> int
val reset_toggles : t -> unit
val snapshot_values : t -> Netlist.Logic.value array

val events_processed : t -> int
(** Committed events since creation (monotonic; not reset by
    {!reset_toggles}). *)

val countable_cells : t -> int
(** Hoisted activity denominator: cells that are not ties. *)

val has_dffs : t -> bool

(** {1 Incremental necessary-transition accounting}

    The kernel tracks which driven nets committed since the last baseline,
    so per-cycle necessary-transition counting costs O(nets touched) with
    zero allocation instead of a full-circuit scan against a fresh
    snapshot. *)

val snapshot_baseline : t -> unit
(** Record the current settled values as the comparison baseline and clear
    the touched-net set. *)

val necessary_transitions : t -> int
(** Number of driven nets whose settled value changed 0↔1 since the
    baseline (X resolutions are free), then re-baseline. *)
