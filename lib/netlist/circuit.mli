(** Mutable gate-level netlist builder and read-only accessors.

    Nets are integer handles; each net has at most one driver (a cell output
    or a primary input). Cells are created with fresh output nets, so a
    well-formed circuit is correct by construction; {!Check} verifies the
    remaining global properties (no floating inputs, no combinational
    cycles). *)

type net = int
type cell_id = int

type cell = {
  id : cell_id;
  kind : Cell.kind;
  inputs : net array;
  outputs : net array;
}

type t

val create : ?expect_cells:int -> ?expect_nets:int -> string -> t
(** The optional counts are allocation hints for the cell/net vectors —
    generator frames that know the rough cell count of what they are
    about to build (e.g. [Multipliers.Registered.build]) pass them to
    skip the doubling-growth copies. Any value is behaviourally
    equivalent to the default. *)

val name : t -> string

(** {1 Construction} *)

val add_input : t -> string -> net
(** Declare a primary input. *)

val fresh_net : t -> string -> net
(** Declare a named net with no driver. The builder never needs this —
    {!add_cell} creates its own output nets — but netlist importers and
    lint fixtures do: reading a fresh net that is never subsequently
    driven is the one way to construct the undriven-net defect that
    {!Check} (and [Analysis.Netlist_rules]) look for. *)

val add_input_bus : t -> string -> int -> net array
(** [add_input_bus t "a" 16] declares nets a\[0\]..a\[15\] (LSB first). *)

val add_cell : t -> Cell.kind -> net array -> net array
(** Instantiate a cell; fresh output nets are created and returned.
    @raise Invalid_argument on an arity mismatch or an undriven input. *)

val add_gate : t -> Cell.kind -> net array -> net
(** Single-output convenience wrapper over {!add_cell}. *)

val add_dff : ?init:Logic.value -> t -> net -> net
(** Flip-flop with power-up value [init] (default [Zero]); returns Q. *)

val tie0 : t -> net
val tie1 : t -> net
(** Constant nets (one shared tie cell per polarity per circuit). *)

val mark_output : t -> net -> string -> unit
(** Declare a primary output. *)

val mark_output_bus : t -> net array -> string -> unit

val rewire_input : t -> cell_id -> int -> net -> unit
(** [rewire_input t cell slot net] re-connects one cell input — the hook used
    by retiming passes (pipeline-register insertion). The net must exist.
    @raise Invalid_argument on a bad slot or net handle. *)

(** {1 Accessors} *)

val cell_count : t -> int
val net_count : t -> int

val get_cell : t -> cell_id -> cell
val iter_cells : (cell -> unit) -> t -> unit
val fold_cells : ('acc -> cell -> 'acc) -> 'acc -> t -> 'acc
val cells : t -> cell list
val primary_inputs : t -> net list
val primary_outputs : t -> (net * string) list
val find_output_bus : t -> string -> net array
(** Primary-output nets registered as [name\[i\]], LSB first.
    @raise Not_found if no such bus exists. *)

val net_name : t -> net -> string
val driver : t -> net -> (cell_id * int) option
(** Driving cell and output index, or [None] for a primary input. *)

val is_primary_input : t -> net -> bool
val fanout : t -> (cell_id * int) list array
(** For each net, the (cell, input index) pairs reading it. O(cells);
    recomputed on each call — cache at simulation setup. *)

val dff_init : t -> cell_id -> Logic.value
(** Power-up value of a {!Cell.Dff} (default [Zero] for other kinds). *)
