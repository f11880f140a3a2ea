(** Per-cycle switching-energy traces.

    Activity condenses a whole run into one number; the trace keeps the
    per-data-cycle switched capacitance, exposing peak-to-average ratios
    and data-dependent power — useful for power-grid sizing and for seeing
    a sequential multiplier's burst pattern. *)

type cycle_record = {
  index : int;
  toggles : int;  (** Committed 0↔1 transitions in this data cycle. *)
  switched_cap : float;  (** Capacitance-weighted transitions, F. *)
  energy : float;  (** [switched_cap × Vdd²], J (at the given supply). *)
}

type t = {
  cycles : cycle_record list;  (** Chronological. *)
  vdd : float;
  average_energy : float;  (** J per data cycle. *)
  peak_energy : float;
  peak_to_average : float;
}

val record :
  ?warmup:int ->
  ?ticks_per_cycle:int ->
  vdd:float ->
  cycles:int ->
  drive:Activity.drive ->
  Compiled.t ->
  t
(** Run like {!Activity.measure} but keep the per-cycle breakdown. The
    capacitance weight of a toggle is its driving cell's
    {!Netlist.Cell.switched_cap}. *)

val to_csv : t -> string
(** "cycle,toggles,switched_cap_f,energy_j" rows. *)
