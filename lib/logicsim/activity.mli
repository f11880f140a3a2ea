(** Switching-activity extraction — the "a" parameter of Eq. 1.

    The paper defines activity as the number of switching cells per clock
    cycle divided by the total cell count, with every output transition
    (including glitches) counted, and — crucially for the sequential
    multipliers — cycles counted at the {e data} (throughput) clock, not the
    faster internal clock. Activity can therefore exceed 1. *)

type result = {
  activity : float;  (** a — average transitions per cell per data cycle. *)
  toggles_per_cycle : float;
  glitch_ratio : float;
      (** Fraction of transitions in excess of the final-value changes —
          pure glitch power. *)
  cycles : int;  (** Data cycles measured (after warm-up). *)
  per_cell : float array;  (** Average transitions per data cycle, per cell. *)
}

type drive = Compiled.t -> cycle:int -> unit
(** Applies stimulus for one data cycle: set primary inputs (the harness
    settles and clocks). *)

val measure :
  ?warmup:int ->
  ?ticks_per_cycle:int ->
  cycles:int ->
  drive:drive ->
  Compiled.t ->
  result
(** Run [warmup] (default 4) unmeasured data cycles, then [cycles] measured
    ones. Each data cycle applies the stimulus, then performs
    [ticks_per_cycle] clock ticks (default 1 — more for architectures whose
    internal clock is a multiple of the data clock), settling after each. *)

val random_drive :
  rng:Numerics.Rng.t -> buses:Netlist.Circuit.net array list -> drive
(** Uniform random value on each listed input bus every data cycle. *)

type converged = {
  result : result;  (** Aggregate over every measured cycle. *)
  relative_stderr : float;
      (** Standard error of the per-batch activity over its mean. *)
  batches : int;
}

val measure_until :
  ?warmup:int ->
  ?ticks_per_cycle:int ->
  ?batch:int ->
  ?rel_tol:float ->
  ?max_cycles:int ->
  drive:drive ->
  Compiled.t ->
  converged
(** Measure in batches (default 40 cycles) until the activity estimate's
    relative standard error drops below [rel_tol] (default 2 %) or
    [max_cycles] (default 2000) is reached — a principled stopping rule for
    the "a" extraction instead of a fixed cycle count. *)
