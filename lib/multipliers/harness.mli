(** Driving a multiplier spec through the logic simulator: functional
    checks and activity measurement. *)

val compute : Spec.t -> Logicsim.Compiled.t -> int -> int -> int
(** [compute spec sim x y] applies the operands, holds them for the spec's
    latency and reads the product. The simulator keeps its state — call
    repeatedly for streaming. @raise Failure on X output bits. *)

val fresh_simulator : Spec.t -> Logicsim.Compiled.t

val check_random :
  ?seed:int -> Spec.t -> samples:int -> (int * int * int * int) list
(** Multiply [samples] random operand pairs; returns the failures as
    [(x, y, expected, got)] — empty when the hardware is correct. *)

val check_corners : Spec.t -> (int * int * int * int) list
(** 0, 1, max-value and alternating-bit operand corner cases. *)

type measured = {
  activity : float;  (** a, per data cycle (paper definition). *)
  glitch_ratio : float;
  toggles_per_cycle : float;
}

val measure_activity :
  ?seed:int -> ?cycles:int -> Spec.t -> measured
(** Random-stimulus activity over [cycles] (default 160) data periods. *)

val measure_activity_many :
  ?seed:int -> ?cycles:int -> Spec.t list -> measured list
(** Measure several architectures concurrently on the {!Parallel.Pool},
    one private simulator instance per architecture. Element [i] equals
    [measure_activity spec_i] bit for bit at any pool size. *)
