(** One- and two-dimensional scalar minimisation.

    The numerical optimal-working-point search (Section 3 of the paper) is a
    one-dimensional minimisation of total power over Vdd, with Vth tied to Vdd
    by the timing constraint; Figure 1 needs the full two-dimensional map. *)

type result = {
  x : float;  (** Argmin. *)
  fx : float;  (** Minimum value. *)
  iterations : int;
}

val golden_section :
  ?tol:float -> ?max_iter:int -> f:(float -> float) -> float -> float -> result
(** [golden_section ~f lo hi] minimises a unimodal [f] on [\[lo, hi\]].
    @param tol absolute tolerance on [x] (default [1e-10]). *)

val grid_then_golden :
  ?samples:int -> ?tol:float -> f:(float -> float) -> float -> float -> result
(** [grid_then_golden ~f lo hi] scans [samples] equally spaced points
    (default 64) to localise the global minimum basin, then refines with
    golden section on the bracketing sub-interval. Robust to mild
    non-unimodality. *)

type result2 = { x0 : float; x1 : float; fx2 : float }

val grid2 :
  f:(float -> float -> float) ->
  x0_range:float * float ->
  x1_range:float * float ->
  samples:int ->
  result2
(** Exhaustive 2-D grid minimisation; returns the best sample. Used for the
    brute-force (Vdd, Vth) reference optimum that validates the constrained
    1-D search. *)
