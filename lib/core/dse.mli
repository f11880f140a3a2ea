(** Verified pruning for the design-space explorer.

    The Pareto explorer ({!Explorer}) enumerates thousands of candidate
    (architecture × depth × parallelism × flavor) boxes; most cannot
    possibly hold the optimum. {!prune_against} discards a candidate only
    on a machine-checked argument, so the box containing the true optimum
    always survives (the admissible-bound property). *)

val prune_against :
  ?tol:float -> ?max_splits:int -> Absint.box -> incumbent:float -> bool
(** Single-candidate incumbent pruning: [true] certifies the box's min
    Ptot is strictly above [incumbent] (via {!Absint.excludes} — its pdyn
    clip plus lower-bound-only branch-and-bound), so a candidate whose
    power can only land above an already-achieved value is discarded
    without an exact solve. [false] keeps the candidate. Defaults [tol]
    2e-3, [max_splits] 32. *)
