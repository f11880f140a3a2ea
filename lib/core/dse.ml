(* Verified candidate pruning for the design-space explorer. A candidate
   box is discarded only on a machine-checked argument: its certified
   lower bound on min Ptot (Absint.excludes) strictly exceeds an
   incumbent the caller has already achieved elsewhere. The box holding
   the true optimum can therefore never be pruned. *)

let prune_against ?tol ?max_splits box ~incumbent =
  Absint.excludes ?tol ?max_splits box ~threshold:incumbent
