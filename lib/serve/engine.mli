(** The pure request engine — the one-shot execution paths behind both the
    CLI subcommands and the resident service, extracted so the two are the
    same code (and so the serve tests can assert replies bitwise-equal to
    the one-shot results).

    Every function is deterministic: results are bitwise-identical at any
    pool size ({!Parallel.Pool}'s contract), and the JSON encoders print
    floats with full round-trip precision, so two encodings are equal iff
    the underlying float64 bits are. *)

val optimum :
  tech:Device.Technology.t -> string -> Power_core.Numerical_opt.point
(** Cold seeded solve of one architecture's optimal working point —
    exactly what the table drivers run per row. *)

val sweep :
  ?pool:Parallel.Pool.t ->
  tech:Device.Technology.t ->
  samples:int ->
  vdd_lo:float ->
  vdd_hi:float ->
  string ->
  Power_core.Numerical_opt.point list
(** The [optpower sweep] body: Ptot(Vdd) locus for one architecture. *)

val rank :
  ?pool:Parallel.Pool.t ->
  tech:Device.Technology.t ->
  string list ->
  (string * Power_core.Numerical_opt.point) list
(** Solve the given architectures as one warm-start continuation family
    ({!Power_core.Numerical_opt.optima_continued}) and return them sorted
    by ascending optimal Ptot (ties keep the given order). *)

val lint :
  ?pool:Parallel.Pool.t -> ?only:string list -> unit ->
  Analysis.Engine.report
(** The [optpower lint] body: full engine run, optionally filtered to the
    given rule ids. *)

val certify :
  ?pool:Parallel.Pool.t ->
  Device.Technology.t list ->
  Report.Certify_report.row list
(** The [optpower certify] body. *)

(** {1 Wire encodings} *)

val store_stats_json : Store.t option -> Json.t
(** Warm-store statistics payload; [None] encodes [{"enabled": false}]. *)

val run_call : ?pool:Parallel.Pool.t -> ?store:Store.t -> Protocol.call -> Json.t
(** Execution of a validated call: dispatch to the functions above (or
    {!Power_core.Explorer.explore} for [explore]) and encode the reply
    payload — for [explore], the Pareto fronts per slice plus the prune
    funnel totals; for [lint], the {!Analysis.Render.json} document
    wrapped with the exit code. This is the one dispatch: the CLI's
    [--json] output and every work unit of the batched {!Session} run it,
    so batched replies equal one-shot replies by construction. With the
    same [store] state, a warm reply replays the exact bits a cold solve
    would produce. *)
