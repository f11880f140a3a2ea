(** Full numerical optimisation of the working point — the reference against
    which the closed form's < 3 % error claim is checked (Section 3), and
    the machinery behind Figure 1.

    Since the Eq. 13 rework the production entry point {!optimum} is
    {e analytically seeded}: the closed form's [vdd_opt] (within 3 % of the
    numerical optimum inside its validity domain — the paper's headline
    result) starts a safeguarded Newton iteration on the exact
    stationarity condition dPtot/dVdd = 0 along the timing constraint (the
    paper's Eq. 9 without the Eq. 7 linearisation) instead of a blind
    256-point grid scan. {!optimum_grid} keeps the pre-seeding
    scan-then-golden solver as the differential oracle; the two agree to
    better than 1e-6 relative in both the optimal supply and the optimal
    power (property-tested, [@solver-equiv]). Families of related problems
    (sweeps, ladders, Monte-Carlo dies) should go through
    {!optima_continued}, which warm-starts each solve from its
    neighbour's optimum.

    Counters: [opt.seeded_solves] counts solves finished by the Newton
    refinement and [opt.brent_iters] its residual evaluations (the name
    predates the Newton iteration and is kept for existing dashboards);
    [opt.grid_evals] / [opt.golden_iters] move only on the grid scan;
    [opt.seed_fallbacks] counts solves that ran the scan because no seed
    was usable or the residual was not finite. *)

type point = Power_law.breakdown

val ptot_on_constraint : Power_law.problem -> float -> float
(** Total power at a supply, threshold set by the timing constraint.
    Returns [infinity] for supplies whose implied threshold is absurd
    (vdd ≤ 0). *)

val optimum :
  ?vdd_lo:float -> ?vdd_hi:float -> ?from:point ->
  Power_law.problem -> point
(** One-dimensional search over Vdd on the constraint locus. Without
    [from], seeds from {!Closed_form}'s Eq. 10 [vdd_opt] when the problem
    is inside the linearization's validity domain (the closed form is
    feasible and its predicted optimum falls inside both the Eq. 7 fit
    range and the search bracket); falls back to the {!optimum_grid}
    scan otherwise, counted by the [opt.seed_fallbacks] counter.

    [optimum ~from problem] re-optimises a problem known to be close to an
    already solved one, seeding from [from]'s optimal supply.

    From either seed the supply is refined by Newton's method on
    φ(v) = ln(N·io·e^(−vth/nUt)·(v·vth′/nUt − 1)) − ln(2aNCf·v), the log
    form of dPtot/dVdd = 0, which is nearly linear in v: 3–4 residual
    evaluations from a neighbouring die's optimum. A sign bracket on φ
    with bisection safeguards keeps the iteration exact from any seed in
    the bracket — a distant seed only costs iterations — and an optimum
    beyond the bracket is pinned on the wall. A non-finite residual (zero
    activity, leakage or cell count) falls back to the scan, counted by
    [opt.seed_fallbacks]. Default search range
    {!Power_law.vdd_search_range} (0.05–3.0 V). *)

val optimum_grid :
  ?vdd_lo:float -> ?vdd_hi:float -> ?samples:int ->
  Power_law.problem -> point
(** The blind solver: [samples]-point grid scan (default 256) to localise
    the global-minimum basin, golden section to refine. Robust to mild
    non-unimodality and independent of the closed form — the differential
    oracle the seeded {!optimum} is property-tested against, and its
    fallback. Default search range {!Power_law.vdd_search_range}. *)

val optimum_stored : store:Store.t -> Power_law.problem -> point
(** Bitwise-safe store path over the default search range: an exact-key
    hit replays the stored bits (the solver is deterministic, so they
    equal what a cold solve would produce); a miss solves via {!optimum}
    and persists the result. Counted by [opt.store_hits] /
    [opt.store_misses]. *)

val solve_chain_into :
  ?head:point ->
  problem_of:(int -> Power_law.problem) ->
  n:int ->
  write:(int -> point -> unit) ->
  unit ->
  unit
(** [solve_chain_into ~problem_of ~n ~write ()] solves the [n] problems
    [problem_of 0 .. problem_of (n-1)] as one warm-started continuation
    chain on the calling domain: solve [i+1] seeds from solve [i]'s
    optimum ([optimum ~from]), and solve 0 seeds from [head] when given
    (else it solves cold via {!optimum}). Each result is passed to
    [write i point] as soon as it is available — nothing is retained, so
    the caller can stream into flat arrays or sketches without per-die
    allocation. This is the one chain loop: {!optima_continued} and
    {!Variation.yield_mc}'s per-chunk solver both run on it. It does not
    touch the pool, letting the caller own the parallel decomposition. *)

val optima_continued :
  ?pool:Parallel.Pool.t ->
  problem_of:('a -> Power_law.problem) ->
  'a list ->
  point list
(** Continuation solve of a family of related problems (a Vdd or frequency
    sweep, a technology ladder, Monte-Carlo dies): the items are cut into
    contiguous chunks of 16 mapped through {!Parallel.Pool} ([pool]
    defaults to the shared process-wide pool), and each chunk is one
    {!solve_chain_into} chain whose head solves cold. Results are returned
    in item order. The chunk size is a constant independent of the pool
    size, so the warm chains — and every floating-point bit of the
    result — are identical at any [-j]. [problem_of] must be pure (it may run on any
    pool domain). *)

val optimum_grid2 :
  ?vdd_range:float * float ->
  ?vth_range:float * float ->
  ?samples:int ->
  Power_law.problem -> point
(** Brute-force reference: minimise over all feasible (Vdd, Vth) couples on
    a dense grid (Vth free, feasibility = meets timing). Validates that the
    constrained 1-D search loses nothing — a positive slack never helps
    (the argument below Eq. 5). [vdd_range] defaults to
    {!Power_law.vdd_search_range}, the same bracket as {!optimum}. *)

val sweep_vdd :
  ?pool:Parallel.Pool.t -> ?samples:int -> vdd_lo:float -> vdd_hi:float ->
  Power_law.problem -> point list
(** Ptot(Vdd) along the constraint locus — one Figure 1 curve. Points whose
    implied threshold is negative are included (the paper's curves extend
    there); callers may filter. Evaluated through the domain pool in
    fixed-size contiguous chunks ([pool] defaults to the shared pool);
    bitwise-identical at any pool size. *)

val dyn_static_ratio : point -> float
(** Pdyn/Pstat — the ratio annotated at each optimum in Figure 1. *)
