type point = Power_law.breakdown

(* Counter catalog of the solver: one [opt.solve] span per (Vdd, Vth)
   optimisation; iteration and probe counts as counters. All are
   deterministic for a given problem, so they survive into normalized
   profiles. [opt.grid_evals] / [opt.golden_iters] only move on the blind
   grid-scan path (the differential oracle and the seed fallback);
   [opt.seeded_solves] / [opt.brent_iters] only on the seeded path, where
   [opt.brent_iters] counts the Newton refinement's residual evaluations
   (the name predates Newton; perfbench's [opt.brent_iters_per_solve]
   reads it); [opt.seed_fallbacks] counts solves that ran the grid scan
   instead: cold problems outside the Eq. 7 linearization's validity
   domain, and seeded ones whose stationarity residual is not finite. *)
let c_solves = Obs.Counter.make "opt.solves"
let c_golden_iters = Obs.Counter.make "opt.golden_iters"
let c_grid_evals = Obs.Counter.make "opt.grid_evals"
let c_seeded_solves = Obs.Counter.make "opt.seeded_solves"
let c_brent_iters = Obs.Counter.make "opt.brent_iters"
let c_seed_fallbacks = Obs.Counter.make "opt.seed_fallbacks"
let c_sweep_points = Obs.Counter.make "opt.sweep_points"
let c_grid2_solves = Obs.Counter.make "opt.grid2_solves"

let default_vdd_lo, default_vdd_hi = Power_law.vdd_search_range

let ptot_on_constraint problem vdd =
  if vdd <= 0.0 then infinity
  else begin
    let b = Power_law.at problem ~vdd in
    if Float.is_finite b.total then b.total else infinity
  end

(* The pre-seeding solver: a blind 256-point scan localises the optimum
   basin, golden section refines it. Kept verbatim as the differential
   oracle for the seeded path (see test_solver_equiv) and as the fallback
   when no analytic seed is available or the seeded refinement cannot
   run. [grid_solve] is the unspanned body, shared with that fallback. *)
let grid_solve ~vdd_lo ~vdd_hi ~samples problem =
  let r =
    Numerics.Minimize.grid_then_golden ~samples ~tol:1e-9
      ~f:(ptot_on_constraint problem) vdd_lo vdd_hi
  in
  Obs.Counter.incr c_solves;
  Obs.Counter.add c_golden_iters r.iterations;
  Obs.Counter.add c_grid_evals samples;
  Power_law.at problem ~vdd:r.x

let optimum_grid ?(vdd_lo = default_vdd_lo) ?(vdd_hi = default_vdd_hi)
    ?(samples = 256) problem =
  Obs.Span.with_ ~name:"opt.solve" (fun () ->
      grid_solve ~vdd_lo ~vdd_hi ~samples problem)

(* Refine from a seed supply: safeguarded Newton on the exact stationarity
   condition of Ptot along the timing constraint — the paper's Eq. 9
   before the Eq. 7 linearisation. With g = (chi' v)^(1/alpha),
   vth = v - g and vth' = 1 - g/(alpha v), dPtot/dVdd = 0 reads
     2aNCf v = N io e^(-vth/nUt) (v vth'/nUt - 1)
   and its log form
     phi(v) = ln(N io / (2aNCf)) - vth/nUt + ln(u / v),
     u      = v vth'/nUt - 1
   is nearly linear in v, positive left of the optimum and zero at it
   (Newton on the raw derivative crawls: the exponential dominates it).
   The per-problem constants are hoisted, so an iteration costs one [**]
   and one [log].

   Safeguards: a sign bracket [lo, hi] is kept from phi, starting at the
   caller's bracket. Where u <= 0 or phi' >= 0 the supply sits below the
   static-power peak — left of the interior optimum — so the point raises
   [lo] and the step bisects; a Newton step that would leave the bracket
   bisects too, which also walks an optimum beyond the bracket onto the
   wall. Convergence (|step| <= 1e-10 v) is tested before the bracket
   check, so a converged step landing on a bracket edge is taken, not
   bisected. Returns [None] when the residual is not finite (degenerate
   params such as zero activity or leakage) or the iteration budget runs
   out; the caller then falls back to the grid. Each residual evaluation
   counts one [opt.brent_iters]. *)
let newton_max_iters = 100
let newton_rtol = 1e-10

let stationary_vdd ~vdd_lo ~vdd_hi ~seed (problem : Power_law.problem) =
  let p = problem.params in
  let k =
    Float.log (p.n_cells *. p.io_cell)
    -. Float.log (2.0 *. p.activity *. p.n_cells *. p.avg_cap *. problem.f)
  in
  let inv_nut = 1.0 /. Device.Technology.n_ut problem.tech in
  let inv_alpha = 1.0 /. problem.tech.alpha in
  let chi_prime = problem.chi_prime in
  let clamp v = Float.min vdd_hi (Float.max vdd_lo v) in
  let iters = ref 0 in
  let rec eval lo hi x =
    if !iters >= newton_max_iters then None
    else begin
      incr iters;
      let g = (chi_prime *. x) ** inv_alpha in
      let ga = g *. inv_alpha in
      let u = ((x -. ga) *. inv_nut) -. 1.0 in
      if u <= 0.0 then bisect x hi
      else
        let inv_x = 1.0 /. x in
        let phi = k -. ((x -. g) *. inv_nut) +. Float.log (u *. inv_x) in
        let dphi =
          (-.(1.0 -. (ga *. inv_x)) *. inv_nut)
          +. ((1.0 -. (ga *. inv_alpha *. inv_x)) *. inv_nut /. u)
          -. inv_x
        in
        if not (Float.is_finite phi && Float.is_finite dphi) then None
        else if dphi >= 0.0 then bisect x hi
        else
          let step = -.phi /. dphi in
          if Float.abs step <= newton_rtol *. x then Some (clamp (x +. step))
          else
            let lo = if phi > 0.0 then x else lo
            and hi = if phi > 0.0 then hi else x in
            let x' = x +. step in
            if x' <= lo || x' >= hi then bisect lo hi else eval lo hi x'
    end
  and bisect lo hi =
    let mid = 0.5 *. (lo +. hi) in
    if hi -. lo <= newton_rtol *. hi then Some mid else eval lo hi mid
  in
  let r =
    if Float.is_finite k then eval vdd_lo vdd_hi (clamp seed) else None
  in
  Obs.Counter.add c_brent_iters !iters;
  r

let solve_seeded ~vdd_lo ~vdd_hi ~seed problem =
  match stationary_vdd ~vdd_lo ~vdd_hi ~seed problem with
  | Some vdd ->
    Obs.Counter.incr c_solves;
    Obs.Counter.incr c_seeded_solves;
    Power_law.at problem ~vdd
  | None ->
    Obs.Counter.incr c_seed_fallbacks;
    grid_solve ~vdd_lo ~vdd_hi ~samples:256 problem

(* The closed form is a trustworthy seed only where its own derivation
   holds: the Eq. 7 linearization must be feasible and the predicted
   optimum must fall inside the fitted range (extrapolated fits can be
   badly off) and inside the caller's search bracket. *)
let eq13_seed ~vdd_lo ~vdd_hi (problem : Power_law.problem) =
  match Closed_form.evaluate problem with
  | exception Closed_form.Infeasible _ -> None
  | cf ->
    let lin = Device.Linearization.fit ~alpha:problem.tech.alpha () in
    if
      cf.vdd_opt >= Float.max vdd_lo lin.lo
      && cf.vdd_opt <= Float.min vdd_hi lin.hi
    then Some cf.vdd_opt
    else None

(* With [from], re-optimise a problem close to an already solved one:
   seed from the neighbour's supply. Without it, seed from Eq. 13, or scan
   the grid when the closed form is outside its validity domain. *)
let optimum ?(vdd_lo = default_vdd_lo) ?(vdd_hi = default_vdd_hi) ?from
    problem =
  let seed =
    match from with
    | Some (from : point) -> Some from.vdd
    | None -> eq13_seed ~vdd_lo ~vdd_hi problem
  in
  match seed with
  | Some seed ->
    Obs.Span.with_ ~name:"opt.solve" (fun () ->
        solve_seeded ~vdd_lo ~vdd_hi ~seed problem)
  | None ->
    Obs.Counter.incr c_seed_fallbacks;
    optimum_grid ~vdd_lo ~vdd_hi problem

let c_store_hits = Obs.Counter.make "opt.store_hits"
let c_store_misses = Obs.Counter.make "opt.store_misses"

(* Keys for the solver namespace carry the search bracket too: a solve is
   only replayable when the bracket — which shapes the result — matches. *)
let solve_key problem =
  Printf.sprintf "%s|b:%h %h" (Warm.problem_key problem) default_vdd_lo
    default_vdd_hi

let optimum_stored ~store problem =
  let key = solve_key problem in
  match Option.bind (Store.find store ~ns:Warm.ns_solve key) Warm.decode_point
  with
  | Some p ->
      Obs.Counter.incr c_store_hits;
      p
  | None ->
      Obs.Counter.incr c_store_misses;
      let p = optimum problem in
      Store.put store ~ns:Warm.ns_solve key (Warm.encode_point p);
      p

(* One warm chain on the calling domain, streamed to [write]: each solve
   warm-starts from its predecessor's optimum, solve 0 from [head] when
   given, else cold (Eq. 13 seed or grid fallback). [head] lets the yield
   engine start from the nominal optimum, which keeps per-die solves off
   the Eq. 13 seeding path entirely (the seed's per-alpha linearization
   memo would otherwise grow without bound under continuously varying
   alpha). *)
let solve_chain_into ?head ~problem_of ~n ~write () =
  let prev = ref head in
  for i = 0 to n - 1 do
    let pt = optimum ?from:!prev (problem_of i) in
    prev := Some pt;
    write i pt
  done

(* The list form of one chain: the chunk body of [optima_continued]. *)
let solve_chain problems =
  let arr = Array.of_list problems in
  let out = ref [] in
  solve_chain_into ~problem_of:(Array.get arr) ~n:(Array.length arr)
    ~write:(fun _ pt -> out := pt :: !out)
    ();
  List.rev !out

(* Continuation over a family of related problems: fixed-size contiguous
   chunks are mapped through the domain pool, one warm chain each. The
   chunk size is a constant — NOT derived from the pool size — so the warm
   chains, and with them every floating-point bit of the result, are
   identical at any [-j]. *)
let continuation_chunk = 16

let optima_continued ?pool ~problem_of items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let nchunks = (n + continuation_chunk - 1) / continuation_chunk in
  Obs.Span.with_ ~name:"opt.continued" (fun () ->
      List.concat
        (Parallel.Pool.map ?pool
           (fun c ->
             let start = c * continuation_chunk in
             let stop = Stdlib.min n (start + continuation_chunk) in
             solve_chain
               (List.init (stop - start) (fun k -> problem_of arr.(start + k))))
           (List.init nchunks Fun.id)))

let optimum_grid2 ?(vdd_range = Power_law.vdd_search_range)
    ?(vth_range = (-0.2, 0.8)) ?(samples = 400) problem =
  let vdd_lo, vdd_hi = vdd_range and vth_lo, vth_hi = vth_range in
  let cost vdd vth =
    if vdd <= 0.0 || not (Power_law.meets_timing problem ~vdd ~vth) then
      infinity
    else (Power_law.at_free problem ~vdd ~vth).total
  in
  let r =
    Obs.Span.with_ ~name:"opt.grid2" (fun () ->
        Numerics.Minimize.grid2 ~f:cost ~x0_range:(vdd_lo, vdd_hi)
          ~x1_range:(vth_lo, vth_hi) ~samples)
  in
  Obs.Counter.incr c_grid2_solves;
  Power_law.at_free problem ~vdd:r.x0 ~vth:r.x1

(* Fixed-size index chunks cut the pool's per-task overhead on fine-grained
   sweeps; each point is still a pure function of its index, so the sweep
   stays bitwise-identical to the unchunked map at any pool size. *)
let sweep_chunk = 32

let sweep_vdd ?pool ?(samples = 200) ~vdd_lo ~vdd_hi problem =
  if samples < 2 then invalid_arg "Numerical_opt.sweep_vdd: samples < 2";
  let step = (vdd_hi -. vdd_lo) /. float_of_int (samples - 1) in
  let nchunks = (samples + sweep_chunk - 1) / sweep_chunk in
  Obs.Span.with_ ~name:"opt.sweep" (fun () ->
      List.concat
        (Parallel.Pool.map ?pool
           (fun c ->
             let start = c * sweep_chunk in
             let stop = Stdlib.min samples (start + sweep_chunk) in
             List.init (stop - start) (fun k ->
                 Obs.Counter.incr c_sweep_points;
                 let vdd =
                   vdd_lo +. (float_of_int (start + k) *. step)
                 in
                 Power_law.at problem ~vdd))
           (List.init nchunks Fun.id)))

let dyn_static_ratio (p : point) =
  if p.static = 0.0 then infinity else p.dynamic /. p.static
