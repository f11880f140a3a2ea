(* Abstract interpretation of the on-constraint power model over parameter
   boxes. The concrete semantics is Numerical_opt.ptot_on_constraint; the
   abstract domain is outward-rounded intervals (Numerics.Interval)
   tightened with affine mean-value forms. Everything returned here is a
   machine-checked enclosure: no result depends on executing the solver. *)

module Iv = Numerics.Interval
module Af = Numerics.Interval.Affine

type box = {
  problem : Power_law.problem;
  f : Iv.t;
  vdd : Iv.t;
}

let box ?f ?vdd (problem : Power_law.problem) =
  let f = match f with Some f -> f | None -> Iv.of_float problem.f in
  let vdd =
    match vdd with
    | Some v -> v
    | None ->
      let lo, hi = Power_law.vdd_search_range in
      Iv.make lo hi
  in
  if f.Iv.lo <= 0.0 then invalid_arg "Absint.box: f box <= 0";
  if vdd.Iv.lo <= 0.0 then invalid_arg "Absint.box: vdd box <= 0";
  { problem; f; vdd }

(* The noise symbol carrying the supply voltage through the affine
   computation. A single box has a single correlated variable. *)
let vdd_symbol = 0

(* Affine evaluation of Ptot over the box: vdd is one shared noise symbol,
   so the vth = vdd - (chi' vdd)^(1/alpha) cancellation — which naive
   intervals lose entirely — survives as a linear correlation. The two
   nonlinear links (the alpha-power root and the leakage exponential) go
   through mean-value forms with interval-enclosed slopes. Returns None
   when an intermediate leaves the regime where the tightening is valid
   (the caller falls back to the naive enclosure, which is always sound). *)
let affine_range (t : Power_law.problem) ~f ~vdd =
  if not (Iv.is_finite vdd && Iv.is_finite f) then None
  else
    let p = t.params in
    let n_ut = Device.Technology.n_ut t.tech in
    let chi_prime = Power_law.chi_prime_iv t ~f in
    if not (Iv.is_finite chi_prime) then None
    else
      let v = Af.of_interval ~id:vdd_symbol vdd in
      let u = Af.mul_interval chi_prime v in
      let u_iv = Af.to_interval u in
      if u_iv.Iv.lo <= 0.0 then None
      else
        let p_exp = 1.0 /. t.tech.alpha in
        let g_mid = Iv.mid u_iv in
        let g_slope = Iv.scale p_exp (Iv.pow_scalar u_iv (p_exp -. 1.0)) in
        let g_fmid = Iv.pow_scalar (Iv.of_float g_mid) p_exp in
        if not (Iv.is_finite g_slope && Iv.is_finite g_fmid) then None
        else
          let g = Af.mean_value ~x0:g_mid ~fmid:g_fmid ~slope:g_slope u in
          let vth = Af.sub v g in
          let w = Af.scale (-1.0 /. n_ut) vth in
          let w_iv = Af.to_interval w in
          let e_slope = Iv.exp w_iv in
          let e_fmid = Iv.exp (Iv.of_float (Iv.mid w_iv)) in
          if not (Iv.is_finite e_slope && Iv.is_finite e_fmid) then None
          else
            let e =
              Af.mean_value ~x0:(Iv.mid w_iv) ~fmid:e_fmid ~slope:e_slope w
            in
            let pstat =
              Af.scale
                (p.Arch_params.n_cells *. p.io_cell)
                (Af.mul v e)
            in
            let pdyn =
              Af.mul_interval
                (Iv.scale
                   (p.Arch_params.activity *. p.n_cells *. p.avg_cap)
                   f)
                (Af.sqr v)
            in
            Some (Af.to_interval (Af.add pdyn pstat))

let tighten base candidate =
  match Iv.intersect base candidate with Some t -> t | None -> base

let point_range (b : box) v =
  Power_law.ptot_on_constraint_iv b.problem ~f:b.f ~vdd:(Iv.of_float v)

let dptot_over (b : box) =
  Power_law.dptot_on_constraint_iv b.problem ~f:b.f ~vdd:b.vdd

let ptot_over (b : box) =
  let naive = Power_law.ptot_on_constraint_iv b.problem ~f:b.f ~vdd:b.vdd in
  let enc =
    match affine_range b.problem ~f:b.f ~vdd:b.vdd with
    | Some aff -> tighten naive aff
    | None -> naive
  in
  if Iv.width b.vdd <= 0.0 then enc
  else
    (* Sign-definite derivative: Ptot is monotone on the box, the exact
       range is spanned by the two endpoint values. *)
    let d = dptot_over b in
    if d.Iv.lo >= 0.0 || d.Iv.hi <= 0.0 then
      tighten enc
        (Iv.hull (point_range b b.vdd.Iv.lo) (point_range b b.vdd.Iv.hi))
    else enc

type certificate = {
  ptot : Iv.t;
  vdd_bracket : Iv.t;
  boxes : int;
  splits : int;
  prunes : int;
}

let c_boxes = Obs.Counter.make "cert.boxes"
let c_splits = Obs.Counter.make "cert.splits"
let c_prunes = Obs.Counter.make "cert.prunes"

(* Interval branch-and-bound over the supply axis. Invariants:
   - [ub] is always an achieved value: the .hi of a point evaluation, so
     min Ptot <= ub with certainty even over a non-degenerate f box.
   - a sub-box is discarded only when its certified lower bound exceeds
     [ub] (cannot contain the minimiser), or when its derivative is
     certified sign-definite and it is interior (the minimum then sits on
     a shared endpoint owned by the neighbouring box; domain-edge boxes
     collapse to the degenerate edge point instead of vanishing).
   Hence every minimiser of Ptot over the box survives in some kept leaf:
   the hull of the kept leaves is a certified bracket, and
   [min lo over kept leaves, ub] a certified enclosure of the minimum. *)
let certify ?(tol = 2e-3) ?(max_splits = 20_000) (b : box) =
  let domain = b.vdd in
  let point_hi v = (point_range b v).Iv.hi in
  let ub = ref (point_hi (Iv.mid domain)) in
  let boxes = ref 0 and splits = ref 0 and prunes = ref 0 in
  let survivors = ref [] in
  let keep vdd enc = survivors := (vdd, enc) :: !survivors in
  let rec go = function
    | [] -> ()
    | vdd :: rest ->
      incr boxes;
      Obs.Counter.incr c_boxes;
      let sub = { b with vdd } in
      let enc = ptot_over sub in
      if enc.Iv.lo > !ub then (
        incr prunes;
        Obs.Counter.incr c_prunes;
        go rest)
      else (
        let pm = point_hi (Iv.mid vdd) in
        if pm < !ub then ub := pm;
        let monotone =
          if Iv.width vdd <= tol then `No
          else
            let d = dptot_over sub in
            if d.Iv.lo > 0.0 then `Min_at vdd.Iv.lo
            else if d.Iv.hi < 0.0 then `Min_at vdd.Iv.hi
            else `No
        in
        match monotone with
        | `Min_at edge ->
          incr prunes;
          Obs.Counter.incr c_prunes;
          (* Interior edges are shared with a neighbouring sub-box which
             keeps covering them; domain edges have no neighbour and stay
             as degenerate leaves. *)
          if edge <= domain.Iv.lo || edge >= domain.Iv.hi then (
            let pt = Iv.of_float edge in
            keep pt (ptot_over { b with vdd = pt }));
          go rest
        | `No ->
          if Iv.width vdd <= tol || !splits >= max_splits then (
            keep vdd enc;
            go rest)
          else (
            match Iv.split vdd with
            | None ->
              keep vdd enc;
              go rest
            | Some (l, r) ->
              incr splits;
              Obs.Counter.incr c_splits;
              go (l :: r :: rest)))
  in
  go [ domain ];
  let kept = List.filter (fun (_, enc) -> enc.Iv.lo <= !ub) !survivors in
  let ptot, vdd_bracket =
    match kept with
    | [] ->
      (* Unreachable when the invariants hold — the minimiser's leaf
         always survives — but degrade soundly rather than raise. *)
      (Iv.make (Float.min !ub !ub) !ub, domain)
    | (v0, e0) :: tl ->
      let lo, bracket =
        List.fold_left
          (fun (lo, h) (v, e) -> (Float.min lo e.Iv.lo, Iv.hull h v))
          (e0.Iv.lo, v0) tl
      in
      (Iv.make (Float.min lo !ub) !ub, bracket)
  in
  { ptot; vdd_bracket; boxes = !boxes; splits = !splits; prunes = !prunes }

(* One-sided exclusion test: a certified "min Ptot over the box is
   strictly above [threshold]". Two structural cheapenings over two-sided
   certification:

   - pdyn clip. Pdyn = K vdd^2 with K = a N Cavg f.lo is a monotone lower
     envelope of Ptot, so any vdd with K vdd^2 > threshold cannot hold a
     sub-threshold point. One square root locates the crossing; a single
     interval evaluation at the clip point verifies it outward-rounded,
     after which the branch-and-bound only ever works the [lo, clip]
     prefix of the supply axis.

   - lower-bound-only leaves. Exclusion never needs the achieved upper
     values [certify] maintains, so leaves evaluate the naive/affine .lo
     alone and skip the derivative enclosure and the endpoint-spanned
     refinement that [ptot_over] pays for two-sided tightness.

   [true] is the proof (candidate cannot reach the threshold); [false] is
   conservative — an inconclusive leaf at the tol/budget floor, never an
   unsound exclusion. *)
let excludes ?(tol = 2e-3) ?(max_splits = 32) (b : box) ~threshold =
  if not (threshold > 0.0 && Float.is_finite threshold) then false
  else begin
    let p = b.problem.Power_law.params in
    let k =
      p.Arch_params.activity *. p.n_cells *. p.avg_cap *. b.f.Iv.lo
    in
    let domain =
      if k <= 0.0 then b.vdd
      else
        let guess = Float.sqrt (threshold /. k) *. 1.0001 in
        if guess >= b.vdd.Iv.hi || guess <= b.vdd.Iv.lo then b.vdd
        else
          let clip = Iv.make guess b.vdd.Iv.hi in
          let pdyn_at = Power_law.pdyn_iv b.problem ~f:b.f ~vdd:clip in
          if pdyn_at.Iv.lo > threshold then Iv.make b.vdd.Iv.lo guess
          else b.vdd
    in
    let lower vdd =
      let sub = { b with vdd } in
      let naive =
        Power_law.ptot_on_constraint_iv sub.problem ~f:sub.f ~vdd:sub.vdd
      in
      match affine_range sub.problem ~f:sub.f ~vdd:sub.vdd with
      | Some aff -> Float.max naive.Iv.lo aff.Iv.lo
      | None -> naive.Iv.lo
    in
    let splits = ref 0 in
    let rec go = function
      | [] -> true
      | vdd :: rest ->
        Obs.Counter.incr c_boxes;
        if lower vdd > threshold then (
          Obs.Counter.incr c_prunes;
          go rest)
        else if Iv.width vdd <= tol || !splits >= max_splits then false
        else (
          match Iv.split vdd with
          | None -> false
          | Some (l, r) ->
            incr splits;
            Obs.Counter.incr c_splits;
            go (l :: r :: rest))
    in
    go [ domain ]
  end
