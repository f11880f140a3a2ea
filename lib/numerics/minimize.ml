type result = { x : float; fx : float; iterations : int }

let inv_phi = 0.5 *. (sqrt 5.0 -. 1.0)
let inv_phi2 = inv_phi *. inv_phi

(* Golden-section search with function-value reuse (two probes kept). *)
let golden_section ?(tol = 1e-10) ?(max_iter = 200) ~f lo hi =
  let a = ref lo and b = ref hi in
  let h = ref (hi -. lo) in
  let c = ref (lo +. (inv_phi2 *. !h)) in
  let d = ref (lo +. (inv_phi *. !h)) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !h > tol && !iter < max_iter do
    incr iter;
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      h := !b -. !a;
      c := !a +. (inv_phi2 *. !h);
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      h := !b -. !a;
      d := !a +. (inv_phi *. !h);
      fd := f !d
    end
  done;
  let x, fx = if !fc < !fd then (!c, !fc) else (!d, !fd) in
  { x; fx; iterations = !iter }

let grid_then_golden ?(samples = 64) ?(tol = 1e-10) ~f lo hi =
  if samples < 3 then invalid_arg "Minimize.grid_then_golden: samples < 3";
  let step = (hi -. lo) /. float_of_int (samples - 1) in
  let best_i = ref 0 and best_f = ref infinity in
  for i = 0 to samples - 1 do
    let x = lo +. (float_of_int i *. step) in
    let fx = f x in
    if fx < !best_f then begin
      best_f := fx;
      best_i := i
    end
  done;
  let lo' = lo +. (float_of_int (max 0 (!best_i - 1)) *. step) in
  let hi' = lo +. (float_of_int (min (samples - 1) (!best_i + 1)) *. step) in
  let r = golden_section ~tol ~f lo' hi' in
  if r.fx <= !best_f then r
  else { x = lo +. (float_of_int !best_i *. step); fx = !best_f; iterations = r.iterations }

type result2 = { x0 : float; x1 : float; fx2 : float }

let grid2 ~f ~x0_range:(a0, b0) ~x1_range:(a1, b1) ~samples =
  if samples < 2 then invalid_arg "Minimize.grid2: samples < 2";
  let s0 = (b0 -. a0) /. float_of_int (samples - 1) in
  let s1 = (b1 -. a1) /. float_of_int (samples - 1) in
  let best = ref { x0 = a0; x1 = a1; fx2 = infinity } in
  for i = 0 to samples - 1 do
    let x0 = a0 +. (float_of_int i *. s0) in
    for j = 0 to samples - 1 do
      let x1 = a1 +. (float_of_int j *. s1) in
      let v = f x0 x1 in
      if v < !best.fx2 then best := { x0; x1; fx2 = v }
    done
  done;
  !best
