(* A fixed amount of work of the kinds the optpower processes do: small
   allocations, float transcendentals, hash-table updates and scattered
   reads of a few megabytes. perfbench/run.py runs it next to the program
   and scales the program's CPU time by how long this took, so that the
   host's speed of the moment cancels out. It does not link the optpower
   libraries, so no change to the program moves it.

   Given a directory, it first does what else an `optpower explore`
   process does, in about the same shares: the file operations of a fresh
   warm store in that directory (lock file, flushed log appends, fsync'd
   snapshot and rename), a levelised gate-level simulation (int arrays,
   data-dependent branches) and an interval branch and bound
   (outward-rounded floats, libm, short-lived allocation).

   Usage: calib.exe ROUNDS [DIR] *)

(* Gate-level simulation: [gates] two-input gates over [inputs] primary
   inputs, gate i reading two earlier signals, evaluated in index order for
   [vectors] random input vectors; counts output toggles. *)
let simulate ~gates ~inputs ~vectors =
  let n = inputs + gates in
  let kind = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  let seed = ref 987654321 in
  let next () =
    seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
    !seed lsr 4
  in
  for i = inputs to n - 1 do
    kind.(i) <- next () mod 6;
    a.(i) <- i - 1 - (next () mod min i 48);
    b.(i) <- next () mod i
  done;
  let v = Array.make n 0 in
  let toggles = ref 0 in
  for _ = 1 to vectors do
    for i = 0 to inputs - 1 do
      v.(i) <- (next () lsr 12) land 1
    done;
    for i = inputs to n - 1 do
      let x = v.(a.(i)) and y = v.(b.(i)) in
      let r =
        match kind.(i) with
        | 0 | 2 -> x lxor y
        | 1 -> x land y
        | 3 -> x lor y
        | 4 -> 1 - (x lxor y)
        | _ -> if x = 1 then y else 1 - y
      in
      if r <> v.(i) then incr toggles;
      v.(i) <- r
    done
  done;
  !toggles

(* Interval branch and bound of f x = c x^2 + x exp (-1/x) on [lo, hi]:
   the lower end of f's range, to within [eps]; counts boxes. *)
type iv = { lo : float; hi : float }

let down x = Float.pred x
let up x = Float.succ x

let f_iv c { lo; hi } =
  let sq = { lo = down (c *. lo *. lo); hi = up (c *. hi *. hi) } in
  let e = { lo = down (exp (-1.0 /. lo)); hi = up (exp (-1.0 /. hi)) } in
  { lo = down (sq.lo +. (lo *. e.lo)); hi = up (sq.hi +. (hi *. e.hi)) }

let f c x = (c *. x *. x) +. (x *. exp (-1.0 /. x))

let branch_and_bound c ~lo ~hi ~eps =
  let boxes = ref 0 and best = ref infinity in
  let rec go box =
    incr boxes;
    let r = f_iv c box in
    let mid = 0.5 *. (box.lo +. box.hi) in
    best := Float.min !best (f c mid);
    if r.lo < !best -. eps && box.hi -. box.lo > 1e-9 then begin
      go { box with hi = mid };
      go { box with lo = mid }
    end
  in
  go { lo; hi };
  (!boxes, !best)

(* The file operations of one fresh store, as lib/store does them. *)
let store_io dir =
  Unix.mkdir dir 0o755;
  let lock = Filename.concat dir "LOCK" in
  let fd = Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 in
  ignore (Unix.write_substring fd "12345\n" 0 6);
  Unix.close fd;
  let oc = open_out_bin (Filename.concat dir "log.bin") in
  let record = String.make 320 'r' in
  for _ = 1 to 48 do
    output_string oc record;
    flush oc
  done;
  let tmp = Filename.concat dir "index.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_CREAT; Unix.O_TRUNC; Unix.O_WRONLY ] 0o644 in
  let snapshot = String.make 24576 's' in
  ignore (Unix.write_substring fd snapshot 0 (String.length snapshot));
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp (Filename.concat dir "index.bin");
  close_out oc;
  Sys.remove lock

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let explore = Array.length Sys.argv > 2 in
  let toggles = ref 0 and boxes = ref 0 and lower = ref 0.0 in
  if explore then begin
    store_io Sys.argv.(2);
    toggles := simulate ~gates:4096 ~inputs:64 ~vectors:(rounds / 16);
    for k = 1 to rounds / 400 do
      let n, m =
        branch_and_bound (0.01 *. float_of_int k) ~lo:0.05 ~hi:4.0 ~eps:1e-6
      in
      boxes := !boxes + n;
      lower := !lower +. m
    done
  end;
  let table = Array.init (1 lsl 19) (fun i -> float_of_int (i land 1023)) in
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 and idx = ref 12345 in
  for r = 1 to rounds do
    let l = List.init 48 (fun k -> float_of_int (r + k) *. 1e-3) in
    let s =
      List.fold_left (fun a x -> a +. (exp (-.x) *. log (1.0 +. x))) 0.0 l
    in
    for _ = 1 to 16 do
      idx := ((!idx * 1103515245) + 12345) land ((1 lsl 19) - 1);
      acc := !acc +. table.(!idx)
    done;
    Hashtbl.replace h (r land 8191) s;
    acc := !acc +. s
  done;
  if explore then
    Printf.printf "%d %d %d %.6g %.6g\n" (Hashtbl.length h) !toggles !boxes
      !lower !acc
  else Printf.printf "%d %.6g\n" (Hashtbl.length h) !acc
