(* Every per-net and per-cell relation lives in flat int arrays built once
   per placement, so the swap loop builds no list or tuple. The
   netlist library builds with the dev profile's [-opaque]: nothing is
   inlined across modules, so the loop's float helpers ([hpwl], the
   Neumaier cell cost) live here and no float crosses a call per swap. *)

type t = {
  circuit : Circuit.t;
  xs : float array;  (* per cell, um *)
  ys : float array;
  (* Per-net pins, CSR: the driving cell first (primary inputs have
     none), then the readers in [Circuit.fanout] order, multiplicity
     kept. *)
  pin_off : int array;
  pin_cell : int array;
}

let wire_cap_per_um = 0.2e-15

let pins circuit =
  let nets = Circuit.net_count circuit in
  let pin_off = Array.make (nets + 1) 0 in
  let count n = pin_off.(n + 1) <- pin_off.(n + 1) + 1 in
  Circuit.iter_cells
    (fun cell ->
      Array.iter count cell.inputs;
      Array.iter count cell.outputs)
    circuit;
  for n = 1 to nets do
    pin_off.(n) <- pin_off.(n) + pin_off.(n - 1)
  done;
  let pin_cell = Array.make pin_off.(nets) 0 in
  (* [Circuit.fanout] prepends readers in cell-then-input order, so the
     last reader seen heads its list: fill each net's reader span from
     the back. *)
  let fill = Array.sub pin_off 1 nets in
  Circuit.iter_cells
    (fun cell ->
      Array.iter
        (fun n ->
          fill.(n) <- fill.(n) - 1;
          pin_cell.(fill.(n)) <- cell.id)
        cell.inputs;
      Array.iter (fun n -> pin_cell.(pin_off.(n)) <- cell.id) cell.outputs)
    circuit;
  (pin_off, pin_cell)

(* Signal-flow order: BFS from the cells driven by primary inputs, so
   connected logic lands in nearby rows — a crude but honest seed for a
   row-major standard-cell placement. [order] doubles as the BFS queue.
   Walking an output net's pins meets its driver first, which is the cell
   being drained and already seen, so the readers alone decide the
   order. *)
let flow_order circuit pin_off pin_cell =
  let count = Circuit.cell_count circuit in
  let seen = Array.make count false in
  let order = Array.make count 0 in
  let tail = ref 0 and head = ref 0 in
  let enqueue id =
    if not seen.(id) then begin
      seen.(id) <- true;
      order.(!tail) <- id;
      incr tail
    end
  in
  let enqueue_pins n =
    for k = pin_off.(n) to pin_off.(n + 1) - 1 do
      enqueue pin_cell.(k)
    done
  in
  List.iter enqueue_pins (Circuit.primary_inputs circuit);
  (* Sources with no primary-input fanin (ties, some registers). *)
  Circuit.iter_cells
    (fun cell -> if Array.length cell.inputs = 0 then enqueue cell.id)
    circuit;
  let drain () =
    while !head < !tail do
      let cell = Circuit.get_cell circuit order.(!head) in
      incr head;
      Array.iter enqueue_pins cell.outputs
    done
  in
  drain ();
  (* Anything unreachable (isolated subgraphs) goes last, in id order. *)
  Circuit.iter_cells (fun cell -> enqueue cell.id) circuit;
  drain ();
  order

let grid_geometry circuit =
  let total_area =
    Circuit.fold_cells
      (fun acc (cell : Circuit.cell) -> acc +. Cell.area cell.kind)
      0.0 circuit
  in
  (* Rows of equal height; a site is an average-cell-width slot. *)
  let side = Float.max 1.0 (sqrt total_area) in
  let count = max 1 (Circuit.cell_count circuit) in
  let avg_width = total_area /. float_of_int count /. 3.0 in
  let sites_per_row = max 1 (int_of_float (side /. Float.max 0.1 avg_width)) in
  (sites_per_row, Float.max 0.1 avg_width, 3.0)

let positions_of_order circuit order =
  let count = Circuit.cell_count circuit in
  let xs = Array.make count 0.0 and ys = Array.make count 0.0 in
  let sites_per_row, site_width, row_height = grid_geometry circuit in
  Array.iteri
    (fun slot id ->
      let row = slot / sites_per_row and col = slot mod sites_per_row in
      xs.(id) <- (float_of_int col +. 0.5) *. site_width;
      ys.(id) <- (float_of_int row +. 0.5) *. row_height)
    order;
  (xs, ys)

(* Half-perimeter of the pins' bounding box, 0 for fewer than two pins.
   Plain [<]/[>] give the same extremes as [Float.min]/[Float.max] here:
   positions are finite and positive, so there is no NaN or signed zero
   to tell them apart. *)
let[@inline] hpwl t net =
  let lo = t.pin_off.(net) and hi = t.pin_off.(net + 1) in
  if hi - lo < 2 then 0.0
  else begin
    let xs = t.xs and ys = t.ys in
    let c = t.pin_cell.(lo) in
    let x_min = ref xs.(c) and y_min = ref ys.(c) in
    let x_max = ref !x_min and y_max = ref !y_min in
    for k = lo + 1 to hi - 1 do
      let c = t.pin_cell.(k) in
      let x = xs.(c) and y = ys.(c) in
      if x < !x_min then x_min := x;
      if x > !x_max then x_max := x;
      if y < !y_min then y_min := y;
      if y > !y_max then y_max := y
    done;
    !x_max -. !x_min +. (!y_max -. !y_min)
  end

(* Nets touching each cell (driver or sink), deduplicated, CSR. Within a
   cell the nets run in reverse order of first appearance (outputs, then
   inputs, last to first). The cost sums them in this order, and a
   compensated sum depends on its order in the last bits, which decide
   close swaps. *)
let cell_nets circuit =
  let count = Circuit.cell_count circuit in
  let cell_off = Array.make (count + 1) 0 in
  let degree =
    Circuit.fold_cells
      (fun acc (cell : Circuit.cell) ->
        acc + Array.length cell.inputs + Array.length cell.outputs)
      0 circuit
  in
  let cell_net = Array.make degree 0 in
  let top = ref 0 in
  Circuit.iter_cells
    (fun cell ->
      let start = !top in
      let add n =
        let fresh = ref true in
        for k = start to !top - 1 do
          if cell_net.(k) = n then fresh := false
        done;
        if !fresh then begin
          cell_net.(!top) <- n;
          incr top
        end
      in
      Array.iter add cell.inputs;
      Array.iter add cell.outputs;
      let last = !top - 1 in
      for k = 0 to ((last - start + 1) / 2) - 1 do
        let n = cell_net.(start + k) in
        cell_net.(start + k) <- cell_net.(last - k);
        cell_net.(last - k) <- n
      done;
      cell_off.(cell.id + 1) <- !top)
    circuit;
  (cell_off, cell_net)

(* Sum of the cached lengths of the nets touching a cell — the quantity a
   swap of two cells can change — by Neumaier's compensated sum, the
   same arithmetic as [Numerics.Kahan], in the same order. *)
let[@inline] cell_cost len cell_off cell_net id =
  let total = ref 0.0 and compensation = ref 0.0 in
  for k = cell_off.(id) to cell_off.(id + 1) - 1 do
    let x = len.(cell_net.(k)) in
    let sum = !total +. x in
    let correction =
      if Float.abs !total >= Float.abs x then !total -. sum +. x
      else x -. sum +. !total
    in
    compensation := !compensation +. correction;
    total := sum
  done;
  !total +. !compensation

let place ?(seed = 1) ?(improvement_passes = 2) circuit =
  let pin_off, pin_cell = pins circuit in
  let xs, ys =
    positions_of_order circuit (flow_order circuit pin_off pin_cell)
  in
  let t = { circuit; xs; ys; pin_off; pin_cell } in
  let count = Circuit.cell_count circuit in
  let rng = Numerics.Rng.create seed in
  if count > 1 && improvement_passes > 0 then begin
    let cell_off, cell_net = cell_nets circuit in
    (* Per-net length cache: a swap re-measures only the nets of its two
       cells, saving the old lengths so a rejected swap can put them
       back. *)
    let len = Array.init (Circuit.net_count circuit) (hpwl t) in
    let max_degree = ref 0 in
    for id = 0 to count - 1 do
      max_degree := max !max_degree (cell_off.(id + 1) - cell_off.(id))
    done;
    let saved = Array.make (2 * !max_degree) 0.0 in
    let swap a b =
      let x = xs.(a) and y = ys.(a) in
      xs.(a) <- xs.(b);
      ys.(a) <- ys.(b);
      xs.(b) <- x;
      ys.(b) <- y
    in
    let remeasure id base =
      let lo = cell_off.(id) in
      for k = lo to cell_off.(id + 1) - 1 do
        let n = cell_net.(k) in
        saved.(base + k - lo) <- len.(n);
        len.(n) <- hpwl t n
      done
    in
    (* Reverse order, so a net shared by both cells, saved twice, ends
       with its first (pre-swap) length. (Swapping two pins of one net
       leaves its box unchanged, so both saved values agree anyway.) *)
    let restore id base =
      let lo = cell_off.(id) in
      for k = cell_off.(id + 1) - 1 downto lo do
        len.(cell_net.(k)) <- saved.(base + k - lo)
      done
    in
    for _ = 1 to improvement_passes do
      for _ = 1 to count do
        let a = Numerics.Rng.int rng count in
        let b = Numerics.Rng.int rng count in
        if a <> b then begin
          let before =
            cell_cost len cell_off cell_net a
            +. cell_cost len cell_off cell_net b
          in
          swap a b;
          let b_base = cell_off.(a + 1) - cell_off.(a) in
          remeasure a 0;
          remeasure b b_base;
          let after =
            cell_cost len cell_off cell_net a
            +. cell_cost len cell_off cell_net b
          in
          if after > before then begin
            swap a b;
            restore b b_base;
            restore a 0
          end
        end
      done
    done
  end;
  t

let position t id = (t.xs.(id), t.ys.(id))

let net_length t net = hpwl t net

let total_wirelength t =
  let acc = Numerics.Kahan.create () in
  for net = 0 to Circuit.net_count t.circuit - 1 do
    Numerics.Kahan.add acc (hpwl t net)
  done;
  Numerics.Kahan.sum acc

let wire_cap ?(cap_per_um = wire_cap_per_um) t net =
  cap_per_um *. net_length t net

type refined_stats = {
  base : Stats.t;
  total_wire_cap : float;
  avg_cap_with_wires : float;
  wire_cap_share : float;
  avg_net_length : float;
}

let refine_stats ?(cap_per_um = wire_cap_per_um) circuit t =
  let base = Stats.compute circuit in
  let wire = Numerics.Kahan.create () in
  let length = Numerics.Kahan.create () in
  let nets = Circuit.net_count circuit in
  for net = 0 to nets - 1 do
    let l = hpwl t net in
    Numerics.Kahan.add length l;
    Numerics.Kahan.add wire (cap_per_um *. l)
  done;
  let total_wire_cap = Numerics.Kahan.sum wire in
  let n = float_of_int (max 1 base.cell_total) in
  let cell_cap_total = base.avg_switched_cap *. n in
  {
    base;
    total_wire_cap;
    avg_cap_with_wires = (cell_cap_total +. total_wire_cap) /. n;
    wire_cap_share = total_wire_cap /. (cell_cap_total +. total_wire_cap);
    avg_net_length = Numerics.Kahan.sum length /. float_of_int (max 1 nets);
  }
