type net = int
type cell_id = int

type cell = {
  id : cell_id;
  kind : Cell.kind;
  inputs : net array;
  outputs : net array;
}

type net_info = { nname : string; mutable ndriver : (cell_id * int) option }

type t = {
  cname : string;
  cells : cell Vec.t;
  nets : net_info Vec.t;
  mutable pis : net list;  (* reverse order *)
  mutable pos : (net * string) list;  (* reverse order *)
  dff_inits : (cell_id, Logic.value) Hashtbl.t;
  mutable tie0_net : net option;
  mutable tie1_net : net option;
}

let create ?(expect_cells = 0) ?(expect_nets = 0) cname =
  {
    cname;
    cells = Vec.create ~capacity:expect_cells ();
    nets = Vec.create ~capacity:expect_nets ();
    pis = [];
    pos = [];
    dff_inits = Hashtbl.create 16;
    tie0_net = None;
    tie1_net = None;
  }

let name t = t.cname

let fresh_net t nname = Vec.push t.nets { nname; ndriver = None }

let add_input t nname =
  let n = fresh_net t nname in
  t.pis <- n :: t.pis;
  n

let add_input_bus t nname width =
  Array.init width (fun i -> add_input t (nname ^ "[" ^ Int.to_string i ^ "]"))

let check_inputs t kind inputs =
  if Array.length inputs <> Cell.arity kind then
    invalid_arg
      (Printf.sprintf "Circuit.add_cell: %s expects %d inputs, got %d"
         (Cell.name kind) (Cell.arity kind) (Array.length inputs));
  Array.iter
    (fun n ->
      if n < 0 || n >= Vec.length t.nets then
        invalid_arg "Circuit.add_cell: dangling net handle")
    inputs

let add_cell t kind inputs =
  check_inputs t kind inputs;
  let id = Vec.length t.cells in
  (* String concatenation, not Printf: this runs once per cell output and
     dominated the build profile. Names are byte-identical to the old
     "%s_%d_o%d" format. *)
  let stem = Cell.name kind ^ "_" ^ Int.to_string id ^ "_o" in
  let outputs =
    Array.init (Cell.output_count kind) (fun o ->
        fresh_net t (stem ^ Int.to_string o))
  in
  let cell = { id; kind; inputs; outputs } in
  let index = Vec.push t.cells cell in
  assert (index = id);
  Array.iteri
    (fun o n -> (Vec.get t.nets n).ndriver <- Some (id, o))
    outputs;
  outputs

let add_gate t kind inputs =
  match add_cell t kind inputs with
  | [| out |] -> out
  | _ -> invalid_arg "Circuit.add_gate: cell has multiple outputs"

let add_dff ?(init = Logic.Zero) t d =
  let q = add_gate t Cell.Dff [| d |] in
  let id =
    match (Vec.get t.nets q).ndriver with
    | Some (id, _) -> id
    | None -> assert false
  in
  Hashtbl.replace t.dff_inits id init;
  q

let tie0 t =
  match t.tie0_net with
  | Some n -> n
  | None ->
    let n = add_gate t Cell.Tie0 [||] in
    t.tie0_net <- Some n;
    n

let tie1 t =
  match t.tie1_net with
  | Some n -> n
  | None ->
    let n = add_gate t Cell.Tie1 [||] in
    t.tie1_net <- Some n;
    n

let mark_output t n oname =
  if n < 0 || n >= Vec.length t.nets then
    invalid_arg "Circuit.mark_output: dangling net handle";
  t.pos <- (n, oname) :: t.pos

let rewire_input t id slot net =
  if net < 0 || net >= Vec.length t.nets then
    invalid_arg "Circuit.rewire_input: dangling net handle";
  let cell = Vec.get t.cells id in
  if slot < 0 || slot >= Array.length cell.inputs then
    invalid_arg "Circuit.rewire_input: bad input slot";
  cell.inputs.(slot) <- net

let mark_output_bus t nets bname =
  Array.iteri
    (fun i n -> mark_output t n (bname ^ "[" ^ Int.to_string i ^ "]"))
    nets

let cell_count t = Vec.length t.cells
let net_count t = Vec.length t.nets

let get_cell t id = Vec.get t.cells id
let iter_cells f t = Vec.iter f t.cells
let fold_cells f init t = Vec.fold_left f init t.cells
let cells t = Vec.to_list t.cells
let primary_inputs t = List.rev t.pis
let primary_outputs t = List.rev t.pos

let find_output_bus t bname =
  let prefix = bname ^ "[" in
  let members =
    List.filter_map
      (fun (n, oname) ->
        if String.starts_with ~prefix oname then begin
          let index =
            String.sub oname (String.length prefix)
              (String.length oname - String.length prefix - 1)
          in
          Some (int_of_string index, n)
        end
        else None)
      (primary_outputs t)
  in
  if members = [] then raise Not_found;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) members in
  Array.of_list (List.map snd sorted)

let net_name t n = (Vec.get t.nets n).nname
let driver t n = (Vec.get t.nets n).ndriver
let is_primary_input t n = driver t n = None

let fanout t =
  let table = Array.make (net_count t) [] in
  iter_cells
    (fun cell ->
      Array.iteri
        (fun i n -> table.(n) <- (cell.id, i) :: table.(n))
        cell.inputs)
    t;
  table

let dff_init t id =
  match Hashtbl.find_opt t.dff_inits id with
  | Some v -> v
  | None -> Logic.Zero
