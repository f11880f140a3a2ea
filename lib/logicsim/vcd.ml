module Logic = Netlist.Logic

type probe = {
  net : Netlist.Circuit.net;
  code : string;
  mutable last : Logic.value option;
}

type t = {
  sim : Compiled.t;
  timescale : string;
  probes : probe list;
  names : (string * string) list;  (* code, display name *)
  changes : Buffer.t;
  mutable last_time : float;
  mutable started : bool;
}

(* VCD identifier codes: printable ASCII 33..126, shortest first. *)
let code_of_index index =
  let base = 94 in
  let rec build i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else build ((i / base) - 1) acc
  in
  build index ""

let create ?(timescale = "1ns") sim ~nets =
  let probes =
    List.mapi
      (fun i (net, _) -> { net; code = code_of_index i; last = None })
      nets
  in
  let names =
    List.map2 (fun probe (_, name) -> (probe.code, name)) probes nets
  in
  {
    sim;
    timescale;
    probes;
    names;
    changes = Buffer.create 1024;
    last_time = neg_infinity;
    started = false;
  }

let char_of_value = function
  | Logic.Zero -> '0'
  | Logic.One -> '1'
  | Logic.X -> 'x'

let sample t ~time =
  if t.started && time < t.last_time then
    invalid_arg "Vcd.sample: time went backwards";
  let pending = Buffer.create 64 in
  List.iter
    (fun probe ->
      let now = Compiled.value t.sim probe.net in
      let changed =
        match probe.last with
        | None -> true
        | Some previous -> not (Logic.equal previous now)
      in
      if changed then begin
        probe.last <- Some now;
        Buffer.add_char pending (char_of_value now);
        Buffer.add_string pending probe.code;
        Buffer.add_char pending '\n'
      end)
    t.probes;
  if Buffer.length pending > 0 || not t.started then begin
    Buffer.add_string t.changes (Printf.sprintf "#%d\n" (int_of_float time));
    Buffer.add_buffer t.changes pending
  end;
  t.started <- true;
  t.last_time <- time

let header t =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer "$date optpower $end\n";
  Buffer.add_string buffer "$version optpower logicsim $end\n";
  Buffer.add_string buffer (Printf.sprintf "$timescale %s $end\n" t.timescale);
  Buffer.add_string buffer "$scope module top $end\n";
  List.iter
    (fun (code, name) ->
      Buffer.add_string buffer
        (Printf.sprintf "$var wire 1 %s %s $end\n" code name))
    t.names;
  Buffer.add_string buffer "$upscope $end\n$enddefinitions $end\n";
  Buffer.contents buffer

let contents t = header t ^ Buffer.contents t.changes

let write_file ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (contents t))
