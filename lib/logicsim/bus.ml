module Logic = Netlist.Logic

let to_values ~width value =
  if value < 0 then invalid_arg "Bus.to_values: negative value";
  if width < 63 && value lsr width <> 0 then
    invalid_arg "Bus.to_values: value does not fit";
  Array.init width (fun i -> Logic.of_bool ((value lsr i) land 1 = 1))

let of_values values =
  let width = Array.length values in
  let rec build i acc =
    if i >= width then Some acc
    else begin
      match Logic.to_bool values.(i) with
      | None -> None
      | Some b -> build (i + 1) (if b then acc lor (1 lsl i) else acc)
    end
  in
  build 0 0

let drive sim bus value =
  (* Same bit order and validation as [to_values], without materialising
     the intermediate array — [drive] runs once per bus per cycle in the
     activity loops. *)
  let width = Array.length bus in
  if value < 0 then invalid_arg "Bus.to_values: negative value";
  if width < 63 && value lsr width <> 0 then
    invalid_arg "Bus.to_values: value does not fit";
  for i = 0 to width - 1 do
    Compiled.set_input sim bus.(i)
      (Logic.of_bool ((value lsr i) land 1 = 1))
  done

let read sim bus = of_values (Array.map (Compiled.value sim) bus)

let read_exn sim bus =
  match read sim bus with
  | Some v -> v
  | None -> failwith "Bus.read_exn: X bit in bus"
