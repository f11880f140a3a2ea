module C = Netlist.Circuit

type cycle_record = {
  index : int;
  toggles : int;
  switched_cap : float;
  energy : float;
}

type t = {
  cycles : cycle_record list;
  vdd : float;
  average_energy : float;
  peak_energy : float;
  peak_to_average : float;
}

let record ?(warmup = 4) ?(ticks_per_cycle = 1) ~vdd ~cycles ~drive sim =
  if cycles < 1 then invalid_arg "Power_trace.record: cycles < 1";
  if vdd <= 0.0 then invalid_arg "Power_trace.record: vdd <= 0";
  let circuit = Compiled.circuit sim in
  let run_cycle ~cycle =
    drive sim ~cycle;
    Compiled.data_cycle sim ~ticks:ticks_per_cycle
  in
  for cycle = 0 to warmup - 1 do
    run_cycle ~cycle
  done;
  (* The per-cycle loop reuses two counter buffers and a hoisted per-cell
     capacitance table instead of allocating two toggle snapshots and a
     delta array every cycle. *)
  let n_cells = C.cell_count circuit in
  let cap = Array.make n_cells 0.0 in
  C.iter_cells
    (fun cell -> cap.(cell.id) <- Netlist.Cell.switched_cap cell.kind)
    circuit;
  let previous = Array.make n_cells 0 and current = Array.make n_cells 0 in
  let records = ref [] in
  Compiled.cell_toggles_into sim previous;
  let previous_total = ref (Compiled.total_toggles sim) in
  for index = 0 to cycles - 1 do
    run_cycle ~cycle:(warmup + index);
    Compiled.cell_toggles_into sim current;
    let acc = Numerics.Kahan.create () in
    for i = 0 to n_cells - 1 do
      let delta = current.(i) - previous.(i) in
      if delta > 0 then
        Numerics.Kahan.add acc (float_of_int delta *. cap.(i))
    done;
    let switched_cap = Numerics.Kahan.sum acc in
    let toggles = Compiled.total_toggles sim - !previous_total in
    Array.blit current 0 previous 0 n_cells;
    previous_total := Compiled.total_toggles sim;
    records :=
      { index; toggles; switched_cap; energy = switched_cap *. vdd *. vdd }
      :: !records
  done;
  let cycle_list = List.rev !records in
  let energies = List.map (fun r -> r.energy) cycle_list in
  let average_energy = Numerics.Kahan.sum_list energies /. float_of_int cycles in
  let peak_energy = List.fold_left Float.max 0.0 energies in
  {
    cycles = cycle_list;
    vdd;
    average_energy;
    peak_energy;
    peak_to_average =
      (if average_energy = 0.0 then 0.0 else peak_energy /. average_energy);
  }

let to_csv t =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.index;
          string_of_int r.toggles;
          Printf.sprintf "%.6g" r.switched_cap;
          Printf.sprintf "%.6g" r.energy;
        ])
      t.cycles
  in
  String.concat "\n"
    ("cycle,toggles,switched_cap_f,energy_j"
    :: List.map (String.concat ",") rows)
  ^ "\n"
