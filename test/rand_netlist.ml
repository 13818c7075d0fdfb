(* Seeded random cell netlists for the differential tests: mapped cells
   of every kind over earlier nets, reaching any net one time in ten;
   TBUFs share two bus nets, clock pins read the primary clock or an
   earlier flip-flop's output, and one comb pin in forty is left
   unconnected. A design has [min_cells] to [max_cells] cells. *)

open Icdb_logic
open Icdb_netlist

let pick st l = List.nth l (Random.State.int st (List.length l))

let random_netlist ?(min_cells = 2) ?(max_cells = 15) st case =
  let inputs = List.init (2 + Random.State.int st 4) (Printf.sprintf "a%d") in
  let buses = [ "bus0"; "bus1" ] in
  let n = min_cells + Random.State.int st (max_cells - min_cells + 1) in
  let wires = List.init n (Printf.sprintf "w%d") in
  let all = inputs @ wires @ buses @ [ "$const0"; "$const1" ] in
  let cells = Array.of_list Celllib.all in
  let qs = ref [] in
  let instances =
    List.init n (fun k ->
        let cell = cells.(Random.State.int st (Array.length cells)) in
        let out =
          if cell.Celllib.kind = Celllib.Tri_cell then pick st buses
          else List.nth wires k
        in
        let early =
          inputs @ List.filteri (fun j _ -> j < k) wires @ [ "$const0"; "$const1" ]
        in
        let source () =
          if Random.State.int st 10 = 0 then pick st all else pick st early
        in
        let conns =
          List.filter_map
            (fun p ->
              if cell.Celllib.kind = Celllib.Comb && Random.State.int st 40 = 0
              then None
              else if p = "CK" then
                Some (p, if !qs <> [] && Random.State.bool st then pick st !qs
                         else "a0")
              else Some (p, source ()))
            cell.Celllib.inputs
        in
        (match cell.Celllib.kind with Celllib.Ff _ -> qs := out :: !qs | _ -> ());
        { Netlist.inst_name = Printf.sprintf "u%d" k;
          cell = cell.Celllib.cname;
          size = 1.0;
          conns = (cell.Celllib.output, out) :: conns })
  in
  let outputs = List.filter (fun _ -> Random.State.bool st) (wires @ buses) in
  { Netlist.name = Printf.sprintf "rand%d" case;
    inputs;
    outputs = (if outputs = [] then [ "w0" ] else outputs);
    instances }
