(* Reference oracle: the VHDL writer as it was before it wrote into one
   buffer, kept verbatim so the differential test in test_vhdl.ml can
   check that Icdb_netlist.Vhdl's entity_of, architecture_of, to_vhdl
   and dump write the same bytes. *)

open Icdb_netlist

let fail fmt = Printf.ksprintf (fun s -> raise (Vhdl.Vhdl_error s)) fmt

(* Net names like Q[3] or $m1 are legal IIF but not VHDL identifiers. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | '[' | ']' | '$' | '.' -> '_'
      | c -> c)
    name
  |> fun s ->
  if String.length s > 0 && s.[0] = '_' then "n" ^ s else s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* Entity declaration only (the VHDL_head query of §3.3). *)
let entity_of (nl : Netlist.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "entity %s is\n  port (\n" (sanitize nl.Netlist.name));
  let ports =
    List.map (fun n -> (n, "in")) nl.Netlist.inputs
    @ List.map (fun n -> (n, "out")) nl.Netlist.outputs
  in
  let last = List.length ports - 1 in
  List.iteri
    (fun i (n, dir) ->
      Buffer.add_string buf
        (Printf.sprintf "    %s : %s bit%s\n" (sanitize n) dir
           (if i = last then "" else ";")))
    ports;
  Buffer.add_string buf "  );\n";
  Buffer.add_string buf (Printf.sprintf "end %s;\n" (sanitize nl.Netlist.name));
  Buffer.contents buf

let architecture_of (nl : Netlist.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "architecture netlist of %s is\n" (sanitize nl.Netlist.name));
  (* component declarations, one per distinct cell *)
  let cells = List.sort_uniq compare (List.map (fun i -> i.Netlist.cell) nl.Netlist.instances) in
  List.iter
    (fun c -> Buffer.add_string buf (Printf.sprintf "  component %s end component;\n" c))
    cells;
  (* internal signals *)
  let io = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace io n ()) nl.Netlist.inputs;
  List.iter (fun n -> Hashtbl.replace io n ()) nl.Netlist.outputs;
  let internal =
    List.filter (fun n -> not (Hashtbl.mem io n)) (Netlist.nets nl)
  in
  if internal <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  signal %s : bit;\n"
         (String.concat ", " (List.map sanitize internal)));
  Buffer.add_string buf "begin\n";
  List.iter
    (fun (i : Netlist.instance) ->
      let maps =
        String.concat ", "
          (List.map (fun (p, n) -> Printf.sprintf "%s => %s" p (sanitize n)) i.conns)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s: %s port map (%s);  -- size %.2f\n"
           i.inst_name i.cell maps i.size))
    nl.Netlist.instances;
  Buffer.add_string buf "end netlist;\n";
  Buffer.contents buf

let to_vhdl nl = entity_of nl ^ "\n" ^ architecture_of nl

(* ------------------------------------------------------------------ *)
(* Exact persistence (workspace .vhdl files)                           *)
(* ------------------------------------------------------------------ *)

(* The sanitized entity/architecture text is what external tools read,
   but it does not round-trip: names are sanitized and drive sizes live
   in comments. Workspace files therefore carry a machine-readable
   trailer of "--#" comment lines (still legal VHDL) encoding the
   netlist exactly, which crash recovery reads back with [undump]. *)

let trailer_field what s =
  if String.contains s '\t' || String.contains s '\n' || String.contains s ','
     || String.contains s '=' then
    fail "%s %S not representable in a netlist trailer" what s;
  s

let dump nl =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (to_vhdl nl);
  Buffer.add_string buf
    (Printf.sprintf "--#name\t%s\n" (trailer_field "name" nl.Netlist.name));
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "--#in\t%s\n" (trailer_field "net" n)))
    nl.Netlist.inputs;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "--#out\t%s\n" (trailer_field "net" n)))
    nl.Netlist.outputs;
  List.iter
    (fun (i : Netlist.instance) ->
      Buffer.add_string buf
        (Printf.sprintf "--#inst\t%s\t%s\t%h\t%s\n"
           (trailer_field "instance" i.Netlist.inst_name)
           (trailer_field "cell" i.Netlist.cell)
           i.Netlist.size
           (String.concat ","
              (List.map
                 (fun (p, n) ->
                   trailer_field "pin" p ^ "=" ^ trailer_field "net" n)
                 i.Netlist.conns))))
    nl.Netlist.instances;
  Buffer.contents buf
