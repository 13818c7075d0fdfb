(* CIF (Caltech Intermediate Form) output for generated layouts.

   The layout is symbolic: each placed cell becomes a box on the
   cell-outline layer with a user-text label, strips sit between power
   rails, and assigned ports appear as labelled pads on the bounding
   box. Dimensions are micrometres; CIF distances are written in
   centimicrons (×100). *)

open Icdb_netlist

type layout = {
  lname : string;
  lwidth : float;
  lheight : float;
  lstrips : int;
  boxes : (string * float * float * float * float) list;
      (* label, x, y, w, h — cell outlines *)
  rails : (float * float) list;  (* y, height of each Vdd/Vss rail *)
  port_pads : Ports.placed_port list;
}

(* Stack a placement into real coordinates: rails, strips and channels
   bottom-up, channel heights taken from the track estimate. *)
let of_placement (p : Strip.t) ~(ports : Ports.placed_port list) =
  let nl = p.Strip.netlist in
  let spans = Strip.channel_spans p in
  let width = Float.max (Strip.width p) 1.0 in
  let cells_per_strip =
    max 1 (List.length nl.Netlist.instances / max 1 p.Strip.strips)
  in
  let util = Area_est.track_utilization ~cells_in_strip:cells_per_strip in
  let channel_height ch =
    if ch >= Array.length spans then 0.0
    else
      let tracks =
        Float.ceil (spans.(ch) /. (width *. util))
      in
      tracks *. Area_est.track_pitch
  in
  (* y of the bottom of each strip *)
  let strip_y = Array.make p.Strip.strips 0.0 in
  let rails = ref [] in
  let y = ref 0.0 in
  for s = 0 to p.Strip.strips - 1 do
    rails := (!y, Area_est.rail_height) :: !rails;
    y := !y +. Area_est.rail_height;
    strip_y.(s) <- !y;
    y := !y +. Icdb_logic.Celllib.cell_height;
    if s < p.Strip.strips - 1 then y := !y +. channel_height s
  done;
  rails := (!y, Area_est.rail_height) :: !rails;
  y := !y +. Area_est.rail_height;
  let height = !y in
  let boxes =
    List.map
      (fun (c : Strip.placed_cell) ->
        ( c.Strip.pc_inst.Netlist.inst_name ^ ":" ^ c.Strip.pc_inst.Netlist.cell,
          c.Strip.pc_x,
          strip_y.(c.Strip.pc_strip),
          c.Strip.pc_width,
          Icdb_logic.Celllib.cell_height ))
      p.Strip.cells
  in
  { lname = nl.Netlist.name;
    lwidth = width;
    lheight = height;
    lstrips = p.Strip.strips;
    boxes;
    rails = List.rev !rails;
    port_pads = ports }

let cu f = int_of_float (Float.round (f *. 100.0))  (* µm -> centimicrons *)

let to_cif (l : layout) =
  let buf = Buffer.create 4096 in
  let box ~layer x y w h =
    Buffer.add_string buf
      (Printf.sprintf "    L %s; B %d %d %d %d;\n" layer (cu w) (cu h)
         (cu (x +. (w /. 2.0))) (cu (y +. (h /. 2.0))))
  in
  Buffer.add_string buf (Printf.sprintf "(CIF for %s, strips=%d);\n" l.lname l.lstrips);
  Buffer.add_string buf "DS 1 1 1;\n";
  Buffer.add_string buf (Printf.sprintf "  9 %s;\n" l.lname);
  (* bounding box on the well layer *)
  box ~layer:"CWN" 0.0 0.0 l.lwidth l.lheight;
  (* rails on metal1 *)
  List.iter (fun (y, h) -> box ~layer:"CMF" 0.0 y l.lwidth h) l.rails;
  (* cells on the poly layer with labels *)
  List.iter
    (fun (label, x, y, w, h) ->
      box ~layer:"CPG" x y w h;
      Buffer.add_string buf
        (Printf.sprintf "    94 %s %d %d;\n" label
           (cu (x +. (w /. 2.0))) (cu (y +. (h /. 2.0)))))
    l.boxes;
  (* port pads on metal2 *)
  List.iter
    (fun (p : Ports.placed_port) ->
      let pad = 8.0 in
      box ~layer:"CMS" (p.Ports.pp_x -. (pad /. 2.0))
        (p.Ports.pp_y -. (pad /. 2.0)) pad pad;
      Buffer.add_string buf
        (Printf.sprintf "    94 %s %d %d;\n" p.Ports.pp_name
           (cu p.Ports.pp_x) (cu p.Ports.pp_y)))
    l.port_pads;
  Buffer.add_string buf "DF;\nC 1;\nE\n";
  Buffer.contents buf

(* One-call convenience: place, assign ports, emit CIF. The estimate
   that sizes the port ring and the placement drawn share one
   arrangement. *)
let generate_prepared prep ~strips ~port_specs =
  Icdb_obs.Trace.with_span "cif.generate" @@ fun () ->
  let est = Area_est.estimate_prepared prep ~strips in
  let placement = Strip.place_arranged (Area_est.arrangement prep) ~strips in
  let ports =
    Ports.assign port_specs ~width:est.Area_est.width
      ~height:est.Area_est.height
  in
  let l = of_placement placement ~ports in
  (l, to_cif l)

let generate ?(seed = 1) (nl : Netlist.t) ~strips ~port_specs =
  generate_prepared (Area_est.prepare ~seed nl) ~strips ~port_specs
