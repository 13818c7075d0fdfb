(* Tests for strip placement, area/shape estimation, ports, CIF and the
   floorplanner. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_layout

let check = Alcotest.check

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let counter_nl ?(size = 5) () =
  synthesize
    (Builtin.expand_exn "COUNTER"
       [ ("size", size); ("type", 2); ("load", 1); ("enable", 1);
         ("up_or_down", 3) ])

(* ------------------------------------------------------------------ *)
(* Strip placement                                                     *)
(* ------------------------------------------------------------------ *)

let test_strip_all_cells_placed () =
  let nl = counter_nl () in
  let p = Strip.place nl ~strips:3 in
  check Alcotest.int "every instance placed"
    (List.length nl.Netlist.instances)
    (List.length p.Strip.cells)

let test_strip_respects_count () =
  let nl = counter_nl () in
  List.iter
    (fun strips ->
      let p = Strip.place nl ~strips in
      let used =
        List.sort_uniq compare
          (List.map (fun c -> c.Strip.pc_strip) p.Strip.cells)
      in
      check Alcotest.bool
        (Printf.sprintf "%d strips used (max %d)" (List.length used) strips)
        true
        (List.length used <= strips && List.for_all (fun s -> s < strips) used))
    [ 1; 2; 3; 5; 8 ]

let test_strip_no_overlap () =
  let nl = counter_nl () in
  let p = Strip.place nl ~strips:4 in
  List.iter
    (fun k ->
      let cells =
        List.sort
          (fun a b -> compare a.Strip.pc_x b.Strip.pc_x)
          (Strip.cells_of_strip p k)
      in
      let rec no_overlap = function
        | a :: (b :: _ as rest) ->
            check Alcotest.bool "no overlap" true
              (a.Strip.pc_x +. a.Strip.pc_width <= b.Strip.pc_x +. 0.001);
            no_overlap rest
        | _ -> ()
      in
      no_overlap cells)
    [ 0; 1; 2; 3 ]

let test_strip_balanced_widths () =
  let nl = counter_nl () in
  let p = Strip.place nl ~strips:4 in
  let widths = Array.to_list p.Strip.strip_widths in
  let mx = List.fold_left Float.max 0.0 widths in
  let mn = List.fold_left Float.min infinity widths in
  check Alcotest.bool
    (Printf.sprintf "balanced: min %.0f max %.0f" mn mx)
    true (mn > 0.0 && mx /. mn < 3.0)

(* ------------------------------------------------------------------ *)
(* Area estimation and shape functions                                 *)
(* ------------------------------------------------------------------ *)

let test_area_deterministic () =
  let nl = counter_nl () in
  let a = Area_est.estimate nl ~strips:3 in
  let b = Area_est.estimate nl ~strips:3 in
  check (Alcotest.float 0.0001) "same width" a.Area_est.width b.Area_est.width;
  check (Alcotest.float 0.0001) "same height" a.Area_est.height b.Area_est.height

let test_area_positive () =
  let nl = counter_nl () in
  List.iter
    (fun strips ->
      let e = Area_est.estimate nl ~strips in
      check Alcotest.bool "positive dims" true
        (e.Area_est.width > 0.0 && e.Area_est.height > 0.0))
    [ 1; 2; 4; 8 ]

let test_shape_monotone () =
  (* more strips: narrower and taller *)
  let nl = counter_nl () in
  let shapes = Shape.of_netlist nl in
  check Alcotest.bool "several alternatives" true (List.length shapes >= 4);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        check Alcotest.bool "width shrinks" true
          (b.Shape.alt_width <= a.Shape.alt_width +. 0.001);
        check Alcotest.bool "height grows" true
          (b.Shape.alt_height >= a.Shape.alt_height -. 0.001);
        monotone rest
    | _ -> ()
  in
  monotone shapes

let test_shape_pareto_subset () =
  let nl = counter_nl () in
  let shapes = Shape.of_netlist nl in
  let p = Shape.pareto shapes in
  check Alcotest.bool "pareto is a subset" true
    (List.length p <= List.length shapes && p <> [])

let test_shape_listing_format () =
  let nl = counter_nl ~size:3 () in
  let s = Shape.to_string (Shape.of_netlist nl) in
  check Alcotest.bool "has Alternative=1" true
    (String.length s >= 13 && String.sub s 0 13 = "Alternative=1")

let test_bigger_component_bigger_area () =
  let area size =
    (Shape.best_area (Shape.of_netlist (counter_nl ~size ()))).Shape.alt_area
  in
  check Alcotest.bool "8-bit counter bigger than 4-bit" true
    (area 8 > area 4)

(* ------------------------------------------------------------------ *)
(* The shape function against its per-count oracle                     *)
(* ------------------------------------------------------------------ *)

let bits = Int64.bits_of_float

let estimate_bits (e : Area_est.estimate) =
  (e.Area_est.strips, bits e.Area_est.width, bits e.Area_est.height,
   bits e.Area_est.area, e.Area_est.tracks)

let shape_bits (t : Shape.t) =
  List.map
    (fun (a : Shape.alternative) ->
      (a.Shape.alt_index, a.Shape.alt_strips, bits a.Shape.alt_width,
       bits a.Shape.alt_height, bits a.Shape.alt_area))
    t

(* [Shape.of_netlist], and at every strip count the estimate, the
   placement and its channel spans, equal the oracle's, which rebuilds
   everything per count; [None] when they do, else what differs. *)
let differs_from_oracle (nl : Netlist.t) =
  let m = Shape.max_strips_for nl in
  let counts = List.init m (fun i -> i + 1) in
  let placed p =
    List.map
      (fun (c : Strip.placed_cell) ->
        (c.Strip.pc_inst.Netlist.inst_name, c.Strip.pc_strip, bits c.Strip.pc_x,
         bits c.Strip.pc_width))
      p.Strip.cells
  in
  let oracle_placed (p : Oracle_shape.placement) =
    List.map
      (fun (c : Oracle_shape.placed_cell) ->
        (c.Oracle_shape.pc_inst.Netlist.inst_name, c.Oracle_shape.pc_strip,
         bits c.Oracle_shape.pc_x, bits c.Oracle_shape.pc_width))
      p.Oracle_shape.cells
  in
  if shape_bits (Shape.of_netlist nl) <> shape_bits (Oracle_shape.of_netlist nl)
  then Some "shape function"
  else
    List.find_map
      (fun strips ->
        let p = Strip.place nl ~strips and o = Oracle_shape.place nl ~strips in
        if estimate_bits (Area_est.estimate nl ~strips)
           <> estimate_bits (Oracle_shape.estimate nl ~strips)
        then Some (Printf.sprintf "estimate at %d strips" strips)
        else if placed p <> oracle_placed o
                || Array.map bits p.Strip.strip_widths
                   <> Array.map bits o.Oracle_shape.strip_widths
        then Some (Printf.sprintf "placement at %d strips" strips)
        else if Array.map bits (Strip.channel_spans p)
                <> Array.map bits (Oracle_shape.channel_spans o)
        then Some (Printf.sprintf "channel spans at %d strips" strips)
        else None)
      counts

let component name attrs =
  let c = Option.get (Icdb_genus.Component.find name) in
  Builtin.expand_exn c.Icdb_genus.Component.implementation
    (c.Icdb_genus.Component.params_of attrs)

(* Every catalogue component at sizes 1-6 that expands, and encode 8
   (1 105 cells, 20 strip counts). *)
let test_shape_catalogue_oracle () =
  let designs =
    List.concat_map
      (fun (c : Icdb_genus.Component.t) ->
        let name = c.Icdb_genus.Component.comp_name in
        let sizes =
          if List.mem_assoc "size" c.Icdb_genus.Component.attributes then
            [ 1; 2; 3; 4; 5; 6 ]
          else [ 0 ]
        in
        List.filter_map
          (fun size ->
            let attrs = if size = 0 then [] else [ ("size", size) ] in
            match component name attrs with
            | exception Expander.Expand_error _ -> None
            | f -> Some (Printf.sprintf "%s %d" name size, synthesize f))
          sizes)
      Icdb_genus.Component.all
  in
  let designs =
    designs @ [ ("encode 8", synthesize (component "encode" [ ("size", 8) ])) ]
  in
  check Alcotest.bool "at least 100 designs" true (List.length designs >= 100);
  List.iter
    (fun (label, nl) ->
      check Alcotest.(option string) label None (differs_from_oracle nl))
    designs

(* test_sim's random netlists (every cell kind, shared buses, loops),
   a third of them with 65-160 cells so the strip counts pass 8. *)
let test_shape_random_oracle () =
  let st = Random.State.make [| 0x5ba9e |] in
  for case = 1 to 90 do
    let nl =
      if case mod 3 = 0 then
        Rand_netlist.random_netlist ~min_cells:65 ~max_cells:160 st case
      else Rand_netlist.random_netlist st case
    in
    check Alcotest.(option string) nl.Netlist.name None (differs_from_oracle nl)
  done

(* ------------------------------------------------------------------ *)
(* Ports                                                               *)
(* ------------------------------------------------------------------ *)

let test_ports_parse_paper_format () =
  let text = "CLK left s1.0\nD[0] top 10\nD[1] top 20\nQ[0] bottom 10\nMINMAX right s2.0" in
  let specs = Ports.parse text in
  check Alcotest.int "five specs" 5 (List.length specs);
  let clk = List.find (fun s -> s.Ports.port = "CLK") specs in
  check Alcotest.bool "clk on left" true (clk.Ports.side = Ports.Left)

let test_ports_assignment_ordering () =
  let specs = Ports.parse "D[0] top 10\nD[1] top 20\nD[2] top 30" in
  let placed = Ports.assign specs ~width:100.0 ~height:50.0 in
  let x name = (List.find (fun p -> p.Ports.pp_name = name) placed).Ports.pp_x in
  check Alcotest.bool "ordered left to right" true
    (x "D[0]" < x "D[1]" && x "D[1]" < x "D[2]");
  List.iter
    (fun p -> check (Alcotest.float 0.001) "on top edge" 50.0 p.Ports.pp_y)
    placed

let test_ports_bad_side_rejected () =
  (try
     ignore (Ports.parse "CLK north 1");
     Alcotest.fail "expected Port_error"
   with Ports.Port_error _ -> ())

let test_ports_default () =
  let specs = Ports.default ~inputs:[ "A"; "CLK" ] ~outputs:[ "Y" ] in
  let clk = List.find (fun s -> s.Ports.port = "CLK") specs in
  check Alcotest.bool "clock at bottom" true (clk.Ports.side = Ports.Bottom);
  let y = List.find (fun s -> s.Ports.port = "Y") specs in
  check Alcotest.bool "output right" true (y.Ports.side = Ports.Right)

(* ------------------------------------------------------------------ *)
(* CIF                                                                 *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_cif_structure () =
  let nl = counter_nl ~size:3 () in
  let specs =
    Ports.default ~inputs:nl.Netlist.inputs ~outputs:nl.Netlist.outputs
  in
  let layout, cif = Cif.generate nl ~strips:3 ~port_specs:specs in
  check Alcotest.bool "DS/DF present" true
    (contains cif "DS 1 1 1;" && contains cif "DF;" && contains cif "E\n");
  check Alcotest.bool "has boxes" true (contains cif "B ");
  check Alcotest.bool "port label present" true (contains cif "94 CLK");
  check Alcotest.int "one box per instance + rails + ports + bbox" 3
    layout.Cif.lstrips;
  check Alcotest.int "boxes = instances"
    (List.length nl.Netlist.instances)
    (List.length layout.Cif.boxes)

let test_cif_deterministic () =
  let nl = counter_nl ~size:3 () in
  let specs = Ports.default ~inputs:nl.Netlist.inputs ~outputs:nl.Netlist.outputs in
  let _, a = Cif.generate nl ~strips:2 ~port_specs:specs in
  let _, b = Cif.generate nl ~strips:2 ~port_specs:specs in
  check Alcotest.string "same CIF" a b

(* ------------------------------------------------------------------ *)
(* Floorplan                                                           *)
(* ------------------------------------------------------------------ *)

let block name nl = { Floorplan.bname = name; bshapes = Shape.of_netlist nl }

let test_floorplan_two_blocks () =
  let a = block "ctr_a" (counter_nl ~size:4 ()) in
  let b = block "ctr_b" (counter_nl ~size:3 ()) in
  let r = Floorplan.best (Floorplan.beside (Floorplan.of_block a) (Floorplan.of_block b)) in
  check Alcotest.int "two placements" 2 (List.length r.Floorplan.rplacements);
  (* side by side: no x overlap *)
  match r.Floorplan.rplacements with
  | [ p1; p2 ] ->
      let sep =
        p1.Floorplan.px +. p1.Floorplan.pwidth <= p2.Floorplan.px +. 0.001
        || p2.Floorplan.px +. p2.Floorplan.pwidth <= p1.Floorplan.px +. 0.001
      in
      check Alcotest.bool "disjoint in x" true sep
  | _ -> Alcotest.fail "expected 2 placements"

let test_floorplan_auto_beats_naive () =
  let blocks =
    [ block "a" (counter_nl ~size:5 ());
      block "b" (counter_nl ~size:4 ());
      block "c" (counter_nl ~size:3 ()) ]
  in
  let auto = Floorplan.best_of_blocks blocks in
  (* naive: stack everything vertically using first shapes *)
  let naive =
    Floorplan.best
      (List.fold_left
         (fun acc b ->
           match acc with
           | None -> Some (Floorplan.of_block b)
           | Some acc -> Some (Floorplan.above acc (Floorplan.of_block b)))
         None blocks
      |> Option.get)
  in
  check Alcotest.bool
    (Printf.sprintf "auto %.0f <= naive %.0f" auto.Floorplan.rarea
       naive.Floorplan.rarea)
    true
    (auto.Floorplan.rarea <= naive.Floorplan.rarea +. 0.001);
  check Alcotest.int "all blocks placed" 3 (List.length auto.Floorplan.rplacements)

let test_floorplan_placements_inside_bbox () =
  let blocks =
    [ block "a" (counter_nl ~size:4 ()); block "b" (counter_nl ~size:3 ()) ]
  in
  let r = Floorplan.best_of_blocks blocks in
  List.iter
    (fun p ->
      check Alcotest.bool "inside" true
        (p.Floorplan.px >= -0.001 && p.Floorplan.py >= -0.001
        && p.Floorplan.px +. p.Floorplan.pwidth <= r.Floorplan.rwidth +. 0.001
        && p.Floorplan.py +. p.Floorplan.pheight <= r.Floorplan.rheight +. 0.001))
    r.Floorplan.rplacements

let test_floorplan_aspect_steering () =
  let blocks =
    [ block "a" (counter_nl ~size:4 ()); block "b" (counter_nl ~size:4 ()) ]
  in
  let wide = Floorplan.best ~aspect:(Some 3.0) (Floorplan.auto blocks) in
  let tall = Floorplan.best ~aspect:(Some 0.33) (Floorplan.auto blocks) in
  let ratio r = r.Floorplan.rwidth /. r.Floorplan.rheight in
  check Alcotest.bool
    (Printf.sprintf "wide %.2f > tall %.2f" (ratio wide) (ratio tall))
    true (ratio wide >= ratio tall)

let prop_pareto_no_dominated =
  QCheck.Test.make ~name:"floorplan pareto keeps no dominated point" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 12) (pair (int_range 1 100) (int_range 1 100)))
    (fun dims ->
      let cands =
        List.map
          (fun (w, h) ->
            { Floorplan.cwidth = float_of_int w;
              cheight = float_of_int h;
              build = (fun _ _ -> []) })
          dims
      in
      let p = Floorplan.pareto cands in
      List.for_all
        (fun a ->
          not
            (List.exists
               (fun b ->
                 b != a
                 && b.Floorplan.cwidth <= a.Floorplan.cwidth
                 && b.Floorplan.cheight < a.Floorplan.cheight)
               p))
        p)

let props = List.map QCheck_alcotest.to_alcotest [ prop_pareto_no_dominated ]

let () =
  Alcotest.run "layout"
    [ ("strip",
       [ Alcotest.test_case "all cells placed" `Quick test_strip_all_cells_placed;
         Alcotest.test_case "respects strip count" `Quick test_strip_respects_count;
         Alcotest.test_case "no overlap" `Quick test_strip_no_overlap;
         Alcotest.test_case "balanced widths" `Quick test_strip_balanced_widths ]);
      ("area",
       [ Alcotest.test_case "deterministic" `Quick test_area_deterministic;
         Alcotest.test_case "positive" `Quick test_area_positive;
         Alcotest.test_case "shape monotone" `Quick test_shape_monotone;
         Alcotest.test_case "pareto subset" `Quick test_shape_pareto_subset;
         Alcotest.test_case "listing format" `Quick test_shape_listing_format;
         Alcotest.test_case "bigger component bigger area" `Quick
           test_bigger_component_bigger_area;
         Alcotest.test_case "catalogue = per-count oracle" `Quick
           test_shape_catalogue_oracle;
         Alcotest.test_case "random = per-count oracle" `Quick
           test_shape_random_oracle ]);
      ("ports",
       [ Alcotest.test_case "parse paper format" `Quick test_ports_parse_paper_format;
         Alcotest.test_case "assignment ordering" `Quick test_ports_assignment_ordering;
         Alcotest.test_case "bad side rejected" `Quick test_ports_bad_side_rejected;
         Alcotest.test_case "default sides" `Quick test_ports_default ]);
      ("cif",
       [ Alcotest.test_case "structure" `Quick test_cif_structure;
         Alcotest.test_case "deterministic" `Quick test_cif_deterministic ]);
      ("floorplan",
       [ Alcotest.test_case "two blocks" `Quick test_floorplan_two_blocks;
         Alcotest.test_case "auto beats naive" `Quick test_floorplan_auto_beats_naive;
         Alcotest.test_case "inside bbox" `Quick test_floorplan_placements_inside_bbox;
         Alcotest.test_case "aspect steering" `Quick test_floorplan_aspect_steering ]);
      ("properties", props) ]
