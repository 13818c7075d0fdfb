(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5 and the examples of §3.3 / Appendix B), printing the
   paper's reported series next to the measured ones, then runs
   Bechamel micro-benchmarks for the §4.4 generation-latency claim.

   Run everything:         dune exec bench/main.exe
   Run one experiment:     dune exec bench/main.exe -- fig5
   Run the ratio gates:    dune exec bench/main.exe -- gates (gates.ml)
   List experiments:       dune exec bench/main.exe -- list *)

open Icdb
open Icdb_iif
open Icdb_logic
open Icdb_timing
open Icdb_layout
open Icdb_baseline

let header title =
  Printf.printf "\n=== %s ===\n" title

let sub title = Printf.printf "-- %s --\n" title

let kilo f = f /. 1000.0

(* one shared server: instance caching mirrors real tool use *)
let server = lazy (Server.create ())

let counter_instance ?(size = 5) ?(typ = 2) ?(load = 0) ?(enable = 0) ?(ud = 1)
    ?constraints () =
  Server.request_component (Lazy.force server)
    (Spec.make ?constraints
       (Spec.From_component
          { component = "counter";
            attributes =
              [ ("size", size); ("type", typ); ("load", load);
                ("enable", enable); ("up_or_down", ud) ];
            functions = [] }))

let synthesize flat =
  let network = Network.of_flat flat in
  Opt.optimize network;
  Techmap.map network

(* ------------------------------------------------------------------ *)
(* E1 / Figure 5: area-time tradeoff of counters                       *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "E1 / Figure 5: area/time tradeoff of 5-bit up-counters";
  (* paper series: (name, delay ns, area 10^3 um^2) *)
  let paper =
    [ ("ripple", 17.4, 17.2);
      ("sync up", 5.8, 23.6);
      ("sync up + enable", 9.8, 30.0);
      ("sync up/down", 5.1, 37.3);
      ("sync up/down + load", 11.3, 53.4) ]
  in
  let measured =
    [ ("ripple", counter_instance ~typ:1 ());
      ("sync up", counter_instance ());
      ("sync up + enable", counter_instance ~enable:1 ());
      ("sync up/down", counter_instance ~ud:3 ());
      ("sync up/down + load", counter_instance ~ud:3 ~load:1 ~enable:1 ()) ]
  in
  Printf.printf "%-22s | %8s %12s | %8s %12s\n" "implementation"
    "paper ns" "paper 1e3um2" "ours ns" "ours 1e3um2";
  Printf.printf "%s\n" (String.make 72 '-');
  let rows =
    List.map2
      (fun (name, pd, pa) (_, inst) ->
        let wd = List.assoc "Q[4]" inst.Instance.report.Sta.output_delays in
        let area = kilo (Instance.best_area inst) in
        Printf.printf "%-22s | %8.1f %12.1f | %8.1f %12.1f\n" name pd pa wd area;
        (name, wd, area))
      paper measured
  in
  (* qualitative checks the paper's figure shows *)
  let get n = List.find (fun (m, _, _) -> m = n) rows in
  let (_, rip_d, rip_a) = get "ripple" in
  let (_, su_d, _) = get "sync up" in
  let (_, _, full_a) = get "sync up/down + load" in
  Printf.printf "shape checks: ripple slowest (%b), ripple smallest (%b), \
                 full-featured largest (%b), sync up faster than ripple (%b)\n"
    (List.for_all (fun (_, d, _) -> rip_d >= d) rows)
    (List.for_all (fun (_, _, a) -> rip_a <= a) rows)
    (List.for_all (fun (_, _, a) -> full_a >= a) rows)
    (su_d < rip_d)

(* ------------------------------------------------------------------ *)
(* E2 / Figure 6: shape function of the updown counter                 *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "E2 / Figure 6: shape function of the 5-bit up/down counter";
  let paper =
    [ (33.0, 115.0); (36.0, 99.0); (37.0, 90.0); (44.0, 76.0);
      (67.0, 55.0); (67.0, 52.0); (88.0, 41.0); (133.0, 32.0) ]
  in
  let inst = counter_instance ~ud:3 ~load:1 ~enable:1 () in
  let shapes =
    List.sort
      (fun a b -> compare a.Shape.alt_width b.Shape.alt_width)
      inst.Instance.shape
  in
  Printf.printf "paper (width x height, 1e2 um):    %s\n"
    (String.concat " "
       (List.map (fun (w, h) -> Printf.sprintf "(%.0f,%.0f)" w h) paper));
  Printf.printf "measured (width x height, 1e1 um): %s\n"
    (String.concat " "
       (List.map
          (fun a ->
            Printf.sprintf "(%.0f,%.0f)" (a.Shape.alt_width /. 10.0)
              (a.Shape.alt_height /. 10.0))
          shapes));
  let monotone =
    let rec ok = function
      | a :: (b :: _ as rest) ->
          a.Shape.alt_width <= b.Shape.alt_width
          && a.Shape.alt_height >= b.Shape.alt_height
          && ok rest
      | _ -> true
    in
    ok shapes
  in
  Printf.printf
    "shape checks: %d alternatives (paper: 8), widths up / heights down \
     monotone (%b)\n"
    (List.length shapes) monotone

(* ------------------------------------------------------------------ *)
(* E3 / §3.3 delay report                                              *)
(* ------------------------------------------------------------------ *)

let tab_delay () =
  header "E3 / §3.3 delay listing: counter with enable, updown, parallel load";
  print_endline
    "paper:     CW 29.0 | WD Q[4] 8.5  Q[3] 8.5  Q[2] 8.5  Q[1] 9.7  Q[0] 8.7 \
     | WD MINMAX 27.3 | SD DWUP 26.7";
  let inst = counter_instance ~ud:3 ~load:1 ~enable:1 () in
  let r = inst.Instance.report in
  let wd p = List.assoc p r.Sta.output_delays in
  Printf.printf
    "measured:  CW %.1f | WD Q[4] %.1f  Q[3] %.1f  Q[2] %.1f  Q[1] %.1f  \
     Q[0] %.1f | WD MINMAX %.1f | SD DWUP %.1f\n"
    r.Sta.clock_width (wd "Q[4]") (wd "Q[3]") (wd "Q[2]") (wd "Q[1]")
    (wd "Q[0]") (wd "MINMAX")
    (List.assoc "DWUP" r.Sta.setup_times);
  Printf.printf
    "shape checks: MINMAX slower than every Q (%b), DWUP setup below CW (%b), \
     CW above worst WD Q (%b)\n"
    (List.for_all (fun q -> wd "MINMAX" > wd q)
       [ "Q[0]"; "Q[1]"; "Q[2]"; "Q[3]"; "Q[4]" ])
    (List.assoc "DWUP" r.Sta.setup_times <= r.Sta.clock_width)
    (r.Sta.clock_width >= wd "Q[4]");
  sub "full generated report";
  print_string (Sta.report_to_string r)

(* ------------------------------------------------------------------ *)
(* E4 / §3.3 + App B §5.3 shape & area listings                        *)
(* ------------------------------------------------------------------ *)

let tab_shape () =
  header "E4 / shape-function and area listings (§3.3, App B §5.3)";
  let inst = counter_instance ~ud:3 ~load:1 ~enable:1 () in
  sub "Alternative listing (§3.3 format)";
  print_endline (Instance.shape_string inst);
  sub "strip/width/height/area listing (App B §5.3 format)";
  print_endline (Instance.area_listing inst)

(* ------------------------------------------------------------------ *)
(* E5 / Figure 9: layouts of the five counters                         *)
(* ------------------------------------------------------------------ *)

let out_dir () =
  let dir = "bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let fig9 () =
  header "E5 / Figure 9: CIF layouts of the five counter implementations";
  let dir = out_dir () in
  List.iter
    (fun (tag, inst) ->
      let _, cif, _ = Server.request_layout (Lazy.force server) inst.Instance.id () in
      let path = Filename.concat dir (Printf.sprintf "fig9_%s.cif" tag) in
      Out_channel.with_open_text path (fun oc -> output_string oc cif);
      let best = Shape.best_area inst.Instance.shape in
      Printf.printf "%-22s %4d gates  %6.0f x %5.0f um  -> %s (%d bytes)\n" tag
        (Instance.gate_count inst) best.Shape.alt_width best.Shape.alt_height
        path (String.length cif))
    [ ("ripple", counter_instance ~typ:1 ());
      ("sync_up", counter_instance ());
      ("sync_up_enable", counter_instance ~enable:1 ());
      ("sync_updown", counter_instance ~ud:3 ());
      ("sync_updown_load", counter_instance ~ud:3 ~load:1 ~enable:1 ()) ]

(* ------------------------------------------------------------------ *)
(* E6 / Figure 10: area/load tradeoff                                  *)
(* ------------------------------------------------------------------ *)

let q_ports size = List.init size (fun i -> Printf.sprintf "Q[%d]" i)

let sized_area ~loads ~cw_bound =
  let flat =
    Builtin.expand_exn "COUNTER"
      [ ("size", 5); ("type", 2); ("load", 0); ("enable", 0); ("up_or_down", 3) ]
  in
  let nl = synthesize flat in
  let port_loads = List.map (fun p -> (p, loads)) (q_ports 5) in
  let constraints =
    { Sizing.default_constraints with
      clock_width = Some cw_bound;
      port_loads }
  in
  let sized = Sizing.size_to_constraints nl constraints in
  let met = Sizing.meets_constraints sized constraints in
  ((Shape.best_area (Shape.of_netlist sized)).Shape.alt_area, met)

let fig10 () =
  header "E6 / Figure 10: area/load tradeoff of the up/down counter";
  let paper =
    [ (10.0, 33.2); (20.0, 34.5); (30.0, 35.7); (40.0, 35.4); (50.0, 38.5) ]
  in
  (* fix the clock-width bound the way the paper fixes 25 ns: at the
     unsized CW for the smallest load, so larger loads force sizing *)
  let flat =
    Builtin.expand_exn "COUNTER"
      [ ("size", 5); ("type", 2); ("load", 0); ("enable", 0); ("up_or_down", 3) ]
  in
  let nl = synthesize flat in
  let base_cw =
    (Sta.analyze ~port_loads:(List.map (fun p -> (p, 10.0)) (q_ports 5)) nl)
      .Sta.clock_width
  in
  let cw_bound = base_cw in
  Printf.printf "clock-width bound: %.1f ns (paper: 25 ns)\n" cw_bound;
  Printf.printf "%-6s | %12s | %12s %s\n" "load" "paper 1e3um2" "ours 1e3um2" "met";
  let areas =
    List.map
      (fun (load, pa) ->
        let area, met = sized_area ~loads:load ~cw_bound in
        Printf.printf "%-6.0f | %12.1f | %12.1f %s\n" load pa (kilo area)
          (if met then "yes" else "no");
        area)
      paper
  in
  let a10 = List.nth areas 0 and a40 = List.nth areas 3 in
  Printf.printf
    "shape checks: largest load not cheaper than smallest (%b); growth \
     10->40 = %.1f%% (paper: ~6%%)\n"
    (List.nth areas 4 >= a10)
    (100.0 *. (a40 -. a10) /. a10)

(* ------------------------------------------------------------------ *)
(* E7 / Figure 11: area/clock-width tradeoff                           *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "E7 / Figure 11: area/clock-width tradeoff of the up/down counter";
  let paper = [ (24.0, 30.7); (25.0, 29.0); (27.0, 31.6); (30.0, 32.9) ] in
  let flat =
    Builtin.expand_exn "COUNTER"
      [ ("size", 5); ("type", 2); ("load", 0); ("enable", 0); ("up_or_down", 3) ]
  in
  let nl = synthesize flat in
  let loads = List.map (fun p -> (p, 10.0)) (q_ports 5) in
  let base_cw = (Sta.analyze ~port_loads:loads nl).Sta.clock_width in
  Printf.printf "unsized CW at load 10: %.1f ns (paper sweeps 24..30 ns)\n" base_cw;
  Printf.printf "%-10s | %12s | %-10s %12s %s\n" "paper CW" "paper 1e3um2"
    "ours CW" "ours 1e3um2" "met";
  let areas =
    List.map
      (fun (factor, (pcw, pa)) ->
        let bound = base_cw *. factor in
        let constraints =
          { Sizing.default_constraints with
            clock_width = Some bound;
            port_loads = loads }
        in
        let sized = Sizing.size_to_constraints nl constraints in
        let met = Sizing.meets_constraints sized constraints in
        let area = (Shape.best_area (Shape.of_netlist sized)).Shape.alt_area in
        Printf.printf "%-10.1f | %12.1f | %-10.1f %12.1f %s\n" pcw pa bound
          (kilo area)
          (if met then "yes" else "no");
        area)
      (List.combine [ 0.90; 0.94; 0.98; 1.02 ] paper)
  in
  let amax = List.fold_left Float.max 0.0 areas in
  let amin = List.fold_left Float.min infinity areas in
  Printf.printf
    "shape checks: tightest clock never cheaper than loosest (%b); area band \
     %.1f%% (paper: ~6%%)\n"
    (List.nth areas 0 >= List.nth areas 3)
    (100.0 *. (amax -. amin) /. amin)

(* ------------------------------------------------------------------ *)
(* E8 / Figure 12: different-shape layouts                             *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "E8 / Figure 12: the same counter laid out in different shapes";
  let inst = counter_instance ~ud:3 ~load:1 ~enable:1 () in
  let dir = out_dir () in
  List.iter
    (fun (a : Shape.alternative) ->
      let layout, cif, _ =
        Server.request_layout (Lazy.force server) inst.Instance.id
          ~alternative:a.Shape.alt_index ()
      in
      let path =
        Filename.concat dir
          (Printf.sprintf "fig12_strips%d.cif" a.Shape.alt_strips)
      in
      Out_channel.with_open_text path (fun oc -> output_string oc cif);
      Printf.printf
        "alternative %d: %d strips, %6.0f x %5.0f um (aspect %5.2f) -> %s\n"
        a.Shape.alt_index a.Shape.alt_strips layout.Cif.lwidth
        layout.Cif.lheight
        (layout.Cif.lwidth /. layout.Cif.lheight)
        path)
    inst.Instance.shape

(* ------------------------------------------------------------------ *)
(* E9 / Figure 13: the simple computer                                 *)
(* ------------------------------------------------------------------ *)

let cpu_control_iif =
  {|
NAME:CPU_CTRL;
INORDER: OP0, OP1, Z, CLK, RESET;
OUTORDER: ALU_C0, ALU_C1, ALU_C2, ACC_LD, PC_EN, MEM_RD, MEM_WR;
PIIFVARIABLE: S0, S1, N0, N1, FETCH, EXEC, WRITE;
{
  FETCH = !S0*!S1;
  EXEC  = S0*!S1;
  WRITE = !S0*S1;
  N0 = FETCH;
  N1 = EXEC*OP1;
  S0 = N0 @(~r CLK) ~a(0/(RESET));
  S1 = N1 @(~r CLK) ~a(0/(RESET));
  ALU_C2 = EXEC;
  ALU_C1 = EXEC*OP1*Z;
  ALU_C0 = EXEC*OP0;
  ACC_LD = EXEC;
  PC_EN  = FETCH + WRITE*!Z;
  MEM_RD = FETCH;
  MEM_WR = WRITE*OP0;
}
|}

let fig13 () =
  header "E9 / Figure 13: two floorplans of a simple computer";
  print_endline
    "paper: control at left   -> 1558 x 1838 um = 2,863,604 um2 (aspect ~1:1)";
  print_endline
    "paper: control at bottom -> 2420 x 1207 um = 2,320,940 um2 (aspect ~2:1)";
  let s = Lazy.force server in
  let comp name attrs =
    Server.request_component s
      (Spec.make
         (Spec.From_component { component = name; attributes = attrs; functions = [] }))
  in
  let alu = comp "alu" [ ("size", 8) ] in
  let acc = comp "register" [ ("size", 8) ] in
  let opreg = comp "register" [ ("size", 8) ] in
  let mux = comp "mux_scl" [ ("size", 8) ] in
  let pc =
    comp "counter"
      [ ("size", 8); ("type", 2); ("load", 1); ("enable", 1); ("up_or_down", 1) ]
  in
  let ctrl =
    Server.request_component s (Spec.make (Spec.From_iif cpu_control_iif))
  in
  let block name (i : Instance.t) =
    { Floorplan.bname = name; bshapes = i.Instance.shape }
  in
  let datapath =
    Floorplan.auto
      [ block "alu" alu; block "acc" acc; block "opreg" opreg;
        block "mux" mux; block "pc" pc ]
  in
  let shapes = ctrl.Instance.shape in
  let tall = List.filter (fun a -> a.Shape.alt_width <= a.Shape.alt_height) shapes in
  let wide = List.filter (fun a -> a.Shape.alt_width >= a.Shape.alt_height) shapes in
  let pick l = if l = [] then shapes else l in
  let cblock l = Floorplan.of_block { Floorplan.bname = "control"; bshapes = pick l } in
  let left =
    Floorplan.best ~aspect:(Some 1.0) (Floorplan.beside (cblock tall) datapath)
  in
  let bottom =
    Floorplan.best ~aspect:(Some 2.0) (Floorplan.above datapath (cblock wide))
  in
  Printf.printf "ours:  control at left   -> %4.0f x %4.0f um = %9.0f um2 (aspect %.2f)\n"
    left.Floorplan.rwidth left.Floorplan.rheight left.Floorplan.rarea
    (left.Floorplan.rwidth /. left.Floorplan.rheight);
  Printf.printf "ours:  control at bottom -> %4.0f x %4.0f um = %9.0f um2 (aspect %.2f)\n"
    bottom.Floorplan.rwidth bottom.Floorplan.rheight bottom.Floorplan.rarea
    (bottom.Floorplan.rwidth /. bottom.Floorplan.rheight);
  let ratio = bottom.Floorplan.rarea /. left.Floorplan.rarea in
  Printf.printf
    "shape checks: both variants produced; bottom/left area ratio %.2f \
     (paper: 0.81); wide-control variant has the wider aspect (%b)\n"
    ratio
    (bottom.Floorplan.rwidth /. bottom.Floorplan.rheight
     > left.Floorplan.rwidth /. left.Floorplan.rheight)

(* ------------------------------------------------------------------ *)
(* E10 / App B §5.3: the three-bit up/down counter instance query      *)
(* ------------------------------------------------------------------ *)

let tab_instq () =
  header "E10 / App B §5.3: three_bit_up_down_counter instance query";
  print_endline
    "paper: functions LOAD STORE INC DEC | CW 20.3 | WD O[2] 5.6 O[1] 12.3 \
     O[0] 7.8 | SD UPDOWN 100";
  let inst = counter_instance ~size:3 ~ud:3 ~load:1 ~enable:0 () in
  Printf.printf "measured: functions %s | CW %.1f | WD Q[2] %.1f Q[1] %.1f \
                 Q[0] %.1f | SD DWUP %.1f\n"
    (Instance.functions_string inst)
    inst.Instance.report.Sta.clock_width
    (List.assoc "Q[2]" inst.Instance.report.Sta.output_delays)
    (List.assoc "Q[1]" inst.Instance.report.Sta.output_delays)
    (List.assoc "Q[0]" inst.Instance.report.Sta.output_delays)
    (List.assoc "DWUP" inst.Instance.report.Sta.setup_times);
  let fs = Instance.functions_string inst in
  let has f =
    let nf = String.length f and ns = String.length fs in
    let rec at i = i + nf <= ns && (String.sub fs i nf = f || at (i + 1)) in
    at 0
  in
  Printf.printf "shape checks: LOAD (%b) STORAGE (%b) INC (%b) DEC (%b)\n"
    (has "LOAD") (has "STORAGE") (has "INC") (has "DEC")

(* ------------------------------------------------------------------ *)
(* E11 / §4.1 connection information                                   *)
(* ------------------------------------------------------------------ *)

let tab_connect () =
  header "E11 / §4.1: connection information of the up/down counter";
  print_endline "paper:";
  print_endline "  ## function INC";
  print_endline "  OO is OO high";
  print_endline "  ** DWUP 0";
  print_endline "  ** ENA 0";
  print_endline "  ** LOAD 1";
  print_endline "  ** CLK 1 edge_trigger";
  let inst = counter_instance ~ud:3 ~load:1 ~enable:1 () in
  print_endline "measured:";
  String.split_on_char '\n' (Instance.connect_string inst)
  |> List.iter (fun l -> print_endline ("  " ^ l));
  print_endline
    "(note: our enable is active high, so ENA is 1 where the paper shows 0)"

(* ------------------------------------------------------------------ *)
(* E13 / ablation: ICDB vs fixed vs generic libraries                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "E13 / ablation: the same allocation served three ways (§1 claims)";
  let s = Server.create () in
  let fixed =
    Fixed_lib.build s [ "counter"; "register"; "adder"; "mux_scl"; "comparator" ]
  in
  (* a small datapath's needs: odd widths and polarity mismatches are
     exactly what fixed catalogs handle badly *)
  let needs =
    [ { Compare.n_component = "register"; n_size = 5; n_active_low_inputs = 1;
        n_max_delay = Some 12.0 };
      { Compare.n_component = "adder"; n_size = 5; n_active_low_inputs = 0;
        n_max_delay = Some 14.0 };
      { Compare.n_component = "counter"; n_size = 5; n_active_low_inputs = 1;
        n_max_delay = Some 30.0 };
      { Compare.n_component = "mux_scl"; n_size = 5; n_active_low_inputs = 0;
        n_max_delay = Some 6.0 };
      { Compare.n_component = "comparator"; n_size = 5; n_active_low_inputs = 0;
        n_max_delay = Some 12.0 } ]
  in
  let icdb_v = Compare.icdb_verdict s needs in
  let fixed_v = Compare.fixed_verdict fixed needs in
  let generic_v = Compare.generic_verdict s needs in
  List.iter
    (fun v -> print_endline (Compare.verdict_to_string v))
    [ icdb_v; fixed_v; generic_v ];
  Printf.printf
    "shape checks: icdb smallest area (%b), icdb most shape alternatives (%b), \
     generic budgets the slowest clock (%b)\n"
    (icdb_v.Compare.v_total_area <= fixed_v.Compare.v_total_area
     && icdb_v.Compare.v_total_area <= generic_v.Compare.v_total_area)
    (icdb_v.Compare.v_shape_alternatives > fixed_v.Compare.v_shape_alternatives
     && icdb_v.Compare.v_shape_alternatives > generic_v.Compare.v_shape_alternatives)
    (generic_v.Compare.v_worst_delay >= icdb_v.Compare.v_worst_delay
     && generic_v.Compare.v_worst_delay >= fixed_v.Compare.v_worst_delay)

(* ------------------------------------------------------------------ *)
(* Synthesis-flow ablation: the design choices DESIGN.md calls out     *)
(* ------------------------------------------------------------------ *)

let transistors (nl : Icdb_netlist.Netlist.t) =
  List.fold_left
    (fun acc (i : Icdb_netlist.Netlist.instance) ->
      match Celllib.find i.cell with
      | Some c -> acc + c.Celllib.transistors
      | None -> acc)
    0 nl.Icdb_netlist.Netlist.instances

let ablation_synth () =
  header "ablation: synthesis-flow design choices";
  let designs =
    [ ("alu4", Builtin.expand_exn "ALU" [ ("size", 4) ]);
      ("comparator4", Builtin.expand_exn "COMPARATOR" [ ("size", 4) ]);
      ("counter5", Builtin.expand_exn "COUNTER"
         [ ("size", 5); ("type", 2); ("load", 1); ("enable", 1);
           ("up_or_down", 3) ]);
      ("multiplier4", Builtin.expand_exn "MULTIPLIER" [ ("size", 4) ]) ]
  in
  sub "logic optimization and cell library (transistors / gates)";
  Printf.printf "%-14s | %16s | %16s | %16s\n" "design" "opt+full lib"
    "no-opt+full lib" "no-opt+NAND2/INV";
  List.iter
    (fun (name, flat) ->
      let full () =
        let n = Network.of_flat flat in
        Opt.optimize n;
        Techmap.map n
      in
      let noopt () =
        let n = Network.of_flat flat in
        Opt.sweep n;
        Techmap.map n
      in
      let naive () =
        let n = Network.of_flat flat in
        Opt.sweep n;
        Techmap.map ~cells:Celllib.[ inv; nand2; buf ] n
      in
      let show nl =
        Printf.sprintf "%5dT %4dg" (transistors nl)
          (Icdb_netlist.Netlist.instance_count nl)
      in
      Printf.printf "%-14s | %16s | %16s | %16s\n" name
        (show (full ())) (show (noopt ())) (show (naive ())))
    designs;
  sub "controller state encoding (12-step diffeq controller)";
  let s = Server.create () in
  let sched = Icdb_hls.Schedule.run s Icdb_hls.Dfg.diffeq ~clock:30.0 ~pessimism:1.0 in
  List.iter
    (fun (tag, enc) ->
      let c = Icdb_hls.Controller.generate ~encoding:enc s sched in
      let i = c.Icdb_hls.Controller.c_instance in
      Printf.printf "%-8s %3d gates  %6.0f um2  CW %.1f ns\n" tag
        (Instance.gate_count i) (Instance.best_area i)
        i.Instance.report.Sta.clock_width)
    [ ("one-hot", Icdb_hls.Controller.One_hot);
      ("binary", Icdb_hls.Controller.Binary) ];
  sub "sizing strategy on the 4-bit adder (delay to Cout vs area)";
  let flat = Builtin.expand_exn "ADDER" [ ("size", 4) ] in
  let nl = synthesize flat in
  List.iter
    (fun (label, strategy) ->
      let sized =
        Sizing.size_to_constraints nl
          { Sizing.default_constraints with strategy }
      in
      let r = Sta.analyze sized in
      Printf.printf "%-10s  WD(Cout) %5.1f ns   cell area %7.0f um2\n" label
        (List.assoc "Cout" r.Sta.output_delays)
        (Sta.cell_area sized))
    [ ("cheapest", Sizing.Cheapest); ("balanced", Sizing.Balanced);
      ("fastest", Sizing.Fastest) ]

(* ------------------------------------------------------------------ *)
(* HLS: scheduling quality with ICDB numbers vs generic margins        *)
(* ------------------------------------------------------------------ *)

let hls () =
  header "HLS / Figure 1: scheduling against ICDB vs a generic library";
  print_endline
    "the §2.1 claim: component delay figures let the scheduler chain, \
     multi-cycle and bind correctly; a generic library forces margins";
  let s = Server.create () in
  let bench dfg clock =
    let honest = Icdb_hls.Schedule.run s dfg ~clock ~pessimism:1.0 in
    let margins = Icdb_hls.Schedule.run s dfg ~clock ~pessimism:1.6 in
    Printf.printf
      "%-7s @ %3.0f ns | icdb: %2d steps %5.0f ns latency, %d units | \
       generic margins: %2d steps %5.0f ns (+%.0f%%)\n"
      dfg.Icdb_hls.Dfg.dfg_name clock honest.Icdb_hls.Schedule.r_steps
      honest.Icdb_hls.Schedule.r_latency
      (List.length honest.Icdb_hls.Schedule.r_units)
      margins.Icdb_hls.Schedule.r_steps margins.Icdb_hls.Schedule.r_latency
      (100.0
       *. (margins.Icdb_hls.Schedule.r_latency
           -. honest.Icdb_hls.Schedule.r_latency)
       /. honest.Icdb_hls.Schedule.r_latency);
    (honest, margins)
  in
  let h1, m1 = bench Icdb_hls.Dfg.diffeq 30.0 in
  let h2, m2 = bench Icdb_hls.Dfg.fir4 40.0 in
  let h3, m3 = bench Icdb_hls.Dfg.diffeq 60.0 in
  Printf.printf
    "shape checks: margins never faster (%b), unit counts stable (%b)\n"
    (List.for_all
       (fun (h, m) ->
         m.Icdb_hls.Schedule.r_latency >= h.Icdb_hls.Schedule.r_latency)
       [ (h1, m1); (h2, m2); (h3, m3) ])
    (List.for_all
       (fun (h, m) ->
         List.length m.Icdb_hls.Schedule.r_units
         >= List.length h.Icdb_hls.Schedule.r_units - 1)
       [ (h1, m1); (h2, m2); (h3, m3) ])

(* ------------------------------------------------------------------ *)
(* E12 / §4.4 generation latency + Bechamel micro-benchmarks           *)
(* ------------------------------------------------------------------ *)

let wallclock () =
  header "E12 / §4.4 claim: gate-level netlist generation takes under 5 minutes";
  let t0 = Unix.gettimeofday () in
  let s = Server.create ~verify:true () in
  let inst =
    Server.request_component s
      (Spec.make
         (Spec.From_component
            { component = "counter";
              attributes =
                [ ("size", 8); ("type", 2); ("load", 1); ("enable", 1);
                  ("up_or_down", 3) ];
              functions = [] }))
  in
  let t1 = Unix.gettimeofday () in
  Printf.printf
    "8-bit full-featured counter: %d gates generated, verified, timed and \
     shaped in %.2f s (paper: minutes on a 1989 Sun)\n"
    (Instance.gate_count inst) (t1 -. t0)

let bechamel () =
  header "Bechamel micro-benchmarks (generation path stages)";
  let open Bechamel in
  let open Toolkit in
  let counter_design = Parser.parse Builtin.counter in
  let params =
    [ ("size", 5); ("type", 2); ("load", 1); ("enable", 1); ("up_or_down", 3) ]
  in
  let flat = Builtin.expand_exn "COUNTER" params in
  let netlist = synthesize flat in
  let s = Server.create ~verify:false () in
  let warm =
    Server.request_component s
      (Spec.make
         (Spec.From_component
            { component = "counter"; attributes = params; functions = [] }))
  in
  ignore warm;
  let tests =
    Test.make_grouped ~name:"icdb"
      [ Test.make ~name:"iif_parse" (Staged.stage (fun () ->
            ignore (Parser.parse Builtin.counter)));
        Test.make ~name:"iif_expand" (Staged.stage (fun () ->
            ignore
              (Expander.expand ~registry:Builtin.registry counter_design params)));
        Test.make ~name:"logic_opt_map" (Staged.stage (fun () ->
            ignore (synthesize flat)));
        Test.make ~name:"sta" (Staged.stage (fun () ->
            ignore (Sta.analyze netlist)));
        Test.make ~name:"area_estimate" (Staged.stage (fun () ->
            ignore (Area_est.estimate netlist ~strips:3)));
        Test.make ~name:"shape_function" (Staged.stage (fun () ->
            ignore (Shape.of_netlist netlist)));
        Test.make ~name:"cached_request" (Staged.stage (fun () ->
            ignore
              (Server.request_component s
                 (Spec.make
                    (Spec.From_component
                       { component = "counter"; attributes = params;
                         functions = [] })))));
        Test.make ~name:"cql_parse" (Staged.stage (fun () ->
            ignore
              (Icdb_cql.Command.parse
                 "command:request_component; component_name:counter; \
                  attribute:(size:5); function:(INC); instance:?s"))) ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      let ols_result = Hashtbl.find results name in
      match Analyze.OLS.estimates ols_result with
      | Some [ t ] ->
          let pretty =
            if t > 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
            else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
            else Printf.sprintf "%8.0f ns" t
          in
          Printf.printf "%-24s %s/run\n" name pretty
      | _ -> Printf.printf "%-24s (no estimate)\n" name)
    (List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("fig5", fig5); ("fig6", fig6); ("tab_delay", tab_delay);
    ("tab_shape", tab_shape); ("fig9", fig9); ("fig10", fig10);
    ("fig11", fig11); ("fig12", fig12); ("fig13", fig13);
    ("tab_instq", tab_instq); ("tab_connect", tab_connect);
    ("ablation", ablation); ("ablation_synth", ablation_synth); ("hls", hls);
    ("wallclock", wallclock); ("gates", Gates.run); ("bechamel", bechamel) ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ ->
      List.iter (fun (n, _) -> print_endline n) experiments
  | _ :: name :: _ -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (try: list)\n" name;
          exit 1)
  | _ ->
      print_endline
        "ICDB evaluation harness: regenerating every table and figure";
      List.iter (fun (_, f) -> f ()) experiments
