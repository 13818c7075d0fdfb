(* Tests for static timing analysis and transistor sizing. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_timing

let check = Alcotest.check

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let counter ?(size = 5) ?(typ = 2) ?(load = 0) ?(enable = 0) ?(ud = 1) () =
  synthesize
    (Builtin.expand_exn "COUNTER"
       [ ("size", size); ("type", typ); ("load", load); ("enable", enable);
         ("up_or_down", ud) ])

let adder size = synthesize (Builtin.expand_exn "ADDER" [ ("size", size) ])

let component name attrs =
  let c = Option.get (Icdb_genus.Component.find name) in
  synthesize
    (Builtin.expand_exn c.Icdb_genus.Component.implementation
       (c.Icdb_genus.Component.params_of attrs))

(* ------------------------------------------------------------------ *)
(* STA basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_sta_single_inverter () =
  let nl =
    { Netlist.name = "inv1";
      inputs = [ "a" ];
      outputs = [ "y" ];
      instances =
        [ { Netlist.inst_name = "U1"; cell = "INV"; size = 1.0;
            conns = [ ("A", "a"); ("Y", "y") ] } ] }
  in
  let r = Sta.analyze nl in
  (* no load, no fanout readers: delay = Y = 0.4, plus Z*1 for the output *)
  let wd = List.assoc "y" r.Sta.output_delays in
  check Alcotest.bool "intrinsic-ish delay" true (wd > 0.3 && wd < 1.0);
  check Alcotest.(list (pair string (float 0.001))) "no setup" [ ("a", 0.0) ]
    r.Sta.setup_times

let test_sta_chain_adds_delays () =
  let chain n =
    let instances =
      List.init n (fun i ->
          { Netlist.inst_name = Printf.sprintf "U%d" i;
            cell = "INV";
            size = 1.0;
            conns =
              [ ("A", if i = 0 then "a" else Printf.sprintf "n%d" i);
                ("Y", if i = n - 1 then "y" else Printf.sprintf "n%d" (i + 1)) ] })
    in
    { Netlist.name = "chain"; inputs = [ "a" ]; outputs = [ "y" ]; instances }
  in
  let wd n =
    List.assoc "y" (Sta.analyze (chain n)).Sta.output_delays
  in
  check Alcotest.bool "monotone in depth" true (wd 4 > wd 2 && wd 8 > wd 4);
  (* roughly linear: doubling the chain roughly doubles the delay *)
  let r = wd 8 /. wd 4 in
  check Alcotest.bool "roughly linear" true (r > 1.6 && r < 2.4)

let test_sta_load_increases_delay () =
  let nl = adder 4 in
  let base = Sta.analyze nl in
  let loaded = Sta.analyze ~port_loads:[ ("O[3]", 40.0) ] nl in
  let wd r = List.assoc "O[3]" r.Sta.output_delays in
  check Alcotest.bool "more load, more delay" true (wd loaded > wd base)

let test_sta_counter_report_shape () =
  let nl = counter ~size:5 ~load:1 ~enable:1 ~ud:3 () in
  let r = Sta.analyze nl in
  (* the §3.3 report: CW positive, Q outputs fast (just clk->Q), MINMAX
     slower (carry chain), DWUP has a setup time *)
  check Alcotest.bool "CW positive" true (r.Sta.clock_width > 0.0);
  let wd p = List.assoc p r.Sta.output_delays in
  check Alcotest.bool "MINMAX slower than Q[0]" true (wd "MINMAX" > wd "Q[0]");
  let sd = List.assoc "DWUP" r.Sta.setup_times in
  check Alcotest.bool "DWUP has setup" true (sd > 0.0);
  check Alcotest.bool "CW covers DWUP setup" true (r.Sta.clock_width >= sd)

let test_sta_ripple_slower_than_sync () =
  (* ripple counter: Q[4] settles after the whole flip-flop chain *)
  let wd nl port = List.assoc port (Sta.analyze nl).Sta.output_delays in
  let sync = counter ~typ:2 () in
  let ripple = counter ~typ:1 () in
  check Alcotest.bool "ripple Q[4] slower" true
    (wd ripple "Q[4]" > wd sync "Q[4]")

let test_sta_adder_carry_grows () =
  let wd size =
    let nl = adder size in
    List.assoc "Cout" (Sta.analyze nl).Sta.output_delays
  in
  check Alcotest.bool "8-bit carry slower than 4-bit" true (wd 8 > wd 4)

let test_sta_comb_only_no_cw_from_regs () =
  let nl = adder 4 in
  let r = Sta.analyze nl in
  (* no registers: CW reduces to the worst input->reg setup = 0 *)
  check Alcotest.(float 0.001) "CW 0 for comb" 0.0 r.Sta.clock_width

let test_report_format () =
  let nl = counter ~size:3 ~load:1 ~enable:1 ~ud:3 () in
  let r = Sta.analyze nl in
  let s = Sta.report_to_string r in
  check Alcotest.bool "has CW line" true (String.length s > 3 && String.sub s 0 3 = "CW ");
  check Alcotest.bool "mentions WD Q[2]" true
    (let re = "WD Q[2]" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

(* ------------------------------------------------------------------ *)
(* Sizing                                                              *)
(* ------------------------------------------------------------------ *)

let test_sizing_cheapest_keeps_sizes () =
  let nl = adder 4 in
  let sized =
    Sizing.size_to_constraints nl
      { Sizing.default_constraints with strategy = Sizing.Cheapest }
  in
  List.iter
    (fun (i : Netlist.instance) ->
      check (Alcotest.float 0.0001) "size 1" 1.0 i.size)
    sized.Netlist.instances

let test_sizing_fastest_reduces_delay () =
  let nl = adder 4 in
  let before = List.assoc "Cout" (Sta.analyze nl).Sta.output_delays in
  let sized =
    Sizing.size_to_constraints nl
      { Sizing.default_constraints with strategy = Sizing.Fastest }
  in
  let after = List.assoc "Cout" (Sta.analyze sized).Sta.output_delays in
  check Alcotest.bool
    (Printf.sprintf "delay %.2f -> %.2f" before after)
    true (after < before);
  check Alcotest.bool "area grew" true
    (Sta.cell_area sized > Sta.cell_area nl)

let test_sizing_meets_comb_delay () =
  let nl = adder 4 in
  let before = List.assoc "Cout" (Sta.analyze nl).Sta.output_delays in
  (* ask for 15% faster than unsized *)
  let bound = before *. 0.85 in
  let c =
    { Sizing.default_constraints with
      comb_delays = [ ("Cout", bound) ] }
  in
  let sized = Sizing.size_to_constraints nl c in
  check Alcotest.bool "constraint met" true (Sizing.meets_constraints sized c)

let test_sizing_clock_width_constraint () =
  let nl = counter ~size:4 ~load:1 ~enable:1 ~ud:3 () in
  let cw0 = (Sta.analyze nl).Sta.clock_width in
  let c =
    { Sizing.default_constraints with clock_width = Some (cw0 *. 0.9) }
  in
  let sized = Sizing.size_to_constraints nl c in
  let cw1 = (Sta.analyze sized).Sta.clock_width in
  check Alcotest.bool
    (Printf.sprintf "CW %.2f -> %.2f (bound %.2f)" cw0 cw1 (cw0 *. 0.9))
    true (cw1 <= cw0 *. 0.9 +. 1e-6)

let test_sizing_load_costs_area () =
  (* Figure 10's mechanism: same clock-width bound under growing output
     load costs (modest) area. *)
  let nl = counter ~size:4 ~load:1 ~enable:1 ~ud:3 () in
  let cw0 = (Sta.analyze nl).Sta.clock_width in
  let area_for load =
    let ports = List.map (fun o -> (o, load)) [ "Q[0]"; "Q[1]"; "Q[2]"; "Q[3]" ] in
    let c =
      { Sizing.default_constraints with
        clock_width = Some cw0;
        port_loads = ports }
    in
    Sta.cell_area (Sizing.size_to_constraints nl c)
  in
  let a10 = area_for 10.0 and a50 = area_for 50.0 in
  check Alcotest.bool
    (Printf.sprintf "area(50)=%.0f >= area(10)=%.0f" a50 a10)
    true (a50 >= a10)

let prop_sizing_never_breaks_function =
  (* sizing only changes the [size] field; cells and connectivity stay *)
  QCheck.Test.make ~name:"sizing preserves structure" ~count:5
    QCheck.(int_range 2 5)
    (fun size ->
      let nl = adder size in
      let sized =
        Sizing.size_to_constraints nl
          { Sizing.default_constraints with strategy = Sizing.Fastest }
      in
      List.length sized.Netlist.instances = List.length nl.Netlist.instances
      && List.for_all2
           (fun (a : Netlist.instance) (b : Netlist.instance) ->
             a.cell = b.cell && a.conns = b.conns && b.size >= a.size)
           nl.Netlist.instances sized.Netlist.instances)

(* ------------------------------------------------------------------ *)
(* The incremental timing graph                                        *)
(* ------------------------------------------------------------------ *)

let graph_netlists =
  lazy
    [| counter ~size:3 ~typ:1 ();
       counter ~size:4 ~load:1 ~enable:1 ~ud:3 ();
       counter ~size:5 ();
       adder 3;
       adder 5 |]

let report_bits (r : Sta.report) =
  let bits l = List.map (fun (p, t) -> (p, Int64.bits_of_float t)) l in
  (Int64.bits_of_float r.Sta.clock_width, bits r.Sta.output_delays,
   bits r.Sta.setup_times)

let summary_bits (s : Sta.summary) =
  (Int64.bits_of_float s.Sta.cw,
   List.map (fun (p, t) -> (p, Int64.bits_of_float t)) s.Sta.wd,
   Option.map Int64.bits_of_float s.Sta.worst_sd)

(* Ripple counters (type 1) clock each register from the one before.
   In netlist order one launch round times the whole chain (a round
   reads the launch times it has already updated) and a second finds
   nothing changed; with the instances reversed each round times one
   more stage. Both orders give each row's report, pinned as hex floats
   from the analysis that ran one launch round per register; the SD of
   every input is 0. The summary agrees with the report. *)
let ripple_reports =
  [ (2, "0x1.ccccccccccccdp+3",
     [ "0x1.570a3d70a3d71p+2"; "0x1.6p+3"; "0x1.e666666666667p+3";
       "0x1.c666666666667p+3" ]);
    (3, "0x1.4a8f5c28f5c29p+4",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1428f5c28f5c3p+4";
       "0x1.5bae147ae147ap+4"; "0x1.4bae147ae147ap+4" ]);
    (4, "0x1.aeb851eb851ecp+4",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1e147ae147ae2p+4";
       "0x1.7851eb851eb86p+4"; "0x1.c4f5c28f5c29p+4"; "0x1.b4f5c28f5c29p+4" ]);
    (5, "0x1.0970a3d70a3d7p+5",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1e147ae147ae2p+4";
       "0x1.823d70a3d70a4p+4"; "0x1.dc7ae147ae148p+4"; "0x1.0fd70a3d70a3dp+5";
       "0x1.07d70a3d70a3dp+5" ]);
    (6, "0x1.3b851eb851eb8p+5",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1e147ae147ae2p+4";
       "0x1.823d70a3d70a4p+4"; "0x1.e666666666666p+4"; "0x1.2051eb851eb85p+5";
       "0x1.44147ae147ae1p+5"; "0x1.3c147ae147ae1p+5" ]);
    (7, "0x1.6d99999999999p+5",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1e147ae147ae2p+4";
       "0x1.823d70a3d70a4p+4"; "0x1.e666666666666p+4"; "0x1.2547ae147ae14p+5";
       "0x1.5266666666666p+5"; "0x1.78b851eb851ebp+5"; "0x1.70b851eb851ebp+5" ]);
    (8, "0x1.9fae147ae147ap+5",
     [ "0x1.570a3d70a3d71p+2"; "0x1.73d70a3d70a3ep+3"; "0x1.1e147ae147ae2p+4";
       "0x1.823d70a3d70a4p+4"; "0x1.e666666666666p+4"; "0x1.2547ae147ae14p+5";
       "0x1.575c28f5c28f5p+5"; "0x1.847ae147ae147p+5"; "0x1.a6147ae147aep+5";
       "0x1.9e147ae147aep+5" ]) ]

let test_ripple_reports () =
  let hex = Printf.sprintf "%h" in
  List.iter
    (fun ((size, cw, wds), reversed) ->
      let label =
        Printf.sprintf "ripple counter %d%s" size (if reversed then " reversed" else "")
      in
      let nl = counter ~size ~typ:1 ~load:0 ~enable:0 ~ud:1 () in
      let nl =
        if reversed then { nl with Netlist.instances = List.rev nl.Netlist.instances }
        else nl
      in
      let g = Sta.build nl in
      let r = Sta.evaluate g in
      check Alcotest.string (label ^ " CW") cw (hex r.Sta.clock_width);
      check Alcotest.(list string) (label ^ " WD") wds
        (List.map (fun (_, t) -> hex t) r.Sta.output_delays);
      List.iter
        (fun (i, t) -> check Alcotest.string (label ^ " SD " ^ i) "0x0p+0" (hex t))
        r.Sta.setup_times;
      check Alcotest.bool (label ^ " summary") true
        (summary_bits (Sta.summarize g) = summary_bits (Sta.summary_of_report r)))
    (List.concat_map (fun row -> [ (row, false); (row, true) ]) ripple_reports)

(* Designs where the SD of all inputs at once is not one pass from
   them: with no inputs the per-input list is empty, so there is no
   worst SD, although the pass from every input would give the tie
   cell's path one; an input that an instance also drives is a path
   start only in its own pass. The summary's worst SD is pinned, and
   agrees with the report. *)
let worst_sd_rows =
  let inst name cell conns = { Netlist.inst_name = name; cell; size = 1.0; conns } in
  [ ("no inputs (TIE1 into D and CK)",
     { Netlist.name = "tied"; inputs = []; outputs = [ "q" ];
       instances =
         [ inst "T1" "TIE1" [ ("Y", "t") ];
           inst "F1" "DFF" [ ("D", "t"); ("CK", "t"); ("Q", "q") ] ] },
     None);
    ("an input driven by an instance",
     { Netlist.name = "driven"; inputs = [ "a"; "b" ]; outputs = [ "q" ];
       instances =
         [ inst "U1" "INV" [ ("A", "a"); ("Y", "b") ];
           inst "F1" "DFF" [ ("D", "b"); ("CK", "a"); ("Q", "q") ] ] },
     (* SD a = 3.4 through U1, SD b = 2.5; a pass sourced at both would
        start b at 0 and read 2.5 *)
     Some "0x1.b333333333333p+1") ]

let test_worst_sd_rows () =
  List.iter
    (fun (label, nl, expected) ->
      let g = Sta.build nl in
      let s = Sta.summarize g in
      check Alcotest.(option string) label expected
        (Option.map (Printf.sprintf "%h") s.Sta.worst_sd);
      check Alcotest.bool (label ^ ": summary = report") true
        (summary_bits s = summary_bits (Sta.summary_of_report (Sta.evaluate g))))
    worst_sd_rows

(* The sizer against its oracle, which times every candidate with the
   full report: the sized netlists are equal to the last bit, for every
   strategy, under seeded random clock-width, delay, set-up and load
   constraints drawn around each design's own unsized figures. *)
let test_sizing_oracle () =
  let designs =
    [| counter ~size:3 ~typ:1 (); counter ~size:4 ~load:1 ~enable:1 ~ud:3 ();
       counter ~size:5 (); counter ~size:6 ~typ:1 ~load:1 ~enable:1 ();
       adder 3; adder 5;
       component "register" [ ("size", 4) ]; component "comparator" [ ("size", 3) ] |]
  in
  let st = Random.State.make [| 0x51ce |] in
  let sizes (nl : Netlist.t) =
    List.map (fun (i : Netlist.instance) -> Int64.bits_of_float i.size) nl.Netlist.instances
  in
  for case = 1 to 60 do
    let nl = designs.(Random.State.int st (Array.length designs)) in
    let r = Sta.analyze nl in
    let some p x = if Random.State.int st 100 < p then Some x else None in
    let scale x = x *. (0.6 +. Random.State.float st 0.5) in
    let worst_sd = List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 r.Sta.setup_times in
    let c =
      { Sizing.clock_width = some 60 (scale r.Sta.clock_width);
        comb_delays =
          List.filter_map
            (fun (o, wd) -> some 30 (o, scale wd))
            (("*", List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 r.Sta.output_delays)
             :: r.Sta.output_delays);
        setup_bound = some 50 (scale worst_sd);
        port_loads =
          List.filter_map (fun o -> some 30 (o, Random.State.float st 50.0)) nl.Netlist.outputs;
        strategy = [| Sizing.Fastest; Sizing.Balanced; Sizing.Cheapest |].(case mod 3) }
    in
    let label = Printf.sprintf "case %d (%s)" case nl.Netlist.name in
    check Alcotest.(list int64) label
      (sizes (Oracle_sizing.size_to_constraints nl c))
      (sizes (Sizing.size_to_constraints nl c));
    check Alcotest.bool (label ^ " meets") (Oracle_sizing.meets_constraints nl c)
      (Sizing.meets_constraints nl c)
  done

(* Random resizes, including restores to the size an instance had,
   re-timed in place: after every step the report and the critical
   set equal those of a graph built afresh from the materialized
   netlist, to the last bit, and the one-pass summary's worst SD is
   the largest of the report's per-input list. The fresh graph is asked for its critical
   set before any report, so it computes its own launch times; the
   resized one is asked before or after its report at random, so both
   stale and reused launch times are covered. *)
let prop_set_size_matches_fresh_graph =
  QCheck.Test.make ~name:"set_size matches a fresh graph" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_range 1 30))
    (fun (seed, steps) ->
      let st = Random.State.make [| seed |] in
      let nls = Lazy.force graph_netlists in
      let nl = nls.(Random.State.int st (Array.length nls)) in
      let port_loads =
        List.filter_map
          (fun o ->
            if Random.State.bool st then Some (o, Random.State.float st 50.0)
            else None)
          nl.Netlist.outputs
      in
      let g = Sta.build ~port_loads nl in
      let n = Sta.instance_count g in
      let history = ref [] in
      let ok = ref true in
      for _ = 1 to steps do
        (match !history with
         | (k, old) :: rest when Random.State.int st 3 = 0 ->
             Sta.set_size g k old;
             history := rest
         | _ ->
             let k = Random.State.int st n in
             let s = Sta.size g k in
             history := (k, s) :: !history;
             Sta.set_size g k
               (if Random.State.bool st then Float.min Sizing.max_size (s *. 1.3)
                else 1.0 +. Random.State.float st 7.0));
        let crit, r =
          if Random.State.bool st then
            let crit = Sta.critical g in
            (crit, Sta.evaluate g)
          else
            let r = Sta.evaluate g in
            (Sta.critical g, r)
        in
        let fresh = Sta.build ~port_loads (Sta.netlist g) in
        let fresh_crit = Sta.critical fresh in
        if report_bits r <> report_bits (Sta.evaluate fresh)
           || crit <> fresh_crit
           || Int64.bits_of_float (Sta.area g)
              <> Int64.bits_of_float (Sta.cell_area (Sta.netlist g))
           || summary_bits (Sta.summarize g)
              <> summary_bits (Sta.summary_of_report r)
        then ok := false
      done;
      !ok)

let props = List.map QCheck_alcotest.to_alcotest [ prop_sizing_never_breaks_function ]

(* Two cross-coupled NAND2s: a combinational loop. *)
let nand_loop =
  { Netlist.name = "loop";
    inputs = [ "a"; "b" ];
    outputs = [ "y1"; "y2" ];
    instances =
      [ { Netlist.inst_name = "U1"; cell = "NAND2"; size = 1.0;
          conns = [ ("A", "a"); ("B", "y2"); ("Y", "y1") ] };
        { Netlist.inst_name = "U2"; cell = "NAND2"; size = 1.0;
          conns = [ ("A", "b"); ("B", "y1"); ("Y", "y2") ] } ] }

let with_cell cell =
  { Netlist.name = "one";
    inputs = [ "a" ];
    outputs = [ "y" ];
    instances =
      [ { Netlist.inst_name = "U1"; cell; size = 1.0;
          conns = [ ("A", "a"); ("Y", "y") ] } ] }

let raises_timing_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Timing_error" what
  | exception Sta.Timing_error _ -> ()

let test_errors () =
  let size strategy nl () =
    Sizing.size_to_constraints nl { Sizing.default_constraints with strategy }
  in
  List.iter
    (fun (what, nl) ->
      raises_timing_error (what ^ ": analyze") (fun () -> Sta.analyze nl);
      raises_timing_error (what ^ ": balanced sizing") (size Sizing.Balanced nl);
      raises_timing_error (what ^ ": fastest sizing") (size Sizing.Fastest nl))
    [ ("combinational loop", nand_loop); ("unknown cell", with_cell "NO_SUCH_CELL") ];
  let twice = with_cell "INV" in
  let twice =
    { twice with instances = twice.Netlist.instances @ twice.Netlist.instances }
  in
  raises_timing_error "duplicate instance name" (fun () -> Sta.build twice)

let () =
  Alcotest.run "timing"
    [ ("sta",
       [ Alcotest.test_case "single inverter" `Quick test_sta_single_inverter;
         Alcotest.test_case "chain adds delays" `Quick test_sta_chain_adds_delays;
         Alcotest.test_case "load increases delay" `Quick test_sta_load_increases_delay;
         Alcotest.test_case "counter report shape" `Quick test_sta_counter_report_shape;
         Alcotest.test_case "ripple slower than sync" `Quick test_sta_ripple_slower_than_sync;
         Alcotest.test_case "adder carry grows" `Quick test_sta_adder_carry_grows;
         Alcotest.test_case "comb has zero CW" `Quick test_sta_comb_only_no_cw_from_regs;
         Alcotest.test_case "report format" `Quick test_report_format ]);
      ("sizing",
       [ Alcotest.test_case "cheapest keeps sizes" `Quick test_sizing_cheapest_keeps_sizes;
         Alcotest.test_case "fastest reduces delay" `Quick test_sizing_fastest_reduces_delay;
         Alcotest.test_case "meets comb delay" `Quick test_sizing_meets_comb_delay;
         Alcotest.test_case "clock width constraint" `Quick test_sizing_clock_width_constraint;
         Alcotest.test_case "load costs area" `Quick test_sizing_load_costs_area ]);
      ("graph",
       [ QCheck_alcotest.to_alcotest prop_set_size_matches_fresh_graph;
         Alcotest.test_case "timing errors" `Quick test_errors;
         Alcotest.test_case "ripple counter reports" `Quick test_ripple_reports;
         Alcotest.test_case "worst SD rows" `Quick test_worst_sd_rows;
         Alcotest.test_case "sizing = full-report oracle" `Quick test_sizing_oracle ]);
      ("properties", props) ]
