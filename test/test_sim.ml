(* Tests for the simulators — four-valued (initialization analysis),
   event-driven, and the two-valued pair that verification compares —
   and for the netlist statistics module. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_sim

let check = Alcotest.check

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let counter_nl ?(load = 1) () =
  synthesize
    (Builtin.expand_exn "COUNTER"
       [ ("size", 4); ("type", 2); ("load", load); ("enable", 0);
         ("up_or_down", 1) ])

(* ------------------------------------------------------------------ *)
(* Xsim: four-valued semantics                                         *)
(* ------------------------------------------------------------------ *)

let test_x_logic_tables () =
  check Alcotest.bool "0 and X = 0" true (Xsim.v_and Xsim.V0 Xsim.VX = Xsim.V0);
  check Alcotest.bool "1 and X = X" true (Xsim.v_and Xsim.V1 Xsim.VX = Xsim.VX);
  check Alcotest.bool "1 or X = 1" true (Xsim.v_or Xsim.V1 Xsim.VX = Xsim.V1);
  check Alcotest.bool "0 or X = X" true (Xsim.v_or Xsim.V0 Xsim.VX = Xsim.VX);
  check Alcotest.bool "not X = X" true (Xsim.v_not Xsim.VX = Xsim.VX);
  check Alcotest.bool "X xor 1 = X" true (Xsim.v_xor Xsim.VX Xsim.V1 = Xsim.VX);
  check Alcotest.bool "Z reads as X" true (Xsim.v_not Xsim.VZ = Xsim.VX);
  check Alcotest.bool "resolve Z Z = Z" true (Xsim.resolve Xsim.VZ Xsim.VZ = Xsim.VZ);
  check Alcotest.bool "resolve 1 Z = 1" true (Xsim.resolve Xsim.V1 Xsim.VZ = Xsim.V1);
  check Alcotest.bool "resolve 1 0 = X" true (Xsim.resolve Xsim.V1 Xsim.V0 = Xsim.VX)

let test_x_combinational_defined () =
  (* fully-driven combinational logic produces no X *)
  let nl = synthesize (Builtin.expand_exn "ADDER" [ ("size", 3) ]) in
  let st = Xsim.create nl in
  Xsim.step st
    (List.map (fun n -> (n, Xsim.V0)) nl.Netlist.inputs);
  check Alcotest.(list string) "no undefined outputs" []
    (Xsim.undefined_outputs st)

let test_x_controlling_value_masks_x () =
  (* 0 on one AND input defines the output even when the other is X *)
  let nl =
    { Netlist.name = "m"; inputs = [ "a"; "b" ]; outputs = [ "y" ];
      instances =
        [ { Netlist.inst_name = "u"; cell = "AND2"; size = 1.0;
            conns = [ ("A", "a"); ("B", "b"); ("Y", "y") ] } ] }
  in
  let st = Xsim.create nl in
  Xsim.step st [ ("a", Xsim.V0); ("b", Xsim.VX) ];
  check Alcotest.bool "0 wins" true (Xsim.value st "y" = Xsim.V0);
  Xsim.step st [ ("a", Xsim.V1); ("b", Xsim.VX) ];
  check Alcotest.bool "X passes" true (Xsim.value st "y" = Xsim.VX)

(* A DFF_SR's asynchronous inputs in priority order, reset before set:
   the first that is not 0 decides, 1 forcing its value and X giving X.
   Each row steps a fresh register (Q starts at X) without a clock
   edge. *)
let test_x_async_priority () =
  let nl =
    { Netlist.name = "sr"; inputs = [ "d"; "ck"; "s"; "r" ]; outputs = [ "q" ];
      instances =
        [ { Netlist.inst_name = "f"; cell = "DFF_SR"; size = 1.0;
            conns = [ ("D", "d"); ("CK", "ck"); ("S", "s"); ("R", "r"); ("Q", "q") ] } ] }
  in
  List.iter
    (fun (s, r, q) ->
      let st = Xsim.create nl in
      Xsim.step st [ ("d", Xsim.V0); ("ck", Xsim.V0); ("s", s); ("r", r) ];
      check Alcotest.string
        (Printf.sprintf "S=%s R=%s" (Xsim.v_to_string s) (Xsim.v_to_string r))
        (Xsim.v_to_string q)
        (Xsim.v_to_string (Xsim.value st "q")))
    Xsim.
      [ (V0, V0, VX); (V1, V0, V1); (VX, V0, VX);
        (V0, V1, V0); (V1, V1, V0); (VX, V1, V0);
        (V0, VX, VX); (V1, VX, VX); (VX, VX, VX) ]

(* Feedback that oscillates reads X, where the two-valued machine
   fails to settle: a NAND2 whose B is its own output (y = NAND(a, y))
   and a transparent latch fed its own inverse, each stepped as listed.
   Feedback that holds keeps its value. A latch that oscillated holds X
   once it closes. In the last design a DFF_SR with R = rst | q and
   S = !q flips in every register round, up to the round limit; with a
   second register the rounds end after an odd number of flips, so the
   settle that closes each step runs with q = 1, which sets the NAND
   ring oscillating through a transparent latch. That settle ends past
   its pass limit, and the latch's held value must be X when it closes
   on the next step. *)
let test_x_oscillation () =
  let inst name cell conns = { Netlist.inst_name = name; cell; size = 1.0; conns } in
  let nand_ring =
    { Netlist.name = "osc"; inputs = [ "a" ]; outputs = [ "y" ];
      instances = [ inst "u" "NAND2" [ ("A", "a"); ("B", "y"); ("Y", "y") ] ] }
  in
  let latch_ring =
    { Netlist.name = "losc"; inputs = [ "g" ]; outputs = [ "q" ];
      instances =
        [ inst "l" "LATCH_H" [ ("D", "nq"); ("G", "g"); ("Q", "q") ];
          inst "i" "INV" [ ("A", "q"); ("Y", "nq") ] ] }
  in
  let toggled_ring =
    { Netlist.name = "tosc"; inputs = [ "rst"; "g" ]; outputs = [ "out" ];
      instances =
        [ inst "r" "OR2" [ ("A", "rst"); ("B", "q"); ("Y", "r") ];
          inst "s" "INV" [ ("A", "q"); ("Y", "s") ];
          inst "f" "DFF_SR"
            [ ("D", "q"); ("CK", "$const0"); ("S", "s"); ("R", "r"); ("Q", "q") ];
          inst "f2" "DFF" [ ("D", "$const0"); ("CK", "$const0"); ("Q", "unused") ];
          inst "u" "NAND2" [ ("A", "q"); ("B", "y"); ("Y", "y") ];
          inst "l" "LATCH_H" [ ("D", "y"); ("G", "g"); ("Q", "out") ] ] }
  in
  List.iter
    (fun (label, nl, steps, expected, settles) ->
      let st = Xsim.create nl in
      let g = Gate_sim.create nl in
      let two_valued = ref "settles" in
      List.iter
        (fun vec ->
          Xsim.step st (List.map (fun (n, b) -> (n, Xsim.of_bool b)) vec);
          match Interp.step g vec with
          | () -> ()
          | exception (Interp.Unstable _ | Gate_sim.Sim_error _) ->
              two_valued := "fails to settle")
        steps;
      let out = List.hd nl.Netlist.outputs in
      check Alcotest.string label expected (Xsim.v_to_string (Xsim.value st out));
      check Alcotest.(list string) (label ^ ": undefined outputs")
        (if expected = "X" then [ out ] else [])
        (Xsim.undefined_outputs st);
      check Alcotest.string (label ^ ": two-valued machine") settles !two_valued)
    [ ("NAND ring, a=0", nand_ring, [ [ ("a", false) ] ], "1", "settles");
      ("NAND ring, a=0 then a=1", nand_ring, [ [ ("a", false) ]; [ ("a", true) ] ], "X",
       "fails to settle");
      ("latch ring, open", latch_ring, [ [ ("g", true) ] ], "X", "fails to settle");
      ("latch ring, open then closed", latch_ring, [ [ ("g", true) ]; [ ("g", false) ] ],
       "X", "fails to settle");
      ("toggled ring, latch closed after it oscillated", toggled_ring,
       [ [ ("rst", true); ("g", true) ]; [ ("rst", false); ("g", true) ];
         [ ("rst", false); ("g", false) ] ],
       "X", "fails to settle") ]

let test_x_registers_start_unknown () =
  let nl = counter_nl ~load:0 () in
  let st = Xsim.create nl in
  (* clock it without any reset: counts from X, outputs stay X *)
  let zeros = List.map (fun n -> (n, Xsim.V0)) nl.Netlist.inputs in
  let with_clk v =
    List.map (fun (n, x) -> if n = "CLK" then (n, v) else (n, x)) zeros
  in
  Xsim.step st (with_clk Xsim.V0);
  Xsim.step st (with_clk Xsim.V1);
  Xsim.step st (with_clk Xsim.V0);
  Xsim.step st (with_clk Xsim.V1);
  check Alcotest.bool "Q still unknown without reset" true
    (List.exists
       (fun o -> String.length o >= 1 && o.[0] = 'Q')
       (Xsim.undefined_outputs st))

let test_x_async_load_defines () =
  (* the parallel-load counter initializes through its async load *)
  let nl = counter_nl ~load:1 () in
  let base = [ ("CLK", false); ("LOAD", true); ("DWUP", false);
               ("D[0]", false); ("D[1]", false); ("D[2]", false);
               ("D[3]", false); ("ENA", false) ] in
  let pulse_load =
    List.map (fun (n, v) -> (n, if n = "LOAD" then false else v)) base
  in
  let _, undefined =
    Xsim.initialization_check nl
      ~sequence:[ pulse_load; base;
                  List.map (fun (n, v) -> (n, if n = "CLK" then true else v)) base ]
  in
  let qs = List.filter (fun o -> o.[0] = 'Q') undefined in
  check Alcotest.(list string) "all Q defined after async load" [] qs

let test_x_initialization_check_reports () =
  let nl = counter_nl ~load:0 () in
  (* no reset facility at all: the check must report the Q outputs *)
  let seq = [ [ ("CLK", false) ]; [ ("CLK", true) ] ] in
  let _, undefined = Xsim.initialization_check nl ~sequence:seq in
  check Alcotest.bool "reports undefined state" true (undefined <> [])

let test_x_matches_boolean_sim_when_driven () =
  (* once state is initialized, Xsim agrees with the 2-valued sim *)
  let flat = Builtin.expand_exn "COMPARATOR" [ ("size", 3) ] in
  let nl = synthesize flat in
  let xst = Xsim.create nl in
  let bst = Gate_sim.create nl in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 40 do
    let assignment =
      List.map (fun n -> (n, Random.State.bool rng)) nl.Netlist.inputs
    in
    Interp.step bst assignment;
    Xsim.step xst (List.map (fun (n, b) -> (n, Xsim.of_bool b)) assignment);
    List.iter
      (fun (o, b) ->
        check Alcotest.bool ("output " ^ o) true
          (Xsim.value xst o = Xsim.of_bool b))
      (Interp.outputs bst)
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let analyze nl =
  Stats.analyze nl ~is_output_pin:Celllib.is_output_pin
    ~is_sequential:(fun cell ->
      match Celllib.find cell with
      | Some c -> (
          match c.Celllib.kind with
          | Celllib.Ff _ | Celllib.Latch_cell _ -> true
          | _ -> false)
      | None -> false)

let test_stats_adder_depth_grows () =
  let depth size =
    (analyze (synthesize (Builtin.expand_exn "ADDER" [ ("size", size) ])))
      .Stats.logic_depth
  in
  check Alcotest.bool "carry chain deepens" true (depth 8 > depth 4);
  check Alcotest.bool "positive" true (depth 2 > 0)

let test_stats_counter_sequential_count () =
  let s = analyze (counter_nl ()) in
  check Alcotest.int "4 FFs" 4 s.Stats.sequential;
  check Alcotest.bool "gates counted" true (s.Stats.gates > 10);
  check Alcotest.bool "histogram sums to nets" true
    (List.fold_left (fun a (_, c) -> a + c) 0 s.Stats.fanout_histogram
     = s.Stats.nets)

let test_stats_inverter_chain () =
  let chain n =
    { Netlist.name = "chain"; inputs = [ "a" ]; outputs = [ "y" ];
      instances =
        List.init n (fun i ->
            { Netlist.inst_name = Printf.sprintf "u%d" i; cell = "INV";
              size = 1.0;
              conns =
                [ ("A", if i = 0 then "a" else Printf.sprintf "n%d" i);
                  ("Y", if i = n - 1 then "y" else Printf.sprintf "n%d" (i + 1)) ] }) }
  in
  let s = analyze (chain 5) in
  check Alcotest.int "depth = chain length" 5 s.Stats.logic_depth;
  check Alcotest.int "max fanout 1" 1 s.Stats.max_fanout

let test_stats_cycle_detected () =
  let nl =
    { Netlist.name = "cyc"; inputs = [ "a" ]; outputs = [ "y" ];
      instances =
        [ { Netlist.inst_name = "u1"; cell = "NAND2"; size = 1.0;
            conns = [ ("A", "a"); ("B", "y"); ("Y", "t") ] };
          { Netlist.inst_name = "u2"; cell = "INV"; size = 1.0;
            conns = [ ("A", "t"); ("Y", "y") ] } ] }
  in
  (try
     ignore (analyze nl);
     Alcotest.fail "expected Stats_error"
   with Stats.Stats_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Event-driven timing simulation                                      *)
(* ------------------------------------------------------------------ *)

let drive_bus base width x =
  List.init width (fun i -> (Printf.sprintf "%s[%d]" base i, (x lsr i) land 1 = 1))

let test_event_matches_gate_sim () =
  let flat = Builtin.expand_exn "ADDER" [ ("size", 4) ] in
  let nl = synthesize flat in
  let ev = Event_sim.create nl in
  let gs = Gate_sim.create nl in
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 30 do
    let vec = List.map (fun n -> (n, Random.State.bool rng)) nl.Netlist.inputs in
    let _ = Event_sim.apply ev vec in
    Interp.step gs vec;
    List.iter
      (fun (o, b) ->
        check Alcotest.bool ("output " ^ o) b (Event_sim.value ev o))
      (Interp.outputs gs)
  done

let test_event_settle_below_sta_bound () =
  (* measured settling can never exceed the static worst case (same
     delay model, STA takes the max over all paths) *)
  let flat = Builtin.expand_exn "ADDER" [ ("size", 6) ] in
  let nl = synthesize flat in
  let bound =
    List.fold_left
      (fun acc (_, wd) -> Float.max acc wd)
      0.0 (Icdb_timing.Sta.analyze nl).Icdb_timing.Sta.output_delays
  in
  let ev = Event_sim.create nl in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 25 do
    let vec = List.map (fun n -> (n, Random.State.bool rng)) nl.Netlist.inputs in
    let settle, _ = Event_sim.apply ev vec in
    check Alcotest.bool
      (Printf.sprintf "settle %.2f <= bound %.2f" settle bound)
      true (settle <= bound +. 0.001)
  done

let test_event_worst_vector_near_bound () =
  (* the carry-ripple vector exercises the critical path: measured time
     should be a large fraction of the STA bound *)
  let flat = Builtin.expand_exn "ADDER" [ ("size", 6) ] in
  let nl = synthesize flat in
  let bound =
    List.fold_left
      (fun acc (_, wd) -> Float.max acc wd)
      0.0 (Icdb_timing.Sta.analyze nl).Icdb_timing.Sta.output_delays
  in
  let ev = Event_sim.create nl in
  (* all ones + carry-in toggling 0->1 ripples through every stage *)
  let _ =
    Event_sim.apply ev
      (drive_bus "I0" 6 63 @ drive_bus "I1" 6 0 @ [ ("Cin", false) ])
  in
  let settle, _ = Event_sim.apply ev [ ("Cin", true) ] in
  check Alcotest.bool
    (Printf.sprintf "ripple %.2f vs bound %.2f" settle bound)
    true
    (settle > bound *. 0.4 && settle <= bound +. 0.001)

(* Reconvergent paths with unequal depth glitch: y = a xor (a through
   two inverters) momentarily pulses when a toggles. *)
let glitch_nl =
  { Netlist.name = "g"; inputs = [ "a" ]; outputs = [ "y" ];
    instances =
      [ { Netlist.inst_name = "i1"; cell = "INV"; size = 1.0;
          conns = [ ("A", "a"); ("Y", "n1") ] };
        { Netlist.inst_name = "i2"; cell = "INV"; size = 1.0;
          conns = [ ("A", "n1"); ("Y", "n2") ] };
        { Netlist.inst_name = "x"; cell = "XOR2"; size = 1.0;
          conns = [ ("A", "a"); ("B", "n2"); ("Y", "y") ] } ] }

let test_event_counts_glitches () =
  let ev = Event_sim.create glitch_nl in
  let _, t1 = Event_sim.apply ev [ ("a", true) ] in
  (* y ends where it began (a xor a = 0) but transitioned in between *)
  check Alcotest.bool "y settles low" false (Event_sim.value ev "y");
  check Alcotest.bool
    (Printf.sprintf "glitch seen (%d transitions)" t1)
    true (t1 >= 5)
  (* a, n1, n2 plus at least an up-down pulse on y *)

let test_event_counter_clocks () =
  let flat =
    Builtin.expand_exn "COUNTER"
      [ ("size", 3); ("type", 2); ("load", 0); ("enable", 0); ("up_or_down", 1) ]
  in
  let nl = synthesize flat in
  let ev = Event_sim.create nl in
  let others = drive_bus "D" 3 0 @ [ ("LOAD", true); ("ENA", true); ("DWUP", false) ] in
  let _ = Event_sim.apply ev (("CLK", false) :: others) in
  for expected = 1 to 5 do
    let _ = Event_sim.apply ev [ ("CLK", true) ] in
    let _ = Event_sim.apply ev [ ("CLK", false) ] in
    let q =
      List.fold_left
        (fun acc i ->
          (acc * 2)
          + if Event_sim.value ev (Printf.sprintf "Q[%d]" (2 - i)) then 1 else 0)
        0 [ 0; 1; 2 ]
    in
    check Alcotest.int (Printf.sprintf "count %d" expected) expected q
  done

(* Settling time and transitions of every vector: adder 4 on fixed
   vectors, the glitch netlist, counter 3 driven like a testbench, data
   and clock in separate vectors, and a bus whose only driver's enable
   falls through an inverter before the driver's own delay has passed:
   a bus with no driver enabled schedules nothing, so the transition
   already in flight lands. *)
let test_event_pinned () =
  let run nl vectors =
    let ev = Event_sim.create nl in
    List.map
      (fun v ->
        let settle, transitions = Event_sim.apply ev v in
        (Printf.sprintf "%.4f" settle, transitions))
      vectors
  in
  let add a b cin = drive_bus "I0" 4 a @ drive_bus "I1" 4 b @ [ ("Cin", cin) ] in
  let pulse = [ [ ("CLK", true) ]; [ ("CLK", false) ] ] in
  let keeper =
    { Netlist.name = "k"; inputs = [ "a"; "b" ]; outputs = [ "y" ];
      instances =
        [ { Netlist.inst_name = "i"; cell = "INV"; size = 1.0;
            conns = [ ("A", "b"); ("Y", "e") ] };
          { Netlist.inst_name = "t"; cell = "TBUF"; size = 1.0;
            conns = [ ("A", "a"); ("EN", "e"); ("Y", "y") ] } ] }
  in
  let counter =
    Builtin.expand_exn "COUNTER"
      [ ("size", 3); ("type", 2); ("load", 0); ("enable", 0); ("up_or_down", 1) ]
  in
  List.iter
    (fun (label, nl, vectors, expected) ->
      check Alcotest.(list (pair string int)) label expected (run nl vectors))
    [ ( "adder 4",
        synthesize (Builtin.expand_exn "ADDER" [ ("size", 4) ]),
        [ add 0 0 false; add 15 1 false; add 5 10 true; add 15 15 true;
          add 0 15 false; add 8 8 false; add 7 1 true; add 0 0 false ],
        [ ("0.0000", 0); ("14.4900", 22); ("3.6200", 13); ("3.6200", 16);
          ("13.4100", 29); ("3.6200", 14); ("13.2100", 24); ("5.3500", 20) ] );
      ( "glitch",
        glitch_nl,
        [ [ ("a", true) ]; [ ("a", false) ]; [ ("a", false) ]; [ ("a", true) ] ],
        [ ("3.2400", 5); ("3.2400", 5); ("0.0000", 0); ("3.2400", 5) ] );
      ( "counter 3",
        synthesize counter,
        [ ("CLK", false) :: drive_bus "D" 3 0
          @ [ ("LOAD", true); ("ENA", true); ("DWUP", false) ] ]
        @ pulse @ pulse @ pulse
        @ [ [ ("DWUP", true) ] ] @ pulse @ pulse
        @ [ [ ("ENA", false) ] ] @ pulse,
        [ ("0.0000", 2); ("9.3100", 6); ("1.7000", 3); ("8.2100", 6);
          ("1.7000", 3); ("12.0600", 9); ("1.7000", 3); ("0.0000", 1);
          ("13.6400", 19); ("1.7000", 3); ("9.3100", 6); ("1.7000", 3);
          ("0.0000", 1); ("8.2100", 6); ("1.7000", 3) ] );
      ( "bus keeper",
        keeper,
        [ [ ("a", true); ("b", true) ]; [ ("a", false) ]; [ ("b", false) ];
          [ ("a", true); ("b", true) ] ],
        [ ("1.0000", 4); ("0.0000", 1); ("1.9000", 3); ("1.0000", 4) ] ) ]

(* A set that holds from time zero forces its register before any clock
   edge, as the two-valued machine's first step does: after [create],
   and after a vector that leaves the register's pins alone. *)
let test_event_set_at_time_zero () =
  let nl =
    { Netlist.name = "s"; inputs = [ "a"; "c"; "b" ]; outputs = [ "q"; "y" ];
      instances =
        [ { Netlist.inst_name = "f"; cell = "DFF_S"; size = 1.0;
            conns = [ ("D", "a"); ("CK", "c"); ("S", "$const1"); ("Q", "q") ] };
          { Netlist.inst_name = "u"; cell = "INV"; size = 1.0;
            conns = [ ("A", "b"); ("Y", "y") ] } ] }
  in
  let ev = Event_sim.create nl in
  check Alcotest.bool "after create" true (Event_sim.value ev "q");
  ignore (Event_sim.apply ev [ ("b", true) ]);
  check Alcotest.bool "after a vector elsewhere" true (Event_sim.value ev "q");
  let g = Gate_sim.create nl in
  Interp.step g [];
  check Alcotest.bool "two-valued machine" true (Interp.value g "q")

let test_event_time_advances () =
  let flat = Builtin.expand_exn "MUX2" [ ("size", 2) ] in
  let nl = synthesize flat in
  let ev = Event_sim.create nl in
  let t0 = Event_sim.now ev in
  let _ = Event_sim.apply ev (drive_bus "I0" 2 3 @ drive_bus "I1" 2 0 @ [ ("SEL", false) ]) in
  check Alcotest.bool "time moved" true (Event_sim.now ev > t0)

(* ------------------------------------------------------------------ *)
(* Equivalence checking and two-valued simulator semantics             *)
(* ------------------------------------------------------------------ *)

(* Replace the first instance of one cell by another. *)
let mutate_first from_cell to_cell (nl : Netlist.t) =
  let swapped = ref false in
  { nl with
    Netlist.instances =
      List.map
        (fun (i : Netlist.instance) ->
          if (not !swapped) && i.Netlist.cell = from_cell then begin
            swapped := true;
            { i with Netlist.cell = to_cell }
          end
          else i)
        nl.Netlist.instances }

let equiv_result =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Equiv.result_to_string r))
    ( = )

(* [names] paired with the 0/1 characters of [bits]. *)
let assign names bits =
  List.mapi (fun i n -> (n, bits.[i] = '1')) names

let inst name cell conns =
  { Netlist.inst_name = name; cell; size = 1.0; conns }

let netlist ?(inputs = [ "a" ]) ?(outputs = [ "y" ]) name instances =
  { Netlist.name; inputs; outputs; instances }

let flat ?(inputs = [ "a" ]) ?(outputs = [ "y" ]) name eqs =
  { Flat.fname = name; finputs = inputs; foutputs = outputs;
    finternals = []; fequations = eqs }

(* A one-gate mutant of a mapped design must fail verification at
   exactly the step, inputs and outputs recorded here; the adder and the
   ALUs are enumerated exhaustively, the counter driven by the seeded
   random sequence through its DFF_SR registers. The ALU records fail
   past lane 62, in the second and fifth words of 63 vectors. *)
let test_equiv_mutants () =
  let adder = Builtin.expand_exn "ADDER" [ ("size", 4) ] in
  let alu size = Builtin.expand_exn "ALU" [ ("size", size) ] in
  let counter =
    Builtin.expand_exn "COUNTER"
      [ ("size", 4); ("type", 2); ("load", 1); ("enable", 0);
        ("up_or_down", 1) ]
  in
  List.iter
    (fun (name, (flat : Flat.t), from_cell, to_cell, step, ins, expected, got) ->
      let nl = synthesize flat in
      check equiv_result (name ^ " verifies") Equiv.Equivalent
        (Equiv.check flat nl);
      let mismatch =
        Equiv.Mismatch
          { step;
            inputs = assign flat.Flat.finputs ins;
            expected = assign flat.Flat.foutputs expected;
            got = assign flat.Flat.foutputs got }
      in
      check equiv_result
        (Printf.sprintf "%s with one %s as %s" name from_cell to_cell)
        mismatch
        (Equiv.check flat (mutate_first from_cell to_cell nl)))
    [ ("adder", adder, "XOR2", "XNOR2", 0, "000000000", "00000", "10000");
      ("adder", adder, "NAND2", "NOR2", 16, "000010000", "10000", "11000");
      ("alu 3", alu 3, "NAND2", "NOR2", 72, "000100100", "1000", "0000");
      ("alu 3", alu 3, "OAI21", "AOI21", 258, "010000001", "0100", "0110");
      ("alu 2", alu 2, "OAI21", "AOI21", 66, "0100001", "010", "011");
      ("counter", counter, "NAND2", "NOR2", 3, "10101111", "001001", "101001");
      ("counter", counter, "XOR2", "XNOR2", 8, "00001111", "110001", "100001") ];
  (* Netlists stuck at 0 against an AND: of all 9 inputs, first failing
     at vector 511, lane 7 of the ninth and last word; of a1-a6 among 7
     inputs, at vector 126, lane 0 of the two-lane last word. *)
  let stuck_and inputs anded =
    ( flat ~inputs "and"
        [ Flat.Comb
            { target = "y"; rhs = Flat.Fand (List.map (fun n -> Flat.Fnet n) anded) } ],
      netlist ~inputs "and" [ inst "u" "TIE0" [ ("Y", "y") ] ] )
  in
  let names k = List.init k (Printf.sprintf "a%d") in
  List.iter
    (fun (name, (spec, nl), step, ins) ->
      check equiv_result name
        (Equiv.Mismatch
           { step; inputs = assign spec.Flat.finputs ins;
             expected = [ ("y", true) ]; got = [ ("y", false) ] })
        (Equiv.check spec nl))
    [ ("and9 stuck at 0", stuck_and (names 9) (names 9), 511, "111111111");
      ("and of a1-a6 stuck at 0", stuck_and (names 7) (List.tl (names 7)), 126,
       "0111111") ]

(* Step a spec and a netlist with the same inputs through [cases]
   (input bits, expected value of [net]). *)
let step_both (spec : Flat.t) nl net cases =
  let i = Interp.create spec and g = Gate_sim.create nl in
  List.iter
    (fun (bits, x) ->
      let vec = assign spec.Flat.finputs bits in
      Interp.step i vec;
      Interp.step g vec;
      check Alcotest.bool ("interp " ^ bits) x (Interp.value i net);
      check Alcotest.bool ("gate " ^ bits) x (Interp.value g net))
    cases

let raises_sim_error msg f =
  match f () with
  | () -> Alcotest.fail ("expected Sim_error: " ^ msg)
  | exception Gate_sim.Sim_error m -> check Alcotest.string "Sim_error" msg m

let test_sim_loop_unstable () =
  let loop = flat "ring" [ Flat.Comb { target = "y"; rhs = Flat.Fnot (Flat.Fnet "y") } ] in
  (match Interp.step (Interp.create loop) [ ("a", true) ] with
   | () -> Alcotest.fail "expected Unstable"
   | exception Interp.Unstable name -> check Alcotest.string "design" "ring" name);
  let nl = netlist "ring" [ inst "u" "INV" [ ("A", "y"); ("Y", "y") ] ] in
  raises_sim_error "netlist ring failed to settle" (fun () ->
      Interp.step (Gate_sim.create nl) [ ("a", true) ])

(* Every driver disabled: the bus keeps the last driven value, even
   while the disabled drivers' data changes. *)
let test_sim_bus_keeper () =
  let inputs = [ "a"; "b"; "ea"; "eb" ] in
  let spec =
    flat ~inputs "bus"
      [ Flat.Comb
          { target = "y";
            rhs =
              Flat.Fwor
                [ Flat.Ftri { data = Flat.Fnet "a"; enable = Flat.Fnet "ea" };
                  Flat.Ftri { data = Flat.Fnet "b"; enable = Flat.Fnet "eb" } ] } ]
  in
  let nl =
    netlist ~inputs "bus"
      [ inst "t1" "TBUF" [ ("A", "a"); ("EN", "ea"); ("Y", "y") ];
        inst "t2" "TBUF" [ ("A", "b"); ("EN", "eb"); ("Y", "y") ] ]
  in
  step_both spec nl "y"
    [ ("1010", true); ("1000", true); ("0100", true); ("0101", true);
      ("0001", false); ("1100", false); ("0010", false); ("1110", true);
      ("0000", true) ]

let test_sim_opaque_latch_holds () =
  let inputs = [ "d"; "g" ] in
  let spec =
    flat ~inputs ~outputs:[ "q" ] "latch"
      [ Flat.Latch
          { target = "q"; data = Flat.Fnet "d"; transparent_high = true;
            gate = Flat.Fnet "g" } ]
  in
  let nl =
    netlist ~inputs ~outputs:[ "q" ] "latch"
      [ inst "l" "LATCH_H" [ ("D", "d"); ("G", "g"); ("Q", "q") ] ]
  in
  step_both spec nl "q"
    [ ("11", true); ("01", false); ("11", true); ("10", true); ("00", true);
      ("01", false); ("10", false) ]

let test_sim_step_non_input () =
  let spec = flat "buf" [ Flat.Comb { target = "y"; rhs = Flat.Fnet "a" } ] in
  (match Interp.step (Interp.create spec) [ ("a", true); ("y", true) ] with
   | () -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument m ->
       check Alcotest.string "interp" "Interp.step: y is not an input" m);
  let nl = netlist "buf" [ inst "u" "BUF" [ ("A", "a"); ("Y", "y") ] ] in
  raises_sim_error "Gate_sim.step: y is not an input of buf" (fun () ->
      Interp.step (Gate_sim.create nl) [ ("a", true); ("y", true) ])

(* An unconnected input pin is reported when the cell function first
   reads it: at once for NAND2's first pin, and for its second only
   when the first is 1, because AND stops at the first 0. *)
let test_sim_unconnected_pin () =
  let a_open =
    netlist "open_a" [ inst "u" "NAND2" [ ("B", "a"); ("Y", "y") ] ]
  in
  let g = Gate_sim.create a_open in
  raises_sim_error "cell NAND2: pin A unconnected" (fun () ->
      Interp.step g [ ("a", false) ]);
  let b_open =
    netlist "open_b" [ inst "u" "NAND2" [ ("A", "a"); ("Y", "y") ] ]
  in
  let g = Gate_sim.create b_open in
  Interp.step g [ ("a", false) ];
  check Alcotest.bool "NAND2 with A low" true (Interp.value g "y");
  raises_sim_error "cell NAND2: pin B unconnected" (fun () ->
      Interp.step g [ ("a", true) ])

(* Which missing pin is reported when several are: at [create] for
   outputs and sequential pins, at the first evaluation for a
   combinational cell's inputs (XOR evaluates its B operand first). *)
let test_sim_missing_pin_reports () =
  List.iter
    (fun (cell, conns, expected) ->
      let nl = netlist "p" [ inst "u" cell conns ] in
      let got =
        match Gate_sim.create nl with
        | exception Invalid_argument m -> "create: " ^ m
        | exception Gate_sim.Sim_error m -> "create: " ^ m
        | g -> (
            match Interp.step g [ ("a", true) ] with
            | () -> "ok"
            | exception Gate_sim.Sim_error m -> "step: " ^ m)
      in
      check Alcotest.string cell expected got)
    [ ("XOR2", [ ("Y", "y") ], "step: cell XOR2: pin B unconnected");
      ("XNOR2", [ ("Y", "y") ], "step: cell XNOR2: pin B unconnected");
      ("AOI21", [ ("Y", "y") ], "step: cell AOI21: pin A unconnected");
      ("NAND2", [ ("A", "a"); ("B", "a") ],
       "create: instance u (NAND2) has no pin Y");
      ("DFF_SR", [ ("Q", "y") ], "create: instance u (DFF_SR) has no pin R");
      ("DFF_S", [ ("Q", "y") ], "create: instance u (DFF_S) has no pin S");
      ("DFF", [ ("Q", "y"); ("D", "a") ], "create: instance u (DFF) has no pin CK");
      ("DFF", [ ("CK", "a") ], "create: instance u (DFF) has no pin D");
      ("DFF", [ ("CK", "a"); ("D", "a") ], "create: instance u (DFF) has no pin Q");
      ("LATCH_H", [ ("Q", "y") ], "create: instance u (LATCH_H) has no pin G");
      ("LATCH_L", [ ("G", "a") ], "create: instance u (LATCH_L) has no pin D");
      ("TBUF", [ ("Y", "y") ], "create: instance u (TBUF) has no pin EN");
      ("TBUF", [ ("Y", "y"); ("EN", "a") ], "create: instance u (TBUF) has no pin A");
      ("TBUF", [], "create: instance u (TBUF) has no pin Y");
      ("BOGUS", [], "create: unknown cell BOGUS (instance u)") ]

let test_sim_poke_unknown_net () =
  let spec = flat "buf" [ Flat.Comb { target = "y"; rhs = Flat.Fnet "a" } ] in
  let i = Interp.create spec in
  check Alcotest.bool "interp unknown reads false" false (Interp.value i "ghost");
  Interp.poke i "ghost" true;
  check Alcotest.bool "interp poked" true (Interp.value i "ghost");
  let g =
    Gate_sim.create (netlist "buf" [ inst "u" "BUF" [ ("A", "a"); ("Y", "y") ] ])
  in
  check Alcotest.bool "gate unknown reads false" false (Interp.value g "ghost");
  Interp.poke g "ghost" true;
  check Alcotest.bool "gate poked" true (Interp.value g "ghost");
  Interp.poke g "$const1" false;
  check Alcotest.bool "$const1 stays 1" true (Interp.value g "$const1")

(* ------------------------------------------------------------------ *)
(* Differential: the simulators against their hashtable oracles        *)
(* ------------------------------------------------------------------ *)

let pick = Rand_netlist.pick

(* How a step ended, with each implementation's own exception
   constructors identified. *)
let outcome f =
  match f () with
  | () -> "ok"
  | exception (Interp.Unstable s | Oracle_interp.Unstable s) -> "Unstable " ^ s
  | exception (Gate_sim.Sim_error s | Oracle_gate_sim.Sim_error s) ->
      "Sim_error " ^ s
  | exception Invalid_argument s -> "Invalid_argument " ^ s

(* Random expression over [early] nets, reaching any of [all] one time
   in ten so that combinational feedback occurs. *)
let random_fexpr st ~early ~all depth =
  let rec go d =
    let leaf () =
      match Random.State.int st 12 with
      | 0 -> Flat.Fconst (Random.State.bool st)
      | 1 -> Flat.Fnet (pick st all)
      | _ -> Flat.Fnet (pick st early)
    in
    if d = 0 then leaf ()
    else
      let many () = List.init (1 + Random.State.int st 3) (fun _ -> go (d - 1)) in
      match Random.State.int st 12 with
      | 0 | 1 -> leaf ()
      | 2 -> Flat.Fnot (go (d - 1))
      | 3 -> Flat.Fand (many ())
      | 4 -> Flat.For_ (many ())
      | 5 -> Flat.Fxor (go (d - 1), go (d - 1))
      | 6 -> Flat.Fxnor (go (d - 1), go (d - 1))
      | 7 -> Flat.Fbuf (go (d - 1))
      | 8 -> Flat.Fschmitt (Flat.Fdelay (go (d - 1), 1.5))
      | 9 -> Flat.Ftri { data = go (d - 1); enable = go (d - 1) }
      | _ ->
          Flat.Fwor
            (List.init (1 + Random.State.int st 3) (fun _ ->
                 if Random.State.bool st then
                   Flat.Ftri { data = go (d - 1); enable = go (d - 1) }
                 else go (d - 1)))
  in
  go depth

(* Combinational nets, tri-state buses, latches and flip-flops with
   asynchronous conditions, some clocked by other flip-flops. *)
let random_flat st case =
  let inputs = List.init (2 + Random.State.int st 4) (Printf.sprintf "i%d") in
  let nets = List.init (3 + Random.State.int st 8) (Printf.sprintf "n%d") in
  let all = inputs @ nets in
  let ffs = ref [] in
  let eqs =
    List.mapi
      (fun k target ->
        let early = inputs @ List.filteri (fun j _ -> j < k) nets in
        let ex d = random_fexpr st ~early ~all d in
        match Random.State.int st 10 with
        | 0 | 1 ->
            Flat.Latch
              { target; data = ex 2; transparent_high = Random.State.bool st;
                gate = ex 1 }
        | 2 | 3 ->
            let clock =
              match Random.State.int st 3 with
              | 0 when !ffs <> [] -> Flat.Fnet (pick st !ffs)
              | 0 | 1 -> Flat.Fnet "i0"
              | _ -> ex 1
            in
            ffs := target :: !ffs;
            Flat.Ff
              { target; data = ex 2; rising = Random.State.bool st; clock;
                asyncs =
                  List.init (Random.State.int st 3) (fun _ ->
                      { Flat.value = Random.State.bool st; cond = ex 1 }) }
        | _ -> Flat.Comb { target; rhs = ex 3 })
      nets
  in
  let outputs = List.filter (fun _ -> Random.State.bool st) nets in
  { Flat.fname = Printf.sprintf "rand%d" case; finputs = inputs;
    foutputs = (if outputs = [] then [ List.hd nets ] else outputs);
    finternals = nets; fequations = eqs }

let random_netlist = Rand_netlist.random_netlist

(* Wherever Xsim reports 0 or 1 under fully defined inputs, the
   two-valued machine holds the same value, although Xsim's registers
   start at X and its latches hold X until first transparent. Each
   design stops at its first raise. *)
let test_x_defined_agree () =
  let st = Random.State.make [| 0x5eed |] in
  let defined = ref 0 and wrong = ref [] in
  for case = 1 to 3000 do
    let nl = random_netlist st case in
    let x = Xsim.create nl and g = Gate_sim.create nl in
    let rec go s =
      let vec = List.map (fun n -> (n, Random.State.bool st)) nl.Netlist.inputs in
      match
        Xsim.step x (List.map (fun (n, b) -> (n, Xsim.of_bool b)) vec);
        Interp.step g vec
      with
      | exception Gate_sim.Sim_error _ -> ()
      | () ->
          List.iter
            (fun n ->
              match Xsim.value x n with
              | (Xsim.V0 | Xsim.V1) as v ->
                  incr defined;
                  if (v = Xsim.V1) <> Interp.value g n then
                    wrong := Printf.sprintf "case %d step %d %s" case s n :: !wrong
              | Xsim.VX | Xsim.VZ -> ())
            (Netlist.nets nl);
          if s < 20 then go (s + 1)
    in
    go 1
  done;
  check Alcotest.(list string) "contradicted" [] (List.rev !wrong);
  check Alcotest.bool (Printf.sprintf "%d defined values" !defined) true
    (!defined > 400_000)

(* An outcome's first word, two for a Sim_error: which check raised. *)
let outcome_kind o =
  match String.split_on_char ' ' o with
  | "Sim_error" :: w :: _ -> "Sim_error " ^ w
  | w :: _ -> w
  | [] -> o

(* One simulator instance, so that a compiled simulator and its oracle
   are driven by the same code. *)
type sim = {
  step : (string * bool) list -> unit;
  poke : string -> bool -> unit;
  value : string -> bool;
  outputs : unit -> (string * bool) list;
}

(* Drive both simulators with the same random steps — now and then a
   non-input name mid-vector or a poke — and require the same outcome,
   outputs and net values after every step. *)
let run_differential st ~seen ~label ~inputs ~nets ~steps sim oracle =
  let probe = "ghost" :: nets in
  for s = 1 to steps do
    let vec =
      List.filter_map
        (fun n ->
          if Random.State.int st 3 = 0 then None
          else Some (n, Random.State.bool st))
        inputs
    in
    let vec =
      if Random.State.int st 25 = 0 then vec @ [ (pick st probe, true) ] @ vec
      else vec
    in
    if Random.State.int st 20 = 0 then begin
      let n = pick st probe and v = Random.State.bool st in
      sim.poke n v;
      oracle.poke n v
    end;
    let got = outcome (fun () -> sim.step vec) in
    let expected = outcome (fun () -> oracle.step vec) in
    Hashtbl.replace seen (outcome_kind expected) ();
    let at = Printf.sprintf "%s step %d" label s in
    check Alcotest.string (at ^ " outcome") expected got;
    check Alcotest.(list (pair string bool)) (at ^ " outputs") (oracle.outputs ())
      (sim.outputs ());
    List.iter
      (fun n -> check Alcotest.bool (at ^ " " ^ n) (oracle.value n) (sim.value n))
      probe
  done

let diff_interp ?(seen = Hashtbl.create 1) st label (flat : Flat.t) steps =
  let i = Interp.create flat and o = Oracle_interp.create flat in
  run_differential st ~seen ~label ~inputs:flat.Flat.finputs
    ~nets:(Flat.all_nets flat) ~steps
    { step = Interp.step i; poke = Interp.poke i; value = Interp.value i;
      outputs = (fun () -> Interp.outputs i) }
    { step = Oracle_interp.step o; poke = Oracle_interp.poke o;
      value = Oracle_interp.value o; outputs = (fun () -> Oracle_interp.outputs o) }

let diff_gate ?(seen = Hashtbl.create 1) st label (nl : Netlist.t) steps =
  let g = Gate_sim.create nl and o = Oracle_gate_sim.create nl in
  run_differential st ~seen ~label ~inputs:nl.Netlist.inputs
    ~nets:("$const0" :: "$const1" :: Netlist.nets nl) ~steps
    { step = Interp.step g; poke = Interp.poke g; value = Interp.value g;
      outputs = (fun () -> Interp.outputs g) }
    { step = Oracle_gate_sim.step o; poke = Oracle_gate_sim.poke o;
      value = Oracle_gate_sim.value o;
      outputs = (fun () -> Oracle_gate_sim.outputs o) }

(* The sweep must reach every way a step can end. *)
let check_kinds seen expected =
  check Alcotest.(list string) "outcomes reached" expected
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []))

let test_diff_random_flats () =
  let st = Random.State.make [| 0xF1A7 |] in
  let seen = Hashtbl.create 8 in
  for case = 1 to 400 do
    diff_interp ~seen st (Printf.sprintf "flat %d" case) (random_flat st case) 30
  done;
  check_kinds seen [ "Invalid_argument"; "Unstable"; "ok" ]

let test_diff_random_netlists () =
  let st = Random.State.make [| 0x6A7E |] in
  let seen = Hashtbl.create 8 in
  for case = 1 to 400 do
    diff_gate ~seen st (Printf.sprintf "netlist %d" case)
      (random_netlist st case) 30
  done;
  check_kinds seen
    [ "Sim_error Gate_sim.step:"; "Sim_error cell"; "Sim_error netlist"; "ok" ]

(* Catalogue designs and their mapped netlists, sequential and
   combinational. *)
let test_diff_components () =
  let st = Random.State.make [| 0xC0DE |] in
  List.iter
    (fun (name, params) ->
      let flat = Builtin.expand_exn name params in
      diff_interp st name flat 60;
      diff_gate st name (synthesize flat) 60)
    [ ("COUNTER", [ ("size", 4); ("type", 2); ("load", 1); ("enable", 1);
                    ("up_or_down", 3) ]);
      ("COUNTER", [ ("size", 3); ("type", 1); ("load", 0); ("enable", 0);
                    ("up_or_down", 1) ]);
      ("ADDER", [ ("size", 4) ]);
      ("COMPARATOR", [ ("size", 3) ]);
      ("SHIFT_REGISTER", [ ("size", 4) ]);
      ("REGISTER_FILE", [ ("size", 2); ("abits", 2) ]) ]

(* ------------------------------------------------------------------ *)
(* Word mode: which designs take it, and exactness against the scalar  *)
(* enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(* A catalogue component's flat design, as a request expands it. *)
let component name attrs =
  let c = Option.get (Icdb_genus.Component.find name) in
  Builtin.expand_exn c.Icdb_genus.Component.implementation
    (c.Icdb_genus.Component.params_of attrs)

let equiv_method =
  Alcotest.testable
    (fun fmt m ->
      Format.pp_print_string fmt
        (match m with
         | Equiv.Words -> "words"
         | Equiv.Vectors -> "vectors"
         | Equiv.Sequence -> "sequence"))
    ( = )

(* The method [check] takes on each design. Both exhaustive methods
   return the same results by design, so only this pins a silent fall
   back to the scalar loop. The hand-built pairs make one side
   ineligible at a time. *)
let test_words_method () =
  let catalogue name size m =
    let f = component name [ ("size", size) ] in
    (Printf.sprintf "%s %d" name size, f, synthesize f, m)
  in
  let sized name sizes = List.map (fun n -> catalogue name n Equiv.Words) sizes in
  let ringed =
    let f = component "adder" [ ("size", 2) ] in
    let nl = synthesize f in
    ( "adder 2 plus an inverter ring", f,
      { nl with
        Netlist.instances =
          inst "ring0" "INV" [ ("A", "ring_n"); ("Y", "ring_n") ]
          :: nl.Netlist.instances },
      Equiv.Vectors )
  in
  let a = Flat.Fnet "a" and b = Flat.Fnet "b" in
  let comb target rhs = Flat.Comb { target; rhs } in
  let ab = [ "a"; "b" ] in
  let buf_ay = inst "u" "BUF" [ ("A", "a"); ("Y", "y") ] in
  let hand label ?(inputs = [ "a" ]) ?(outputs = [ "y" ]) ?(nl_inputs = inputs)
      ?(nl_outputs = outputs) eqs cells m =
    ( label, flat ~inputs ~outputs label eqs,
      netlist ~inputs:nl_inputs ~outputs:nl_outputs label cells, m )
  in
  List.iter
    (fun (label, spec, nl, expected) ->
      check equiv_method label expected (Equiv.method_of spec nl))
    (sized "adder" [ 1; 2; 3; 4; 5; 6 ]
    @ sized "alu" [ 1; 2; 3; 4 ]
    @ sized "comparator" [ 1; 2; 3; 4 ]
    @ sized "multiplier" [ 1; 2; 3; 4; 5; 6 ]
    @ sized "mux_scl" [ 1; 2; 3; 4; 5; 6 ]
    @ [ catalogue "adder_subtractor" 6 Equiv.Words;
        catalogue "barrel_shifter" 8 Equiv.Words;
        catalogue "bus" 4 Equiv.Vectors;
        catalogue "tri_state" 4 Equiv.Vectors;
        catalogue "counter" 4 Equiv.Sequence;
        catalogue "mux_scl" 8 Equiv.Sequence;
        ringed;
        hand "plain" [ comb "y" a ] [ buf_ay ] Equiv.Words;
        hand "constant cell" [ comb "y" (Flat.Fconst false) ]
          [ inst "u" "TIE0" [ ("Y", "y") ] ] Equiv.Words;
        hand "tri-state group" ~inputs:[ "a"; "b"; "e" ]
          [ comb "y" (Flat.Fand [ a; Flat.Fnet "e" ]) ]
          [ inst "t" "TBUF" [ ("A", "a"); ("EN", "e"); ("Y", "y") ] ]
          Equiv.Vectors;
        hand "latch cell" ~inputs:ab [ comb "y" a ]
          [ inst "l" "LATCH_H" [ ("D", "a"); ("G", "b"); ("Q", "y") ] ]
          Equiv.Vectors;
        hand "flip-flop cell" ~inputs:ab [ comb "y" a ]
          [ inst "f" "DFF" [ ("D", "a"); ("CK", "b"); ("Q", "y") ] ]
          Equiv.Vectors;
        hand "unconnected pin" ~inputs:ab [ comb "y" (Flat.Fand [ a; b ]) ]
          [ inst "u" "AND2" [ ("A", "a"); ("Y", "y") ] ] Equiv.Vectors;
        hand "cell cycle" ~inputs:ab [ comb "y" (Flat.Fand [ a; b ]) ]
          [ inst "u" "AND2" [ ("A", "a"); ("B", "w"); ("Y", "y") ];
            inst "v" "AND2" [ ("A", "b"); ("B", "y"); ("Y", "w") ] ]
          Equiv.Vectors;
        hand "two cell drivers" [ comb "y" a ]
          [ buf_ay; inst "v" "BUF" [ ("A", "a"); ("Y", "y") ] ] Equiv.Vectors;
        hand "cell drives an input" ~inputs:ab [ comb "y" a ]
          [ buf_ay; inst "v" "BUF" [ ("A", "b"); ("Y", "a") ] ] Equiv.Vectors;
        hand "cell drives a constant" [ comb "y" a ]
          [ buf_ay; inst "v" "INV" [ ("A", "a"); ("Y", "$const0") ] ]
          Equiv.Vectors;
        hand "spec wired-or" ~inputs:ab
          [ comb "y" (Flat.Fwor [ Flat.Ftri { data = a; enable = b } ]) ]
          [ inst "u" "AND2" [ ("A", "a"); ("B", "b"); ("Y", "y") ] ]
          Equiv.Vectors;
        hand "spec tri-state" ~inputs:ab
          [ comb "y" (Flat.Ftri { data = a; enable = b }) ]
          [ inst "u" "AND2" [ ("A", "a"); ("B", "b"); ("Y", "y") ] ]
          Equiv.Vectors;
        hand "spec cycle" ~inputs:ab
          [ comb "y" (Flat.Fand [ a; Flat.Fnet "w" ]);
            comb "w" (Flat.Fand [ b; Flat.Fnet "y" ]) ]
          [ buf_ay ] Equiv.Vectors;
        hand "two spec drivers" [ comb "y" a; comb "y" (Flat.Fnot a) ] [ buf_ay ]
          Equiv.Vectors;
        hand "spec drives an input" ~inputs:ab [ comb "a" b; comb "y" a ]
          [ buf_ay ] Equiv.Vectors;
        hand "spec latch" ~inputs:ab
          [ Flat.Latch { target = "y"; data = a; transparent_high = true; gate = b } ]
          [ buf_ay ] Equiv.Sequence;
        hand "other input names" ~nl_inputs:[ "b" ] [ comb "y" a ]
          [ inst "u" "BUF" [ ("A", "b"); ("Y", "y") ] ] Equiv.Vectors;
        hand "inputs reordered" ~inputs:ab ~nl_inputs:[ "b"; "a" ]
          [ comb "y" a ] [ buf_ay ] Equiv.Words;
        hand "outputs reordered" ~outputs:[ "y"; "z" ] ~nl_outputs:[ "z"; "y" ]
          [ comb "y" a; comb "z" (Flat.Fnot a) ]
          [ buf_ay; inst "v" "INV" [ ("A", "a"); ("Y", "z") ] ] Equiv.Vectors ]);
  (* a sequential spec takes [Sequence] before its word mode is asked
     for, so the spec's own refusal of state is pinned here *)
  List.iter
    (fun (label, eq) ->
      check Alcotest.bool label true
        (Option.is_none (Interp.words (Interp.create (flat ~inputs:ab label [ eq ])))))
    [ ("spec latch has no word mode",
       Flat.Latch { target = "y"; data = a; transparent_high = true; gate = b });
      ("spec flip-flop has no word mode",
       Flat.Ff { target = "y"; data = a; rising = true; clock = b; asyncs = [] }) ]

(* [check] against the scalar enumeration: the same result, or the same
   exception. *)
let same_as_scalar label (spec : Flat.t) nl =
  let run f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
  let scalar = run (fun () -> Equiv.check_combinational spec nl) in
  let got = run (fun () -> Equiv.check spec nl) in
  check
    (Alcotest.result equiv_result Alcotest.string)
    label scalar got;
  scalar

(* Every combinational catalogue component of sizes 1-6 with at most
   14 inputs. Sizes a component cannot take (extract below 4) do not
   expand and are skipped. *)
let test_words_catalogue () =
  let checked = ref 0 in
  List.iter
    (fun (c : Icdb_genus.Component.t) ->
      let sizes =
        if List.mem_assoc "size" c.Icdb_genus.Component.attributes then
          [ 1; 2; 3; 4; 5; 6 ]
        else [ 0 ]
      in
      List.iter
        (fun size ->
          let attrs = if size = 0 then [] else [ ("size", size) ] in
          match component c.Icdb_genus.Component.comp_name attrs with
          | exception Expander.Expand_error _ -> ()
          | f ->
              if Equiv.is_combinational f
                 && List.length f.Flat.finputs <= Equiv.max_exhaustive
              then begin
                incr checked;
                ignore
                  (same_as_scalar
                     (Printf.sprintf "%s %d" c.Icdb_genus.Component.comp_name size)
                     f (synthesize f))
              end)
        sizes)
    Icdb_genus.Component.all;
  check Alcotest.bool "at least 100 designs" true (!checked >= 100)

(* [random_fexpr] without interface operators or delays. *)
let rec two_valued = function
  | Flat.Ftri { data; enable } -> Flat.Fand [ two_valued data; two_valued enable ]
  | Flat.Fwor es -> Flat.For_ (List.map two_valued es)
  | Flat.Fdelay (e, _) -> two_valued e
  | Flat.Fnot e -> Flat.Fnot (two_valued e)
  | Flat.Fbuf e -> Flat.Fbuf (two_valued e)
  | Flat.Fschmitt e -> Flat.Fschmitt (two_valued e)
  | Flat.Fand es -> Flat.Fand (List.map two_valued es)
  | Flat.For_ es -> Flat.For_ (List.map two_valued es)
  | Flat.Fxor (a, b) -> Flat.Fxor (two_valued a, two_valued b)
  | Flat.Fxnor (a, b) -> Flat.Fxnor (two_valued a, two_valued b)
  | (Flat.Fconst _ | Flat.Fnet _) as e -> e

(* Random acyclic combinational designs of 0-12 inputs: up to 5 inputs
   take one word, 6 and more several, the last of them partial. Each is
   checked against its synthesized netlist and against one-cell mutants
   of it, each mutant one cell swapped for another of the same pins (a
   tie cell swapped onto the other constant raises in both). The pinned
   records of [test_equiv_mutants] fail in a partial last word, which
   random mutants do not reach. *)
let test_words_differential () =
  let st = Random.State.make [| 0x3057 |] in
  let seen = Hashtbl.create 8 in
  let partners (cell : Celllib.t) =
    List.filter
      (fun (c : Celllib.t) ->
        c.Celllib.kind = Celllib.Comb && c.Celllib.inputs = cell.Celllib.inputs
        && c.Celllib.cname <> cell.Celllib.cname)
      Celllib.all
  in
  for case = 1 to 150 do
    let n = Random.State.int st 13 in
    let inputs = List.init n (Printf.sprintf "i%d") in
    let nets = List.init (1 + Random.State.int st 8) (Printf.sprintf "n%d") in
    let eqs =
      List.mapi
        (fun k target ->
          let early = inputs @ List.filteri (fun j _ -> j < k) nets in
          Flat.Comb
            { target;
              rhs =
                (if early = [] then Flat.Fconst (Random.State.bool st)
                 else two_valued (random_fexpr st ~early ~all:early 3)) })
        nets
    in
    let outputs = List.filter (fun _ -> Random.State.bool st) nets in
    let spec =
      { Flat.fname = Printf.sprintf "comb%d" case; finputs = inputs;
        foutputs = (if outputs = [] then [ List.hd nets ] else outputs);
        finternals = nets; fequations = eqs }
    in
    let nl = synthesize spec in
    let label = Printf.sprintf "case %d (%d inputs)" case n in
    Hashtbl.replace seen (if n <= 5 then "one word" else "several words") ();
    check equiv_method (label ^ " method") Equiv.Words (Equiv.method_of spec nl);
    ignore (same_as_scalar label spec nl);
    let swappable =
      List.filter_map
        (fun (i : Netlist.instance) ->
          match Option.map partners (Celllib.find i.Netlist.cell) with
          | Some (_ :: _ as cells) -> Some (i, cells)
          | _ -> None)
        nl.Netlist.instances
    in
    if swappable <> [] then
      for m = 1 to 3 do
        let target, cells = pick st swappable in
        let into = (pick st cells).Celllib.cname in
        let mutant =
          { nl with
            Netlist.instances =
              List.map
                (fun i -> if i == target then { i with Netlist.cell = into } else i)
                nl.Netlist.instances }
        in
        let kind =
          match same_as_scalar (Printf.sprintf "%s mutant %d" label m) spec mutant with
          | Ok Equiv.Equivalent -> "equivalent"
          | Ok (Equiv.Mismatch { step; _ }) ->
              if step >= 63 then "mismatch past lane 62"
              else "mismatch in the first word"
          | Error _ -> "raised"
        in
        Hashtbl.replace seen kind ()
      done
  done;
  check_kinds seen
    [ "equivalent"; "mismatch in the first word"; "mismatch past lane 62";
      "one word"; "raised"; "several words" ]

let () =
  Alcotest.run "sim4+stats"
    [ ("xsim",
       [ Alcotest.test_case "logic tables" `Quick test_x_logic_tables;
         Alcotest.test_case "comb fully defined" `Quick test_x_combinational_defined;
         Alcotest.test_case "controlling value masks X" `Quick
           test_x_controlling_value_masks_x;
         Alcotest.test_case "async priority" `Quick test_x_async_priority;
         Alcotest.test_case "oscillation reads X" `Quick test_x_oscillation;
         Alcotest.test_case "registers start unknown" `Quick
           test_x_registers_start_unknown;
         Alcotest.test_case "async load defines" `Quick test_x_async_load_defines;
         Alcotest.test_case "initialization check" `Quick
           test_x_initialization_check_reports;
         Alcotest.test_case "matches boolean sim" `Quick
           test_x_matches_boolean_sim_when_driven;
         Alcotest.test_case "defined values agree" `Quick test_x_defined_agree ]);
      ("event",
       [ Alcotest.test_case "matches gate sim" `Quick test_event_matches_gate_sim;
         Alcotest.test_case "settle below STA bound" `Quick
           test_event_settle_below_sta_bound;
         Alcotest.test_case "worst vector near bound" `Quick
           test_event_worst_vector_near_bound;
         Alcotest.test_case "counts glitches" `Quick test_event_counts_glitches;
         Alcotest.test_case "counter clocks" `Quick test_event_counter_clocks;
         Alcotest.test_case "time advances" `Quick test_event_time_advances;
         Alcotest.test_case "pinned settle and transitions" `Quick test_event_pinned;
         Alcotest.test_case "set at time zero" `Quick test_event_set_at_time_zero ]);
      ("two-valued",
       [ Alcotest.test_case "mutants mismatch" `Quick test_equiv_mutants;
         Alcotest.test_case "loop unstable" `Quick test_sim_loop_unstable;
         Alcotest.test_case "bus keeper" `Quick test_sim_bus_keeper;
         Alcotest.test_case "opaque latch holds" `Quick
           test_sim_opaque_latch_holds;
         Alcotest.test_case "step non-input" `Quick test_sim_step_non_input;
         Alcotest.test_case "unconnected pin" `Quick test_sim_unconnected_pin;
         Alcotest.test_case "missing pin reports" `Quick
           test_sim_missing_pin_reports;
         Alcotest.test_case "poke unknown net" `Quick test_sim_poke_unknown_net ]);
      ("differential",
       [ Alcotest.test_case "random flat designs" `Quick test_diff_random_flats;
         Alcotest.test_case "random netlists" `Quick test_diff_random_netlists;
         Alcotest.test_case "catalogue designs" `Quick test_diff_components ]);
      ("word mode",
       [ Alcotest.test_case "method per design" `Quick test_words_method;
         Alcotest.test_case "catalogue = scalar" `Quick test_words_catalogue;
         Alcotest.test_case "seeded differential" `Quick test_words_differential ]);
      ("stats",
       [ Alcotest.test_case "adder depth grows" `Quick test_stats_adder_depth_grows;
         Alcotest.test_case "counter sequential" `Quick
           test_stats_counter_sequential_count;
         Alcotest.test_case "inverter chain" `Quick test_stats_inverter_chain;
         Alcotest.test_case "cycle detected" `Quick test_stats_cycle_detected ]) ]
