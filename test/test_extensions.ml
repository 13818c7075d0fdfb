(* Tests for the server extensions: power estimation, equivalent and
   inverted port queries, component generators (§4.2 tool management) —
   plus a random-netlist fuzzer driving the whole synthesis pipeline
   against the reference interpreter. *)

open Icdb
open Icdb_cql
open Icdb_iif
open Icdb_timing

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let with_server f = f (Server.create ())

let request server ?generator component attributes =
  Server.request_component server
    (Spec.make ?generator
       (Spec.From_component { component; attributes; functions = [] }))

(* ------------------------------------------------------------------ *)
(* Power                                                               *)
(* ------------------------------------------------------------------ *)

let test_power_positive () =
  with_server @@ fun server ->
  let inst = request server "counter" [ ("size", 4) ] in
  let p = Lazy.force inst.Instance.power in
  check Alcotest.bool "dynamic power positive" true (p.Power.dynamic_mw > 0.0);
  check Alcotest.bool "static power positive" true (p.Power.static_uw > 0.0);
  check Alcotest.bool "activities recorded" true (p.Power.activities <> [])

let test_power_scales_with_size () =
  with_server @@ fun server ->
  let p n =
    (Lazy.force (request server "adder" [ ("size", n) ]).Instance.power)
      .Power.static_uw
  in
  check Alcotest.bool "8-bit leaks more than 4-bit" true (p 8 > p 4)

let test_power_deterministic () =
  with_server @@ fun server ->
  let inst = request server "register" [ ("size", 4) ] in
  let a = Power.estimate inst.Instance.netlist in
  let b = Power.estimate inst.Instance.netlist in
  check (Alcotest.float 1e-9) "same dynamic" a.Power.dynamic_mw b.Power.dynamic_mw

let test_power_via_cql () =
  with_server @@ fun server ->
  let r1 =
    Exec.run server
      "command:request_component; component_name:counter; attribute:(size:4);\n\
       instance:?s"
  in
  let id = Exec.get_string r1 "instance" in
  let r2 =
    Exec.run server ~args:[ Exec.Astr id ]
      "command:instance_query; instance:%s; power:?s"
  in
  check Alcotest.bool "power report" true
    (contains (Exec.get_string r2 "power") "mW at")

(* ------------------------------------------------------------------ *)
(* Equivalent / inverted ports                                         *)
(* ------------------------------------------------------------------ *)

let test_equivalent_ports () =
  with_server @@ fun server ->
  let adder = request server "adder" [ ("size", 4) ] in
  check Alcotest.string "I0 = I1" "I0 = I1"
    (Instance.equivalent_ports_string adder);
  let counter = request server "counter" [] in
  check Alcotest.string "none" "(none)"
    (Instance.equivalent_ports_string counter)

let test_inverted_ports () =
  with_server @@ fun server ->
  let cmp = request server "comparator" [ ("size", 4) ] in
  check Alcotest.string "OEQ / ONEQ" "OEQ / ONEQ"
    (Instance.inverted_ports_string cmp)

let test_ports_via_cql () =
  with_server @@ fun server ->
  let r1 =
    Exec.run server
      "command:request_component; component_name:adder; attribute:(size:4);\n\
       instance:?s"
  in
  let id = Exec.get_string r1 "instance" in
  let r2 =
    Exec.run server ~args:[ Exec.Astr id ]
      "command:instance_query; instance:%s; equivalent_ports:?s; inverted_ports:?s"
  in
  check Alcotest.string "equivalent" "I0 = I1"
    (Exec.get_string r2 "equivalent_ports");
  check Alcotest.string "inverted" "(none)"
    (Exec.get_string r2 "inverted_ports")

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let transistor_count (inst : Instance.t) =
  List.fold_left
    (fun acc (i : Icdb_netlist.Netlist.instance) ->
      match Icdb_logic.Celllib.find i.cell with
      | Some c -> acc + c.Icdb_logic.Celllib.transistors
      | None -> acc)
    0 inst.Instance.netlist.Icdb_netlist.Netlist.instances

let test_generator_names () =
  with_server @@ fun server ->
  check Alcotest.(list string) "builtin generators" [ "direct"; "milo" ]
    (Server.generator_names server)

let test_direct_generator_larger () =
  with_server @@ fun server ->
  let milo = request server "alu" [ ("size", 4) ] in
  let direct = request server ~generator:"direct" "alu" [ ("size", 4) ] in
  check Alcotest.bool "distinct instances" true
    (milo.Instance.id <> direct.Instance.id);
  check Alcotest.bool
    (Printf.sprintf "direct bigger: %d vs %d transistors"
       (transistor_count direct) (transistor_count milo))
    true
    (transistor_count direct > transistor_count milo)

let test_direct_generator_verified () =
  (* verification runs for both generators, so "direct" output is just
     as correct - only bigger *)
  let server = Server.create ~verify:true () in
  let inst = request server ~generator:"direct" "comparator" [ ("size", 3) ] in
  check Alcotest.bool "generated" true (Instance.gate_count inst > 0)

let test_unknown_generator () =
  with_server @@ fun server ->
  (try
     ignore (request server ~generator:"magic" "adder" [ ("size", 4) ]);
     Alcotest.fail "expected Icdb_error"
   with Server.Icdb_error _ -> ())

let test_insert_generator () =
  with_server @@ fun server ->
  (* a custom generator that delegates to milo *)
  Server.insert_generator server
    { Generator.gen_name = "custom";
      gen_description = "test";
      synthesize = Generator.milo.Generator.synthesize };
  check Alcotest.bool "registered" true
    (List.mem "custom" (Server.generator_names server));
  let inst = request server ~generator:"custom" "adder" [ ("size", 3) ] in
  check Alcotest.bool "usable" true (Instance.gate_count inst > 0)

(* Verification covers every design: a generator whose netlist is
   wrong in one cell is caught and the request falls back to the next
   generator, also for a combinational design too wide to enumerate
   (mux_scl 8 has 17 inputs, so it gets the seeded random sequence). *)
let test_wide_mutant_falls_back () =
  with_server @@ fun server ->
  let swap_first_nand (nl : Icdb_netlist.Netlist.t) =
    let swapped = ref false in
    { nl with
      instances =
        List.map
          (fun (i : Icdb_netlist.Netlist.instance) ->
            if (not !swapped) && i.cell = "NAND2" then begin
              swapped := true;
              { i with cell = "NOR2" }
            end
            else i)
          nl.instances }
  in
  Server.insert_generator server
    { Generator.gen_name = "faulty";
      gen_description = "milo with one NAND2 mapped as NOR2";
      synthesize =
        (fun flat -> swap_first_nand (Generator.milo.Generator.synthesize flat)) };
  let inst = request server ~generator:"faulty" "mux_scl" [ ("size", 8) ] in
  check Alcotest.int "17 inputs" 17
    (List.length inst.Instance.netlist.Icdb_netlist.Netlist.inputs);
  check Alcotest.bool "served degraded" true inst.Instance.degraded

(* A netlist that never settles fails verification like a wrong one
   does: the simulator's exception must not escape the request, which
   falls back to the next generator instead. *)
let test_unsettled_falls_back () =
  with_server @@ fun server ->
  let add_ring (nl : Icdb_netlist.Netlist.t) =
    { nl with
      instances =
        { Icdb_netlist.Netlist.inst_name = "ring0";
          cell = "INV";
          size = 1.0;
          conns = [ ("A", "ring_n"); ("Y", "ring_n") ] }
        :: nl.instances }
  in
  Server.insert_generator server
    { Generator.gen_name = "ringed";
      gen_description = "milo plus a one-inverter ring";
      synthesize =
        (fun flat -> add_ring (Generator.milo.Generator.synthesize flat)) };
  let inst = request server ~generator:"ringed" "adder" [ ("size", 2) ] in
  check Alcotest.bool "served degraded" true inst.Instance.degraded;
  check Alcotest.bool "ring not served" false
    (List.exists
       (fun (i : Icdb_netlist.Netlist.instance) -> i.inst_name = "ring0")
       inst.Instance.netlist.Icdb_netlist.Netlist.instances)

(* ------------------------------------------------------------------ *)
(* Universal attributes (App B §3)                                     *)
(* ------------------------------------------------------------------ *)

let drive_bus base width x =
  List.init width (fun i -> (Printf.sprintf "%s[%d]" base i, (x lsr i) land 1 = 1))

let read_bus sim base width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 1)
         lor (if Icdb_iif.Interp.value sim (Printf.sprintf "%s[%d]" base i)
              then 1 else 0)
  done;
  !v

let test_attr_active_low_inputs () =
  (* the §1 motivating case: a component with active-low inputs needs no
     external inverters - ICDB generates it that way *)
  with_server @@ fun server ->
  let inst =
    request server "adder" [ ("size", 4); ("input_type", 0) ]
  in
  let sim = Icdb_sim.Gate_sim.create inst.Instance.netlist in
  let add a b =
    Icdb_iif.Interp.step sim
      (drive_bus "I0" 4 (lnot a land 15)
      @ drive_bus "I1" 4 (lnot b land 15)
      @ [ ("Cin", true) ] (* active low: true pad = logical 0 *));
    read_bus sim "O" 4
  in
  check Alcotest.int "5+3 through inverted pads" 8 (add 5 3);
  check Alcotest.int "9+4" 13 (add 9 4)

let test_attr_active_low_outputs () =
  with_server @@ fun server ->
  let inst =
    request server "comparator" [ ("size", 3); ("output_type", 0) ]
  in
  let sim = Icdb_sim.Gate_sim.create inst.Instance.netlist in
  Icdb_iif.Interp.step sim (drive_bus "A" 3 5 @ drive_bus "B" 3 5);
  (* equal, but OEQ is active low now *)
  check Alcotest.bool "OEQ low when equal" false
    (Icdb_iif.Interp.value sim "OEQ");
  check Alcotest.bool "OGT high (inactive)" true
    (Icdb_iif.Interp.value sim "OGT")

let test_attr_output_tri_state () =
  with_server @@ fun server ->
  let inst =
    request server "mux_scl" [ ("size", 2); ("output_tri_state", 1) ]
  in
  check Alcotest.bool "OE input added" true
    (List.mem "OE" inst.Instance.netlist.Icdb_netlist.Netlist.inputs);
  let sim = Icdb_sim.Gate_sim.create inst.Instance.netlist in
  Icdb_iif.Interp.step sim
    (drive_bus "I0" 2 3 @ drive_bus "I1" 2 0 @ [ ("SEL", false); ("OE", true) ]);
  check Alcotest.int "driving" 3 (read_bus sim "O" 2);
  Icdb_iif.Interp.step sim
    (drive_bus "I0" 2 0 @ drive_bus "I1" 2 0 @ [ ("SEL", false); ("OE", false) ]);
  check Alcotest.int "released: bus keeps value" 3 (read_bus sim "O" 2)

let test_attr_output_latch () =
  with_server @@ fun server ->
  let inst =
    request server "adder" [ ("size", 2); ("output_latch", 1) ]
  in
  check Alcotest.bool "CLK input added" true
    (List.mem "CLK" inst.Instance.netlist.Icdb_netlist.Netlist.inputs);
  let sim = Icdb_sim.Gate_sim.create inst.Instance.netlist in
  let inputs a b clk =
    drive_bus "I0" 2 a @ drive_bus "I1" 2 b @ [ ("Cin", false); ("CLK", clk) ]
  in
  (* load 1+1 through a clock edge *)
  Icdb_iif.Interp.step sim (inputs 1 1 false);
  Icdb_iif.Interp.step sim (inputs 1 1 true);
  check Alcotest.int "captured 2" 2 (read_bus sim "O" 2);
  (* change operands with clock low: output holds *)
  Icdb_iif.Interp.step sim (inputs 3 0 false);
  check Alcotest.int "held" 2 (read_bus sim "O" 2);
  Icdb_iif.Interp.step sim (inputs 3 0 true);
  check Alcotest.int "captures 3" 3 (read_bus sim "O" 2)

let test_attr_input_latch () =
  with_server @@ fun server ->
  let inst =
    request server "adder" [ ("size", 2); ("input_latch", 1) ]
  in
  let sim = Icdb_sim.Gate_sim.create inst.Instance.netlist in
  let inputs a b clk =
    drive_bus "I0" 2 a @ drive_bus "I1" 2 b @ [ ("Cin", false); ("CLK", clk) ]
  in
  (* transparent while CLK high *)
  Icdb_iif.Interp.step sim (inputs 1 2 true);
  check Alcotest.int "transparent" 3 (read_bus sim "O" 2);
  (* opaque while CLK low: operand changes are ignored *)
  Icdb_iif.Interp.step sim (inputs 1 2 false);
  Icdb_iif.Interp.step sim (inputs 3 3 false);
  check Alcotest.int "held operands" 3 (read_bus sim "O" 2)

let test_attr_distinct_cache_entries () =
  with_server @@ fun server ->
  let plain = request server "adder" [ ("size", 4) ] in
  let low = request server "adder" [ ("size", 4); ("input_type", 0) ] in
  check Alcotest.bool "different instances" true
    (plain.Instance.id <> low.Instance.id);
  (* active-high explicitly = the default: same cached instance *)
  let high = request server "adder" [ ("size", 4); ("input_type", 1) ] in
  ignore high;
  check Alcotest.bool "low costs inverters" true
    (Instance.gate_count low > Instance.gate_count plain)

let test_attr_functions_preserved () =
  with_server @@ fun server ->
  let inst =
    request server "counter" [ ("size", 3); ("output_tri_state", 1) ]
  in
  check Alcotest.bool "still counts" true
    (List.exists (Icdb_genus.Func.equal Icdb_genus.Func.INC)
       inst.Instance.functions)

(* ------------------------------------------------------------------ *)
(* Random-design fuzz: the whole pipeline vs the interpreter           *)
(* ------------------------------------------------------------------ *)

(* Random combinational expressions over a fixed input set plus
   already-defined internal nets. *)
let gen_fexpr nets =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Flat.Fnet (List.nth nets (i mod List.length nets)))
          (int_bound (List.length nets - 1));
        return (Flat.Fconst true);
        return (Flat.Fconst false) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [ (2, leaf);
            (2, map (fun e -> Flat.Fnot e) (self (depth - 1)));
            (2, map2 (fun a b -> Flat.Fand [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (2, map2 (fun a b -> Flat.For_ [ a; b ]) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Flat.Fxor (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Flat.Fxnor (a, b)) (self (depth - 1)) (self (depth - 1))) ])
    3

(* A random flat design: inputs a..d, a few internal nets, 2 outputs. *)
let gen_flat =
  let open QCheck.Gen in
  let inputs = [ "a"; "b"; "c"; "d" ] in
  let* n_internal = int_range 0 3 in
  let internal = List.init n_internal (fun i -> Printf.sprintf "t%d" i) in
  let rec build_eqs defined todo acc =
    match todo with
    | [] -> return (List.rev acc)
    | net :: rest ->
        let* rhs = gen_fexpr defined in
        build_eqs (net :: defined) rest (Flat.Comb { target = net; rhs } :: acc)
  in
  let* eqs = build_eqs inputs (internal @ [ "y0"; "y1" ]) [] in
  return
    { Flat.fname = "fuzz";
      finputs = inputs;
      foutputs = [ "y0"; "y1" ];
      finternals = internal;
      fequations = eqs }

let arb_flat = QCheck.make ~print:(fun f -> Flat.to_milo f) gen_flat

let fuzz_pipeline =
  QCheck.Test.make ~name:"random designs synthesize equivalently" ~count:150
    arb_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.optimize network;
      let nl = Icdb_logic.Techmap.map network in
      Icdb_sim.Equiv.check flat nl = Icdb_sim.Equiv.Equivalent)

let fuzz_pipeline_direct =
  QCheck.Test.make ~name:"random designs map equivalently with NAND2/INV only"
    ~count:100 arb_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.sweep network;
      let nl =
        Icdb_logic.Techmap.map
          ~cells:Icdb_logic.Celllib.[ inv; nand2; buf ]
          network
      in
      Icdb_sim.Equiv.check flat nl = Icdb_sim.Equiv.Equivalent)

(* Sequential fuzz: random next-state logic feeding 1-2 rising-edge
   registers clocked by a dedicated CLK input, with optional async
   resets. *)
let gen_seq_flat =
  let open QCheck.Gen in
  let inputs = [ "a"; "b"; "c" ] in
  let* n_regs = int_range 1 2 in
  let regs = List.init n_regs (fun i -> Printf.sprintf "q%d" i) in
  let nets = inputs @ regs in
  let* reg_eqs =
    flatten_l
      (List.map
         (fun q ->
           let* data = gen_fexpr nets in
           let* with_reset = bool in
           let asyncs =
             if with_reset then
               [ { Flat.value = false; cond = Flat.Fnet "c" } ]
             else []
           in
           return
             (Flat.Ff
                { target = q; data; rising = true; clock = Flat.Fnet "CLK";
                  asyncs }))
         regs)
  in
  let* out_rhs = gen_fexpr nets in
  return
    { Flat.fname = "seqfuzz";
      finputs = "CLK" :: inputs;
      foutputs = regs @ [ "y" ];
      finternals = [];
      fequations = reg_eqs @ [ Flat.Comb { target = "y"; rhs = out_rhs } ] }

let arb_seq_flat = QCheck.make ~print:(fun f -> Flat.to_milo f) gen_seq_flat

let fuzz_sequential =
  QCheck.Test.make ~name:"random sequential designs synthesize equivalently"
    ~count:80 arb_seq_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.optimize network;
      let nl = Icdb_logic.Techmap.map network in
      Icdb_sim.Equiv.check ~steps:80 flat nl = Icdb_sim.Equiv.Equivalent)

let fuzz_sta_bounds_event_sim =
  QCheck.Test.make
    ~name:"event-sim settling never exceeds the STA bound (random designs)"
    ~count:60 arb_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.optimize network;
      let nl = Icdb_logic.Techmap.map network in
      let bound =
        List.fold_left
          (fun acc (_, wd) -> Float.max acc wd)
          0.0
          (Icdb_timing.Sta.analyze nl).Icdb_timing.Sta.output_delays
      in
      let ev = Icdb_sim.Event_sim.create nl in
      let rng = Random.State.make [| 17 |] in
      let ok = ref true in
      for _ = 1 to 10 do
        let vec =
          List.map
            (fun n -> (n, Random.State.bool rng))
            nl.Icdb_netlist.Netlist.inputs
        in
        let settle, _ = Icdb_sim.Event_sim.apply ev vec in
        if settle > bound +. 0.001 then ok := false
      done;
      !ok)

let fuzz_layout_invariants =
  QCheck.Test.make ~name:"layout invariants on random designs" ~count:60
    arb_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.optimize network;
      let nl = Icdb_logic.Techmap.map network in
      if nl.Icdb_netlist.Netlist.instances = [] then true
      else begin
        let ok = ref true in
        List.iter
          (fun strips ->
            let p = Icdb_layout.Strip.place nl ~strips in
            (* every instance placed exactly once *)
            if
              List.length p.Icdb_layout.Strip.cells
              <> List.length nl.Icdb_netlist.Netlist.instances
            then ok := false;
            (* spans are non-negative *)
            Array.iter
              (fun s -> if s < 0.0 then ok := false)
              (Icdb_layout.Strip.channel_spans p);
            let e = Icdb_layout.Area_est.estimate nl ~strips in
            if e.Icdb_layout.Area_est.width <= 0.0
               || e.Icdb_layout.Area_est.height <= 0.0
            then ok := false)
          [ 1; 2; 3 ];
        (* the shape function is a proper staircase *)
        let shapes = Icdb_layout.Shape.of_netlist nl in
        let rec staircase = function
          | a :: (b :: _ as rest) ->
              a.Icdb_layout.Shape.alt_width > b.Icdb_layout.Shape.alt_width
              && a.Icdb_layout.Shape.alt_height <= b.Icdb_layout.Shape.alt_height
              && staircase rest
          | _ -> true
        in
        !ok && staircase shapes && shapes <> []
      end)

let fuzz_power_runs =
  QCheck.Test.make ~name:"power estimation succeeds on random designs"
    ~count:30 arb_flat
    (fun flat ->
      let network = Icdb_logic.Network.of_flat flat in
      Icdb_logic.Opt.optimize network;
      let nl = Icdb_logic.Techmap.map network in
      let p = Power.estimate ~vectors:16 nl in
      p.Power.dynamic_mw >= 0.0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ fuzz_pipeline; fuzz_pipeline_direct; fuzz_sequential;
      fuzz_sta_bounds_event_sim; fuzz_layout_invariants; fuzz_power_runs ]

let () =
  Alcotest.run "extensions"
    [ ("power",
       [ Alcotest.test_case "positive" `Quick test_power_positive;
         Alcotest.test_case "scales with size" `Quick test_power_scales_with_size;
         Alcotest.test_case "deterministic" `Quick test_power_deterministic;
         Alcotest.test_case "via CQL" `Quick test_power_via_cql ]);
      ("ports",
       [ Alcotest.test_case "equivalent ports" `Quick test_equivalent_ports;
         Alcotest.test_case "inverted ports" `Quick test_inverted_ports;
         Alcotest.test_case "via CQL" `Quick test_ports_via_cql ]);
      ("attributes",
       [ Alcotest.test_case "active-low inputs" `Quick test_attr_active_low_inputs;
         Alcotest.test_case "active-low outputs" `Quick test_attr_active_low_outputs;
         Alcotest.test_case "tri-state outputs" `Quick test_attr_output_tri_state;
         Alcotest.test_case "output latch" `Quick test_attr_output_latch;
         Alcotest.test_case "input latch" `Quick test_attr_input_latch;
         Alcotest.test_case "distinct cache entries" `Quick
           test_attr_distinct_cache_entries;
         Alcotest.test_case "functions preserved" `Quick
           test_attr_functions_preserved ]);
      ("generators",
       [ Alcotest.test_case "names" `Quick test_generator_names;
         Alcotest.test_case "direct is larger" `Quick test_direct_generator_larger;
         Alcotest.test_case "direct verified" `Quick test_direct_generator_verified;
         Alcotest.test_case "unknown rejected" `Quick test_unknown_generator;
         Alcotest.test_case "insert custom" `Quick test_insert_generator;
         Alcotest.test_case "wide mutant falls back" `Quick
           test_wide_mutant_falls_back;
         Alcotest.test_case "unsettled netlist falls back" `Quick
           test_unsettled_falls_back ]);
      ("fuzz", props) ]
