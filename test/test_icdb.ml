(* End-to-end tests of the ICDB server and CQL: the paper's §3.2/§3.3
   queries, generation caching, constraint handling, VHDL clusters and
   component-list management. *)

open Icdb
open Icdb_cql

let check = Alcotest.check

let with_server f =
  let server = Server.create () in
  f server

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Server-level                                                        *)
(* ------------------------------------------------------------------ *)

let test_function_query_storage () =
  with_server @@ fun server ->
  (* §4.1: "When a user needs a register, ICDB will search the
     components which perform the STORAGE function. Both the updown
     counter and the register component will be returned." *)
  let names = Server.function_query server [ Icdb_genus.Func.STORAGE ] in
  check Alcotest.bool "register found" true (List.mem "register" names);
  check Alcotest.bool "counter found" true (List.mem "counter" names)

let test_function_query_multi () =
  with_server @@ fun server ->
  (* "If an optimizer wants a component that executes both the COUNTER
     and STORAGE functions, the updown counter will be returned." *)
  let names =
    Server.function_query server
      [ Icdb_genus.Func.COUNTER; Icdb_genus.Func.STORAGE ]
  in
  check Alcotest.(list string) "only counter" [ "counter" ] names

let test_component_query_functions () =
  with_server @@ fun server ->
  let fs = Server.component_query server "alu" in
  check Alcotest.bool "alu adds" true
    (List.exists (Icdb_genus.Func.equal Icdb_genus.Func.ADD) fs);
  check Alcotest.bool "alu subtracts" true
    (List.exists (Icdb_genus.Func.equal Icdb_genus.Func.SUB) fs)

let counter_spec ?constraints ?(size = 5) () =
  Spec.make ?constraints
    (Spec.From_component
       { component = "counter";
         attributes = [ ("size", size) ];
         functions = [ Icdb_genus.Func.INC ] })

let test_request_component_counter () =
  with_server @@ fun server ->
  let inst = Server.request_component server (counter_spec ()) in
  check Alcotest.bool "id assigned" true
    (String.length inst.Instance.id > 0);
  check Alcotest.bool "has gates" true (Instance.gate_count inst > 10);
  check Alcotest.bool "positive CW" true
    (inst.Instance.report.Icdb_timing.Sta.clock_width > 0.0);
  check Alcotest.bool "has shape function" true
    (List.length inst.Instance.shape >= 2)

let test_request_component_cached () =
  with_server @@ fun server ->
  let a = Server.request_component server (counter_spec ()) in
  let b = Server.request_component server (counter_spec ()) in
  check Alcotest.string "same instance, not regenerated" a.Instance.id
    b.Instance.id;
  let c = Server.request_component server (counter_spec ~size:4 ()) in
  check Alcotest.bool "different spec, new instance" true
    (c.Instance.id <> a.Instance.id)

let test_request_unknown_component () =
  with_server @@ fun server ->
  (try
     ignore
       (Server.request_component server
          (Spec.make
             (Spec.From_component
                { component = "florb"; attributes = []; functions = [] })));
     Alcotest.fail "expected Icdb_error"
   with Server.Icdb_error _ -> ())

let test_request_function_mismatch () =
  with_server @@ fun server ->
  (* an up-only counter cannot perform DEC *)
  (try
     ignore
       (Server.request_component server
          (Spec.make
             (Spec.From_component
                { component = "counter";
                  attributes = [ ("up_or_down", 1) ];
                  functions = [ Icdb_genus.Func.DEC ] })));
     Alcotest.fail "expected Icdb_error"
   with Server.Icdb_error _ -> ())

let test_request_from_implementation () =
  with_server @@ fun server ->
  let inst =
    Server.request_component server
      (Spec.make
         (Spec.From_implementation
            { implementation = "ADDER"; params = [ ("size", 4) ] }))
  in
  check Alcotest.bool "adder generated" true (Instance.gate_count inst > 5)

let test_request_from_iif_control_logic () =
  with_server @@ fun server ->
  (* §3.2.2 type 3: control logic straight from boolean equations *)
  let iif =
    "NAME:CTRL;\nINORDER: S0, S1, OPA;\nOUTORDER: LD, EN;\n\
     { LD = S0*!S1 + OPA; EN = S0 + S1; }"
  in
  let inst = Server.request_component server (Spec.make (Spec.From_iif iif)) in
  check Alcotest.bool "control logic generated" true (Instance.gate_count inst > 0);
  check Alcotest.bool "combinational" true
    (inst.Instance.report.Icdb_timing.Sta.clock_width = 0.0)

let test_request_with_strategy_fastest () =
  with_server @@ fun server ->
  let cheap =
    Server.request_component server
      (Spec.make
         ~constraints:
           { Icdb_timing.Sizing.default_constraints with
             strategy = Icdb_timing.Sizing.Cheapest }
         (Spec.From_implementation
            { implementation = "ADDER"; params = [ ("size", 4) ] }))
  in
  let fast =
    Server.request_component server
      (Spec.make
         ~constraints:
           { Icdb_timing.Sizing.default_constraints with
             strategy = Icdb_timing.Sizing.Fastest }
         (Spec.From_implementation
            { implementation = "ADDER"; params = [ ("size", 4) ] }))
  in
  let wd i =
    List.assoc "Cout" i.Instance.report.Icdb_timing.Sta.output_delays
  in
  check Alcotest.bool "fastest is faster" true (wd fast < wd cheap);
  check Alcotest.bool "fastest is bigger" true
    (Instance.best_area fast > Instance.best_area cheap)

let test_constraints_met_flag () =
  with_server @@ fun server ->
  let loose =
    Server.request_component server
      (counter_spec
         ~constraints:
           { Icdb_timing.Sizing.default_constraints with
             clock_width = Some 1000.0 }
         ())
  in
  check Alcotest.bool "loose met" true loose.Instance.constraints_met;
  let impossible =
    Server.request_component server
      (counter_spec
         ~constraints:
           { Icdb_timing.Sizing.default_constraints with
             clock_width = Some 0.1 }
         ())
  in
  (* the paper relaxes: generation succeeds but the flag reports it *)
  check Alcotest.bool "impossible not met" false
    impossible.Instance.constraints_met

let test_vhdl_cluster_request () =
  with_server @@ fun server ->
  let a =
    Server.request_component server
      (Spec.make ~name_hint:"add4"
         (Spec.From_implementation
            { implementation = "ADDER"; params = [ ("size", 2) ] }))
  in
  ignore a;
  let vhdl =
    "entity cluster1 is port (\n\
     x[0] : in bit; x[1] : in bit; y[0] : in bit; y[1] : in bit;\n\
     ci : in bit; s[0] : out bit; s[1] : out bit; co : out bit );\n\
     end cluster1;\n\
     architecture s of cluster1 is begin\n\
     u1: add4 port map (I0[0] => x[0], I0[1] => x[1], I1[0] => y[0],\n\
     I1[1] => y[1], Cin => ci, O[0] => s[0], O[1] => s[1], Cout => co);\n\
     end s;"
  in
  let inst =
    Server.request_component server (Spec.make (Spec.From_vhdl_netlist vhdl))
  in
  check Alcotest.int "same gates as the adder" (Instance.gate_count a)
    (Instance.gate_count inst);
  check Alcotest.bool "cluster has a shape" true (inst.Instance.shape <> [])

(* Two instances under one label would share their internal nets (a
   timing loop once flattened): the cluster is refused as bad VHDL. *)
let test_vhdl_cluster_duplicate_label () =
  with_server @@ fun server ->
  ignore
    (Server.request_component server
       (Spec.make ~name_hint:"add2"
          (Spec.From_implementation
             { implementation = "ADDER"; params = [ ("size", 1) ] })));
  let vhdl =
    "entity cluster2 is port (\n\
     a : in bit; b : in bit; c : in bit; ci : in bit;\n\
     s[0] : out bit; s[1] : out bit; co : out bit );\n\
     end cluster2;\n\
     architecture s of cluster2 is begin\n\
     u1: add2 port map (I0[0] => a, I1[0] => b, Cin => ci, O[0] => s[0], Cout => t);\n\
     u1: add2 port map (I0[0] => t, I1[0] => c, Cin => ci, O[0] => s[1], Cout => co);\n\
     end s;"
  in
  match Server.request_component server (Spec.make (Spec.From_vhdl_netlist vhdl)) with
  | _ -> Alcotest.fail "expected Icdb_error"
  | exception Server.Icdb_error msg ->
      check Alcotest.bool ("names the label: " ^ msg) true
        (contains msg "VHDL: " && contains msg "duplicate instance label u1")

let test_request_layout () =
  with_server @@ fun server ->
  let inst = Server.request_component server (counter_spec ()) in
  let layout, cif, file =
    Server.request_layout server inst.Instance.id ~alternative:2 ()
  in
  check Alcotest.bool "cif text" true (contains cif "DS 1 1 1;");
  check Alcotest.bool "file written" true (Sys.file_exists file);
  check Alcotest.bool "strips per alternative" true
    (layout.Icdb_layout.Cif.lstrips >= 1)

let test_insert_implementation_and_use () =
  with_server @@ fun server ->
  let src =
    "NAME:NIBBLE_SWAP;\nPARAMETER: size;\nINORDER: I[2*size];\n\
     OUTORDER: O[2*size];\nVARIABLE: i;\n\
     { #for(i=0;i<size;i++) { O[i] = I[i+size]; O[i+size] = I[i]; } }"
  in
  ignore (Server.insert_implementation server "NIBBLE_SWAP" src);
  let inst =
    Server.request_component server
      (Spec.make
         (Spec.From_implementation
            { implementation = "NIBBLE_SWAP"; params = [ ("size", 2) ] }))
  in
  check Alcotest.bool "generated" true (Instance.gate_count inst > 0)

let test_component_list_lifecycle () =
  with_server @@ fun server ->
  Server.start_design server "cpu";
  Server.start_transaction server "cpu";
  let a = Server.request_component server (counter_spec ()) in
  let b = Server.request_component server (counter_spec ~size:3 ()) in
  Server.put_in_component_list server "cpu" a.Instance.id;
  Server.end_transaction server "cpu";
  (* a kept, b deleted *)
  check Alcotest.bool "kept instance remains" true
    (Server.find_instance server a.Instance.id == a);
  (try
     ignore (Server.find_instance server b.Instance.id);
     Alcotest.fail "b should be deleted"
   with Server.Icdb_error _ -> ());
  check Alcotest.(list string) "component list" [ a.Instance.id ]
    (Server.component_list server "cpu");
  Server.end_design server "cpu";
  (try
     ignore (Server.find_instance server a.Instance.id);
     Alcotest.fail "a should be deleted after end_design"
   with Server.Icdb_error _ -> ())

let test_instance_strings () =
  with_server @@ fun server ->
  let inst = Server.request_component server (counter_spec ()) in
  let delay = Instance.delay_string inst in
  check Alcotest.bool "CW line" true (contains delay "CW ");
  check Alcotest.bool "WD Q[4]" true (contains delay "WD Q[4]");
  check Alcotest.bool "SD DWUP" true (contains delay "SD DWUP");
  let shape = Instance.shape_string inst in
  check Alcotest.bool "Alternative=1" true (contains shape "Alternative=1");
  let conn = Instance.connect_string inst in
  check Alcotest.bool "## function INC" true (contains conn "## function INC");
  check Alcotest.bool "control line" true (contains conn "** CLK 1 edge_trigger");
  let vhdl = Instance.vhdl_netlist inst in
  check Alcotest.bool "architecture" true (contains vhdl "architecture netlist of");
  let head = Instance.vhdl_head inst in
  check Alcotest.bool "entity" true (contains head "entity")

(* ------------------------------------------------------------------ *)
(* CQL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cql_parse_terms () =
  let cmd =
    Command.parse
      "command: component_query;\n component :counter;\n function:(INC);\n\
       attribute:(size:5);\n ICDB_components:?s[] "
  in
  check Alcotest.int "five terms" 5 (List.length cmd);
  check Alcotest.string "command" "component_query" (Command.command_name cmd)

let test_cql_parse_slots () =
  let cmd = Command.parse "command:instance_query; instance:%s; delay:?s" in
  match List.map (fun t -> t.Command.rhs) cmd with
  | [ Command.Name _; Command.In_slot Command.Sstr; Command.Out_slot Command.Sstr ] -> ()
  | _ -> Alcotest.fail "unexpected slot parse"

let test_cql_parse_error () =
  (try
     ignore (Command.parse "command component_query");
     Alcotest.fail "expected Cql_error"
   with Command.Cql_error _ -> ())

let test_cql_function_query () =
  with_server @@ fun server ->
  let results =
    Exec.run server
      "command: function_query; function:(ADD,SUB); component:?s[]"
  in
  let comps = Exec.get_strings results "component" in
  check Alcotest.bool "adder_subtractor" true (List.mem "adder_subtractor" comps);
  check Alcotest.bool "alu" true (List.mem "alu" comps);
  check Alcotest.bool "plain adder excluded" true (not (List.mem "adder" comps))

let test_cql_paper_counter_request () =
  with_server @@ fun server ->
  (* §3.2.2's request, with the delay-constraint block passed as %s *)
  let c_delay = "rdelay Q[4] 40\noload Q[4] 10" in
  let results =
    Exec.run server
      ~args:[ Exec.Astr c_delay ]
      "command:request_component;\n\
       component_name:counter;\n\
       attribute:(size:5);\n\
       function:(INC);\n\
       clock_width:60;\n\
       comb_delay:%s;\n\
       set_up_time:30;\n\
       generated_component:?s"
  in
  let id = Exec.get_string results "generated_component" in
  check Alcotest.bool "instance name returned" true (String.length id > 0);
  (* then the §3.3 instance query *)
  let r2 =
    Exec.run server ~args:[ Exec.Astr id ]
      "command:instance_query;\n\
       generated_component:%s;\n\
       delay:?s;\n\
       shape_function:?s"
  in
  check Alcotest.bool "delay text" true
    (contains (Exec.get_string r2 "delay") "CW ");
  check Alcotest.bool "shape text" true
    (contains (Exec.get_string r2 "shape_function") "Alternative=")

let test_cql_component_query_functions () =
  with_server @@ fun server ->
  let results =
    Exec.run server "command:component_query; component:counter; function:?s[]"
  in
  let fs = Exec.get_strings results "function" in
  check Alcotest.bool "INC" true (List.mem "INC" fs);
  check Alcotest.bool "STORAGE" true (List.mem "STORAGE" fs)

let test_cql_connect_query () =
  with_server @@ fun server ->
  let r1 =
    Exec.run server
      "command:request_component; component_name:adder_subtractor;\n\
       attribute:(size:4); instance:?s"
  in
  let id = Exec.get_string r1 "instance" in
  let r2 =
    Exec.run server ~args:[ Exec.Astr id ]
      "command:connect_component; instance:%s; connect:?s"
  in
  let conn = Exec.get_string r2 "connect" in
  check Alcotest.bool "ADD section" true (contains conn "## function ADD");
  check Alcotest.bool "SUB section" true (contains conn "## function SUB");
  check Alcotest.bool "control code" true (contains conn "** ADDSUB 1")

let test_cql_strategy_fastest () =
  with_server @@ fun server ->
  let results =
    Exec.run server
      "command:request_component; component_name:counter;\n\
       function:(INC); strategy:fastest; instance:?s"
  in
  let id = Exec.get_string results "instance" in
  let r = Exec.run server ~args:[ Exec.Astr id ]
      "command:instance_query; instance:%s; clock_width:?r" in
  check Alcotest.bool "cw returned" true (Exec.get_float r "clock_width" > 0.0)

let test_cql_layout_request () =
  with_server @@ fun server ->
  let r1 =
    Exec.run server
      "command:request_component; component_name:counter; attribute:(size:4);\n\
       instance:?s"
  in
  let id = Exec.get_string r1 "instance" in
  let pins = "CLK left s1.0\nD[0] top 10\nQ[0] bottom 10" in
  let r2 =
    Exec.run server
      ~args:[ Exec.Astr id; Exec.Astr pins ]
      "command:request_component; instance:%s; alternative:2;\n\
       port_position:%s; CIF_layout:?s"
  in
  check Alcotest.bool "cif" true (contains (Exec.get_string r2 "CIF_layout") "DS 1 1 1;")

let test_cql_layout_target () =
  with_server @@ fun server ->
  (* the §6.2 example: target:layout takes the request all the way to a
     CIF file in the workspace *)
  let r =
    Exec.run server
      "command:request_component; component_name:counter;\n\
       target: layout; attribute:(size:4); function:(LOAD,INC);\n\
       instance:?s"
    |> fun r -> r
  in
  let id = Exec.get_string r "instance" in
  let inst = Server.find_instance server id in
  let strips =
    (Icdb_layout.Shape.best_area inst.Instance.shape).Icdb_layout.Shape.alt_strips
  in
  let path =
    Filename.concat (Server.workspace server)
      (Printf.sprintf "%s_s%d.cif" id strips)
  in
  check Alcotest.bool "CIF written by the layout target" true
    (Sys.file_exists path)

let test_cql_vhdl_cluster () =
  with_server @@ fun server ->
  let r1 =
    Exec.run server
      "command:request_component; implementation:ADDER; attribute:(size:2);\n\
       naming:add2; instance:?s"
  in
  ignore (Exec.get_string r1 "instance");
  let vhdl =
    "entity pairsum is port (\n\
     a0 : in bit; a1 : in bit; b0 : in bit; b1 : in bit; ci : in bit;\n\
     s0 : out bit; s1 : out bit; co : out bit );\n\
     end pairsum;\n\
     architecture s of pairsum is begin\n\
     u1: add2 port map (I0[0] => a0, I0[1] => a1, I1[0] => b0,\n\
     I1[1] => b1, Cin => ci, O[0] => s0, O[1] => s1, Cout => co);\n\
     end s;"
  in
  let r2 =
    Exec.run server ~args:[ Exec.Astr vhdl ]
      "command:request_component; VHDL_net_list:%s; instance:?s"
  in
  let id = Exec.get_string r2 "instance" in
  let r3 =
    Exec.run server ~args:[ Exec.Astr id ]
      "command:instance_query; instance:%s; area:?s; gates:?d"
  in
  check Alcotest.bool "cluster area listing" true
    (contains (Exec.get_string r3 "area") "strip = 1")

let test_cql_list_management () =
  with_server @@ fun server ->
  List.iter
    (fun c -> ignore (Exec.run server c))
    [ "command:start_a_design; design:chip";
      "command:start_a_transaction; design:chip" ];
  let r =
    Exec.run server
      "command:request_component; component_name:register; attribute:(size:4);\n\
       instance:?s"
  in
  let id = Exec.get_string r "instance" in
  ignore
    (Exec.run server ~args:[ Exec.Astr id ]
       "command:put_in_component_list; design:chip; instance:%s");
  ignore (Exec.run server "command:end_a_transaction; design:chip");
  check Alcotest.bool "still present" true
    (Server.find_instance server id != Obj.magic 0);
  ignore (Exec.run server "command:end_a_design; design:chip")

let test_cql_missing_args () =
  with_server @@ fun server ->
  (try
     ignore (Exec.run server "command:instance_query; instance:%s; delay:?s");
     Alcotest.fail "expected Cql_error"
   with Exec.Cql_error _ -> ())

let test_cql_unknown_command () =
  with_server @@ fun server ->
  (try
     ignore (Exec.run server "command:frobnicate; x:1");
     Alcotest.fail "expected Cql_error"
   with Exec.Cql_error _ -> ())

let () =
  Alcotest.run "icdb"
    [ ("server",
       [ Alcotest.test_case "function query STORAGE" `Quick test_function_query_storage;
         Alcotest.test_case "function query multi" `Quick test_function_query_multi;
         Alcotest.test_case "component query functions" `Quick test_component_query_functions;
         Alcotest.test_case "request counter" `Quick test_request_component_counter;
         Alcotest.test_case "generation cache" `Quick test_request_component_cached;
         Alcotest.test_case "unknown component" `Quick test_request_unknown_component;
         Alcotest.test_case "function mismatch" `Quick test_request_function_mismatch;
         Alcotest.test_case "from implementation" `Quick test_request_from_implementation;
         Alcotest.test_case "control logic from IIF" `Quick test_request_from_iif_control_logic;
         Alcotest.test_case "strategy fastest" `Quick test_request_with_strategy_fastest;
         Alcotest.test_case "constraints met flag" `Quick test_constraints_met_flag;
         Alcotest.test_case "VHDL cluster" `Quick test_vhdl_cluster_request;
         Alcotest.test_case "VHDL cluster duplicate label" `Quick
           test_vhdl_cluster_duplicate_label;
         Alcotest.test_case "layout request" `Quick test_request_layout;
         Alcotest.test_case "insert implementation" `Quick test_insert_implementation_and_use;
         Alcotest.test_case "component list lifecycle" `Quick test_component_list_lifecycle;
         Alcotest.test_case "instance strings" `Quick test_instance_strings ]);
      ("cql",
       [ Alcotest.test_case "parse terms" `Quick test_cql_parse_terms;
         Alcotest.test_case "parse slots" `Quick test_cql_parse_slots;
         Alcotest.test_case "parse error" `Quick test_cql_parse_error;
         Alcotest.test_case "function query" `Quick test_cql_function_query;
         Alcotest.test_case "paper counter request" `Quick test_cql_paper_counter_request;
         Alcotest.test_case "component query functions" `Quick test_cql_component_query_functions;
         Alcotest.test_case "connect query" `Quick test_cql_connect_query;
         Alcotest.test_case "strategy fastest" `Quick test_cql_strategy_fastest;
         Alcotest.test_case "layout request" `Quick test_cql_layout_request;
         Alcotest.test_case "layout target" `Quick test_cql_layout_target;
         Alcotest.test_case "vhdl cluster via CQL" `Quick test_cql_vhdl_cluster;
         Alcotest.test_case "list management" `Quick test_cql_list_management;
         Alcotest.test_case "missing args" `Quick test_cql_missing_args;
         Alcotest.test_case "unknown command" `Quick test_cql_unknown_command ]) ]
