(* Tests for the VHDL writer/parser and for the baseline libraries. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_baseline
open Icdb

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let adder_nl = lazy (synthesize (Builtin.expand_exn "ADDER" [ ("size", 2) ]))

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let test_entity_shape () =
  let e = Vhdl.entity_of (Lazy.force adder_nl) in
  check Alcotest.bool "entity line" true (contains e "entity ADDER is");
  check Alcotest.bool "input port" true (contains e "I0_0_ : in bit");
  check Alcotest.bool "output port" true (contains e "Cout : out bit");
  check Alcotest.bool "terminated" true (contains e "end ADDER;")

let test_architecture_shape () =
  let a = Vhdl.architecture_of (Lazy.force adder_nl) in
  check Alcotest.bool "architecture line" true
    (contains a "architecture netlist of ADDER");
  check Alcotest.bool "component decls" true (contains a "component ");
  check Alcotest.bool "port maps" true (contains a "port map (");
  check Alcotest.bool "sizes recorded" true (contains a "-- size 1.00")

let test_sanitize () =
  check Alcotest.string "brackets" "Q_3_" (Vhdl.sanitize "Q[3]");
  check Alcotest.string "dollar" "n_m1" (Vhdl.sanitize "$m1");
  check Alcotest.string "plain" "CLK" (Vhdl.sanitize "CLK")

(* The writer against its oracle, the Printf-per-field writer it
   replaced, kept in test/oracle_vhdl.ml: every catalogue component of
   sizes 1-6 that expands, encode 8, and test_sim's random netlists,
   each of those also with seeded drive sizes, write the same bytes
   through every entry point. *)
let writer_differs (nl : Netlist.t) =
  List.find_map
    (fun (what, f, oracle) -> if f nl = oracle nl then None else Some what)
    [ ("entity_of", Vhdl.entity_of, Oracle_vhdl.entity_of);
      ("architecture_of", Vhdl.architecture_of, Oracle_vhdl.architecture_of);
      ("to_vhdl", Vhdl.to_vhdl, Oracle_vhdl.to_vhdl);
      ("dump", Vhdl.dump, Oracle_vhdl.dump) ]

let component name attrs =
  let c = Option.get (Icdb_genus.Component.find name) in
  Builtin.expand_exn c.Icdb_genus.Component.implementation
    (c.Icdb_genus.Component.params_of attrs)

let test_writer_oracle () =
  let catalogue =
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
            | f -> Some (synthesize f))
          sizes)
      Icdb_genus.Component.all
    @ [ synthesize (component "encode" [ ("size", 8) ]) ]
  in
  let st = Random.State.make [| 0x7d1 |] in
  let random = List.init 60 (fun case -> Rand_netlist.random_netlist st case) in
  let resized (nl : Netlist.t) =
    { nl with
      Netlist.instances =
        List.map
          (fun (i : Netlist.instance) ->
            { i with
              Netlist.size =
                (match Random.State.int st 3 with
                 | 0 -> 1.0
                 | 1 -> Float.min 8.0 (1.3 ** float_of_int (Random.State.int st 9))
                 | _ -> 1.0 +. Random.State.float st 7.0) })
          nl.Netlist.instances }
  in
  let designs = catalogue @ random in
  check Alcotest.bool "at least 150 designs" true (List.length designs >= 150);
  List.iter
    (fun nl ->
      check Alcotest.(option string) nl.Netlist.name None (writer_differs nl);
      check Alcotest.(option string) (nl.Netlist.name ^ " resized") None
        (writer_differs (resized nl)))
    designs;
  (* a trailer separator in a name fails both *)
  let bad = { (List.hd random) with Netlist.name = "a,b" } in
  List.iter
    (fun (what, dump) ->
      match dump bad with
      | _ -> Alcotest.failf "%s: expected Vhdl_error" what
      | exception Vhdl.Vhdl_error _ -> ())
    [ ("dump", Vhdl.dump); ("oracle", Oracle_vhdl.dump) ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let cluster_src =
  "-- a two-instance cluster\n\
   entity pair is port (\n\
   a : in bit; b : in bit;\n\
   x : out bit; y : out bit );\n\
   end pair;\n\
   architecture s of pair is\n\
   begin\n\
   u1: blockA port map (P => a, Q => x);\n\
   u2: blockB port map (P => b, Q => y, R => a);\n\
   end s;"

let test_parse_cluster () =
  let p = Vhdl.parse cluster_src in
  check Alcotest.string "name" "pair" p.Vhdl.p_name;
  check Alcotest.(list string) "inputs" [ "a"; "b" ] p.Vhdl.p_inputs;
  check Alcotest.(list string) "outputs" [ "x"; "y" ] p.Vhdl.p_outputs;
  check Alcotest.int "two instances" 2 (List.length p.Vhdl.p_instances);
  let u2 = List.nth p.Vhdl.p_instances 1 in
  check Alcotest.string "component" "blockB" u2.Vhdl.pi_component;
  check Alcotest.int "three maps" 3 (List.length u2.Vhdl.pi_ports)

let test_parse_comments_ignored () =
  let p = Vhdl.parse ("-- leading comment\n" ^ cluster_src) in
  check Alcotest.string "name" "pair" p.Vhdl.p_name

let test_parse_error () =
  (try
     ignore (Vhdl.parse "entity broken is port");
     Alcotest.fail "expected Vhdl_error"
   with Vhdl.Vhdl_error _ -> ())

let test_flatten_renames () =
  let p = Vhdl.parse cluster_src in
  let sub =
    { Netlist.name = "blk";
      inputs = [ "P" ];
      outputs = [ "Q" ];
      instances =
        [ { Netlist.inst_name = "g"; cell = "INV"; size = 1.0;
            conns = [ ("A", "P"); ("Y", "t") ] };
          { Netlist.inst_name = "h"; cell = "BUF"; size = 1.0;
            conns = [ ("A", "t"); ("Y", "Q") ] } ] }
  in
  let sub_b =
    { sub with
      inputs = [ "P"; "R" ];
      instances =
        [ { Netlist.inst_name = "g"; cell = "NAND2"; size = 1.0;
            conns = [ ("A", "P"); ("B", "R"); ("Y", "Q") ] } ] }
  in
  let resolve = function
    | "blockA" -> Some sub
    | "blockB" -> Some sub_b
    | _ -> None
  in
  let flat = Vhdl.flatten p ~resolve in
  check Alcotest.int "3 instances" 3 (List.length flat.Netlist.instances);
  (* internal nets get the instance-label prefix; ports map to actuals *)
  let u1g = List.find (fun i -> i.Netlist.inst_name = "u1/g") flat.Netlist.instances in
  check Alcotest.string "input mapped" "a" (Netlist.pin_net_exn u1g "A");
  check Alcotest.string "internal prefixed" "u1/t" (Netlist.pin_net_exn u1g "Y")

let test_flatten_unknown_component () =
  let p = Vhdl.parse cluster_src in
  (try
     ignore (Vhdl.flatten p ~resolve:(fun _ -> None));
     Alcotest.fail "expected Vhdl_error"
   with Vhdl.Vhdl_error _ -> ())

let test_writer_parser_roundtrip () =
  (* a netlist written out can be read back as a cluster of cells *)
  let nl = Lazy.force adder_nl in
  let text = Vhdl.to_vhdl nl in
  let p = Vhdl.parse text in
  check Alcotest.int "same instance count"
    (List.length nl.Netlist.instances)
    (List.length p.Vhdl.p_instances);
  check Alcotest.int "same input count"
    (List.length nl.Netlist.inputs)
    (List.length p.Vhdl.p_inputs)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_fixed_lib_oversizes () =
  let server = Server.create ~verify:false () in
  let fixed = Fixed_lib.build server [ "adder" ] in
  let r = Fixed_lib.request fixed ~component:"adder" ~size:5 () in
  check Alcotest.int "picks the 8-bit part" 8 r.Fixed_lib.chosen.Fixed_lib.e_size;
  check Alcotest.int "wastes 3 bits" 3 r.Fixed_lib.oversize_bits

let test_fixed_lib_padding_costs () =
  let server = Server.create ~verify:false () in
  let fixed = Fixed_lib.build server [ "register" ] in
  let clean = Fixed_lib.request fixed ~component:"register" ~size:4 () in
  let padded =
    Fixed_lib.request fixed ~component:"register" ~size:4 ~active_low_inputs:2 ()
  in
  check Alcotest.int "two inverters" 2 padded.Fixed_lib.padding_gates;
  check Alcotest.bool "padding adds area" true
    (padded.Fixed_lib.area > clean.Fixed_lib.area);
  check Alcotest.bool "padding adds delay" true
    (padded.Fixed_lib.worst_delay > clean.Fixed_lib.worst_delay)

let test_fixed_lib_relaxes () =
  let server = Server.create ~verify:false () in
  let fixed = Fixed_lib.build server [ "counter" ] in
  (* 1 ns is unreachable: the request must come back violated, not fail *)
  let r = Fixed_lib.request fixed ~component:"counter" ~size:4 ~max_delay:1.0 () in
  check Alcotest.bool "violation reported" true (r.Fixed_lib.violation > 0.0)

let test_fixed_lib_no_part () =
  let server = Server.create ~verify:false () in
  let fixed = Fixed_lib.build server [ "adder" ] in
  (try
     ignore (Fixed_lib.request fixed ~component:"adder" ~size:17 ());
     Alcotest.fail "expected No_part"
   with Fixed_lib.No_part _ -> ())

let test_generic_lib_margins () =
  let server = Server.create ~verify:false () in
  let r = Generic_lib.request server ~component:"adder" ~size:4 in
  check Alcotest.bool "delay over actual" true (r.Generic_lib.delay_overbudget > 0.0);
  check Alcotest.bool "area over actual" true (r.Generic_lib.area_overbudget > 0.0);
  check Alcotest.bool "no shape function" true (not r.Generic_lib.has_shape_function)

let test_compare_icdb_wins () =
  let server = Server.create ~verify:false () in
  let fixed = Fixed_lib.build server [ "register"; "adder" ] in
  let needs =
    [ { Compare.n_component = "register"; n_size = 5; n_active_low_inputs = 1;
        n_max_delay = None };
      { Compare.n_component = "adder"; n_size = 5; n_active_low_inputs = 0;
        n_max_delay = None } ]
  in
  let i = Compare.icdb_verdict server needs in
  let f = Compare.fixed_verdict fixed needs in
  let g = Compare.generic_verdict server needs in
  check Alcotest.bool "icdb area <= fixed (no oversizing)" true
    (i.Compare.v_total_area <= f.Compare.v_total_area);
  check Alcotest.bool "icdb area <= generic budget" true
    (i.Compare.v_total_area <= g.Compare.v_total_area);
  check Alcotest.bool "icdb offers shapes" true
    (i.Compare.v_shape_alternatives > 0 && g.Compare.v_shape_alternatives = 0)

let () =
  Alcotest.run "vhdl+baseline"
    [ ("writer",
       [ Alcotest.test_case "entity shape" `Quick test_entity_shape;
         Alcotest.test_case "architecture shape" `Quick test_architecture_shape;
         Alcotest.test_case "sanitize" `Quick test_sanitize;
         Alcotest.test_case "writer = Printf oracle" `Quick test_writer_oracle ]);
      ("parser",
       [ Alcotest.test_case "cluster" `Quick test_parse_cluster;
         Alcotest.test_case "comments" `Quick test_parse_comments_ignored;
         Alcotest.test_case "error" `Quick test_parse_error;
         Alcotest.test_case "flatten renames" `Quick test_flatten_renames;
         Alcotest.test_case "unknown component" `Quick test_flatten_unknown_component;
         Alcotest.test_case "writer/parser roundtrip" `Quick
           test_writer_parser_roundtrip ]);
      ("baseline",
       [ Alcotest.test_case "fixed oversizes" `Quick test_fixed_lib_oversizes;
         Alcotest.test_case "fixed padding costs" `Quick test_fixed_lib_padding_costs;
         Alcotest.test_case "fixed relaxes" `Quick test_fixed_lib_relaxes;
         Alcotest.test_case "fixed no part" `Quick test_fixed_lib_no_part;
         Alcotest.test_case "generic margins" `Quick test_generic_lib_margins;
         Alcotest.test_case "icdb wins" `Quick test_compare_icdb_wins ]) ]
