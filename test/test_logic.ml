(* Tests for the logic engine: SOP minimization, factoring, network
   construction, optimization, technology mapping — with end-to-end
   equivalence checks against the IIF reference interpreter. *)

open Icdb_iif
open Icdb_logic
open Icdb_sim

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Sop                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sop_minimize_classic () =
  (* f = sum m(0,1,2,5,6,7) over 3 vars: minimal cover has 4 cubes of 2
     literals... the classic result is f = a'b' + bc' + ac? (several
     minimum covers exist); we check cover validity and literal count. *)
  let sop = Sop.of_minterms 3 [ 0; 1; 2; 5; 6; 7 ] in
  let m = Sop.minimize sop in
  for v = 0 to 7 do
    check Alcotest.bool (Printf.sprintf "m%d" v) (Sop.eval sop v) (Sop.eval m v)
  done;
  check Alcotest.bool "at most 3 cubes" true (List.length (Sop.cubes m) <= 3);
  check Alcotest.bool "at most 6 literals" true (Sop.literal_count m <= 6)

let test_sop_minimize_tautology () =
  let sop = Sop.of_minterms 2 [ 0; 1; 2; 3 ] in
  let m = Sop.minimize sop in
  check Alcotest.bool "is one" true (Sop.is_one m)

let test_sop_minimize_empty () =
  let m = Sop.minimize (Sop.zero 3) in
  check Alcotest.bool "is zero" true (Sop.is_zero m)

let test_sop_xor_has_no_merge () =
  (* XOR of 3 vars: no two minterms are distance-1; cover = 4 minterms. *)
  let sop = Sop.of_minterms 3 [ 1; 2; 4; 7 ] in
  let m = Sop.minimize sop in
  check Alcotest.int "four cubes" 4 (List.length (Sop.cubes m));
  check Alcotest.int "twelve literals" 12 (Sop.literal_count m)

let test_sop_of_fexpr () =
  let fanins = [| "a"; "b" |] in
  let expr = Flat.For_ [ Flat.Fand [ Flat.Fnet "a"; Flat.Fnot (Flat.Fnet "b") ];
                         Flat.Fnet "b" ] in
  let sop = Sop.of_fexpr fanins expr in
  (* a!b + b  =  a + b *)
  let m = Sop.minimize sop in
  check Alcotest.int "two 1-literal cubes" 2 (Sop.literal_count m)

let test_sop_roundtrip_eval () =
  let fanins = [| "a"; "b"; "c" |] in
  let expr =
    Flat.Fxor (Flat.Fnet "a", Flat.Fand [ Flat.Fnet "b"; Flat.Fnet "c" ])
  in
  let sop = Sop.of_fexpr fanins expr in
  let back = Sop.to_fexpr fanins (Sop.minimize sop) in
  let sop2 = Sop.of_fexpr fanins back in
  for v = 0 to 7 do
    check Alcotest.bool "same function" (Sop.eval sop v) (Sop.eval sop2 v)
  done

(* Property sweep: 200 seeded-random covers across 1..8 variables.
   Quine–McCluskey output must compute exactly the same truth table
   (checked exhaustively over all 2^n minterms) and never carry more
   literals than the minterm-canonical input cover. Deterministic seed
   so a failure is reproducible by case number. *)
let test_sop_random_covers () =
  let st = Random.State.make [| 0x50C0 |] in
  for case = 1 to 200 do
    let n = 1 + Random.State.int st 8 in
    let space = 1 lsl n in
    (* density varies per case: sparse, dense and mid covers all occur *)
    let p = 0.05 +. Random.State.float st 0.9 in
    let minterms =
      List.filter (fun _ -> Random.State.float st 1.0 < p)
        (List.init space Fun.id)
    in
    let sop = Sop.of_minterms n minterms in
    let m = Sop.minimize sop in
    for v = 0 to space - 1 do
      if Sop.eval sop v <> Sop.eval m v then
        Alcotest.fail
          (Printf.sprintf
             "case %d (%d vars, %d minterms): differs at minterm %d" case n
             (List.length minterms) v)
    done;
    if Sop.literal_count m > Sop.literal_count sop then
      Alcotest.fail
        (Printf.sprintf "case %d (%d vars): %d literals grew to %d" case n
           (Sop.literal_count sop) (Sop.literal_count m));
    (* minimization is stable: minimizing again changes nothing *)
    if Sop.literal_count (Sop.minimize m) <> Sop.literal_count m then
      Alcotest.fail (Printf.sprintf "case %d: not idempotent" case)
  done

(* ------------------------------------------------------------------ *)
(* Factor                                                              *)
(* ------------------------------------------------------------------ *)

let rec count_literals = function
  | Flat.Fconst _ -> 0
  | Flat.Fnet _ -> 1
  | Flat.Fnot e | Flat.Fbuf e | Flat.Fschmitt e | Flat.Fdelay (e, _) ->
      count_literals e
  | Flat.Fand es | Flat.For_ es | Flat.Fwor es ->
      List.fold_left (fun a e -> a + count_literals e) 0 es
  | Flat.Fxor (a, b) | Flat.Fxnor (a, b) -> count_literals a + count_literals b
  | Flat.Ftri { data; enable } -> count_literals data + count_literals enable

let test_factor_shares_literal () =
  (* ab + ac + ad factors as a(b + c + d): 6 -> 4 literals *)
  let fanins = [| "a"; "b"; "c"; "d" |] in
  let expr =
    Flat.For_
      [ Flat.Fand [ Flat.Fnet "a"; Flat.Fnet "b" ];
        Flat.Fand [ Flat.Fnet "a"; Flat.Fnet "c" ];
        Flat.Fand [ Flat.Fnet "a"; Flat.Fnet "d" ] ]
  in
  let sop = Sop.minimize (Sop.of_fexpr fanins expr) in
  let factored = Factor.factor fanins sop in
  check Alcotest.int "four literals" 4 (count_literals factored);
  (* function preserved *)
  let sop2 = Sop.of_fexpr fanins factored in
  for v = 0 to 15 do
    check Alcotest.bool "same" (Sop.eval sop v) (Sop.eval sop2 v)
  done

let test_factor_const_cases () =
  check Alcotest.bool "zero" true
    (Factor.factor [| "a" |] (Sop.zero 1) = Flat.Fconst false);
  check Alcotest.bool "one" true
    (Factor.factor [| "a" |] (Sop.one 1) = Flat.Fconst true)

let prop_factor_preserves_function =
  QCheck.Test.make ~name:"factoring preserves the function" ~count:300
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_bound 12) (int_bound 31)))
    (fun (nvars, raw) ->
      let minterms =
        List.sort_uniq compare (List.map (fun m -> m mod (1 lsl nvars)) raw)
      in
      let sop = Sop.of_minterms nvars minterms in
      let fanins = Array.init nvars (fun i -> Printf.sprintf "v%d" i) in
      let factored = Factor.factor fanins (Sop.minimize sop) in
      let sop2 = Sop.of_fexpr fanins factored in
      List.for_all
        (fun v -> Sop.eval sop v = Sop.eval sop2 v)
        (List.init (1 lsl nvars) Fun.id))

let prop_minimize_preserves_function =
  QCheck.Test.make ~name:"QM minimization preserves the function" ~count:300
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_bound 20) (int_bound 63)))
    (fun (nvars, raw) ->
      let minterms =
        List.sort_uniq compare (List.map (fun m -> m mod (1 lsl nvars)) raw)
      in
      let sop = Sop.of_minterms nvars minterms in
      let m = Sop.minimize sop in
      List.for_all
        (fun v -> Sop.eval sop v = Sop.eval m v)
        (List.init (1 lsl nvars) Fun.id))

let prop_minimize_no_worse =
  QCheck.Test.make ~name:"QM minimization never adds literals" ~count:200
    QCheck.(pair (int_range 1 5) (list_of_size Gen.(int_bound 16) (int_bound 31)))
    (fun (nvars, raw) ->
      let minterms =
        List.sort_uniq compare (List.map (fun m -> m mod (1 lsl nvars)) raw)
      in
      let sop = Sop.of_minterms nvars minterms in
      Sop.literal_count (Sop.minimize sop) <= Sop.literal_count sop)

(* ------------------------------------------------------------------ *)
(* Network                                                             *)
(* ------------------------------------------------------------------ *)

let counter_flat ?(size = 4) ?(typ = 2) ?(load = 1) ?(enable = 1) ?(ud = 3) () =
  Builtin.expand_exn "COUNTER"
    [ ("size", size); ("type", typ); ("load", load); ("enable", enable);
      ("up_or_down", ud) ]

let test_network_of_counter () =
  let net = Network.of_flat (counter_flat ()) in
  let regs =
    List.filter
      (fun el -> match el with Network.Reg _ -> true | _ -> false)
      net.Network.elements
  in
  let lats =
    List.filter
      (fun el -> match el with Network.Lat _ -> true | _ -> false)
      net.Network.elements
  in
  check Alcotest.int "4 registers" 4 (List.length regs);
  check Alcotest.int "1 latch" 1 (List.length lats);
  List.iter
    (fun el ->
      match el with
      | Network.Reg { set; reset; _ } ->
          check Alcotest.bool "has set" true (set <> None);
          check Alcotest.bool "has reset" true (reset <> None)
      | _ -> ())
    regs

let test_network_multiple_driver_rejected () =
  let flat =
    { Flat.fname = "bad";
      finputs = [ "a" ];
      foutputs = [ "y" ];
      finternals = [];
      fequations =
        [ Flat.Comb { target = "y"; rhs = Flat.Fnet "a" };
          Flat.Comb { target = "y"; rhs = Flat.Fnot (Flat.Fnet "a") } ] }
  in
  let net = Network.of_flat flat in
  (try
     ignore (Network.driver_table net);
     Alcotest.fail "expected Network_error"
   with Network.Network_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Opt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_opt_reduces_literals () =
  let flat = Builtin.expand_exn "ALU" [ ("size", 4) ] in
  let net = Network.of_flat flat in
  let before = Network.literal_count net in
  Opt.optimize net;
  let after = Network.literal_count net in
  check Alcotest.bool
    (Printf.sprintf "literals %d -> %d" before after)
    true (after <= before)

let test_opt_sweeps_constants () =
  let flat =
    { Flat.fname = "c";
      finputs = [ "a" ];
      foutputs = [ "y" ];
      finternals = [ "t" ];
      fequations =
        [ Flat.Comb { target = "t"; rhs = Flat.Fand [ Flat.Fnet "a"; Flat.Fconst false ] };
          Flat.Comb { target = "y"; rhs = Flat.For_ [ Flat.Fnet "t"; Flat.Fnet "a" ] } ] }
  in
  let net = Network.of_flat flat in
  Opt.optimize net;
  (* t = 0, so y = a: a single alias gate remains *)
  check Alcotest.int "one gate" 1 (List.length net.Network.elements);
  match net.Network.elements with
  | [ Network.Gate { out = "y"; expr = Flat.Fnet "a" } ] -> ()
  | _ -> Alcotest.fail "expected y = a"

let test_opt_preserves_function () =
  (* optimize the ALU and re-check against the interpreter via mapping *)
  let flat = Builtin.expand_exn "COMPARATOR" [ ("size", 3) ] in
  let net = Network.of_flat flat in
  Opt.optimize net;
  let nl = Techmap.map net in
  match Equiv.check flat nl with
  | Equiv.Equivalent -> ()
  | m -> Alcotest.fail (Equiv.result_to_string m)

(* ------------------------------------------------------------------ *)
(* Techmap                                                             *)
(* ------------------------------------------------------------------ *)

let synthesize flat =
  let net = Network.of_flat flat in
  Opt.optimize net;
  Techmap.map net

let test_map_known_cells_only () =
  let nl = synthesize (counter_flat ()) in
  List.iter
    (fun (i : Icdb_netlist.Netlist.instance) ->
      check Alcotest.bool ("known cell " ^ i.cell) true
        (Celllib.find i.cell <> None))
    nl.Icdb_netlist.Netlist.instances

let test_map_counter_uses_dff_sr () =
  let nl = synthesize (counter_flat ()) in
  let hist = Icdb_netlist.Netlist.cell_histogram nl in
  check Alcotest.(option int) "4 DFF_SR" (Some 4) (List.assoc_opt "DFF_SR" hist);
  check Alcotest.(option int) "1 LATCH_H" (Some 1) (List.assoc_opt "LATCH_H" hist)

let test_map_counter_no_load_uses_plain_dff () =
  let nl = synthesize (counter_flat ~load:0 ~enable:0 ()) in
  let hist = Icdb_netlist.Netlist.cell_histogram nl in
  check Alcotest.(option int) "4 DFF" (Some 4) (List.assoc_opt "DFF" hist);
  check Alcotest.bool "no latch" true (List.assoc_opt "LATCH_H" hist = None)

let test_map_complex_gates_used () =
  (* AOI/OAI patterns should win over NAND+INV chains somewhere in a
     carry-select style function. *)
  let flat = Builtin.expand_exn "ALU" [ ("size", 4) ] in
  let nl = synthesize flat in
  let hist = Icdb_netlist.Netlist.cell_histogram nl in
  let complex =
    List.filter
      (fun (c, _) ->
        List.mem c [ "AOI21"; "OAI21"; "AOI22"; "OAI22"; "NAND3"; "NAND4";
                     "NOR2"; "NOR3"; "AND2"; "OR2" ])
      hist
  in
  check Alcotest.bool "some complex gates" true (complex <> [])

let equiv_case name flat =
  Alcotest.test_case name `Quick (fun () ->
      let nl = synthesize flat in
      match Equiv.check flat nl with
      | Equiv.Equivalent -> ()
      | m -> Alcotest.fail (Equiv.result_to_string m))

let equivalence_suite =
  [ equiv_case "adder4" (Builtin.expand_exn "ADDER" [ ("size", 4) ]);
    equiv_case "adder8" (Builtin.expand_exn "ADDER" [ ("size", 8) ]);
    equiv_case "addsub4" (Builtin.expand_exn "ADDSUB" [ ("size", 4) ]);
    equiv_case "mux2" (Builtin.expand_exn "MUX2" [ ("size", 3) ]);
    equiv_case "decoder3" (Builtin.expand_exn "DECODER" [ ("size", 3) ]);
    equiv_case "comparator4" (Builtin.expand_exn "COMPARATOR" [ ("size", 4) ]);
    equiv_case "alu4" (Builtin.expand_exn "ALU" [ ("size", 4) ]);
    equiv_case "shl" (Builtin.expand_exn "SHL0" [ ("size", 6); ("shift_distance", 2) ]);
    equiv_case "andn" (Builtin.expand_exn "ANDN" [ ("size", 6) ]);
    equiv_case "register" (Builtin.expand_exn "REGISTER" [ ("size", 4); ("load", 1) ]);
    equiv_case "counter sync updown load enable" (counter_flat ());
    equiv_case "counter sync up" (counter_flat ~load:0 ~enable:0 ~ud:1 ());
    equiv_case "counter sync down" (counter_flat ~load:0 ~enable:0 ~ud:2 ());
    equiv_case "counter sync up enable" (counter_flat ~load:0 ~enable:1 ~ud:1 ());
    equiv_case "counter ripple" (counter_flat ~typ:1 ~load:0 ~enable:0 ~ud:1 ());
    equiv_case "counter 6-bit" (counter_flat ~size:6 ()) ]

(* ------------------------------------------------------------------ *)
(* Paper-verbatim Appendix A examples through the whole pipeline       *)
(* ------------------------------------------------------------------ *)

(* Example 1: the 4-bit register with parallel load, written exactly in
   the appendix's fixed-size style (explicit nets, ~b clock buffer). *)
let appendix_register =
  "NAME:REGISTER4;\n\
   INORDER: Load, I0, I1, I2, I3, Clock;\n\
   OUTORDER: A0, A1, A2, A3;\n\
   PIIFVARIABLE: not_load, load, CP;\n\
   {\n\
     CP = ~b Clock;\n\
     not_load = !Load;\n\
     load = !not_load;\n\
     A0 = ((I0*load) + (A0*not_load)) @(~r CP);\n\
     A1 = ((I1*load) + (A1*not_load)) @(~r CP);\n\
     A2 = ((I2*load) + (A2*not_load)) @(~r CP);\n\
     A3 = ((I3*load) + (A3*not_load)) @(~r CP);\n\
   }"

(* The appendix's falling-edge flip-flop with asynchronous set and
   reset: Q=(D @ ~f clk) ~a (0/!reset, 1/!set). *)
let appendix_dffsr =
  "NAME:DFFSR;\n\
   INORDER: D, clk, reset, set;\n\
   OUTORDER: Q;\n\
   {\n\
     Q = (D @(~f clk)) ~a(0/!reset, 1/!set);\n\
   }"

let test_appendix_register_pipeline () =
  let d = Parser.parse appendix_register in
  let flat = Expander.expand d [] in
  check Alcotest.(list string) "validates" []
    (List.map Flat.problem_to_string (Flat.validate flat));
  let nl = synthesize flat in
  (match Equiv.check flat nl with
   | Equiv.Equivalent -> ()
   | m -> Alcotest.fail (Equiv.result_to_string m));
  (* behavioural spot-check: load 1010, hold, reload *)
  let sim = Gate_sim.create nl in
  let step load bits clk =
    Interp.step sim
      [ ("Load", load); ("I0", List.nth bits 0); ("I1", List.nth bits 1);
        ("I2", List.nth bits 2); ("I3", List.nth bits 3); ("Clock", clk) ]
  in
  step true [ false; true; false; true ] false;
  step true [ false; true; false; true ] true;
  check Alcotest.bool "A1 loaded" true (Interp.value sim "A1");
  check Alcotest.bool "A0 clear" false (Interp.value sim "A0");
  step false [ true; false; true; false ] false;
  step false [ true; false; true; false ] true;
  check Alcotest.bool "held with Load low" true (Interp.value sim "A1")

let test_appendix_dffsr_pipeline () =
  let d = Parser.parse appendix_dffsr in
  let flat = Expander.expand d [] in
  check Alcotest.(list string) "validates" []
    (List.map Flat.problem_to_string (Flat.validate flat));
  (* falling-edge FF with both asyncs survives synthesis *)
  let nl = synthesize flat in
  (match Equiv.check flat nl with
   | Equiv.Equivalent -> ()
   | m -> Alcotest.fail (Equiv.result_to_string m));
  let sim = Gate_sim.create nl in
  let step d clk rst st =
    Interp.step sim [ ("D", d); ("clk", clk); ("reset", rst); ("set", st) ]
  in
  (* actives are low: idle = both high *)
  step true true true true;
  step true false true true;  (* falling edge samples D=1 *)
  check Alcotest.bool "captured on falling edge" true (Interp.value sim "Q");
  step false true true true;  (* rising edge: no capture *)
  check Alcotest.bool "rising edge ignored" true (Interp.value sim "Q");
  step false false true false;  (* async set (active low) *)
  check Alcotest.bool "async set" true (Interp.value sim "Q");
  step true true false true;  (* async reset *)
  check Alcotest.bool "async reset" false (Interp.value sim "Q")

(* gate-count sanity: bigger parameters give bigger netlists *)
let test_map_monotone_size () =
  let count size =
    Icdb_netlist.Netlist.instance_count
      (synthesize (Builtin.expand_exn "ADDER" [ ("size", size) ]))
  in
  check Alcotest.bool "8-bit adder larger than 4-bit" true (count 8 > count 4)

let prop_adder_pipeline_equivalence =
  QCheck.Test.make ~name:"synthesized adder equals spec (random sizes)" ~count:4
    QCheck.(int_range 2 6)
    (fun size ->
      let flat = Builtin.expand_exn "ADDER" [ ("size", size) ] in
      let nl = synthesize flat in
      Equiv.check flat nl = Equiv.Equivalent)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_factor_preserves_function; prop_minimize_preserves_function;
      prop_minimize_no_worse; prop_adder_pipeline_equivalence ]

let () =
  Alcotest.run "logic"
    [ ("sop",
       [ Alcotest.test_case "minimize classic" `Quick test_sop_minimize_classic;
         Alcotest.test_case "tautology" `Quick test_sop_minimize_tautology;
         Alcotest.test_case "empty" `Quick test_sop_minimize_empty;
         Alcotest.test_case "xor has no merge" `Quick test_sop_xor_has_no_merge;
         Alcotest.test_case "of_fexpr" `Quick test_sop_of_fexpr;
         Alcotest.test_case "roundtrip eval" `Quick test_sop_roundtrip_eval;
         Alcotest.test_case "200 random covers to 8 vars" `Slow
           test_sop_random_covers ]);
      ("factor",
       [ Alcotest.test_case "shares literal" `Quick test_factor_shares_literal;
         Alcotest.test_case "const cases" `Quick test_factor_const_cases ]);
      ("network",
       [ Alcotest.test_case "counter elements" `Quick test_network_of_counter;
         Alcotest.test_case "multi-driver rejected" `Quick
           test_network_multiple_driver_rejected ]);
      ("opt",
       [ Alcotest.test_case "reduces literals" `Quick test_opt_reduces_literals;
         Alcotest.test_case "sweeps constants" `Quick test_opt_sweeps_constants;
         Alcotest.test_case "preserves function" `Quick test_opt_preserves_function ]);
      ("techmap",
       [ Alcotest.test_case "known cells only" `Quick test_map_known_cells_only;
         Alcotest.test_case "counter uses DFF_SR" `Quick test_map_counter_uses_dff_sr;
         Alcotest.test_case "plain DFF without load" `Quick
           test_map_counter_no_load_uses_plain_dff;
         Alcotest.test_case "complex gates used" `Quick test_map_complex_gates_used;
         Alcotest.test_case "monotone size" `Quick test_map_monotone_size ]);
      ("appendix-fidelity",
       [ Alcotest.test_case "example 1 register" `Quick
           test_appendix_register_pipeline;
         Alcotest.test_case "falling-edge DFF with set/reset" `Quick
           test_appendix_dffsr_pipeline ]);
      ("equivalence", equivalence_suite);
      ("properties", props) ]
