(* The knowledge-acquisition side of ICDB (§2.2, §4.2): insert a new
   parameterized component implementation, register a custom component
   generator, compare generators, and run the four-valued
   initialization analysis on the result.

   Run with: dune exec examples/knowledge_server.exe *)

open Icdb
open Icdb_netlist

(* A component the stock catalog lacks: a Gray-code counter. The next
   state is binary-count + binary-to-Gray conversion, so consecutive
   outputs differ in one bit — popular for async FIFO pointers. *)
let gray_counter_iif =
  {|
NAME:GRAY_COUNTER;
FUNCTIONS: INC, COUNTER;
PARAMETER: size;
INORDER: CLK, RESET;
OUTORDER: G[size];
PIIFVARIABLE: B[size], C[size+1], BN[size];
VARIABLE: i;
{
  /* internal binary counter */
  C[0] = 1;
  #for(i=0;i<size;i++)
  {
    C[i+1] = C[i]*B[i];
    BN[i] = B[i] (+) C[i];
    B[i] = BN[i] @(~r CLK) ~a(0/(RESET));
  }
  /* binary-to-Gray on the way out */
  #for(i=0;i<size-1;i++)
    G[i] = B[i] (+) B[i+1];
  G[size-1] = B[size-1];
}
|}

let () =
  let server = Server.create () in

  (* 1. knowledge acquisition: teach ICDB the new implementation *)
  ignore (Server.insert_implementation server "GRAY_COUNTER" gray_counter_iif);
  Printf.printf "inserted implementation GRAY_COUNTER (stored in %s)\n\n"
    (Server.workspace server);

  (* 2. generate it through both built-in generators *)
  let request generator =
    Server.request_component server
      (Spec.make ~generator
         (Spec.From_implementation
            { implementation = "GRAY_COUNTER"; params = [ ("size", 4) ] }))
  in
  let via_milo = request "milo" in
  let via_direct = request "direct" in
  let transistors (i : Instance.t) =
    List.fold_left
      (fun acc (inst : Netlist.instance) ->
        match Icdb_logic.Celllib.find inst.cell with
        | Some c -> acc + c.Icdb_logic.Celllib.transistors
        | None -> acc)
      0 i.Instance.netlist.Netlist.instances
  in
  Printf.printf "generator comparison (both verified against the IIF spec):\n";
  List.iter
    (fun (g, i) ->
      Printf.printf "  %-7s %3d gates, %4d transistors, CW %.1f ns\n" g
        (Instance.gate_count i) (transistors i)
        i.Instance.report.Icdb_timing.Sta.clock_width)
    [ ("milo", via_milo); ("direct", via_direct) ];
  print_newline ();

  (* 3. register a custom generator through the knowledge server *)
  Server.insert_generator server
    { Generator.gen_name = "milo_fast";
      gen_description = "milo netlist pre-sized for speed";
      synthesize =
        (fun flat ->
          let nl = Generator.milo.Generator.synthesize flat in
          Icdb_timing.Sizing.size_to_constraints nl
            { Icdb_timing.Sizing.default_constraints with
              strategy = Icdb_timing.Sizing.Fastest }) };
  Printf.printf "registered generators: %s\n\n"
    (String.concat ", " (Server.generator_names server));
  let via_fast = request "milo_fast" in
  Printf.printf "milo_fast: CW %.1f ns (vs %.1f ns unsized)\n\n"
    via_fast.Instance.report.Icdb_timing.Sta.clock_width
    via_milo.Instance.report.Icdb_timing.Sta.clock_width;

  (* 4. initialization analysis: does RESET actually define the state? *)
  let nl = via_milo.Instance.netlist in
  let vec ~clk ~rst = [ ("CLK", clk); ("RESET", rst) ] in
  let _, after_reset =
    Icdb_sim.Xsim.initialization_check nl
      ~sequence:[ vec ~clk:false ~rst:true; vec ~clk:false ~rst:false;
                  vec ~clk:true ~rst:false ]
  in
  Printf.printf "undefined outputs after a RESET pulse: %s\n"
    (match after_reset with [] -> "(none - initializes cleanly)"
                          | l -> String.concat ", " l);
  let _, without_reset =
    Icdb_sim.Xsim.initialization_check nl
      ~sequence:[ vec ~clk:false ~rst:false; vec ~clk:true ~rst:false ]
  in
  Printf.printf "undefined outputs with RESET never asserted: %s\n"
    (match without_reset with [] -> "(none)" | l -> String.concat ", " l);

  (* 5. gray property on the real netlist: consecutive codes differ in
     exactly one bit *)
  let sim = Icdb_sim.Gate_sim.create nl in
  let read () =
    List.fold_left
      (fun acc i ->
        (acc * 2)
        + if Icdb_iif.Interp.value sim (Printf.sprintf "G[%d]" (3 - i)) then 1 else 0)
      0 [ 0; 1; 2; 3 ]
  in
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", true) ];
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ];
  let prev = ref (read ()) in
  let ok = ref true in
  for _ = 1 to 16 do
    Icdb_iif.Interp.step sim [ ("CLK", true); ("RESET", false) ];
    Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ];
    let now = read () in
    let diff = !prev lxor now in
    if diff land (diff - 1) <> 0 || diff = 0 then ok := false;
    prev := now
  done;
  Printf.printf "\ngray-code property over 16 clocks: %s\n"
    (if !ok then "holds (every step flips exactly one bit)" else "VIOLATED")
