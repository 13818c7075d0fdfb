(* Tests for the behavioral-synthesis client (Figure 1): dataflow
   graphs, ICDB-informed scheduling, chaining, multi-cycling and
   functional-unit binding. *)

open Icdb_hls

let check = Alcotest.check

let server = lazy (Icdb.Server.create ())

let run ?(pessimism = 1.0) dfg clock =
  Schedule.run (Lazy.force server) dfg ~clock ~pessimism

(* ------------------------------------------------------------------ *)
(* Dfg                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dfg_topological () =
  let order = Dfg.validate Dfg.diffeq in
  let pos id =
    let rec find i = function
      | [] -> Alcotest.fail ("missing " ^ id)
      | (o : Dfg.op) :: rest -> if o.Dfg.op_id = id then i else find (i + 1) rest
    in
    find 0 order
  in
  List.iter
    (fun (o : Dfg.op) ->
      List.iter
        (fun d ->
          check Alcotest.bool
            (Printf.sprintf "%s after %s" o.Dfg.op_id d)
            true
            (pos d < pos o.Dfg.op_id))
        o.Dfg.op_deps)
    Dfg.diffeq.Dfg.ops

let test_dfg_cycle_rejected () =
  let cyclic =
    { Dfg.dfg_name = "cyc";
      ops =
        [ { Dfg.op_id = "a"; op_func = Icdb_genus.Func.ADD; op_width = 4;
            op_deps = [ "b" ] };
          { Dfg.op_id = "b"; op_func = Icdb_genus.Func.ADD; op_width = 4;
            op_deps = [ "a" ] } ] }
  in
  (try
     ignore (Dfg.validate cyclic);
     Alcotest.fail "expected Dfg_error"
   with Dfg.Dfg_error _ -> ())

let test_dfg_unknown_dep_rejected () =
  let bad =
    { Dfg.dfg_name = "bad";
      ops =
        [ { Dfg.op_id = "a"; op_func = Icdb_genus.Func.ADD; op_width = 4;
            op_deps = [ "ghost" ] } ] }
  in
  (try
     ignore (Dfg.validate bad);
     Alcotest.fail "expected Dfg_error"
   with Dfg.Dfg_error _ -> ())

let test_dfg_duplicate_rejected () =
  let bad =
    { Dfg.dfg_name = "dup";
      ops =
        [ { Dfg.op_id = "a"; op_func = Icdb_genus.Func.ADD; op_width = 4;
            op_deps = [] };
          { Dfg.op_id = "a"; op_func = Icdb_genus.Func.SUB; op_width = 4;
            op_deps = [] } ] }
  in
  (try
     ignore (Dfg.validate bad);
     Alcotest.fail "expected Dfg_error"
   with Dfg.Dfg_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Scheduling invariants                                               *)
(* ------------------------------------------------------------------ *)

let find_op r id =
  List.find (fun s -> s.Schedule.so_op.Dfg.op_id = id) r.Schedule.r_ops

let test_schedule_respects_deps () =
  let r = run Dfg.diffeq 30.0 in
  List.iter
    (fun s ->
      List.iter
        (fun dep ->
          let p = find_op r dep in
          check Alcotest.bool
            (Printf.sprintf "%s starts after %s" s.Schedule.so_op.Dfg.op_id dep)
            true
            (s.Schedule.so_start_step > p.Schedule.so_end_step
             || (s.Schedule.so_start_step >= p.Schedule.so_end_step
                 && s.Schedule.so_start_offset >= 0.0)))
        s.Schedule.so_op.Dfg.op_deps)
    r.Schedule.r_ops

let test_schedule_no_unit_overlap () =
  let r = run Dfg.diffeq 30.0 in
  let by_unit = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev =
        match Hashtbl.find_opt by_unit s.Schedule.so_unit with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace by_unit s.Schedule.so_unit (s :: prev))
    r.Schedule.r_ops;
  Hashtbl.iter
    (fun unit ops ->
      let sorted =
        List.sort
          (fun a b -> compare a.Schedule.so_start_step b.Schedule.so_start_step)
          ops
      in
      let rec no_overlap = function
        | a :: (b :: _ as rest) ->
            check Alcotest.bool
              (Printf.sprintf "%s reuse is sequential" unit)
              true
              (b.Schedule.so_start_step > a.Schedule.so_end_step
               || (b.Schedule.so_start_step = a.Schedule.so_end_step
                   && b.Schedule.so_start_offset +. 0.001 >= a.Schedule.so_start_offset
                      +. a.Schedule.so_delay));
            no_overlap rest
        | _ -> ()
      in
      no_overlap sorted)
    by_unit

let test_schedule_huge_clock_single_step () =
  let r = run Dfg.fir4 2000.0 in
  check Alcotest.int "one step" 1 r.Schedule.r_steps;
  check Alcotest.int "no registers" 0 r.Schedule.r_register_bits;
  (* everything chains: ops with deps start at nonzero offsets *)
  let a2 = find_op r "a2" in
  check Alcotest.bool "a2 chained mid-step" true (a2.Schedule.so_start_offset > 0.0)

let test_schedule_tighter_clock_more_steps () =
  let s20 = (run Dfg.diffeq 20.0).Schedule.r_steps in
  let s40 = (run Dfg.diffeq 40.0).Schedule.r_steps in
  let s120 = (run Dfg.diffeq 120.0).Schedule.r_steps in
  check Alcotest.bool
    (Printf.sprintf "steps %d >= %d >= %d" s20 s40 s120)
    true
    (s20 >= s40 && s40 >= s120)

let test_schedule_binding_reuses_units () =
  (* four multiplies never alive at once share units at a small clock *)
  let r = run Dfg.diffeq 30.0 in
  let muls =
    List.filter
      (fun u -> u.Schedule.u_component = "multiplier")
      r.Schedule.r_units
  in
  check Alcotest.bool
    (Printf.sprintf "%d multiplier units for 4 ops" (List.length muls))
    true
    (List.length muls < 4 && List.length muls >= 1)

let test_schedule_pessimism_costs_latency () =
  let honest = run ~pessimism:1.0 Dfg.diffeq 30.0 in
  let margins = run ~pessimism:1.6 Dfg.diffeq 30.0 in
  check Alcotest.bool
    (Printf.sprintf "latency %.0f < %.0f" honest.Schedule.r_latency
       margins.Schedule.r_latency)
    true
    (honest.Schedule.r_latency < margins.Schedule.r_latency)

let test_schedule_multicycle_ops () =
  (* at 30 ns the 8-bit multiplier (~100 ns) must be multi-cycle *)
  let r = run Dfg.diffeq 30.0 in
  let m1 = find_op r "m1" in
  check Alcotest.bool "multiplier spans steps" true
    (m1.Schedule.so_end_step > m1.Schedule.so_start_step)

let test_schedule_registers_counted () =
  let r = run Dfg.diffeq 30.0 in
  check Alcotest.bool "values cross steps" true (r.Schedule.r_register_bits > 0)

let test_schedule_report_format () =
  let r = run Dfg.fir4 40.0 in
  let s = Schedule.to_string r in
  check Alcotest.bool "mentions the dfg" true
    (String.length s > 4 && String.sub s 0 4 = "fir4")

let test_schedule_bad_clock () =
  (try
     ignore (run Dfg.fir4 0.0);
     Alcotest.fail "expected Schedule_error"
   with Schedule.Schedule_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Controller synthesis                                                *)
(* ------------------------------------------------------------------ *)

let controller_for dfg clock =
  let s = Lazy.force server in
  let r = Schedule.run s dfg ~clock ~pessimism:1.0 in
  (r, Controller.generate s r)

let test_controller_generates () =
  let r, c = controller_for Dfg.diffeq 30.0 in
  check Alcotest.bool "has gates" true
    (Icdb.Instance.gate_count c.Controller.c_instance > r.Schedule.r_steps);
  check Alcotest.bool "DONE output" true
    (List.mem "DONE" c.Controller.c_outputs);
  (* one GO strobe per functional unit *)
  List.iter
    (fun u ->
      check Alcotest.bool ("GO for " ^ u.Schedule.u_name) true
        (List.mem ("GO_" ^ u.Schedule.u_name) c.Controller.c_outputs))
    r.Schedule.r_units

let test_controller_strobe_timing () =
  let r, c = controller_for Dfg.diffeq 30.0 in
  let sim = Icdb_sim.Gate_sim.create c.Controller.c_instance.Icdb.Instance.netlist in
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", true) ];
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ];
  for step = 0 to r.Schedule.r_steps - 1 do
    (* every op starting this step must have its unit's GO high *)
    List.iter
      (fun s ->
        if s.Schedule.so_start_step = step then
          check Alcotest.bool
            (Printf.sprintf "%s GO at step %d" s.Schedule.so_unit step)
            true
            (Icdb_iif.Interp.value sim ("GO_" ^ s.Schedule.so_unit)))
      r.Schedule.r_ops;
    check Alcotest.bool
      (Printf.sprintf "DONE only at the last step (%d)" step)
      (step = r.Schedule.r_steps - 1)
      (Icdb_iif.Interp.value sim "DONE");
    Icdb_iif.Interp.step sim [ ("CLK", true); ("RESET", false) ];
    Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ]
  done

let test_controller_ring_wraps () =
  let r, c = controller_for Dfg.fir4 40.0 in
  let sim = Icdb_sim.Gate_sim.create c.Controller.c_instance.Icdb.Instance.netlist in
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", true) ];
  Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ];
  (* two full passes: DONE fires exactly twice *)
  let dones = ref 0 in
  for _ = 1 to 2 * r.Schedule.r_steps do
    if Icdb_iif.Interp.value sim "DONE" then incr dones;
    Icdb_iif.Interp.step sim [ ("CLK", true); ("RESET", false) ];
    Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ]
  done;
  check Alcotest.int "wraps around" 2 !dones

let test_controller_steers_multifunction_units () =
  let _, c = controller_for Dfg.diffeq 30.0 in
  (* subtraction on the adder_subtractor requires ADDSUB = 1 *)
  check Alcotest.bool "ADDSUB steering output" true
    (List.exists
       (fun o ->
         String.length o > 7
         && String.sub o (String.length o - 6) 6 = "ADDSUB")
       c.Controller.c_outputs)

let test_controller_encodings_equivalent () =
  let s = Lazy.force server in
  let r = Schedule.run s Dfg.diffeq ~clock:30.0 ~pessimism:1.0 in
  let strobe_trace enc =
    let c = Controller.generate ~encoding:enc s r in
    let sim = Icdb_sim.Gate_sim.create c.Controller.c_instance.Icdb.Instance.netlist in
    Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", true) ];
    Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ];
    let trace = ref [] in
    for _ = 0 to r.Schedule.r_steps - 1 do
      trace :=
        List.map
          (fun o -> Icdb_iif.Interp.value sim o)
          c.Controller.c_outputs
        :: !trace;
      Icdb_iif.Interp.step sim [ ("CLK", true); ("RESET", false) ];
      Icdb_iif.Interp.step sim [ ("CLK", false); ("RESET", false) ]
    done;
    (c, List.rev !trace)
  in
  let oh, t1 = strobe_trace Controller.One_hot in
  let bin, t2 = strobe_trace Controller.Binary in
  check Alcotest.bool "identical strobe traces" true (t1 = t2);
  (* binary trades flip-flops for combinational logic *)
  let ffs (c : Controller.t) =
    List.length
      (List.filter
         (fun (i : Icdb_netlist.Netlist.instance) ->
           String.length i.cell >= 3 && String.sub i.cell 0 3 = "DFF")
         c.Controller.c_instance.Icdb.Instance.netlist.Icdb_netlist.Netlist.instances)
  in
  check Alcotest.int "one-hot: one FF per step" r.Schedule.r_steps (ffs oh);
  check Alcotest.bool "binary: log2 FFs" true (ffs bin <= 4)

(* ------------------------------------------------------------------ *)
(* Datapath construction                                               *)
(* ------------------------------------------------------------------ *)

let datapath_for dfg clock =
  let s = Lazy.force server in
  let r = Schedule.run s dfg ~clock ~pessimism:1.0 in
  (r, Datapath.generate s r)

let test_datapath_generates () =
  let r, dp = datapath_for Dfg.diffeq 30.0 in
  let unit_gates =
    List.fold_left
      (fun acc u -> acc + Icdb.Instance.gate_count u.Schedule.u_instance)
      0 r.Schedule.r_units
  in
  check Alcotest.bool "includes units plus regs and muxes" true
    (Icdb.Instance.gate_count dp.Datapath.d_instance > unit_gates);
  check Alcotest.bool "muxes inserted for shared units" true
    (dp.Datapath.d_muxes > 0);
  check Alcotest.bool "has a shape function" true
    (dp.Datapath.d_instance.Icdb.Instance.shape <> [])

let test_datapath_registers_sinks () =
  let r, dp = datapath_for Dfg.diffeq 30.0 in
  ignore r;
  (* sink results (s2, c1) must be registered; so must cross-step ones *)
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " registered") true
        (List.mem id dp.Datapath.d_registers))
    [ "s2"; "c1"; "m1" ]

let test_datapath_control_inputs () =
  let _, dp = datapath_for Dfg.diffeq 30.0 in
  let inputs = dp.Datapath.d_instance.Icdb.Instance.netlist.Icdb_netlist.Netlist.inputs in
  check Alcotest.bool "CLK" true (List.mem "CLK" inputs);
  check Alcotest.bool "load strobes" true (List.mem "LD_s2" inputs);
  check Alcotest.bool "mux selects for shared multiplier" true
    (List.exists
       (fun n -> String.length n > 4 && String.sub n 0 4 = "SEL_")
       inputs)

let test_datapath_structurally_sound () =
  let _, dp = datapath_for Dfg.fir4 40.0 in
  (* levelization succeeds = no combinational cycles through the wiring *)
  let s =
    Icdb_netlist.Stats.analyze dp.Datapath.d_instance.Icdb.Instance.netlist
      ~is_output_pin:Icdb_logic.Celllib.is_output_pin
      ~is_sequential:(fun cell ->
        match Icdb_logic.Celllib.find cell with
        | Some c -> (
            match c.Icdb_logic.Celllib.kind with
            | Icdb_logic.Celllib.Ff _ | Icdb_logic.Celllib.Latch_cell _ -> true
            | _ -> false)
        | None -> false)
  in
  check Alcotest.bool "sequential elements present" true (s.Icdb_netlist.Stats.sequential > 0);
  check Alcotest.bool "positive depth" true (s.Icdb_netlist.Stats.logic_depth > 0)

let test_datapath_vhdl_text () =
  let _, dp = datapath_for Dfg.fir4 40.0 in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "entity" true (contains "entity dp_fir4" dp.Datapath.d_vhdl);
  check Alcotest.bool "port maps" true (contains "port map" dp.Datapath.d_vhdl)

let () =
  Alcotest.run "hls"
    [ ("dfg",
       [ Alcotest.test_case "topological order" `Quick test_dfg_topological;
         Alcotest.test_case "cycle rejected" `Quick test_dfg_cycle_rejected;
         Alcotest.test_case "unknown dep rejected" `Quick test_dfg_unknown_dep_rejected;
         Alcotest.test_case "duplicate rejected" `Quick test_dfg_duplicate_rejected ]);
      ("schedule",
       [ Alcotest.test_case "respects deps" `Quick test_schedule_respects_deps;
         Alcotest.test_case "no unit overlap" `Quick test_schedule_no_unit_overlap;
         Alcotest.test_case "huge clock chains all" `Quick
           test_schedule_huge_clock_single_step;
         Alcotest.test_case "tighter clock more steps" `Quick
           test_schedule_tighter_clock_more_steps;
         Alcotest.test_case "binding reuses units" `Quick
           test_schedule_binding_reuses_units;
         Alcotest.test_case "pessimism costs latency" `Quick
           test_schedule_pessimism_costs_latency;
         Alcotest.test_case "multi-cycle ops" `Quick test_schedule_multicycle_ops;
         Alcotest.test_case "registers counted" `Quick test_schedule_registers_counted;
         Alcotest.test_case "report format" `Quick test_schedule_report_format;
         Alcotest.test_case "bad clock" `Quick test_schedule_bad_clock ]);
      ("controller",
       [ Alcotest.test_case "generates" `Quick test_controller_generates;
         Alcotest.test_case "strobe timing" `Quick test_controller_strobe_timing;
         Alcotest.test_case "ring wraps" `Quick test_controller_ring_wraps;
         Alcotest.test_case "steers multi-function units" `Quick
           test_controller_steers_multifunction_units;
         Alcotest.test_case "encodings equivalent" `Quick
           test_controller_encodings_equivalent ]);
      ("datapath",
       [ Alcotest.test_case "generates" `Quick test_datapath_generates;
         Alcotest.test_case "registers sinks" `Quick test_datapath_registers_sinks;
         Alcotest.test_case "control inputs" `Quick test_datapath_control_inputs;
         Alcotest.test_case "structurally sound" `Quick
           test_datapath_structurally_sound;
         Alcotest.test_case "vhdl text" `Quick test_datapath_vhdl_text ]) ]
