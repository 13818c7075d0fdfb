(* IIF composition: building an adder/subtractor out of the library's
   adder (Appendix A example 3), generating it, and simulating the
   resulting gate netlist against arithmetic.

   Run with: dune exec examples/adder_subtractor.exe *)

open Icdb
open Icdb_sim

let () =
  let server = Server.create () in
  let inst =
    Server.request_component server
      (Spec.make ~name_hint:"addsub8"
         (Spec.From_component
            { component = "adder_subtractor";
              attributes = [ ("size", 8) ];
              functions = [ Icdb_genus.Func.ADD; Icdb_genus.Func.SUB ] }))
  in
  Printf.printf "generated %s: %d gates\n" inst.Instance.id
    (Instance.gate_count inst);
  print_endline "-- connection information --";
  print_endline (Instance.connect_string inst);
  print_endline "";

  (* Drive the generated netlist through the gate-level simulator. *)
  let sim = Gate_sim.create inst.Instance.netlist in
  let drive_bus base width x =
    List.init width (fun i ->
        (Printf.sprintf "%s[%d]" base i, (x lsr i) land 1 = 1))
  in
  let read_bus base width =
    let v = ref 0 in
    for i = width - 1 downto 0 do
      v :=
        (!v lsl 1)
        lor
        if Icdb_iif.Interp.value sim (Printf.sprintf "%s[%d]" base i) then 1 else 0
    done;
    !v
  in
  let run a b sub =
    Icdb_iif.Interp.step sim
      (drive_bus "A" 8 a @ drive_bus "B" 8 b @ [ ("ADDSUB", sub) ]);
    read_bus "O" 8
  in
  print_endline "-- simulating the generated netlist --";
  List.iter
    (fun (a, b) ->
      let sum = run a b false in
      let diff = run a b true in
      Printf.printf "  %3d + %3d = %3d    %3d - %3d = %3d (mod 256)\n" a b sum
        a b diff;
      assert (sum = (a + b) land 255);
      assert (diff = (a - b) land 255))
    [ (12, 5); (200, 100); (255, 1); (0, 1); (77, 77) ];
  print_endline "all checks passed";

  (* The MILO-format flat IIF the optimizer consumed: *)
  match inst.Instance.flat with
  | Some flat ->
      print_endline "\n-- first lines of the expanded (flat) IIF --";
      let lines = String.split_on_char '\n' (Icdb_iif.Flat.to_milo flat) in
      List.iteri (fun i l -> if i < 8 then print_endline ("  " ^ l)) lines
  | None -> ()
