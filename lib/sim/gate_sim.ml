(* Gate-level front end of the two-valued machine.

   This is the VHDL-simulator substitute of the generation path
   (Figure 8): it compiles a mapped netlist against the cell library's
   logic functions into Icdb_iif.Interp's form, so generated components
   run on the same machine as the IIF specification they are verified
   against. *)

open Icdb_iif
open Icdb_netlist
open Icdb_logic

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

let compile (nl : Netlist.t) =
  let ids = Interp.numbering () and insts = Hashtbl.create 16 in
  let id = Interp.intern ids and inst_id = Interp.intern insts in
  (* A cell function with its pins bound to nets. A pin the instance
     leaves unconnected, or an operator a cell function cannot hold,
     raises when evaluation reaches it. *)
  let cell_function (cell : Celllib.t) conns =
    let raising fmt = Printf.ksprintf (fun s -> Interp.Raise (Sim_error s)) fmt in
    let rec go e =
      match e with
      | Flat.Fconst b -> Interp.Const b
      | Flat.Fnet p -> (
          match List.assoc_opt p conns with
          | Some n -> Interp.Net (id n)
          | None -> raising "cell %s: pin %s unconnected" cell.Celllib.cname p)
      | Flat.Fnot e -> Interp.Not (go e)
      | Flat.Fand es -> Interp.And (List.map go es)
      | Flat.For_ es -> Interp.Or (List.map go es)
      | Flat.Fxor (a, b) -> Interp.Xor (go a, go b)
      | Flat.Fxnor (a, b) -> Interp.Xnor (go a, go b)
      | Flat.Fbuf e | Flat.Fschmitt e | Flat.Fdelay (e, _) -> go e
      | Flat.Ftri _ | Flat.Fwor _ ->
          raising "cell %s: interface operator in cell function" cell.Celllib.cname
    in
    match cell.Celllib.logic with
    | Some f -> go f
    | None -> raising "cell %s has no combinational function" cell.Celllib.cname
  in
  let tri_groups = Hashtbl.create 8 in
  let elements = ref [] and regs = ref [] in
  List.iter
    (fun (inst : Netlist.instance) ->
      let cell =
        match Celllib.find inst.cell with
        | Some c -> c
        | None -> fail "unknown cell %s (instance %s)" inst.cell inst.inst_name
      in
      (* pins resolve in the order written below, which decides the
         one reported when several are missing *)
      let pin p = id (Netlist.pin_net_exn inst p) in
      match cell.Celllib.kind with
      | Celllib.Comb ->
          let target = pin cell.Celllib.output in
          elements :=
            Interp.Comb { target; rhs = cell_function cell inst.conns } :: !elements
      | Celllib.Ff { has_set; has_reset } ->
          (* reset wins over set, matching the DFF_SR cell *)
          let r = if has_reset then [ (Interp.Net (pin "R"), false) ] else [] in
          let s = if has_set then [ (Interp.Net (pin "S"), true) ] else [] in
          let ck = pin "CK" in
          let d = pin "D" in
          let q = pin "Q" in
          regs :=
            { Interp.rslot = inst_id inst.inst_name; rtarget = q;
              rdata = Interp.Net d; rrising = true; rclock = Interp.Net ck;
              rasyncs = r @ s }
            :: !regs
      | Celllib.Latch_cell { transparent_high } ->
          let g = pin "G" in
          let d = pin "D" in
          let q = pin "Q" in
          elements :=
            Interp.Latch
              { slot = inst_id inst.inst_name; target = q; data = Interp.Net d;
                transparent_high; gate = Interp.Net g }
            :: !elements
      | Celllib.Tri_cell ->
          let out = Netlist.pin_net_exn inst "Y" in
          let prev =
            match Hashtbl.find_opt tri_groups out with Some l -> l | None -> []
          in
          let enable = Interp.Net (pin "EN") in
          let data = Interp.Net (pin "A") in
          Hashtbl.replace tri_groups out (Interp.Drive { data; enable } :: prev))
    nl.Netlist.instances;
  (* each tri-state group is one wired-or whose all-disabled case is
     the bus keeper *)
  let tri_elements =
    Hashtbl.fold
      (fun out drivers acc ->
        Interp.Comb { target = id out; rhs = Interp.Wor (List.rev drivers) } :: acc)
      tri_groups []
  in
  let inputs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inputs n (id n)) nl.Netlist.inputs;
  let outputs = Array.of_list (List.map (fun n -> (n, id n)) nl.Netlist.outputs) in
  let name = nl.Netlist.name in
  { Interp.name;
    ids;
    inputs;
    outputs;
    elements = Array.of_list (List.rev_append !elements tri_elements);
    regs = Array.of_list (List.rev !regs);
    slots = Hashtbl.length insts;
    unstable = Sim_error (Printf.sprintf "netlist %s failed to settle" name);
    not_input =
      (fun op n ->
        Sim_error (Printf.sprintf "Gate_sim.%s: %s is not an input of %s" op n name)) }

let create nl = Interp.of_design (compile nl)
