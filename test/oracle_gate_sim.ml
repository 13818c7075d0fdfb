(* Reference oracle: the hashtable-keyed gate simulator that
   Icdb_sim.Gate_sim replaced, kept verbatim so the differential tests
   in test_sim.ml can check the compiled simulator step for step. *)

(* Gate-level simulator over cell netlists.

   This is the VHDL-simulator substitute of the generation path
   (Figure 8): it executes mapped netlists against the cell library's
   logic functions so generated components can be verified against
   their IIF specification. Semantics mirror {!Icdb_iif.Interp} (settle
   combinational logic, then iterate register updates), so the two can
   be compared step by step. *)

open Icdb_netlist
open Icdb_logic

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

type ff_info = {
  inst : string;
  out : string;
  d : string;
  ck : string;
  s : string option;
  r : string option;
}

type compiled =
  | Ccomb of { out : string; cell : Celllib.t; pins : (string * string) list }
  | Cff of ff_info
  | Clatch of { inst : string; out : string; d : string; g : string;
                transparent_high : bool }
  | Ctri_group of { out : string; drivers : (string * string) list }
      (* (data net, enable net) list; enable "$const1" = always on *)

type t = {
  nl : Netlist.t;
  elements : compiled list;
  values : (string, bool) Hashtbl.t;
  prev_clock : (string, bool) Hashtbl.t;   (* keyed by FF instance name *)
  latch_store : (string, bool) Hashtbl.t;  (* keyed by latch instance name *)
}

let value st net =
  if net = "$const1" then true
  else if net = "$const0" then false
  else
    match Hashtbl.find_opt st.values net with Some v -> v | None -> false

let compile (nl : Netlist.t) =
  let tri_groups = Hashtbl.create 8 in
  let elements = ref [] in
  List.iter
    (fun (inst : Netlist.instance) ->
      let cell =
        match Celllib.find inst.cell with
        | Some c -> c
        | None -> fail "unknown cell %s (instance %s)" inst.cell inst.inst_name
      in
      let pin p = Netlist.pin_net_exn inst p in
      match cell.Celllib.kind with
      | Celllib.Comb ->
          elements :=
            Ccomb { out = pin cell.Celllib.output; cell; pins = inst.conns }
            :: !elements
      | Celllib.Ff { has_set; has_reset } ->
          elements :=
            Cff
              { inst = inst.inst_name;
                out = pin "Q";
                d = pin "D";
                ck = pin "CK";
                s = (if has_set then Some (pin "S") else None);
                r = (if has_reset then Some (pin "R") else None) }
            :: !elements
      | Celllib.Latch_cell { transparent_high } ->
          elements :=
            Clatch
              { inst = inst.inst_name; out = pin "Q"; d = pin "D";
                g = pin "G"; transparent_high }
            :: !elements
      | Celllib.Tri_cell ->
          let out = pin "Y" in
          let prev =
            match Hashtbl.find_opt tri_groups out with Some l -> l | None -> []
          in
          Hashtbl.replace tri_groups out ((pin "A", pin "EN") :: prev))
    nl.Netlist.instances;
  let tri_elements =
    Hashtbl.fold
      (fun out drivers acc ->
        Ctri_group { out; drivers = List.rev drivers } :: acc)
      tri_groups []
  in
  List.rev !elements @ tri_elements

let create nl =
  { nl;
    elements = compile nl;
    values = Hashtbl.create 128;
    prev_clock = Hashtbl.create 16;
    latch_store = Hashtbl.create 16 }

(* Evaluate a combinational cell's function with pins bound to nets. *)
let eval_cell st (cell : Celllib.t) pins =
  let lookup pin =
    match List.assoc_opt pin pins with
    | Some n -> value st n
    | None -> fail "cell %s: pin %s unconnected" cell.Celllib.cname pin
  in
  let rec ev e =
    match e with
    | Icdb_iif.Flat.Fconst b -> b
    | Icdb_iif.Flat.Fnet p -> lookup p
    | Icdb_iif.Flat.Fnot e -> not (ev e)
    | Icdb_iif.Flat.Fand es -> List.for_all ev es
    | Icdb_iif.Flat.For_ es -> List.exists ev es
    | Icdb_iif.Flat.Fxor (a, b) -> ev a <> ev b
    | Icdb_iif.Flat.Fxnor (a, b) -> ev a = ev b
    | Icdb_iif.Flat.Fbuf e | Icdb_iif.Flat.Fschmitt e -> ev e
    | Icdb_iif.Flat.Fdelay (e, _) -> ev e
    | Icdb_iif.Flat.Ftri _ | Icdb_iif.Flat.Fwor _ ->
        fail "cell %s: interface operator in cell function" cell.Celllib.cname
  in
  match cell.Celllib.logic with
  | Some f -> ev f
  | None -> fail "cell %s has no combinational function" cell.Celllib.cname

let comb_pass st =
  let changed = ref false in
  let update out v =
    if value st out <> v then begin
      Hashtbl.replace st.values out v;
      changed := true
    end
  in
  List.iter
    (fun el ->
      match el with
      | Ccomb { out; cell; pins } -> update out (eval_cell st cell pins)
      | Clatch { inst; out; d; g; transparent_high } ->
          let gv = value st g in
          let transparent = if transparent_high then gv else not gv in
          let v =
            if transparent then begin
              let dv = value st d in
              Hashtbl.replace st.latch_store inst dv;
              dv
            end
            else
              match Hashtbl.find_opt st.latch_store inst with
              | Some held -> held
              | None -> value st out
          in
          update out v
      | Ctri_group { out; drivers } ->
          let enabled =
            List.filter_map
              (fun (d, en) -> if value st en then Some (value st d) else None)
              drivers
          in
          (match enabled with
           | [] -> ()  (* bus keeper: retain previous value *)
           | vs -> update out (List.exists Fun.id vs))
      | Cff _ -> ())
    st.elements;
  !changed

let settle st =
  let limit = List.length st.elements + 8 in
  let rec loop n =
    if comb_pass st then
      if n >= limit then fail "netlist %s failed to settle" st.nl.Netlist.name
      else loop (n + 1)
  in
  loop 0

let update_registers st =
  let regs =
    List.filter_map
      (fun el -> match el with Cff f -> Some f | _ -> None)
      st.elements
  in
  let rounds = List.length regs + 2 in
  let rec loop n =
    settle st;
    let updates =
      List.map
        (fun (f : _) ->
          let clk = value st f.ck in
          let prev_clk =
            match Hashtbl.find_opt st.prev_clock f.inst with
            | Some v -> v
            | None -> clk
          in
          let fired = (not prev_clk) && clk in
          let current = value st f.out in
          let forced =
            (* reset wins over set, matching the DFF_SR cell *)
            match f.r, f.s with
            | Some r, _ when value st r -> Some false
            | _, Some s when value st s -> Some true
            | _ -> None
          in
          let next =
            match forced with
            | Some v -> v
            | None -> if fired then value st f.d else current
          in
          (f.inst, f.out, clk, next, next <> current))
        regs
    in
    let any_change = List.exists (fun (_, _, _, _, c) -> c) updates in
    List.iter
      (fun (inst, out, clk, next, _) ->
        Hashtbl.replace st.prev_clock inst clk;
        Hashtbl.replace st.values out next)
      updates;
    if any_change && n < rounds then loop (n + 1) else settle st
  in
  loop 0

let step st inputs =
  List.iter
    (fun (n, v) ->
      if not (List.mem n st.nl.Netlist.inputs) then
        fail "Gate_sim.step: %s is not an input of %s" n st.nl.Netlist.name;
      Hashtbl.replace st.values n v)
    inputs;
  update_registers st

let outputs st = List.map (fun o -> (o, value st o)) st.nl.Netlist.outputs

let poke st net v = Hashtbl.replace st.values net v
