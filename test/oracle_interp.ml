(* Reference oracle: the hashtable-keyed flat-IIF interpreter that
   Icdb_iif.Interp replaced, kept verbatim so the differential tests in
   test_sim.ml can check the compiled interpreter step for step. *)

open Icdb_iif

(* Reference interpreter for flat IIF designs.

   Two-valued, cycle-oriented semantics used as the specification
   against which synthesized gate netlists are checked:

   - combinational equations settle to a fixpoint;
   - latches are transparent at their active gate level and hold
     otherwise;
   - flip-flops sample their data input when their clock expression
     produces the configured edge, with asynchronous set/reset
     conditions taking priority;
   - rippled clocks (one register clocking another) are handled by
     iterating register evaluation until quiescent. *)

open Flat

exception Unstable of string
(* Raised when combinational feedback fails to reach a fixpoint. *)

type t = {
  flat : Flat.t;
  values : (string, bool) Hashtbl.t;       (* current net values *)
  prev_clock : (string, bool) Hashtbl.t;   (* FF target -> clock seen last *)
  latch_store : (string, bool) Hashtbl.t;  (* latch target -> held value *)
}

let value st net =
  match Hashtbl.find_opt st.values net with
  | Some v -> v
  | None -> false

(* Evaluate a combinational expression. [prev] is the present value of
   the equation's target, used by disabled tri-states (bus keeper
   behaviour) and wired-or resolution. *)
let rec eval st ~prev e =
  match e with
  | Fconst b -> b
  | Fnet n -> value st n
  | Fnot e -> not (eval st ~prev e)
  | Fand es -> List.for_all (eval st ~prev) es
  | For_ es -> List.exists (eval st ~prev) es
  | Fxor (a, b) -> eval st ~prev a <> eval st ~prev b
  | Fxnor (a, b) -> eval st ~prev a = eval st ~prev b
  | Fbuf e | Fschmitt e | Fdelay (e, _) -> eval st ~prev e
  | Ftri { data; enable } ->
      if eval st ~prev enable then eval st ~prev data else prev
  | Fwor es -> (
      (* Drivers that are enabled tri-states or plain signals OR
         together; if every driver is a disabled tri-state the bus
         keeps its previous value. *)
      let contribs = List.map (tri_contribution st ~prev) es in
      let active = List.filter_map Fun.id contribs in
      match active with
      | [] -> prev
      | vs -> List.exists Fun.id vs)

and tri_contribution st ~prev = function
  | Ftri { data; enable } ->
      if eval st ~prev enable then Some (eval st ~prev data) else None
  | e -> Some (eval st ~prev e)

(* One pass over combinational and latch equations; returns true if any
   net changed. *)
let comb_pass st =
  let changed = ref false in
  List.iter
    (fun eq ->
      match eq with
      | Comb { target; rhs } ->
          let prev = value st target in
          let v = eval st ~prev rhs in
          if v <> prev then begin
            Hashtbl.replace st.values target v;
            changed := true
          end
      | Latch { target; data; transparent_high; gate } ->
          let prev = value st target in
          let g = eval st ~prev gate in
          let transparent = if transparent_high then g else not g in
          let v =
            if transparent then begin
              let d = eval st ~prev data in
              Hashtbl.replace st.latch_store target d;
              d
            end
            else
              match Hashtbl.find_opt st.latch_store target with
              | Some held -> held
              | None -> prev
          in
          if v <> prev then begin
            Hashtbl.replace st.values target v;
            changed := true
          end
      | Ff _ -> ())
    st.flat.fequations;
  !changed

let settle st =
  let limit = List.length st.flat.fequations + 8 in
  let rec loop n =
    if comb_pass st then
      if n >= limit then raise (Unstable st.flat.fname) else loop (n + 1)
  in
  loop 0

type reg = {
  rtarget : string;
  rdata : fexpr;
  rrising : bool;
  rclock : fexpr;
  rasyncs : async list;
}

let ffs st =
  List.filter_map
    (fun eq ->
      match eq with
      | Ff { target; data; rising; clock; asyncs } ->
          Some { rtarget = target; rdata = data; rrising = rising;
                 rclock = clock; rasyncs = asyncs }
      | Comb _ | Latch _ -> None)
    st.flat.fequations

(* Apply asynchronous conditions; returns the forced value if any
   condition holds (first match wins, as the spec order implies). *)
let async_force st asyncs =
  List.find_map
    (fun a -> if eval st ~prev:false a.cond then Some a.value else None)
    asyncs

(* Evaluate registers until no register output changes. Each round:
   detect edges against the remembered clock values, sample data,
   apply async overrides, commit simultaneously, re-settle. *)
let update_registers st =
  let regs = ffs st in
  let rounds = List.length regs + 2 in
  let rec loop n =
    settle st;
    let updates =
      List.map
        (fun f ->
          let clk = eval st ~prev:false f.rclock in
          let prev_clk =
            match Hashtbl.find_opt st.prev_clock f.rtarget with
            | Some v -> v
            | None -> clk  (* first observation: no edge *)
          in
          let fired =
            if f.rrising then (not prev_clk) && clk else prev_clk && not clk
          in
          let forced = async_force st f.rasyncs in
          let current = value st f.rtarget in
          let next =
            match forced with
            | Some v -> v
            | None ->
                if fired then eval st ~prev:current f.rdata else current
          in
          (f.rtarget, clk, next, next <> current))
        regs
    in
    let any_change = List.exists (fun (_, _, _, c) -> c) updates in
    List.iter
      (fun (target, clk, next, _) ->
        Hashtbl.replace st.prev_clock target clk;
        Hashtbl.replace st.values target next)
      updates;
    if any_change && n < rounds then loop (n + 1) else settle st
  in
  loop 0

let create flat =
  let st =
    { flat;
      values = Hashtbl.create 64;
      prev_clock = Hashtbl.create 16;
      latch_store = Hashtbl.create 16 }
  in
  st

(* Set primary inputs without clocking consequences being lost: the
   caller is expected to drive the clock like a testbench, e.g.
   [step st [("CLK", false); ...]; step st [("CLK", true); ...]]. *)
let step st inputs =
  List.iter
    (fun (n, v) ->
      if not (List.mem n st.flat.finputs) then
        invalid_arg (Printf.sprintf "Interp.step: %s is not an input" n);
      Hashtbl.replace st.values n v)
    inputs;
  update_registers st

(* Force a register output (e.g. to establish a known initial state). *)
let poke st net v = Hashtbl.replace st.values net v

let outputs st = List.map (fun o -> (o, value st o)) st.flat.foutputs
