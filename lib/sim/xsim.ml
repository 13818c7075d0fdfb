(* Four-valued gate-level simulation (0 / 1 / X / Z).

   The two-valued machine starts every register at zero, which hides
   initialization bugs. This simulator starts state elements at X and
   propagates unknowns pessimistically, so a synthesis tool can ask the
   question that matters before committing a component: after this
   reset sequence, which outputs are still undefined?

   Z only arises from disabled tri-state drivers; at any gate input it
   reads as X. Bus resolution: drivers at Z are ignored, agreeing
   drivers win, conflicts give X.

   It runs on the form Gate_sim's front end compiles a netlist into,
   with values, latch state and clock history in arrays indexed by net
   number or state slot. *)

open Icdb_iif
open Icdb_netlist

exception Xsim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Xsim_error s)) fmt

type v = V0 | V1 | VX | VZ

let v_to_string = function V0 -> "0" | V1 -> "1" | VX -> "X" | VZ -> "Z"

let of_bool b = if b then V1 else V0

(* Z reads as X through any gate input. *)
let strengthen = function VZ -> VX | v -> v

let v_not v =
  match strengthen v with V0 -> V1 | V1 -> V0 | _ -> VX

let v_and a b =
  match strengthen a, strengthen b with
  | V0, _ | _, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

let v_or a b =
  match strengthen a, strengthen b with
  | V1, _ | _, V1 -> V1
  | V0, V0 -> V0
  | _ -> VX

let v_xor a b =
  match strengthen a, strengthen b with
  | V0, V0 | V1, V1 -> V0
  | V0, V1 | V1, V0 -> V1
  | _ -> VX

(* Wired resolution of two driver contributions. *)
let resolve a b =
  match a, b with
  | VZ, v | v, VZ -> v
  | V0, V0 -> V0
  | V1, V1 -> V1
  | _ -> VX

(* ------------------------------------------------------------------ *)
(* Simulation over the compiled form                                   *)
(* ------------------------------------------------------------------ *)

type t = {
  design : Interp.design;
  values : v array;                   (* by net *)
  prev_clock : v option array;        (* by register slot: clock seen last *)
  latch_held : v array;               (* by latch slot: X until transparent *)
}

(* Every net (including register outputs) starts at X. *)
let create nl =
  let design = Gate_sim.compile nl in
  let values = Array.make (Hashtbl.length design.Interp.ids) VX in
  values.(Interp.const0) <- V0;
  values.(Interp.const1) <- V1;
  { design;
    values;
    prev_clock = Array.make design.Interp.slots None;
    latch_held = Array.make design.Interp.slots VX }

let set st net x = if net > Interp.const1 then st.values.(net) <- x

let value st net =
  match Hashtbl.find_opt st.design.Interp.ids net with
  | Some i -> st.values.(i)
  | None -> VX

(* A net reads strengthened: Z only leaves a bus through a gate input,
   as X. Every operand of AND and OR is evaluated, and XOR reads its
   right operand first, which decides the [Raise] reached. *)
let rec eval v e =
  match e with
  | Interp.Const b -> of_bool b
  | Interp.Net i -> strengthen v.(i)
  | Interp.Raise exn -> raise exn
  | Interp.Not e -> v_not (eval v e)
  | Interp.And es -> List.fold_left (fun acc e -> v_and acc (eval v e)) V1 es
  | Interp.Or es -> List.fold_left (fun acc e -> v_or acc (eval v e)) V0 es
  | Interp.Xor (a, b) ->
      let y = eval v b in
      v_xor (eval v a) y
  | Interp.Xnor (a, b) ->
      let y = eval v b in
      v_not (v_xor (eval v a) y)
  | Interp.Tri { data; enable } -> drive v data enable
  | Interp.Wor ds ->
      List.fold_left
        (fun acc d ->
          resolve acc
            (match d with
             | Interp.Drive { data; enable } -> drive v data enable
             | Interp.Plain e -> eval v e))
        VZ ds

(* A tri-state driver's contribution: Z when disabled, X when its
   enable is unknown. *)
and drive v data enable =
  match eval v enable with V1 -> eval v data | V0 -> VZ | _ -> VX

(* One pass over the elements in order. Past the settle limit a pass
   [widen]s: a net whose new value differs from its present one, and a
   latch's held value that does, becomes X instead, so values only
   move to X and the passes end within one per net. *)
let comb_pass ~widen st =
  let v = st.values in
  let changed = ref false in
  let update out x =
    if v.(out) <> x && not (widen && v.(out) = VX) then begin
      set st out (if widen then VX else x);
      changed := true
    end
  in
  Array.iter
    (function
      | Interp.Comb { target; rhs } -> update target (eval v rhs)
      | Interp.Latch { slot; target; data; transparent_high; gate } ->
          let x =
            match eval v gate with
            | (V0 | V1) as g when (g = V1) = transparent_high ->
                let d = eval v data in
                let held = st.latch_held.(slot) in
                if not widen then st.latch_held.(slot) <- d
                else if held <> d && held <> VX then begin
                  st.latch_held.(slot) <- VX;
                  changed := true
                end;
                d
            | V0 | V1 -> st.latch_held.(slot)
            | _ -> VX  (* unknown gate: output unknown *)
          in
          update target x)
    st.design.Interp.elements;
  !changed

(* Feedback still changing at the pass limit oscillates: the passes
   after it widen what keeps changing to X. *)
let settle st =
  let limit = Interp.settle_limit st.design in
  let rec loop n = if comb_pass ~widen:(n > limit) st then loop (n + 1) in
  loop 0

(* The first asynchronous condition, in priority order, that is not 0
   decides: 1 forces its value, X gives X. *)
let rec forced v = function
  | [] -> None
  | (cond, x) :: asyncs -> (
      match eval v cond with
      | V0 -> forced v asyncs
      | V1 -> Some (of_bool x)
      | _ -> Some VX)

let update_registers st =
  let v = st.values and regs = st.design.Interp.regs in
  let rounds = Array.length regs + 2 in
  let rec loop n =
    settle st;
    let any_change = ref false in
    let updates =
      Array.map
        (fun (f : Interp.reg) ->
          let clk = eval v f.rclock in
          let prev_clk = Option.value st.prev_clock.(f.rslot) ~default:clk in
          let current = v.(f.rtarget) in
          let sampled =
            match prev_clk, clk with
            | (V0, V1 | V1, V0) when (clk = V1) = f.rrising -> eval v f.rdata
            | (V0 | V1), (V0 | V1) -> current       (* no edge *)
            | _ ->
                (* unknown clock: the register may or may not have
                   clocked; only keep the value if old and new agree *)
                let d = eval v f.rdata in
                if d = current then current else VX
          in
          let next = match forced v f.rasyncs with Some x -> x | None -> sampled in
          if next <> current then any_change := true;
          (clk, next))
        regs
    in
    Array.iteri
      (fun k (f : Interp.reg) ->
        let clk, next = updates.(k) in
        st.prev_clock.(f.rslot) <- Some clk;
        set st f.rtarget next)
      regs;
    if !any_change && n < rounds then loop (n + 1) else settle st
  in
  loop 0

let step st inputs =
  List.iter
    (fun (n, x) ->
      match Hashtbl.find_opt st.design.Interp.inputs n with
      | Some i -> set st i x
      | None -> fail "Xsim.step: %s is not an input of %s" n st.design.Interp.name)
    inputs;
  update_registers st

let outputs st =
  Array.fold_right
    (fun (o, i) acc -> (o, st.values.(i)) :: acc)
    st.design.Interp.outputs []

let undefined_outputs st =
  List.filter_map
    (fun (o, v) -> if v = VX || v = VZ then Some o else None)
    (outputs st)

(* ------------------------------------------------------------------ *)
(* Initialization analysis                                             *)
(* ------------------------------------------------------------------ *)

(* Drive a reset sequence (every step sets the named inputs, all other
   inputs at X) and report the outputs still undefined afterwards: the
   question a synthesis tool asks before trusting a component's
   power-on behaviour. *)
let initialization_check (nl : Netlist.t) ~sequence =
  let st = create nl in
  List.iter
    (fun assignment ->
      let full =
        List.map
          (fun n ->
            match List.assoc_opt n assignment with
            | Some b -> (n, of_bool b)
            | None -> (n, VX))
          nl.Netlist.inputs
      in
      step st full)
    sequence;
  (st, undefined_outputs st)
