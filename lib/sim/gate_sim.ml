(* Gate-level simulator over cell netlists.

   This is the VHDL-simulator substitute of the generation path
   (Figure 8): it executes mapped netlists against the cell library's
   logic functions so generated components can be verified against
   their IIF specification. Semantics mirror {!Icdb_iif.Interp} (settle
   combinational logic, then iterate register updates), so the two can
   be compared step by step.

   [create] numbers every net and compiles each cell function once
   into a tree over net numbers; values, clock history and latch state
   live in arrays. [words] orders the cells of a purely combinational
   netlist once more, for evaluation 63 input vectors at a time. *)

open Icdb_netlist
open Icdb_logic

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(* Nets 0 and 1 are "$const0" and "$const1": they read as constants
   and ignore writes. *)
let const1 = 1

(* A cell function with its pins bound to nets. A pin the instance
   leaves unconnected, or an operator a cell function cannot hold,
   raises when evaluation reaches it. *)
type expr =
  | Const of bool
  | Net of int
  | Raise of string
  | Not of expr
  | And of expr list
  | Or of expr list
  | Xor of expr * expr
  | Xnor of expr * expr

type element =
  | Comb of { out : int; fn : expr }
  | Latch of { slot : int; out : int; d : int; g : int; transparent_high : bool }
  | Tri_group of { out : int; drivers : (int * int) list }
      (* (data net, enable net) list *)

type ff = {
  slot : int;   (* instance number, keying the clock history *)
  out : int;
  d : int;
  ck : int;
  s : int;      (* -1: no set pin *)
  r : int;      (* -1: no reset pin *)
}

type t = {
  name : string;
  ids : (string, int) Hashtbl.t;       (* net name -> number *)
  inputs : (string, int) Hashtbl.t;    (* primary input -> number *)
  outputs : (string * int) array;
  elements : element array;  (* non-FF cells in instance order, tri groups last *)
  regs : ff array;                     (* flip-flops in instance order *)
  limit : int;                         (* settle passes before failing *)
  values : bool array;
  clock_seen : bool array;             (* by FF instance *)
  prev_clock : bool array;             (* by FF instance *)
  latch_held : bool array;             (* by latch instance *)
  latch_set : bool array;              (* by latch instance *)
  others : (string, bool) Hashtbl.t;   (* poked names outside the design *)
  clocks : bool array;                 (* per FF: this round's clock *)
  nexts : bool array;                  (* per FF: this round's next value *)
}

let set st net v = if net > const1 then st.values.(net) <- v

let value st net =
  match Hashtbl.find_opt st.ids net with
  | Some i -> st.values.(i)
  | None -> ( match Hashtbl.find_opt st.others net with Some v -> v | None -> false)

(* AND and OR stop at their first controlling input, and XOR/XNOR read
   their right operand first, which decides the pin a partly
   unconnected cell reports. *)
let rec eval v e =
  match e with
  | Const b -> b
  | Net i -> Array.unsafe_get v i
  | Raise msg -> raise (Sim_error msg)
  | Not e -> not (eval v e)
  | And es -> all v es
  | Or es -> any v es
  | Xor (a, b) ->
      let y = eval v b in
      eval v a <> y
  | Xnor (a, b) ->
      let y = eval v b in
      eval v a = y

and all v = function [] -> true | e :: es -> eval v e && all v es

and any v = function [] -> false | e :: es -> eval v e || any v es

(* The number of [name] in [tbl], numbering names as they first occur. *)
let intern tbl name =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl name i;
      i

let create (nl : Netlist.t) =
  let ids = Hashtbl.create 128 and insts = Hashtbl.create 16 in
  let id = intern ids and inst_id = intern insts in
  ignore (id "$const0");
  ignore (id "$const1");
  let compile (cell : Celllib.t) conns =
    let rec go e =
      match e with
      | Icdb_iif.Flat.Fconst b -> Const b
      | Icdb_iif.Flat.Fnet p -> (
          match List.assoc_opt p conns with
          | Some n -> Net (id n)
          | None ->
              Raise (Printf.sprintf "cell %s: pin %s unconnected" cell.Celllib.cname p))
      | Icdb_iif.Flat.Fnot e -> Not (go e)
      | Icdb_iif.Flat.Fand es -> And (List.map go es)
      | Icdb_iif.Flat.For_ es -> Or (List.map go es)
      | Icdb_iif.Flat.Fxor (a, b) -> Xor (go a, go b)
      | Icdb_iif.Flat.Fxnor (a, b) -> Xnor (go a, go b)
      | Icdb_iif.Flat.Fbuf e | Icdb_iif.Flat.Fschmitt e
      | Icdb_iif.Flat.Fdelay (e, _) ->
          go e
      | Icdb_iif.Flat.Ftri _ | Icdb_iif.Flat.Fwor _ ->
          Raise
            (Printf.sprintf "cell %s: interface operator in cell function"
               cell.Celllib.cname)
    in
    match cell.Celllib.logic with
    | Some f -> go f
    | None ->
        Raise
          (Printf.sprintf "cell %s has no combinational function" cell.Celllib.cname)
  in
  let tri_groups = Hashtbl.create 8 in
  let elements = ref [] and regs = ref [] and count = ref 0 in
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
          let out = pin cell.Celllib.output in
          incr count;
          elements := Comb { out; fn = compile cell inst.conns } :: !elements
      | Celllib.Ff { has_set; has_reset } ->
          let r = if has_reset then pin "R" else -1 in
          let s = if has_set then pin "S" else -1 in
          let ck = pin "CK" in
          let d = pin "D" in
          let out = pin "Q" in
          incr count;
          regs := { slot = inst_id inst.inst_name; out; d; ck; s; r } :: !regs
      | Celllib.Latch_cell { transparent_high } ->
          let g = pin "G" in
          let d = pin "D" in
          let out = pin "Q" in
          incr count;
          elements :=
            Latch { slot = inst_id inst.inst_name; out; d; g; transparent_high }
            :: !elements
      | Celllib.Tri_cell ->
          let out = Netlist.pin_net_exn inst "Y" in
          let prev =
            match Hashtbl.find_opt tri_groups out with Some l -> l | None -> []
          in
          let enable = pin "EN" in
          let data = pin "A" in
          Hashtbl.replace tri_groups out ((data, enable) :: prev))
    nl.Netlist.instances;
  let tri_elements =
    Hashtbl.fold
      (fun out drivers acc ->
        Tri_group { out = id out; drivers = List.rev drivers } :: acc)
      tri_groups []
  in
  let inputs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inputs n (id n)) nl.Netlist.inputs;
  let outputs = Array.of_list (List.map (fun n -> (n, id n)) nl.Netlist.outputs) in
  let nets = Hashtbl.length ids and ninsts = Hashtbl.length insts in
  let nregs = List.length !regs in
  let values = Array.make nets false in
  values.(const1) <- true;
  { name = nl.Netlist.name;
    ids;
    inputs;
    outputs;
    elements = Array.of_list (List.rev_append !elements tri_elements);
    regs = Array.of_list (List.rev !regs);
    limit = !count + List.length tri_elements + 8;
    values;
    clock_seen = Array.make ninsts false;
    prev_clock = Array.make ninsts false;
    latch_held = Array.make ninsts false;
    latch_set = Array.make ninsts false;
    others = Hashtbl.create 1;
    clocks = Array.make nregs false;
    nexts = Array.make nregs false }

(* Write [x] to [out]; true when that changes what [out] reads, or
   would change it for a constant net. *)
let update st out x =
  if st.values.(out) <> x then begin
    set st out x;
    true
  end
  else false

(* Drive a tri-state bus with the OR of its enabled drivers; with none
   enabled the bus keeper retains the value. *)
let rec drive_bus st out active acc = function
  | [] -> active && update st out acc
  | (d, en) :: rest ->
      if st.values.(en) then drive_bus st out true (st.values.(d) || acc) rest
      else drive_bus st out active acc rest

let comb_pass st =
  let v = st.values in
  let changed = ref false in
  for k = 0 to Array.length st.elements - 1 do
    let c =
      match st.elements.(k) with
      | Comb { out; fn } -> update st out (eval v fn)
      | Latch { slot; out; d; g; transparent_high } ->
          let gv = v.(g) in
          let transparent = if transparent_high then gv else not gv in
          let x =
            if transparent then begin
              let dv = v.(d) in
              st.latch_held.(slot) <- dv;
              st.latch_set.(slot) <- true;
              dv
            end
            else if st.latch_set.(slot) then st.latch_held.(slot)
            else v.(out)
          in
          update st out x
      | Tri_group { out; drivers } -> drive_bus st out false false drivers
    in
    if c then changed := true
  done;
  !changed

let settle st =
  let rec loop n =
    if comb_pass st then
      if n >= st.limit then fail "netlist %s failed to settle" st.name
      else loop (n + 1)
  in
  loop 0

let update_registers st =
  let v = st.values and n = Array.length st.regs in
  let rounds = n + 2 in
  let rec loop round =
    settle st;
    let any_change = ref false in
    for k = 0 to n - 1 do
      let f = st.regs.(k) in
      let clk = v.(f.ck) in
      let prev_clk = if st.clock_seen.(f.slot) then st.prev_clock.(f.slot) else clk in
      let fired = (not prev_clk) && clk in
      let current = v.(f.out) in
      let next =
        (* reset wins over set, matching the DFF_SR cell *)
        if f.r >= 0 && v.(f.r) then false
        else if f.s >= 0 && v.(f.s) then true
        else if fired then v.(f.d)
        else current
      in
      st.clocks.(k) <- clk;
      st.nexts.(k) <- next;
      if next <> current then any_change := true
    done;
    for k = 0 to n - 1 do
      let f = st.regs.(k) in
      st.clock_seen.(f.slot) <- true;
      st.prev_clock.(f.slot) <- st.clocks.(k);
      set st f.out st.nexts.(k)
    done;
    if !any_change && round < rounds then loop (round + 1) else settle st
  in
  loop 0

let step st inputs =
  List.iter
    (fun (n, v) ->
      match Hashtbl.find_opt st.inputs n with
      | Some i -> set st i v
      | None -> fail "Gate_sim.step: %s is not an input of %s" n st.name)
    inputs;
  update_registers st

let outputs st = Array.fold_right (fun (o, i) acc -> (o, st.values.(i)) :: acc) st.outputs []

let output st k = st.values.(snd st.outputs.(k))

let poke st net v =
  match Hashtbl.find_opt st.ids net with
  | Some i -> set st i v
  | None -> Hashtbl.replace st.others net v

(* ------------------------------------------------------------------ *)
(* Word mode                                                           *)
(* ------------------------------------------------------------------ *)

(* A netlist of combinational cells only, with no tri-state group, no
   pin that raises, each net driven at most once, no input driven, no
   constant driven other than by its own tie cell, and no cycle, settles
   to a function of its present inputs alone. Its cells are evaluated
   once each, in [order], over [lanes]: one int per net whose lane l
   holds the net's value under the l-th of up to 63 input vectors. *)
type words = { sim : t; order : (int * expr) array; lanes : int array }

exception Not_words

let words st =
  let build () =
    if st.regs <> [||] then raise Not_words;
    (* a tie cell on its own constant net writes what the net holds *)
    let cells =
      Array.of_list
        (List.filter_map
           (function
             | Comb { out; fn } when out > const1 -> Some (out, fn)
             | Comb { out; fn = Const b } when b = (out = const1) -> None
             | Comb _ | Latch _ | Tri_group _ -> raise Not_words)
           (Array.to_list st.elements))
    in
    (* driver.(net): the cell driving [net]; -1 for none, -2 for an input
       or a constant *)
    let driver = Array.make (Array.length st.values) (-1) in
    driver.(0) <- -2;
    driver.(const1) <- -2;
    Hashtbl.iter (fun _ i -> driver.(i) <- -2) st.inputs;
    Array.iteri
      (fun k (out, _) ->
        if driver.(out) <> -1 then raise Not_words;
        driver.(out) <- k)
      cells;
    let rec reads acc = function
      | Const _ -> acc
      | Net i -> i :: acc
      | Not e -> reads acc e
      | And es | Or es -> List.fold_left reads acc es
      | Xor (a, b) | Xnor (a, b) -> reads (reads acc a) b
      | Raise _ -> raise Not_words
    in
    (* depth first; mark: 0 unvisited, 1 on the current path, 2 placed *)
    let mark = Array.make (Array.length cells) 0 and order = ref [] in
    let rec visit k =
      if mark.(k) = 1 then raise Not_words;
      if mark.(k) = 0 then begin
        mark.(k) <- 1;
        List.iter
          (fun i -> if driver.(i) >= 0 then visit driver.(i))
          (reads [] (snd cells.(k)));
        mark.(k) <- 2;
        order := cells.(k) :: !order
      end
    in
    Array.iteri (fun k _ -> visit k) cells;
    let lanes = Array.make (Array.length st.values) 0 in
    lanes.(const1) <- -1;
    { sim = st; order = Array.of_list (List.rev !order); lanes }
  in
  match build () with w -> Some w | exception Not_words -> None

let rec eval_word w e =
  match e with
  | Const b -> if b then -1 else 0
  | Net i -> Array.unsafe_get w i
  | Raise msg -> raise (Sim_error msg)
  | Not e -> lnot (eval_word w e)
  | And es -> all_words w (-1) es
  | Or es -> any_words w 0 es
  | Xor (a, b) -> eval_word w a lxor eval_word w b
  | Xnor (a, b) -> lnot (eval_word w a lxor eval_word w b)

and all_words w acc = function
  | [] -> acc
  | e :: es -> all_words w (acc land eval_word w e) es

and any_words w acc = function
  | [] -> acc
  | e :: es -> any_words w (acc lor eval_word w e) es

let step_words ws inputs =
  List.iter
    (fun (n, x) ->
      match Hashtbl.find_opt ws.sim.inputs n with
      | Some i -> if i > const1 then ws.lanes.(i) <- x
      | None -> fail "Gate_sim.step_words: %s is not an input of %s" n ws.sim.name)
    inputs;
  Array.iter (fun (out, fn) -> ws.lanes.(out) <- eval_word ws.lanes fn) ws.order

let output_words ws = Array.map (fun (_, i) -> ws.lanes.(i)) ws.sim.outputs
