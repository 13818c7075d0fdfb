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
     iterating register evaluation until quiescent.

   [create] numbers every net of the design and compiles each equation
   once into a tree over net numbers; values, clock history and latch
   state live in arrays indexed by net. [words] orders the equations of
   a purely combinational design once more, for evaluation 63 input
   vectors at a time. *)

open Flat

exception Unstable of string
(* Raised when combinational feedback fails to reach a fixpoint. *)

(* A compiled expression. Buffers, Schmitt triggers and delays are
   transparent and compile away; a wired-or keeps its drivers apart
   because only a driver that is itself a tri-state can be disabled. *)
type expr =
  | Const of bool
  | Net of int
  | Not of expr
  | And of expr list
  | Or of expr list
  | Xor of expr * expr
  | Xnor of expr * expr
  | Tri of { data : expr; enable : expr }
  | Wor of driver list

and driver = Drive of { data : expr; enable : expr } | Plain of expr

type element =
  | Comb of { target : int; rhs : expr }
  | Latch of { target : int; data : expr; transparent_high : bool; gate : expr }

type reg = {
  rtarget : int;
  rdata : expr;
  rrising : bool;
  rclock : expr;
  rasyncs : (expr * bool) list;  (* condition, forced value; priority order *)
}

type t = {
  name : string;
  ids : (string, int) Hashtbl.t;       (* net name -> number *)
  inputs : (string, int) Hashtbl.t;    (* primary input -> number *)
  outputs : (string * int) array;
  elements : element array;            (* Comb and Latch, in equation order *)
  regs : reg array;                    (* Ff, in equation order *)
  limit : int;                         (* settle passes before Unstable *)
  values : bool array;                 (* current net values *)
  clock_seen : bool array;             (* by FF target: clock observed *)
  prev_clock : bool array;             (* by FF target: clock seen last *)
  latch_held : bool array;             (* by latch target: value held *)
  latch_set : bool array;              (* by latch target: a value was held *)
  others : (string, bool) Hashtbl.t;   (* poked names outside the design *)
  clocks : bool array;                 (* per reg: this round's clock *)
  nexts : bool array;                  (* per reg: this round's next value *)
}

let value st net =
  match Hashtbl.find_opt st.ids net with
  | Some i -> st.values.(i)
  | None -> ( match Hashtbl.find_opt st.others net with Some v -> v | None -> false)

(* Evaluate a compiled expression. [prev] is the present value of the
   equation's target, used by disabled tri-states (bus keeper
   behaviour) and wired-or resolution. *)
let rec eval v prev e =
  match e with
  | Const b -> b
  | Net i -> Array.unsafe_get v i
  | Not e -> not (eval v prev e)
  | And es -> all v prev es
  | Or es -> any v prev es
  | Xor (a, b) -> eval v prev a <> eval v prev b
  | Xnor (a, b) -> eval v prev a = eval v prev b
  | Tri { data; enable } -> if eval v prev enable then eval v prev data else prev
  | Wor ds -> wired_or v prev false false ds

and all v prev = function [] -> true | e :: es -> eval v prev e && all v prev es

and any v prev = function [] -> false | e :: es -> eval v prev e || any v prev es

(* Drivers that are enabled tri-states or plain signals OR together; if
   every driver is a disabled tri-state the bus keeps its previous
   value. [active]: some driver so far was on; [acc]: their OR. *)
and wired_or v prev active acc = function
  | [] -> if active then acc else prev
  | Drive { data; enable } :: ds ->
      if eval v prev enable then wired_or v prev true (eval v prev data || acc) ds
      else wired_or v prev active acc ds
  | Plain e :: ds -> wired_or v prev true (eval v prev e || acc) ds

(* One pass over combinational and latch equations; returns true if any
   net changed. *)
let comb_pass st =
  let v = st.values in
  let changed = ref false in
  for k = 0 to Array.length st.elements - 1 do
    match st.elements.(k) with
    | Comb { target; rhs } ->
        let prev = v.(target) in
        let x = eval v prev rhs in
        if x <> prev then begin
          v.(target) <- x;
          changed := true
        end
    | Latch { target; data; transparent_high; gate } ->
        let prev = v.(target) in
        let g = eval v prev gate in
        let transparent = if transparent_high then g else not g in
        let x =
          if transparent then begin
            let d = eval v prev data in
            st.latch_held.(target) <- d;
            st.latch_set.(target) <- true;
            d
          end
          else if st.latch_set.(target) then st.latch_held.(target)
          else prev
        in
        if x <> prev then begin
          v.(target) <- x;
          changed := true
        end
  done;
  !changed

let settle st =
  let rec loop n =
    if comb_pass st then
      if n >= st.limit then raise (Unstable st.name) else loop (n + 1)
  in
  loop 0

(* Apply asynchronous conditions; returns the forced value if any
   condition holds (first match wins, as the spec order implies). *)
let async_force v asyncs =
  List.find_map (fun (cond, x) -> if eval v false cond then Some x else None) asyncs

(* Evaluate registers until no register output changes. Each round:
   detect edges against the remembered clock values, sample data,
   apply async overrides, commit simultaneously, re-settle. *)
let update_registers st =
  let v = st.values and n = Array.length st.regs in
  let rounds = n + 2 in
  let rec loop round =
    settle st;
    let any_change = ref false in
    for k = 0 to n - 1 do
      let f = st.regs.(k) in
      let clk = eval v false f.rclock in
      let prev_clk =
        (* first observation: no edge *)
        if st.clock_seen.(f.rtarget) then st.prev_clock.(f.rtarget) else clk
      in
      let fired =
        if f.rrising then (not prev_clk) && clk else prev_clk && not clk
      in
      let current = v.(f.rtarget) in
      let next =
        match async_force v f.rasyncs with
        | Some x -> x
        | None -> if fired then eval v current f.rdata else current
      in
      st.clocks.(k) <- clk;
      st.nexts.(k) <- next;
      if next <> current then any_change := true
    done;
    for k = 0 to n - 1 do
      let target = st.regs.(k).rtarget in
      st.clock_seen.(target) <- true;
      st.prev_clock.(target) <- st.clocks.(k);
      v.(target) <- st.nexts.(k)
    done;
    if !any_change && round < rounds then loop (round + 1) else settle st
  in
  loop 0

let create flat =
  let ids = Hashtbl.create 64 in
  let id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids name i;
        i
  in
  let rec compile = function
    | Fconst b -> Const b
    | Fnet n -> Net (id n)
    | Fnot e -> Not (compile e)
    | Fand es -> And (List.map compile es)
    | For_ es -> Or (List.map compile es)
    | Fxor (a, b) -> Xor (compile a, compile b)
    | Fxnor (a, b) -> Xnor (compile a, compile b)
    | Fbuf e | Fschmitt e | Fdelay (e, _) -> compile e
    | Ftri { data; enable } -> Tri { data = compile data; enable = compile enable }
    | Fwor es ->
        Wor
          (List.map
             (function
               | Ftri { data; enable } ->
                   Drive { data = compile data; enable = compile enable }
               | e -> Plain (compile e))
             es)
  in
  let inputs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inputs n (id n)) flat.finputs;
  let outputs = Array.of_list (List.map (fun n -> (n, id n)) flat.foutputs) in
  let elements = ref [] and regs = ref [] in
  List.iter
    (function
      | Flat.Comb { target; rhs } ->
          elements := Comb { target = id target; rhs = compile rhs } :: !elements
      | Flat.Latch { target; data; transparent_high; gate } ->
          elements :=
            Latch
              { target = id target; data = compile data; transparent_high;
                gate = compile gate }
            :: !elements
      | Flat.Ff { target; data; rising; clock; asyncs } ->
          regs :=
            { rtarget = id target; rdata = compile data; rrising = rising;
              rclock = compile clock;
              rasyncs = List.map (fun a -> (compile a.cond, a.value)) asyncs }
            :: !regs)
    flat.fequations;
  let nets = Hashtbl.length ids and nregs = List.length !regs in
  { name = flat.fname;
    ids;
    inputs;
    outputs;
    elements = Array.of_list (List.rev !elements);
    regs = Array.of_list (List.rev !regs);
    limit = List.length flat.fequations + 8;
    values = Array.make nets false;
    clock_seen = Array.make nets false;
    prev_clock = Array.make nets false;
    latch_held = Array.make nets false;
    latch_set = Array.make nets false;
    others = Hashtbl.create 1;
    clocks = Array.make nregs false;
    nexts = Array.make nregs false }

(* Set primary inputs without clocking consequences being lost: the
   caller is expected to drive the clock like a testbench, e.g.
   [step st [("CLK", false); ...]; step st [("CLK", true); ...]]. *)
let step st inputs =
  List.iter
    (fun (n, v) ->
      match Hashtbl.find_opt st.inputs n with
      | Some i -> st.values.(i) <- v
      | None -> invalid_arg (Printf.sprintf "Interp.step: %s is not an input" n))
    inputs;
  update_registers st

(* Force a register output (e.g. to establish a known initial state). *)
let poke st net v =
  match Hashtbl.find_opt st.ids net with
  | Some i -> st.values.(i) <- v
  | None -> Hashtbl.replace st.others net v

let outputs st = Array.fold_right (fun (o, i) acc -> (o, st.values.(i)) :: acc) st.outputs []

let output st k = st.values.(snd st.outputs.(k))

(* ------------------------------------------------------------------ *)
(* Word mode                                                           *)
(* ------------------------------------------------------------------ *)

(* A design of combinational equations only, with no tri-state or
   wired-or, each net driven at most once, no input driven and no
   cycle, settles to a function of its present inputs alone. Its
   equations are evaluated once each, in [order], over [lanes]: one int
   per net whose lane l holds the net's value under the l-th of up to
   63 input vectors. *)
type words = { sim : t; order : (int * expr) array; lanes : int array }

exception Not_words

let words st =
  let build () =
    if st.regs <> [||] then raise Not_words;
    let combs =
      Array.map
        (function
          | Comb { target; rhs } -> (target, rhs) | Latch _ -> raise Not_words)
        st.elements
    in
    (* driver.(net): the equation driving [net]; -1 for none, -2 for an input *)
    let driver = Array.make (Array.length st.values) (-1) in
    Hashtbl.iter (fun _ i -> driver.(i) <- -2) st.inputs;
    Array.iteri
      (fun k (target, _) ->
        if driver.(target) <> -1 then raise Not_words;
        driver.(target) <- k)
      combs;
    let rec reads acc = function
      | Const _ -> acc
      | Net i -> i :: acc
      | Not e -> reads acc e
      | And es | Or es -> List.fold_left reads acc es
      | Xor (a, b) | Xnor (a, b) -> reads (reads acc a) b
      | Tri _ | Wor _ -> raise Not_words
    in
    (* depth first; mark: 0 unvisited, 1 on the current path, 2 placed *)
    let mark = Array.make (Array.length combs) 0 and order = ref [] in
    let rec visit k =
      if mark.(k) = 1 then raise Not_words;
      if mark.(k) = 0 then begin
        mark.(k) <- 1;
        List.iter
          (fun i -> if driver.(i) >= 0 then visit driver.(i))
          (reads [] (snd combs.(k)));
        mark.(k) <- 2;
        order := combs.(k) :: !order
      end
    in
    Array.iteri (fun k _ -> visit k) combs;
    { sim = st; order = Array.of_list (List.rev !order);
      lanes = Array.make (Array.length st.values) 0 }
  in
  match build () with w -> Some w | exception Not_words -> None

let rec eval_word w e =
  match e with
  | Const b -> if b then -1 else 0
  | Net i -> Array.unsafe_get w i
  | Not e -> lnot (eval_word w e)
  | And es -> all_words w (-1) es
  | Or es -> any_words w 0 es
  | Xor (a, b) -> eval_word w a lxor eval_word w b
  | Xnor (a, b) -> lnot (eval_word w a lxor eval_word w b)
  | Tri _ | Wor _ -> invalid_arg "Interp: interface operator in word mode"

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
      | Some i -> ws.lanes.(i) <- x
      | None ->
          invalid_arg (Printf.sprintf "Interp.step_words: %s is not an input" n))
    inputs;
  Array.iter (fun (target, rhs) -> ws.lanes.(target) <- eval_word ws.lanes rhs) ws.order

let output_words ws = Array.map (fun (_, i) -> ws.lanes.(i)) ws.sim.outputs
