(* The two-valued simulation machine.

   Cycle-oriented semantics used as the specification against which
   synthesized gate netlists are checked, and to run those netlists:

   - combinational equations settle to a fixpoint;
   - latches are transparent at their active gate level and hold
     otherwise;
   - flip-flops sample their data input when their clock expression
     produces the configured edge, with asynchronous set/reset
     conditions taking priority;
   - rippled clocks (one register clocking another) are handled by
     iterating register evaluation until quiescent.

   A design numbers every net and holds each equation compiled once
   into a tree over net numbers; [compile] builds one from flat IIF,
   Gate_sim's front end from a cell netlist. Values, clock history and
   latch state live in arrays. [words] orders the equations of a purely
   combinational design once more, for evaluation 63 input vectors at a
   time. *)

exception Unstable of string
(* Raised when a flat design's combinational feedback fails to reach a
   fixpoint. *)

(* A compiled expression. Buffers, Schmitt triggers and delays are
   transparent and compile away; a wired-or keeps its drivers apart
   because only a driver that is itself a tri-state can be disabled. *)
type expr =
  | Const of bool
  | Net of int
  | Raise of exn
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
  | Latch of {
      slot : int;
      target : int;
      data : expr;
      transparent_high : bool;
      gate : expr;
    }

type reg = {
  rslot : int;
  rtarget : int;
  rdata : expr;
  rrising : bool;
  rclock : expr;
  rasyncs : (expr * bool) list;  (* condition, forced value; priority order *)
}

type design = {
  name : string;
  ids : (string, int) Hashtbl.t;       (* net name -> number *)
  inputs : (string, int) Hashtbl.t;    (* primary input -> number *)
  outputs : (string * int) array;
  elements : element array;            (* Comb and Latch, settled in order *)
  regs : reg array;
  slots : int;                         (* clock history and latch state *)
  unstable : exn;
  not_input : string -> string -> exn;
}

type t = {
  design : design;
  limit : int;                         (* settle passes before [unstable] *)
  values : bool array;                 (* current net values *)
  clock_seen : bool array;             (* by slot: clock observed *)
  prev_clock : bool array;             (* by slot: clock seen last *)
  latch_held : bool array;             (* by slot: value held *)
  latch_set : bool array;              (* by slot: a value was held *)
  others : (string, bool) Hashtbl.t;   (* poked names outside the design *)
  clocks : bool array;                 (* per reg: this round's clock *)
  nexts : bool array;                  (* per reg: this round's next value *)
}

(* Nets 0 and 1 are "$const0" and "$const1": they read as constants
   and ignore writes. *)
let const0 = 0
let const1 = 1

(* The number of [name] in [tbl], numbering names as they first occur. *)
let intern tbl name =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl name i;
      i

let numbering () =
  let ids = Hashtbl.create 64 in
  ignore (intern ids "$const0");
  ignore (intern ids "$const1");
  ids

let settle_limit d = Array.length d.elements + Array.length d.regs + 8

let set st net v = if net > const1 then st.values.(net) <- v

let value st net =
  match Hashtbl.find_opt st.design.ids net with
  | Some i -> st.values.(i)
  | None -> ( match Hashtbl.find_opt st.others net with Some v -> v | None -> false)

(* Evaluate a compiled expression. [prev] is the present value of the
   equation's target, used by disabled tri-states (bus keeper
   behaviour) and wired-or resolution. AND and OR stop at their first
   controlling input, and XOR/XNOR read their right operand first,
   which decides the [Raise] a partly unconnected cell reaches. *)
let rec eval v prev e =
  match e with
  | Const b -> b
  | Net i -> Array.unsafe_get v i
  | Raise exn -> raise exn
  | Not e -> not (eval v prev e)
  | And es -> all v prev es
  | Or es -> any v prev es
  | Xor (a, b) ->
      let y = eval v prev b in
      eval v prev a <> y
  | Xnor (a, b) ->
      let y = eval v prev b in
      eval v prev a = y
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
   net changed, or would have for a constant net. *)
let comb_pass st =
  let v = st.values in
  let changed = ref false in
  for k = 0 to Array.length st.design.elements - 1 do
    match st.design.elements.(k) with
    | Comb { target; rhs } ->
        let prev = v.(target) in
        let x = eval v prev rhs in
        if x <> prev then begin
          set st target x;
          changed := true
        end
    | Latch { slot; target; data; transparent_high; gate } ->
        let prev = v.(target) in
        let x =
          if eval v prev gate = transparent_high then begin
            let d = eval v prev data in
            st.latch_held.(slot) <- d;
            st.latch_set.(slot) <- true;
            d
          end
          else if st.latch_set.(slot) then st.latch_held.(slot)
          else prev
        in
        if x <> prev then begin
          set st target x;
          changed := true
        end
  done;
  !changed

let settle st =
  let rec loop n =
    if comb_pass st then if n >= st.limit then raise st.design.unstable else loop (n + 1)
  in
  loop 0

(* A register's next value: that of the first asynchronous condition
   that holds, else the data on a clock edge, else what it holds. *)
let rec next_value v current fired data = function
  | (cond, x) :: asyncs ->
      if eval v false cond then x else next_value v current fired data asyncs
  | [] -> if fired then eval v current data else current

(* Evaluate registers until no register output changes. Each round:
   detect edges against the remembered clock values, sample data,
   apply async overrides, commit simultaneously, re-settle. *)
let update_registers st =
  let v = st.values and regs = st.design.regs in
  let n = Array.length regs in
  let rounds = n + 2 in
  let rec loop round =
    settle st;
    let any_change = ref false in
    for k = 0 to n - 1 do
      let f = regs.(k) in
      let clk = eval v false f.rclock in
      let prev_clk =
        (* first observation: no edge *)
        if st.clock_seen.(f.rslot) then st.prev_clock.(f.rslot) else clk
      in
      let fired = if f.rrising then (not prev_clk) && clk else prev_clk && not clk in
      let current = v.(f.rtarget) in
      let next = next_value v current fired f.rdata f.rasyncs in
      st.clocks.(k) <- clk;
      st.nexts.(k) <- next;
      if next <> current then any_change := true
    done;
    for k = 0 to n - 1 do
      let f = regs.(k) in
      st.clock_seen.(f.rslot) <- true;
      st.prev_clock.(f.rslot) <- st.clocks.(k);
      set st f.rtarget st.nexts.(k)
    done;
    if !any_change && round < rounds then loop (round + 1) else settle st
  in
  loop 0

let compile (flat : Flat.t) =
  let ids = numbering () in
  let id = intern ids in
  let rec expr = function
    | Flat.Fconst b -> Const b
    | Flat.Fnet n -> Net (id n)
    | Flat.Fnot e -> Not (expr e)
    | Flat.Fand es -> And (List.map expr es)
    | Flat.For_ es -> Or (List.map expr es)
    | Flat.Fxor (a, b) -> Xor (expr a, expr b)
    | Flat.Fxnor (a, b) -> Xnor (expr a, expr b)
    | Flat.Fbuf e | Flat.Fschmitt e | Flat.Fdelay (e, _) -> expr e
    | Flat.Ftri { data; enable } -> Tri { data = expr data; enable = expr enable }
    | Flat.Fwor es ->
        Wor
          (List.map
             (function
               | Flat.Ftri { data; enable } ->
                   Drive { data = expr data; enable = expr enable }
               | e -> Plain (expr e))
             es)
  in
  let inputs = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace inputs n (id n)) flat.finputs;
  let outputs = Array.of_list (List.map (fun n -> (n, id n)) flat.foutputs) in
  let elements = ref [] and regs = ref [] in
  List.iter
    (function
      | Flat.Comb { target; rhs } ->
          elements := Comb { target = id target; rhs = expr rhs } :: !elements
      | Flat.Latch { target; data; transparent_high; gate } ->
          let target = id target in
          elements :=
            Latch
              { slot = target; target; data = expr data; transparent_high;
                gate = expr gate }
            :: !elements
      | Flat.Ff { target; data; rising; clock; asyncs } ->
          let target = id target in
          regs :=
            { rslot = target; rtarget = target; rdata = expr data; rrising = rising;
              rclock = expr clock;
              rasyncs = List.map (fun (a : Flat.async) -> (expr a.cond, a.value)) asyncs }
            :: !regs)
    flat.fequations;
  { name = flat.fname;
    ids;
    inputs;
    outputs;
    elements = Array.of_list (List.rev !elements);
    regs = Array.of_list (List.rev !regs);
    slots = Hashtbl.length ids;
    unstable = Unstable flat.fname;
    not_input =
      (fun op n ->
        Invalid_argument (Printf.sprintf "Interp.%s: %s is not an input" op n)) }

let of_design d =
  let nets = Hashtbl.length d.ids and nregs = Array.length d.regs in
  let values = Array.make nets false in
  values.(const1) <- true;
  { design = d;
    limit = settle_limit d;
    values;
    clock_seen = Array.make d.slots false;
    prev_clock = Array.make d.slots false;
    latch_held = Array.make d.slots false;
    latch_set = Array.make d.slots false;
    others = Hashtbl.create 1;
    clocks = Array.make nregs false;
    nexts = Array.make nregs false }

let create flat = of_design (compile flat)

(* Set primary inputs without clocking consequences being lost: the
   caller is expected to drive the clock like a testbench, e.g.
   [step st [("CLK", false); ...]; step st [("CLK", true); ...]]. *)
let step st inputs =
  List.iter
    (fun (n, v) ->
      match Hashtbl.find_opt st.design.inputs n with
      | Some i -> set st i v
      | None -> raise (st.design.not_input "step" n))
    inputs;
  update_registers st

(* Force a register output (e.g. to establish a known initial state). *)
let poke st net v =
  match Hashtbl.find_opt st.design.ids net with
  | Some i -> set st i v
  | None -> Hashtbl.replace st.others net v

let outputs st =
  Array.fold_right (fun (o, i) acc -> (o, st.values.(i)) :: acc) st.design.outputs []

let output st k = st.values.(snd st.design.outputs.(k))

(* ------------------------------------------------------------------ *)
(* Word mode                                                           *)
(* ------------------------------------------------------------------ *)

(* A design of combinational equations only, with no tri-state,
   wired-or or [Raise], each net driven at most once, no input driven,
   no constant driven other than by its own value, and no cycle,
   settles to a function of its present inputs alone. Its equations are
   evaluated once each, in [order], over [lanes]: one int per net whose
   lane l holds the net's value under the l-th of up to 63 input
   vectors. *)
type words = { wdesign : design; order : (int * expr) array; lanes : int array }

exception Not_words

let words st =
  let d = st.design in
  let build () =
    if Array.length d.regs > 0 then raise Not_words;
    (* a constant net driven by its own value (a tie cell) is left out *)
    let combs =
      Array.of_list
        (List.filter_map
           (function
             | Comb { target; rhs } when target > const1 -> Some (target, rhs)
             | Comb { target; rhs = Const b } when b = (target = const1) -> None
             | Comb _ | Latch _ -> raise Not_words)
           (Array.to_list d.elements))
    in
    (* driver.(net): the equation driving [net]; -1 for none, -2 for an
       input or a constant *)
    let driver = Array.make (Array.length st.values) (-1) in
    driver.(const0) <- -2;
    driver.(const1) <- -2;
    Hashtbl.iter (fun _ i -> driver.(i) <- -2) d.inputs;
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
      | Raise _ | Tri _ | Wor _ -> raise Not_words
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
    let lanes = Array.make (Array.length st.values) 0 in
    lanes.(const1) <- -1;
    { wdesign = d; order = Array.of_list (List.rev !order); lanes }
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
  | Raise exn -> raise exn
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
      match Hashtbl.find_opt ws.wdesign.inputs n with
      | Some i -> if i > const1 then ws.lanes.(i) <- x
      | None -> raise (ws.wdesign.not_input "step_words" n))
    inputs;
  Array.iter (fun (target, rhs) -> ws.lanes.(target) <- eval_word ws.lanes rhs) ws.order

let output_words ws = Array.map (fun (_, i) -> ws.lanes.(i)) ws.wdesign.outputs
