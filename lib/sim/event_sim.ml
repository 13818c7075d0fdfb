(* Event-driven timing simulation.

   Where the two-valued machine evaluates to a stable state
   (zero-delay), this simulator runs the netlist through real time:
   every cell contributes its library delay (the §4.4.1 X/Y/Z model),
   transitions propagate as events on an event wheel, and inertial
   filtering cancels pulses shorter than a gate's delay. It measures
   what the static analyzer only bounds — actual settling time after an
   input vector — and counts glitches, which the hazard-free STA cannot
   see.

   It runs on the form Gate_sim's front end compiles a netlist into:
   values, readers and pending events are indexed by net number, and
   every element evaluates through Interp.eval. Two-valued; state
   elements start at 0 like the other simulators. *)

open Icdb_iif
open Icdb_netlist
open Icdb_logic

exception Event_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Event_error s)) fmt

(* What re-evaluates when a net it reads changes. *)
type reader = Element of Interp.element | Reg of Interp.reg

type t = {
  design : Interp.design;
  names : string array;                        (* net -> name *)
  values : bool array;                         (* by net *)
  readers : reader list array;                 (* by net *)
  delays : float array;                        (* by net: its driver's delay *)
  pending : (float * bool) option array;       (* by net: scheduled event *)
  mutable queue : (float * string * int * bool) list;
      (* time, net name, net, value; sorted by time, then net name *)
  mutable now : float;
  mutable transitions : int;
  prev_clock : bool array;                     (* by register slot *)
}

let set st net v = if net > Interp.const1 then st.values.(net) <- v

let value st net =
  match Hashtbl.find_opt st.design.Interp.ids net with
  | Some i -> st.values.(i)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Each net's delay under its static load: that of the cell driving it;
   on a bus, that of its last tri-state driver. *)
let delays (nl : Netlist.t) ids =
  let fanouts = Netlist.fanouts nl ~is_output_pin:Celllib.is_output_pin in
  let cell (i : Netlist.instance) = Option.get (Celllib.find i.cell) in
  (* per-net load for the delay model *)
  let load_of net =
    match Hashtbl.find_opt fanouts net with
    | None -> 0.0
    | Some rs ->
        List.fold_left
          (fun acc ((i : Netlist.instance), _) ->
            acc +. Celllib.sized_input_load (cell i) i.size)
          0.0 rs
  in
  let fanout_of net =
    match Hashtbl.find_opt fanouts net with
    | Some rs -> List.length rs
    | None -> if List.mem net nl.outputs then 1 else 0
  in
  let delays = Array.make (Hashtbl.length ids) 0.0 in
  let set_delay (i : Netlist.instance) =
    let c = cell i in
    let out = Netlist.pin_net_exn i c.Celllib.output in
    let d = Celllib.delay c ~size:i.size ~load:(load_of out) ~fanout:(fanout_of out) in
    delays.(Hashtbl.find ids out) <- Float.max d 0.01
  in
  let tris, others =
    List.partition
      (fun (i : Netlist.instance) -> (cell i).Celllib.kind = Celllib.Tri_cell)
      nl.instances
  in
  List.iter set_delay others;
  List.iter set_delay tris;
  delays

(* The nets [e] reads. *)
let rec reads acc = function
  | Interp.Const _ | Interp.Raise _ -> acc
  | Interp.Net i -> i :: acc
  | Interp.Not e -> reads acc e
  | Interp.And es | Interp.Or es -> List.fold_left reads acc es
  | Interp.Xor (a, b) | Interp.Xnor (a, b) | Interp.Tri { data = a; enable = b } ->
      reads (reads acc a) b
  | Interp.Wor ds ->
      List.fold_left
        (fun acc -> function
          | Interp.Drive { data; enable } -> reads (reads acc data) enable
          | Interp.Plain e -> reads acc e)
        acc ds

(* The first asynchronous condition that holds forces its value. *)
let forced v (f : Interp.reg) =
  List.find_map
    (fun (cond, x) -> if Interp.eval v false cond then Some x else None)
    f.rasyncs

let create nl =
  let design = Gate_sim.compile nl in
  let ids = design.Interp.ids in
  let nets = Hashtbl.length ids in
  let names = Array.make nets "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) ids;
  let readers = Array.make nets [] in
  let add r es =
    List.iter (fun i -> readers.(i) <- r :: readers.(i)) (List.fold_left reads [] es)
  in
  Array.iter
    (fun el ->
      match el with
      | Interp.Comb { rhs; _ } -> add (Element el) [ rhs ]
      | Interp.Latch { data; gate; _ } -> add (Element el) [ data; gate ])
    design.Interp.elements;
  Array.iter
    (fun (f : Interp.reg) -> add (Reg f) (f.rdata :: f.rclock :: List.map fst f.rasyncs))
    design.Interp.regs;
  let values = Array.make nets false in
  values.(Interp.const1) <- true;
  let st =
    { design;
      names;
      values;
      readers;
      delays = delays nl ids;
      pending = Array.make nets None;
      queue = [];
      now = 0.0;
      transitions = 0;
      prev_clock = Array.make design.Interp.slots false }
  in
  (* zero-delay settle of the initial state: gates whose inputs never
     change must still start at their evaluated value (a NAND of two
     zeros is 1 at time 0, not 0), and a register whose set or reset
     already holds starts forced *)
  let pass () =
    let changed = ref false in
    let update net x =
      if values.(net) <> x then begin
        set st net x;
        changed := true
      end
    in
    Array.iter
      (function
        | Interp.Comb { target; rhs } ->
            update target (Interp.eval values values.(target) rhs)
        | Interp.Latch { target; data; transparent_high; gate; _ } ->
            if Interp.eval values false gate = transparent_high then
              update target (Interp.eval values false data))
      design.Interp.elements;
    Array.iter
      (fun (f : Interp.reg) -> Option.iter (update f.rtarget) (forced values f))
      design.Interp.regs;
    !changed
  in
  let limit = Interp.settle_limit design in
  let rec settle n = if n < limit && pass () then settle (n + 1) in
  settle 0;
  (* each clock starts observed at its settled value, so the first
     change that rises is a real edge *)
  Array.iter
    (fun (f : Interp.reg) -> st.prev_clock.(f.rslot) <- Interp.eval values false f.rclock)
    design.Interp.regs;
  st

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* Inertial scheduling: at most one pending transition per net; a new
   target value replaces it (cancelling sub-delay pulses). *)
let schedule st net x =
  match st.pending.(net) with
  | Some (_, px) when px = x -> ()      (* already heading there *)
  | _ ->
      st.pending.(net) <- None;         (* cancel the stale pulse *)
      if x <> st.values.(net) then begin
        let time = st.now +. st.delays.(net) in
        st.pending.(net) <- Some (time, x);
        st.queue <- List.merge compare [ (time, st.names.(net), net, x) ] st.queue
      end

(* Where [net] is heading: its pending value, else its present one. A
   bus with no driver enabled keeps it, so it schedules nothing. *)
let heading st net =
  match st.pending.(net) with Some (_, x) -> x | None -> st.values.(net)

(* React to a change on a net: re-evaluate every reader. A register
   sees an edge when its clock differs from the one it saw last. *)
let excite st net =
  let v = st.values in
  List.iter
    (function
      | Element (Interp.Comb { target; rhs }) ->
          schedule st target (Interp.eval v (heading st target) rhs)
      | Element (Interp.Latch { target; data; transparent_high; gate; _ }) ->
          if Interp.eval v false gate = transparent_high then
            schedule st target (Interp.eval v false data)
      | Reg f -> (
          let clk = Interp.eval v false f.rclock in
          let prev = st.prev_clock.(f.rslot) in
          st.prev_clock.(f.rslot) <- clk;
          match forced v f with
          | Some x -> schedule st f.rtarget x
          | None ->
              if (if f.rrising then (not prev) && clk else prev && not clk) then
                (* the edge samples D as of now *)
                schedule st f.rtarget (Interp.eval v false f.rdata)))
    st.readers.(net)

let max_events = 200000

(* Run the wheel until quiescence; returns the time of the last event. *)
let rec run st last events =
  match st.queue with
  | [] -> last
  | (time, _, net, x) :: rest -> (
      st.queue <- rest;
      match st.pending.(net) with
      | Some (pt, px) when pt = time && px = x ->
          st.pending.(net) <- None;
          if events >= max_events then
            fail "event limit exceeded (oscillation in %s?)" st.design.Interp.name;
          st.now <- time;
          if st.values.(net) <> x then begin
            set st net x;
            st.transitions <- st.transitions + 1;
            excite st net
          end;
          run st time (events + 1)
      | _ -> run st last events (* stale entry: lazily discarded *))

(* Apply an input vector at the current time and run to quiescence.
   Returns (settling delay, transitions caused). *)
let apply st inputs =
  let t0 = st.now in
  let trans0 = st.transitions in
  List.iter
    (fun (n, x) ->
      match Hashtbl.find_opt st.design.Interp.inputs n with
      | None -> fail "Event_sim.apply: %s is not an input" n
      | Some i ->
          if st.values.(i) <> x then begin
            set st i x;
            st.transitions <- st.transitions + 1;
            excite st i
          end)
    inputs;
  let t_end = run st st.now 0 in
  (* advance time so successive vectors do not overlap *)
  st.now <- Float.max st.now t_end;
  (t_end -. t0, st.transitions - trans0)

let outputs st =
  Array.fold_right
    (fun (o, i) acc -> (o, st.values.(i)) :: acc)
    st.design.Interp.outputs []

let transitions st = st.transitions

let now st = st.now
