(* Static timing analysis over cell netlists.

   Implements the paper's delay estimator (§4.4.1): each cell carries
   X (delay per unit transistor load), Y (intrinsic) and Z (per fanout);
   the delay of an output is Trans_no*X + Y + fanout_no*Z and a path is
   the sum of its cells' delays. Produces the CW / WD / SD report of
   §3.3: minimum clock width, worst delay from clock to each output, and
   setup time for each input. *)

open Icdb_netlist
open Icdb_logic

exception Timing_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Timing_error s)) fmt

type report = {
  clock_width : float;                 (* CW: minimum clock width, ns *)
  output_delays : (string * float) list;  (* WD per output port *)
  setup_times : (string * float) list;    (* SD per input port *)
}

(* ------------------------------------------------------------------ *)
(* Timing graph                                                        *)
(* ------------------------------------------------------------------ *)

(* Memo of one longest-path pass. A net is settled in the current pass
   when [seen] holds the pass's stamp, and is on the search stack while
   it holds the stamp negated; bumping the stamp starts a new pass
   without clearing anything. *)
type pass = {
  mutable stamp : int;
  seen : int array;
  has : bool array;    (* net -> has an arrival in this pass *)
  time : float array;  (* net -> that arrival *)
}

(* The arrivals a graph keeps current across [set_size] once a trial
   has found it eligible (see [cone_of]). A net's register-sourced
   arrival at a register's Q is that register's launch time. "No
   arrival" is neg_infinity: every real arrival is finite, so a max
   over fanins reads the same whether or not it skips those. *)
type cone = {
  order : int array;        (* nets, each after every net its arrival reads *)
  rank : int array;         (* net -> its index in [order] *)
  clock : int array;        (* net -> the CK net of the register whose Q
                               it is, or -1 *)
  succ : int array array;   (* net -> the nets whose arrivals read it *)
  a : float array;          (* net -> arrival sourced at the inputs *)
  b : float array;          (* net -> arrival sourced at the registers *)
  dirty : bool array;       (* by rank: to re-time in this sweep *)
  mutable lo : int;         (* every dirty rank lies in [lo, hi] *)
  mutable hi : int;
  log_net : int array;      (* a trial's undo log: each net it changed, *)
  log_a : float array;      (* with the arrivals it had before *)
  log_b : float array;
  mutable logged : int;     (* entries in the log; -1 outside a trial *)
}

(* How a graph times what [summarize] and [critical] read. Its first
   trial decides once between whole passes and kept arrivals; until
   then, and with whole passes, [launch] is current ([Fresh], [fresh])
   when it was computed for the current sizes. *)
type mode =
  | Stale
  | Fresh
  | Passes of { mutable fresh : bool }  (* trials run whole passes *)
  | Cone of cone                        (* arrivals kept current *)

(* Instances are numbered in netlist order and nets in [Netlist.nets]
   order. Sizes are the only mutable input: [set_size] refreshes the
   loads and delays a size feeds, so a resize is re-timed in place. *)
type graph = {
  nl : Netlist.t;
  cells : Celllib.t array;
  sizes : float array;
  delays : float array;      (* instance -> delay through its output *)
  out_net : int array;       (* instance -> net loading its output, or -1 *)
  fanin : int array array;   (* instance -> nets on its input pins, pin order *)
  net_name : string array;
  driver : int array;        (* net -> instance timing it, or -1 *)
  readers : int array array; (* net -> instance per reading pin, in
                                [Netlist.fanouts] order *)
  loaded : int array array;  (* net -> instances whose output it is *)
  fanout : int array;
  port_load : float array;   (* net -> external unit-transistor load *)
  loads : float array;
  is_input : bool array;
  inputs : int array;        (* primary inputs, in port order *)
  outputs : int array;
  ffs : int array;           (* registers, in netlist order *)
  ff_q : int array;          (* per register: its Q net and CK net *)
  ff_ck : int array;
  endpoints : int array;     (* the outputs, then each register's
                                connected data pins (D, S, R) *)
  endpoint_setup : float array;  (* 0 at outputs, else the setup time *)
  is_launch : bool array;    (* net -> some register's Q *)
  launch : float array;      (* Q net -> launch time *)
  mutable mode : mode;
  pa : pass;  (* two memos: [evaluate] keeps its input-sourced and *)
  pb : pass;  (* register-sourced passes open at the same time *)
}

let is_sequential_cell (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff _ -> true
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> false

let data_pins (c : Celllib.t) =
  match c.Celllib.kind with
  | Celllib.Ff { has_set; has_reset } ->
      [ "D" ]
      @ (if has_set then [ "S" ] else [])
      @ if has_reset then [ "R" ] else []
  | Celllib.Comb | Celllib.Latch_cell _ | Celllib.Tri_cell -> []

(* The load on a net: its readers' input loads summed in
   [Netlist.fanouts] order, then the external port load. *)
let refresh_load g n =
  let rs = g.readers.(n) in
  let l = ref 0.0 in
  for j = 0 to Array.length rs - 1 do
    let k = rs.(j) in
    l := !l +. Celllib.sized_input_load g.cells.(k) g.sizes.(k)
  done;
  g.loads.(n) <- !l +. g.port_load.(n)

let refresh_delay g k =
  let n = g.out_net.(k) in
  if n >= 0 then
    g.delays.(k) <-
      Celllib.delay g.cells.(k) ~size:g.sizes.(k) ~load:g.loads.(n)
        ~fanout:g.fanout.(n)

let new_pass n =
  { stamp = 0; seen = Array.make n 0; has = Array.make n false;
    time = Array.make n 0.0 }

let build ?(port_loads = []) (nl : Netlist.t) =
  let insts = Array.of_list nl.Netlist.instances in
  let n_inst = Array.length insts in
  let names = Hashtbl.create n_inst in
  let cells =
    Array.map
      (fun (i : Netlist.instance) ->
        if Hashtbl.mem names i.inst_name then
          fail "duplicate instance name %s" i.inst_name;
        Hashtbl.add names i.inst_name ();
        match Celllib.find i.cell with
        | Some c -> c
        | None -> fail "unknown cell %s" i.cell)
      insts
  in
  let index = Hashtbl.create 64 in
  let net_names = ref [] in
  let net name =
    match Hashtbl.find_opt index name with
    | Some n -> n
    | None ->
        let n = Hashtbl.length index in
        Hashtbl.add index name n;
        net_names := name :: !net_names;
        n
  in
  let inputs = Array.of_list (List.map net nl.Netlist.inputs) in
  let outputs = Array.of_list (List.map net nl.Netlist.outputs) in
  let conns =
    Array.map
      (fun (i : Netlist.instance) -> List.map (fun (pin, n) -> (pin, net n)) i.conns)
      insts
  in
  let n_net = Hashtbl.length index in
  let out_net = Array.make n_inst (-1) in
  let driver = Array.make n_net (-1) in
  let readers = Array.make n_net [] in
  let loaded = Array.make n_net [] in
  let fanin =
    Array.mapi
      (fun k cs ->
        let out = cells.(k).Celllib.output in
        List.iter
          (fun (pin, n) ->
            if pin = out then begin
              if out_net.(k) < 0 then begin
                out_net.(k) <- n;
                loaded.(n) <- k :: loaded.(n)
              end;
              (* tri-state bus: the last driver times the net *)
              driver.(n) <- k
            end
            else readers.(n) <- k :: readers.(n))
          cs;
        Array.of_list
          (List.filter_map (fun (pin, n) -> if pin = out then None else Some n) cs))
      conns
  in
  let is_output = Array.make n_net false in
  Array.iter (fun n -> is_output.(n) <- true) outputs;
  let is_input = Array.make n_net false in
  Array.iter (fun n -> is_input.(n) <- true) inputs;
  let port_load = Array.make n_net 0.0 in
  (* the first load named for a net wins *)
  List.iter
    (fun (name, l) ->
      match Hashtbl.find_opt index name with
      | Some n -> port_load.(n) <- l
      | None -> ())
    (List.rev port_loads);
  let ffs =
    Array.of_list
      (List.filter (fun k -> is_sequential_cell cells.(k)) (List.init n_inst Fun.id))
  in
  let pin k p =
    match List.assoc_opt p conns.(k) with
    | Some n -> n
    | None -> fail "register %s has no %s connection" insts.(k).inst_name p
  in
  let ff_q = Array.map (fun k -> pin k cells.(k).Celllib.output) ffs in
  let ff_ck = Array.map (fun k -> pin k "CK") ffs in
  let data =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun p ->
            Option.map (fun n -> (n, cells.(k).Celllib.setup)) (List.assoc_opt p conns.(k)))
          (data_pins cells.(k)))
      (Array.to_list ffs)
  in
  let endpoints = Array.append outputs (Array.of_list (List.map fst data)) in
  let endpoint_setup =
    Array.append (Array.map (fun _ -> 0.0) outputs) (Array.of_list (List.map snd data))
  in
  let is_launch = Array.make n_net false in
  Array.iter (fun q -> is_launch.(q) <- true) ff_q;
  let g =
    { nl; cells;
      sizes = Array.map (fun (i : Netlist.instance) -> i.size) insts;
      delays = Array.make n_inst 0.0;
      out_net; fanin;
      net_name = Array.of_list (List.rev !net_names);
      driver;
      readers = Array.map Array.of_list readers;
      loaded = Array.map Array.of_list loaded;
      fanout =
        Array.mapi
          (fun n rs ->
            match rs with
            | [] -> if is_output.(n) then 1 else 0
            | _ -> List.length rs)
          readers;
      port_load;
      loads = Array.make n_net 0.0;
      is_input; inputs; outputs; ffs; ff_q; ff_ck; endpoints; endpoint_setup;
      is_launch;
      launch = Array.make n_net 0.0;
      mode = Stale;
      pa = new_pass n_net;
      pb = new_pass n_net }
  in
  for n = 0 to n_net - 1 do refresh_load g n done;
  for k = 0 to n_inst - 1 do refresh_delay g k done;
  g

let instance_count g = Array.length g.sizes
let size g k = g.sizes.(k)

(* A size feeds the instance's own delay and the loads of the nets it
   reads, and so the delays of the instances driving those nets. Each
   is recomputed from the sizes, never adjusted by a difference, so
   restoring a size restores every figure bit for bit. [set_size] then
   re-times what the graph's mode keeps. *)
let resize g k s =
  g.sizes.(k) <- s;
  Array.iter
    (fun n ->
      refresh_load g n;
      Array.iter (refresh_delay g) g.loaded.(n))
    g.fanin.(k);
  refresh_delay g k

(* Area of one sized cell, in µm² (its width times the fixed strip
   height). Totals are summed in instance order. *)
let sized_area c size = Celllib.sized_width c size *. Celllib.cell_height

let area g =
  let a = ref 0.0 in
  for k = 0 to Array.length g.sizes - 1 do
    a := !a +. sized_area g.cells.(k) g.sizes.(k)
  done;
  !a

let netlist g =
  { g.nl with
    Netlist.instances =
      List.mapi
        (fun k (i : Netlist.instance) ->
          if g.sizes.(k) = i.size then i else { i with size = g.sizes.(k) })
        g.nl.Netlist.instances }

(* ------------------------------------------------------------------ *)
(* Longest paths                                                       *)
(* ------------------------------------------------------------------ *)

(* Where a pass starts its paths: at the primary inputs (time 0), at
   the registers' Q nets (their launch times), both (inputs first), or
   at one net. *)
type source = Inputs | Launch | Inputs_and_launch | Only of int

let is_source g src n =
  match src with
  | Inputs -> g.is_input.(n)
  | Launch -> g.is_launch.(n)
  | Inputs_and_launch -> g.is_input.(n) || g.is_launch.(n)
  | Only m -> n = m

let source_time g src n =
  match src with
  | Inputs | Only _ -> 0.0
  | Launch -> g.launch.(n)
  | Inputs_and_launch -> if g.is_input.(n) then 0.0 else g.launch.(n)

let start p = p.stamp <- p.stamp + 1

(* Settle the longest arrival at net [n] in pass [p], lazily and
   memoized: a source has its own time; a net driven by a register, or
   by nothing, has none; otherwise the worst arrival over the driver's
   inputs plus its delay. Register outputs are never traversed through;
   latches pass through (gated clocks). The source is read when a net
   is first settled, which the ripple rounds of [launch_times] rely
   on. *)
let rec settle g p src n =
  let s = p.seen.(n) in
  if s <> p.stamp then begin
    if s = - p.stamp then fail "timing loop through net %s" g.net_name.(n);
    p.seen.(n) <- - p.stamp;
    let d = g.driver.(n) in
    if is_source g src n then begin
      p.has.(n) <- true;
      p.time.(n) <- source_time g src n
    end
    else if d < 0 || is_sequential_cell g.cells.(d) then p.has.(n) <- false
    else begin
      let fi = g.fanin.(d) in
      let any = ref false and worst = ref neg_infinity in
      for j = 0 to Array.length fi - 1 do
        let m = fi.(j) in
        settle g p src m;
        if p.has.(m) then begin
          any := true;
          if not (!worst >= p.time.(m)) then worst := p.time.(m)
        end
      done;
      if !any then begin
        p.has.(n) <- true;
        p.time.(n) <- !worst +. g.delays.(d)
      end
      else begin
        (* tie cells: constant from time 0 *)
        p.has.(n) <- g.cells.(d).Celllib.inputs = [];
        p.time.(n) <- 0.0
      end
    end;
    p.seen.(n) <- p.stamp
  end

(* Launch time of each register output: clock-network arrival at its CK
   pin plus clk->Q. Rippled clocks (a register clocked by another
   register's output, as in the ripple counter) converge by iteration:
   each round propagates one more stage of the chain. A round reads the
   launch times it is updating, so its queries keep this order. A round
   that changes no launch time ends where it started, so every later
   round would repeat it: the rounds stop there. *)
let launch_times g =
  Array.iteri (fun j k -> g.launch.(g.ff_q.(j)) <- g.delays.(k)) g.ffs;
  let p = g.pb in
  let round = ref 1 and changed = ref true in
  while !changed && !round <= Array.length g.ffs do
    start p;
    changed := false;
    for j = 0 to Array.length g.ffs - 1 do
      let ck = g.ff_ck.(j) and q = g.ff_q.(j) in
      settle g p Inputs_and_launch ck;
      let clock_arrival = if p.has.(ck) then p.time.(ck) else 0.0 in
      let t = clock_arrival +. g.delays.(g.ffs.(j)) in
      if t <> g.launch.(q) then changed := true;
      g.launch.(q) <- t
    done;
    incr round
  done;
  match g.mode with
  | Stale -> g.mode <- Fresh
  | Passes p -> p.fresh <- true
  | Fresh | Cone _ -> ()

(* Worst [arrival + setup] over the registers' data pins, or 0. *)
let worst_setup g p src =
  let acc = ref 0.0 in
  for e = Array.length g.outputs to Array.length g.endpoints - 1 do
    let n = g.endpoints.(e) in
    settle g p src n;
    if p.has.(n) then acc := Float.max !acc (p.time.(n) +. g.endpoint_setup.(e))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

(* WD per output: worst arrival from a register (clock edge), falling
   back to input-sourced paths for purely combinational outputs. Opens
   the passes the rest of the report reads: [g.pa] from the inputs,
   [g.pb] from the registers. *)
let wd_per_output g =
  let from_inputs = g.pa and from_ffs = g.pb in
  launch_times g;
  start from_inputs;
  start from_ffs;
  let has_ffs = g.ffs <> [||] in
  List.mapi
    (fun j o ->
      let n = g.outputs.(j) in
      settle g from_ffs Launch n;
      settle g from_inputs Inputs n;
      let wd =
        if from_ffs.has.(n) && has_ffs then from_ffs.time.(n)
        else if from_inputs.has.(n) then from_inputs.time.(n)
        else if from_ffs.has.(n) then from_ffs.time.(n)
        else 0.0
      in
      (o, wd))
    g.nl.Netlist.outputs

(* SD per input: worst path from the input to any register data-ish
   pin, plus that register's setup. Each input takes its own pass. *)
let sd_per_input g =
  List.mapi
    (fun j inp ->
      start g.pa;
      (inp, worst_setup g g.pa (Only g.inputs.(j))))
    g.nl.Netlist.inputs

(* CW: worst register-to-register path + setup, but at least the worst
   input-to-register setup (external data must also make it in one
   phase) and the widest clk->Q. Reads [wd_per_output]'s register
   pass. *)
let clock_width_of g worst_sd =
  let reg_to_reg = worst_setup g g.pb Launch in
  let worst_clk_to_q =
    Array.fold_left (fun acc k -> Float.max acc g.delays.(k)) 0.0 g.ffs
  in
  Float.max reg_to_reg (Float.max worst_clk_to_q worst_sd)

let worst_setup_time = function
  | [] -> None
  | l -> Some (List.fold_left (fun acc (_, t) -> Float.max acc t) 0.0 l)

let evaluate g =
  let output_delays = wd_per_output g in
  let setup_times = sd_per_input g in
  let worst_sd = Option.value (worst_setup_time setup_times) ~default:0.0 in
  { clock_width = clock_width_of g worst_sd; output_delays; setup_times }

type summary = {
  cw : float;
  wd : (string * float) list;
  worst_sd : float option;
}

let summary_of_report r =
  { cw = r.clock_width;
    wd = r.output_delays;
    worst_sd = worst_setup_time r.setup_times }

(* The worst SD in one pass sourced at every input, the one the WDs
   opened: a net's arrival from all inputs is the max of its arrivals
   from each, and [+.] is monotone, so the max commutes with every
   delay bit for bit. Two cases break that: with no inputs there is no
   SD at all (tie-cell paths would still give the pass one), and an
   input net that an instance also drives is a source only in its own
   pass, so those designs take the pass per input. *)
let summarize_passes g =
  let wd = wd_per_output g in
  let worst_sd =
    if Array.length g.inputs = 0 then None
    else if Array.exists (fun n -> g.driver.(n) >= 0) g.inputs then
      worst_setup_time (sd_per_input g)
    else Some (worst_setup g g.pa Inputs)
  in
  { cw = clock_width_of g (Option.value worst_sd ~default:0.0); wd; worst_sd }

let analyze ?port_loads nl =
  Icdb_obs.Trace.with_span "sta.analyze" @@ fun () ->
  evaluate (build ?port_loads nl)

(* ------------------------------------------------------------------ *)
(* Arrivals kept current                                               *)
(* ------------------------------------------------------------------ *)

(* Re-time net [n] from the nets it reads, as [settle] would: true when
   an arrival changed. Inside a trial the overwritten arrivals are
   logged; a sweep re-times a net at most once, so the log never holds
   more entries than there are nets. *)
let retime g c n =
  let na = ref neg_infinity and nb = ref neg_infinity in
  let d = g.driver.(n) in
  if g.is_input.(n) then na := 0.0
  else if c.clock.(n) >= 0 then begin
    let ck = c.a.(c.clock.(n)) in
    nb := (if ck > neg_infinity then ck else 0.0) +. g.delays.(d)
  end
  else if d >= 0 && not (is_sequential_cell g.cells.(d)) then begin
    let fi = g.fanin.(d) in
    for j = 0 to Array.length fi - 1 do
      let m = fi.(j) in
      if not (!na >= c.a.(m)) then na := c.a.(m);
      if not (!nb >= c.b.(m)) then nb := c.b.(m)
    done;
    (* tie cells: constant from time 0 *)
    let none = if g.cells.(d).Celllib.inputs = [] then 0.0 else neg_infinity in
    na := if !na > neg_infinity then !na +. g.delays.(d) else none;
    nb := if !nb > neg_infinity then !nb +. g.delays.(d) else none
  end;
  if !na <> c.a.(n) || !nb <> c.b.(n) then begin
    if c.logged >= 0 then begin
      c.log_net.(c.logged) <- n;
      c.log_a.(c.logged) <- c.a.(n);
      c.log_b.(c.logged) <- c.b.(n);
      c.logged <- c.logged + 1
    end;
    c.a.(n) <- !na;
    c.b.(n) <- !nb;
    true
  end
  else false

let mark c n =
  let r = c.rank.(n) in
  if not c.dirty.(r) then begin
    c.dirty.(r) <- true;
    if r < c.lo then c.lo <- r;
    if r > c.hi then c.hi <- r
  end

(* A resize of [k] changes the delays of [k] and of the drivers of its
   fanin nets: the nets those time are re-timed first. *)
let mark_resize g c k =
  if g.out_net.(k) >= 0 then mark c g.out_net.(k);
  let fi = g.fanin.(k) in
  for j = 0 to Array.length fi - 1 do mark c fi.(j) done

(* Re-time the dirty nets in topological order. A net whose arrivals
   changed dirties the nets that read it, which rank after it, so the
   sweep covers at most the forward cone of what was marked. *)
let sweep g c =
  let r = ref c.lo in
  while !r <= c.hi do
    if c.dirty.(!r) then begin
      c.dirty.(!r) <- false;
      let n = c.order.(!r) in
      if retime g c n then begin
        let s = c.succ.(n) in
        for j = 0 to Array.length s - 1 do mark c s.(j) done
      end
    end;
    incr r
  done;
  c.lo <- max_int;
  c.hi <- -1

let undo c =
  for i = c.logged - 1 downto 0 do
    let n = c.log_net.(i) in
    c.a.(n) <- c.log_a.(i);
    c.b.(n) <- c.log_b.(i)
  done;
  c.logged <- -1

exception Ineligible

(* The cone state of [g], or None when a per-net rule cannot be shown
   to give the passes' figures. A net's arrivals read: at a register's
   Q, the register's CK net (a launch time is the clock's arrival plus
   clk->Q); at a net a combinational cell times, the cell's inputs;
   elsewhere nothing. Those are functions of what they read, so any
   topological order gives the passes' figures, except in a graph with
   - an input net that an instance also drives: it starts a path only
     in its own per-input pass;
   - a register whose Q net something else drives last;
   - a register whose CK cone holds a register output (the type-1
     ripple counters): the launch rounds read launch times in query
     order;
   - a timing loop anywhere: the passes raise only on one they reach.
   With no register output in a CK cone, the launch rounds' arrival at
   a clock net, sourced at the inputs and the launch times, is its
   arrival from the inputs alone. The arrays start timed in full. *)
let cone_of g =
  let n_net = Array.length g.driver in
  let comb n =
    let d = g.driver.(n) in
    d >= 0 && not (is_sequential_cell g.cells.(d))
  in
  try
    if Array.exists (fun n -> g.driver.(n) >= 0) g.inputs then raise Ineligible;
    let clock = Array.make n_net (-1) in
    Array.iteri
      (fun j k ->
        if g.driver.(g.ff_q.(j)) <> k then raise Ineligible;
        clock.(g.ff_q.(j)) <- g.ff_ck.(j))
      g.ffs;
    let reads n =
      if clock.(n) >= 0 then [| clock.(n) |]
      else if comb n then g.fanin.(g.driver.(n))
      else [||]
    in
    (* depth first, each net placed after what it reads; 1 marks a net
       on the stack, 2 a placed one *)
    let state = Array.make n_net 0 in
    let order = Array.make n_net 0 and placed = ref 0 in
    let rec place n =
      if state.(n) = 1 then raise Ineligible;
      if state.(n) = 0 then begin
        state.(n) <- 1;
        Array.iter place (reads n);
        state.(n) <- 2;
        order.(!placed) <- n;
        incr placed
      end
    in
    for n = 0 to n_net - 1 do place n done;
    let in_cone = Array.make n_net false in
    let rec clock_cone n =
      if not in_cone.(n) then begin
        in_cone.(n) <- true;
        if comb n then Array.iter clock_cone g.fanin.(g.driver.(n))
        else if g.driver.(n) >= 0 then raise Ineligible
      end
    in
    Array.iter clock_cone g.ff_ck;
    let rank = Array.make n_net 0 in
    Array.iteri (fun r n -> rank.(n) <- r) order;
    let succ = Array.make n_net [] in
    for n = n_net - 1 downto 0 do
      Array.iter (fun m -> succ.(m) <- n :: succ.(m)) (reads n)
    done;
    let c =
      { order; rank; clock;
        succ = Array.map Array.of_list succ;
        a = Array.make n_net neg_infinity;
        b = Array.make n_net neg_infinity;
        dirty = Array.make n_net false;
        lo = max_int; hi = -1;
        log_net = Array.make n_net 0;
        log_a = Array.make n_net 0.0;
        log_b = Array.make n_net 0.0;
        logged = -1 }
    in
    Array.iter (fun n -> ignore (retime g c n)) order;
    Some c
  with Ineligible -> None

(* [worst_setup] read off an arrival array. *)
let worst_setup_in g arr =
  let acc = ref 0.0 in
  for e = Array.length g.outputs to Array.length g.endpoints - 1 do
    let t = arr.(g.endpoints.(e)) in
    if t > neg_infinity then acc := Float.max !acc (t +. g.endpoint_setup.(e))
  done;
  !acc

(* [summarize_passes]'s figures, read off the arrays: [a] is its
   input-sourced pass and [b] its register-sourced one. *)
let cone_summary g c =
  let has_ffs = g.ffs <> [||] in
  let wd =
    List.mapi
      (fun j o ->
        let a = c.a.(g.outputs.(j)) and b = c.b.(g.outputs.(j)) in
        ( o,
          if b > neg_infinity && has_ffs then b
          else if a > neg_infinity then a
          else if b > neg_infinity then b
          else 0.0 ))
      g.nl.Netlist.outputs
  in
  let worst_sd =
    if Array.length g.inputs = 0 then None else Some (worst_setup_in g c.a)
  in
  let worst_clk_to_q =
    Array.fold_left (fun acc k -> Float.max acc g.delays.(k)) 0.0 g.ffs
  in
  { cw =
      Float.max (worst_setup_in g c.b)
        (Float.max worst_clk_to_q (Option.value worst_sd ~default:0.0));
    wd;
    worst_sd }

let summarize g =
  match g.mode with
  | Cone c -> cone_summary g c
  | Stale | Fresh | Passes _ -> summarize_passes g

let set_size g k s =
  resize g k s;
  match g.mode with
  | Cone c ->
      mark_resize g c k;
      sweep g c
  | Fresh -> g.mode <- Stale
  | Passes p -> p.fresh <- false
  | Stale -> ()

(* The size is put back, and the arrays with it, even when [f]
   raises. *)
let rec trial g k s f =
  let old = g.sizes.(k) in
  match g.mode with
  | Cone c -> (
      c.logged <- 0;
      resize g k s;
      mark_resize g c k;
      sweep g c;
      match f (cone_summary g c) with
      | r -> resize g k old; undo c; r
      | exception e -> resize g k old; undo c; raise e)
  | Passes _ -> (
      set_size g k s;
      match f (summarize_passes g) with
      | r -> set_size g k old; r
      | exception e -> set_size g k old; raise e)
  | Stale | Fresh ->
      (g.mode <-
         match cone_of g with
         | Some c -> Cone c
         | None -> Passes { fresh = g.mode = Fresh });
      trial g k s f

let kept_arrivals g =
  match g.mode with
  | Cone c -> Some (Array.copy c.a, Array.copy c.b)
  | Stale | Fresh | Passes _ -> None

(* ------------------------------------------------------------------ *)
(* Critical path extraction (for TILOS-style sizing)                   *)
(* ------------------------------------------------------------------ *)

(* Index of the first of the latest of [n] times, among those later
   than neg_infinity; -1 when there is none. *)
let first_latest n time =
  let best = ref (-1) and best_t = ref neg_infinity in
  for j = 0 to n - 1 do
    let t = time j in
    if not (!best >= 0 && !best_t >= t) && t > neg_infinity then begin
      best := j;
      best_t := t
    end
  done;
  !best

(* Instances on the worst timing path, in instance order: the endpoint
   (primary output or register data pin) with the latest arrival,
   walked back through worst-arrival fanins. Paths start at the inputs
   and at the registers' launch times. A graph that keeps its arrivals
   reads a net's as the later of its two: an arrival from the inputs
   and the launch times is the max of the two passes', bit for bit, as
   [summarize_passes] argues. *)
let critical g =
  let from_pass () =
    let p = g.pa in
    start p;
    fun n ->
      settle g p Inputs_and_launch n;
      if p.has.(n) then p.time.(n) else neg_infinity
  in
  let arr =
    match g.mode with
    | Cone c ->
        fun n ->
          let a = c.a.(n) and b = c.b.(n) in
          if a >= b then a else b
    | Fresh | Passes { fresh = true } -> from_pass ()
    | Stale | Passes _ ->
        launch_times g;
        from_pass ()
  in
  let rec walk n acc guard =
    let d = g.driver.(n) in
    if guard > 10000 || d < 0 then acc
    else if is_sequential_cell g.cells.(d) then d :: acc
    else
      let fi = g.fanin.(d) in
      match first_latest (Array.length fi) (fun j -> arr fi.(j)) with
      | -1 -> d :: acc
      | j -> walk fi.(j) (d :: acc) (guard + 1)
  in
  let e =
    first_latest (Array.length g.endpoints) (fun e ->
        arr g.endpoints.(e) +. g.endpoint_setup.(e))
  in
  if e < 0 then [] else List.sort_uniq Int.compare (walk g.endpoints.(e) [] 0)

(* Total sized cell area of a netlist: the pre-layout area figure
   sizing optimizes against. *)
let cell_area (nl : Netlist.t) =
  List.fold_left
    (fun acc (i : Netlist.instance) ->
      match Celllib.find i.cell with
      | Some c -> acc +. sized_area c i.size
      | None -> acc)
    0.0 nl.Netlist.instances

(* Render the §3.3 delay listing: CW, then WD per output, then SD per
   input that feeds sequential logic. *)
let report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "CW %.1f\n" r.clock_width);
  List.iter
    (fun (o, t) -> Buffer.add_string buf (Printf.sprintf "WD %s %.1f\n" o t))
    r.output_delays;
  List.iter
    (fun (i, t) ->
      if t > 0.0 then
        Buffer.add_string buf (Printf.sprintf "SD %s %.1f\n" i t))
    r.setup_times;
  Buffer.contents buf
