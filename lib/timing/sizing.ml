(* Transistor sizing (the TILOS/Aesop substitute, §4.3 step 4).

   Greedy sensitivity-based sizing on the linear delay model: while a
   timing constraint is violated, walk the critical path and enlarge the
   instance whose upsizing buys the most delay for the least area.
   Constraints follow CQL's request_component keywords: comb_delay
   triples (output, max delay, output load), set-up time bound, clock
   width bound, or a strategy (fastest / cheapest).

   One timing graph is built per call; each candidate resize is timed
   on it in place ({!Sta.trial}: the report's figures with only the
   worst SD, re-timing only the nets the resize reaches) and undone,
   and the sized netlist is read off the graph at the end. *)

open Icdb_netlist

type strategy = Fastest | Cheapest | Balanced

type constraints = {
  clock_width : float option;           (* CW upper bound, ns *)
  comb_delays : (string * float) list;  (* output port -> WD bound *)
  setup_bound : float option;           (* max SD over all inputs *)
  port_loads : (string * float) list;   (* output port -> unit-transistor load *)
  strategy : strategy;
}

let default_constraints =
  { clock_width = None;
    comb_delays = [];
    setup_bound = None;
    port_loads = [];
    strategy = Balanced }

let max_size = 8.0
let size_step = 1.3
let max_iterations = 400

(* Worst violation in ns; <= 0 when all constraints are met. *)
let violation (r : Sta.summary) c =
  let v = ref neg_infinity in
  (match c.clock_width with
   | Some bound -> v := Float.max !v (r.Sta.cw -. bound)
   | None -> ());
  List.iter
    (fun (port, bound) ->
      if port = "*" then
        (* the CQL "comb_delay:<n>" form: bound every output *)
        List.iter (fun (_, wd) -> v := Float.max !v (wd -. bound)) r.Sta.wd
      else
        match List.assoc_opt port r.Sta.wd with
        | Some wd -> v := Float.max !v (wd -. bound)
        | None -> ())
    c.comb_delays;
  (match (c.setup_bound, r.Sta.worst_sd) with
   | Some bound, Some sd -> v := Float.max !v (sd -. bound)
   | _ -> ());
  if !v = neg_infinity then 0.0 else !v

(* The figure Fastest minimizes: clock width plus the worst output
   delay. *)
let merit (r : Sta.summary) =
  r.Sta.cw +. List.fold_left (fun acc (_, wd) -> Float.max acc wd) 0.0 r.Sta.wd

let all_instances g = List.init (Sta.instance_count g) Fun.id

(* One upsizing step of instance [i], or None at the size ceiling. *)
let step g i =
  let s = Sta.size g i in
  if s >= max_size then None else Some (Float.min max_size (s *. size_step))

(* Candidate instances: the TILOS move — only gates on the current
   critical path are worth upsizing; trying each of those and keeping
   the best violation-improvement per added area is cheap because the
   path is short compared to the netlist. *)
let best_upsize g c current_violation =
  let base_area = Sta.area g in
  let try_candidates candidates =
    List.fold_left
      (fun best i ->
        match step g i with
        | None -> best
        | Some s ->
            let gain, area =
              Sta.trial g i s (fun r ->
                  let gain = current_violation -. violation r c in
                  (gain, if gain <= 1e-9 then 0.0 else Sta.area g))
            in
            if gain <= 1e-9 then best
            else
              let cost = Float.max 1.0 (area -. base_area) in
              let score = gain /. cost in
              match best with
              | Some (_, _, best_score) when best_score >= score -> best
              | _ -> Some (i, s, score))
      None candidates
  in
  (* the violated constraint may not lie on the globally-worst path
     (e.g. a clock-width bound while an untimed output is slower);
     fall back to the full netlist when the path offers no gain *)
  match try_candidates (Sta.critical g) with
  | Some r -> Some r
  | None -> try_candidates (all_instances g)

(* Upsize gates on the critical path while the merit (delay) keeps
   dropping measurably. *)
let rec fastest g iters =
  if iters < max_iterations then begin
    let m = merit (Sta.summarize g) in
    let candidates =
      match Sta.critical g with [] -> all_instances g | on_path -> on_path
    in
    let candidate =
      List.fold_left
        (fun best i ->
          match step g i with
          | None -> best
          | Some s -> (
              let m' = Sta.trial g i s merit in
              match best with
              | Some (_, _, bm) when bm <= m' -> best
              | _ -> if m' < m -. 1e-6 then Some (i, s, m') else best))
        None candidates
    in
    match candidate with
    | Some (i, s, _) ->
        Sta.set_size g i s;
        fastest g (iters + 1)
    | None -> ()
  end

let rec balanced g c iters =
  let v = violation (Sta.summarize g) c in
  if v <= 0.0 || iters >= max_iterations then ()
  else
    match best_upsize g c v with
    | Some (i, s, _) ->
        Sta.set_size g i s;
        balanced g c (iters + 1)
    | None -> ()

(* Meet the constraints by greedy upsizing. Returns the sized netlist
   (best effort: if constraints are unreachable the largest-improvement
   netlist found is returned). *)
let size_to_constraints (nl : Netlist.t) (c : constraints) =
  Icdb_obs.Trace.with_span "sizing.size" @@ fun () ->
  let sized loop =
    let g = Sta.build ~port_loads:c.port_loads nl in
    loop g;
    Sta.netlist g
  in
  match c.strategy with
  | Cheapest -> nl  (* minimum area: leave everything at size 1 *)
  | Fastest -> sized (fun g -> fastest g 0)
  | Balanced -> sized (fun g -> balanced g c 0)

let report_meets r c = violation (Sta.summary_of_report r) c <= 0.0

let meets_constraints nl c =
  report_meets (Sta.analyze ~port_loads:c.port_loads nl) c
