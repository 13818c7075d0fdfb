(* Reference oracle: the sizer as it was before candidates were timed
   by Icdb_timing.Sta.summarize, kept verbatim (minus the span) so the
   differential test in test_timing.ml can check that the one-pass
   summary sizes every netlist exactly as the full report did. Every
   candidate is timed by Sta.evaluate, one longest-path pass per input. *)

open Icdb_netlist
open Icdb_timing
open Sizing

let max_size = 8.0
let size_step = 1.3
let max_iterations = 400

(* Worst violation in ns; <= 0 when all constraints are met. *)
let violation (r : Sta.report) c =
  let v = ref neg_infinity in
  (match c.clock_width with
   | Some bound -> v := Float.max !v (r.Sta.clock_width -. bound)
   | None -> ());
  List.iter
    (fun (port, bound) ->
      if port = "*" then
        (* the CQL "comb_delay:<n>" form: bound every output *)
        List.iter
          (fun (_, wd) -> v := Float.max !v (wd -. bound))
          r.Sta.output_delays
      else
        match List.assoc_opt port r.Sta.output_delays with
        | Some wd -> v := Float.max !v (wd -. bound)
        | None -> ())
    c.comb_delays;
  (match c.setup_bound with
   | Some bound ->
       List.iter
         (fun (_, sd) -> v := Float.max !v (sd -. bound))
         r.Sta.setup_times
   | None -> ());
  if !v = neg_infinity then 0.0 else !v

(* The figure Fastest minimizes: clock width plus the worst output
   delay. *)
let merit (r : Sta.report) =
  r.Sta.clock_width
  +. List.fold_left (fun acc (_, wd) -> Float.max acc wd) 0.0 r.Sta.output_delays

let all_instances g = List.init (Sta.instance_count g) Fun.id

(* One upsizing step of instance [i], or None at the size ceiling. *)
let step g i =
  let s = Sta.size g i in
  if s >= max_size then None else Some (Float.min max_size (s *. size_step))

(* [f] applied to the graph with instance [i] at size [s]; the old size
   is put back afterwards. *)
let with_size g i s f =
  let old = Sta.size g i in
  Sta.set_size g i s;
  let r = f () in
  Sta.set_size g i old;
  r

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
              with_size g i s (fun () ->
                  let gain = current_violation -. violation (Sta.evaluate g) c in
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
    let m = merit (Sta.evaluate g) in
    let candidates =
      match Sta.critical g with [] -> all_instances g | on_path -> on_path
    in
    let candidate =
      List.fold_left
        (fun best i ->
          match step g i with
          | None -> best
          | Some s -> (
              let m' = with_size g i s (fun () -> merit (Sta.evaluate g)) in
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
  let v = violation (Sta.evaluate g) c in
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
  let sized loop =
    let g = Sta.build ~port_loads:c.port_loads nl in
    loop g;
    Sta.netlist g
  in
  match c.strategy with
  | Cheapest -> nl  (* minimum area: leave everything at size 1 *)
  | Fastest -> sized (fun g -> fastest g 0)
  | Balanced -> sized (fun g -> balanced g c 0)

let meets_constraints nl c =
  let r = Sta.analyze ~port_loads:c.port_loads nl in
  violation r c <= 0.0
