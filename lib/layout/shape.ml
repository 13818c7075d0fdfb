(* Shape functions: the list of (width, height) alternatives a component
   can be laid out in, obtained by varying the number of strips (§3.3,
   Figure 6). Floorplanners consume these to pick aspect ratios. *)

open Icdb_netlist

type alternative = {
  alt_index : int;       (* 1-based, as in the §3.3 listing *)
  alt_strips : int;
  alt_width : float;
  alt_height : float;
  alt_area : float;
}

type t = alternative list

let max_strips_for nl =
  let n = List.length nl.Netlist.instances in
  (* small components offer up to 8 alternatives (Figure 6); larger
     ones get proportionally more so square aspect ratios exist *)
  if n <= 64 then max 1 (min 8 n) else min 20 (n / 8)

(* Estimates for strip counts from 1 upward, normalized into a proper
   staircase shape function: widths strictly decrease with the strip
   count and heights never decrease (the estimator is made conservative
   where raw channel estimates would dip). *)
let of_estimates (raw : Area_est.estimate list) : t =
  let _, _, alts =
    List.fold_left
      (fun (prev_w, prev_h, acc) (e : Area_est.estimate) ->
        let w = e.Area_est.width and h = Float.max e.Area_est.height prev_h in
        if w >= prev_w then (prev_w, prev_h, acc)  (* not narrower: drop *)
        else (w, h, (e.Area_est.strips, w, h) :: acc))
      (infinity, 0.0, []) raw
  in
  List.rev alts
  |> List.mapi (fun i (strips, w, h) ->
         { alt_index = i + 1;
           alt_strips = strips;
           alt_width = w;
           alt_height = h;
           alt_area = w *. h })

(* All strip counts from 1 to a sensible maximum, every count estimated
   from one preparation of the netlist. *)
let of_prepared prep (nl : Netlist.t) : t =
  Icdb_obs.Trace.with_span "shape.estimate" @@ fun () ->
  of_estimates
    (List.init (max_strips_for nl) (fun i ->
         Area_est.estimate_prepared prep ~strips:(i + 1)))

let of_netlist ?(seed = 1) nl = of_prepared (Area_est.prepare ~seed nl) nl

(* Keep only Pareto-optimal points (no alternative both narrower and
   shorter exists). *)
let pareto (t : t) =
  List.filter
    (fun a ->
      not
        (List.exists
           (fun b ->
             b != a && b.alt_width <= a.alt_width
             && b.alt_height <= a.alt_height
             && (b.alt_width < a.alt_width || b.alt_height < a.alt_height))
           t))
    t

let best_area (t : t) =
  match t with
  | [] -> invalid_arg "Shape.best_area: empty shape function"
  | first :: rest ->
      List.fold_left
        (fun best a -> if a.alt_area < best.alt_area then a else best)
        first rest

(* Narrowest alternative at most [max_width] wide, if any. *)
let fitting_width (t : t) ~max_width =
  List.filter (fun a -> a.alt_width <= max_width) t
  |> function
  | [] -> None
  | fits -> Some (best_area fits)

(* The §3.3 listing:
     Alternative=1 width=12000 height=48000 ... *)
let to_string (t : t) =
  String.concat "\n"
    (List.map
       (fun a ->
         Printf.sprintf "Alternative=%d width=%.0f height=%.0f"
           a.alt_index a.alt_width a.alt_height)
       t)
