(* The paper's area estimator (§4.4.2).

   Width: X is the widest strip over random balanced assignments (equal
   cell counts per strip); Y is the width of the best placement found
   ({!Strip.place}); the estimate is (X + Y) / 2.

   Everything that does not depend on the strip count is prepared once
   per netlist ({!prepare}), so a shape function places its netlist's
   arrangement once per count and nothing more.

   Height: strips times the cell height plus routing channels; the
   number of tracks in a channel is its total horizontal wire length
   divided by the channel width times a track-utilization constant
   obtained experimentally from the layout tool. *)

open Icdb_netlist

type estimate = {
  strips : int;
  width : float;   (* µm *)
  height : float;  (* µm *)
  area : float;    (* µm² *)
  tracks : int;    (* total routing tracks across all channels *)
}

let track_pitch = 6.0      (* µm per horizontal routing track *)
let rail_height = 6.0      (* µm of Vdd/Vss rail shared by two strips *)

(* Track utilization: how much of a channel's length each track is
   actually occupied; experiments on the strip router give better
   utilization for fuller strips. *)
let track_utilization ~cells_in_strip =
  if cells_in_strip <= 2 then 0.4
  else if cells_in_strip <= 8 then 0.55
  else if cells_in_strip <= 24 then 0.7
  else 0.85

let trials = 5

(* The figures that do not depend on the strip count: the placement's
   arrangement, and for X the instance widths (in netlist order) under
   each of the shuffles. The shuffles are drawn once from [Rng.create
   seed], so every strip count averages over the same five. *)
type prepared = {
  arrangement : Strip.arrangement;
  cells : int;
  shuffled : float array array;
}

let prepare_untraced seed (nl : Netlist.t) =
  let widths =
    Array.of_list (List.map Strip.instance_width nl.Netlist.instances)
  in
  let n = Array.length widths in
  let rng = Rng.create seed in
  let shuffled =
    if n = 0 then [||]
    else
      Array.init trials (fun _ ->
          let order = Array.init n Fun.id in
          Rng.shuffle rng order;
          Array.map (fun idx -> widths.(idx)) order)
  in
  { arrangement = Strip.arrange nl; cells = n; shuffled }

(* A span only while tracing, so that an untraced preparation allocates
   no closure for it. *)
let prepare ?(seed = 1) nl =
  if Icdb_obs.Trace.enabled () then
    Icdb_obs.Trace.with_span "area.prepare" (fun () -> prepare_untraced seed nl)
  else prepare_untraced seed nl

let arrangement p = p.arrangement

(* X of §4.4.2: max strip width when cells are assigned randomly with
   equal cell counts per strip. Averaged over a few seeds to be stable
   but still pessimistic relative to the optimized placement. *)
let random_balanced_width p ~strips =
  if p.cells = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for t = 0 to trials - 1 do
      let widths = p.shuffled.(t) in
      let strip_w = Array.make strips 0.0 in
      for pos = 0 to Array.length widths - 1 do
        let s = pos mod strips in
        strip_w.(s) <- strip_w.(s) +. widths.(pos) +. Strip.cell_gap
      done;
      let widest = ref 0.0 in
      for s = 0 to strips - 1 do
        widest := Float.max !widest strip_w.(s)
      done;
      acc := !acc +. !widest
    done;
    !acc /. float_of_int trials
  end

let estimate_prepared p ~strips =
  let y_width, spans = Strip.measure p.arrangement ~strips in
  let x_width = random_balanced_width p ~strips in
  let width = (x_width +. y_width) /. 2.0 in
  let cells_per_strip = max 1 (p.cells / max 1 strips) in
  let util = track_utilization ~cells_in_strip:cells_per_strip in
  (* total horizontal wire length over all channels divided by the
     usable channel length gives the total track count (§4.4.2) *)
  let total_span = ref 0.0 in
  for ch = 0 to Array.length spans - 1 do
    total_span := !total_span +. spans.(ch)
  done;
  let tracks =
    int_of_float (Float.ceil (!total_span /. (Float.max width 1.0 *. util)))
  in
  let channel_height = float_of_int tracks *. track_pitch in
  let height =
    (float_of_int strips *. Icdb_logic.Celllib.cell_height)
    +. channel_height
    +. (float_of_int (strips + 1) *. rail_height)
  in
  { strips; width; height; area = width *. height; tracks }

let estimate ?seed nl ~strips = estimate_prepared (prepare ?seed nl) ~strips

(* The interactive listing of Appendix B §5.3:
     strip = 1 width = 12 height = 7 area = 84 ... *)
let estimate_to_string e =
  Printf.sprintf "strip = %d width = %.0f height = %.0f area = %.0f"
    e.strips e.width e.height e.area
