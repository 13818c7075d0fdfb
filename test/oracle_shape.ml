(* Reference oracle: the shape function as it was before the area
   estimator prepared each netlist once, kept verbatim (minus the span)
   so the differential test in test_layout.ml can check
   Icdb_layout.Shape.of_netlist bit for bit. Every strip count
   rebuilds the linear arrangement, the widths, the net table and the
   shuffles of the X figure. *)

open Icdb_netlist
open Icdb_layout

type placed_cell = {
  pc_inst : Netlist.instance;
  pc_width : float;
  pc_strip : int;
  pc_x : float;
}

type placement = {
  strips : int;
  cells : placed_cell list;
  strip_widths : float array;
}

let cell_gap = Strip.cell_gap
let instance_width = Strip.instance_width

(* Order instances so that connected instances sit close together:
   start from the instance with the largest connectivity, repeatedly
   append the unplaced instance most connected to the placed set. *)
let connectivity_order (nl : Netlist.t) =
  let insts = Array.of_list nl.Netlist.instances in
  let n = Array.length insts in
  if n = 0 then []
  else begin
    (* net -> instance indices *)
    let on_net = Hashtbl.create 64 in
    Array.iteri
      (fun idx (i : Netlist.instance) ->
        List.iter
          (fun (_, net) ->
            let prev =
              match Hashtbl.find_opt on_net net with Some l -> l | None -> []
            in
            Hashtbl.replace on_net net (idx :: prev))
          i.conns)
      insts;
    let degree = Array.make n 0 in
    Hashtbl.iter
      (fun _ idxs ->
        let k = List.length idxs in
        List.iter (fun i -> degree.(i) <- degree.(i) + k - 1) idxs)
      on_net;
    let placed = Array.make n false in
    let attraction = Array.make n 0 in
    let order = ref [] in
    let place idx =
      placed.(idx) <- true;
      order := idx :: !order;
      List.iter
        (fun (_, net) ->
          match Hashtbl.find_opt on_net net with
          | Some idxs ->
              List.iter
                (fun j -> if not placed.(j) then attraction.(j) <- attraction.(j) + 1)
                idxs
          | None -> ())
        insts.(idx).conns
    in
    (* seed: the most connected instance (ties by index for determinism) *)
    let seed = ref 0 in
    for i = 1 to n - 1 do
      if degree.(i) > degree.(!seed) then seed := i
    done;
    place !seed;
    for _ = 2 to n do
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if not placed.(i) then
          match !best with
          | -1 -> best := i
          | b ->
              if attraction.(i) > attraction.(b)
                 || (attraction.(i) = attraction.(b) && degree.(i) > degree.(b))
              then best := i
      done;
      place !best
    done;
    List.rev_map (fun idx -> insts.(idx)) !order
  end

(* Snake the linear order across [strips] rows, balancing total width:
   cut the sequence into contiguous chunks of roughly equal width. *)
let place (nl : Netlist.t) ~strips =
  if strips < 1 then invalid_arg "Strip.place: strips must be >= 1";
  let order = connectivity_order nl in
  let widths = List.map instance_width order in
  let total = List.fold_left ( +. ) 0.0 widths in
  let target = total /. float_of_int strips in
  let cells = ref [] in
  let strip = ref 0 in
  let x = ref 0.0 in
  let strip_widths = Array.make strips 0.0 in
  List.iter2
    (fun inst w ->
      (* move to the next strip when the current one reaches its share
         (never beyond the last strip) *)
      if !x > 0.0 && !x +. (w /. 2.0) > target && !strip < strips - 1 then begin
        strip_widths.(!strip) <- !x -. cell_gap;
        incr strip;
        x := 0.0
      end;
      cells := { pc_inst = inst; pc_width = w; pc_strip = !strip; pc_x = !x } :: !cells;
      x := !x +. w +. cell_gap)
    order widths;
  if !x > 0.0 then strip_widths.(!strip) <- !x -. cell_gap;
  (* snake: reverse cell order in odd strips so the sequence meanders *)
  let cells =
    List.map
      (fun c ->
        if c.pc_strip mod 2 = 1 then
          { c with pc_x = strip_widths.(c.pc_strip) -. c.pc_x -. c.pc_width }
        else c)
      !cells
  in
  { strips; cells = List.rev cells; strip_widths }

let width t = Array.fold_left Float.max 0.0 t.strip_widths

let cell_center _t c =
  let x = c.pc_x +. (c.pc_width /. 2.0) in
  (x, c.pc_strip)

(* Horizontal span of each net, per channel. *)
let channel_spans t =
  let channels = Array.make (max 1 (t.strips - 1)) 0.0 in
  let pins = Hashtbl.create 64 in  (* net -> (x, strip) list *)
  List.iter
    (fun c ->
      let x, s = cell_center t c in
      List.iter
        (fun (_, net) ->
          let prev =
            match Hashtbl.find_opt pins net with Some l -> l | None -> []
          in
          Hashtbl.replace pins net ((x, s) :: prev))
        c.pc_inst.Netlist.conns)
    t.cells;
  Hashtbl.iter
    (fun _net pin_list ->
      match pin_list with
      | [] | [ _ ] -> ()
      | pins ->
          let xs = List.map fst pins in
          let ss = List.map snd pins in
          let x0 = List.fold_left Float.min infinity xs in
          let x1 = List.fold_left Float.max neg_infinity xs in
          let s0 = List.fold_left min max_int ss in
          let s1 = List.fold_left max min_int ss in
          let span = Float.max (x1 -. x0) 8.0 in
          if s0 = s1 then begin
            (* same-strip net still needs track room in an adjacent
               channel *)
            let ch = min s0 (Array.length channels - 1) in
            if Array.length channels > 0 then
              channels.(max 0 ch) <- channels.(max 0 ch) +. (span /. 2.0)
          end
          else
            for ch = s0 to s1 - 1 do
              channels.(ch) <- channels.(ch) +. span
            done)
    pins;
  channels

(* X of §4.4.2: max strip width when cells are assigned randomly with
   equal cell counts per strip, averaged over five shuffles. *)
let random_balanced_width (nl : Netlist.t) ~strips ~seed =
  let widths =
    Array.of_list (List.map instance_width nl.Netlist.instances)
  in
  if Array.length widths = 0 then 0.0
  else begin
    let rng = Rng.create seed in
    let trials = 5 in
    let acc = ref 0.0 in
    for _ = 1 to trials do
      let order = Array.init (Array.length widths) Fun.id in
      Rng.shuffle rng order;
      let strip_w = Array.make strips 0.0 in
      Array.iteri
        (fun pos idx ->
          let s = pos mod strips in
          strip_w.(s) <- strip_w.(s) +. widths.(idx) +. cell_gap)
        order;
      acc := !acc +. Array.fold_left Float.max 0.0 strip_w
    done;
    !acc /. float_of_int trials
  end

let estimate ?(seed = 1) (nl : Netlist.t) ~strips =
  let placement = place nl ~strips in
  let y_width = width placement in
  let x_width = random_balanced_width nl ~strips ~seed in
  let width = (x_width +. y_width) /. 2.0 in
  let spans = channel_spans placement in
  let cells_per_strip =
    max 1 (List.length nl.Netlist.instances / max 1 strips)
  in
  let util = Area_est.track_utilization ~cells_in_strip:cells_per_strip in
  let total_span = Array.fold_left ( +. ) 0.0 spans in
  let tracks =
    int_of_float (Float.ceil (total_span /. (Float.max width 1.0 *. util)))
  in
  let channel_height = float_of_int tracks *. Area_est.track_pitch in
  let height =
    (float_of_int strips *. Icdb_logic.Celllib.cell_height)
    +. channel_height
    +. (float_of_int (strips + 1) *. Area_est.rail_height)
  in
  { Area_est.strips; width; height; area = width *. height; tracks }

let of_netlist ?(seed = 1) (nl : Netlist.t) : Shape.t =
  let m = Shape.max_strips_for nl in
  let raw =
    List.map
      (fun strips -> (strips, estimate ~seed nl ~strips))
      (List.init m (fun i -> i + 1))
  in
  let _, _, alts =
    List.fold_left
      (fun (prev_w, prev_h, acc) (strips, e) ->
        let w = e.Area_est.width and h = Float.max e.Area_est.height prev_h in
        if w >= prev_w then (prev_w, prev_h, acc)  (* not narrower: drop *)
        else (w, h, (strips, w, h) :: acc))
      (infinity, 0.0, []) raw
  in
  List.rev alts
  |> List.mapi (fun i (strips, w, h) ->
         { Shape.alt_index = i + 1;
           alt_strips = strips;
           alt_width = w;
           alt_height = h;
           alt_area = w *. h })
