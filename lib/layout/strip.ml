(* Strip-based standard-cell placement (the LES substitute, §4.3.2).

   A layout is a number of horizontal strips; each strip holds a row of
   cells between a shared Vdd/Vss rail pair; routing channels run
   between strips. Placements order cells to keep connected cells in
   the same or adjacent strips (snake order after a connectivity-driven
   linear arrangement). *)

open Icdb_netlist
open Icdb_logic

type placed_cell = {
  pc_inst : Netlist.instance;
  pc_width : float;
  pc_strip : int;     (* 0 = bottom *)
  pc_x : float;       (* left edge within the strip *)
}

(* What a placement needs that does not depend on the strip count: the
   linear arrangement, each instance's width in it, and each net of two
   or more pins as the positions of its pins. Nets keep the iteration
   order of a table keyed by net and filled in arrangement order: the
   channel spans are floating-point sums in that order, so the order
   is part of every figure. *)
type arrangement = {
  a_netlist : Netlist.t;
  a_order : Netlist.instance array;
  a_width : float array;
  a_total : float;         (* the widths summed in order *)
  a_nets : int array array;
}

type t = {
  netlist : Netlist.t;
  strips : int;
  cells : placed_cell list;
  strip_widths : float array;
  arrangement : arrangement;
}

let cell_gap = 4.0  (* µm between adjacent cells in a strip *)

let instance_width (i : Netlist.instance) =
  match Celllib.find i.cell with
  | Some c -> Celllib.sized_width c i.size
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Linear arrangement                                                  *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Strip assignment                                                    *)
(* ------------------------------------------------------------------ *)

let arrange (nl : Netlist.t) =
  let order = Array.of_list (connectivity_order nl) in
  let width = Array.map instance_width order in
  let pins = Hashtbl.create 64 in
  Array.iteri
    (fun k (i : Netlist.instance) ->
      List.iter
        (fun (_, net) ->
          let prev =
            match Hashtbl.find_opt pins net with Some l -> l | None -> []
          in
          Hashtbl.replace pins net (k :: prev))
        i.conns)
    order;
  let nets =
    Hashtbl.fold
      (fun _ ks acc ->
        match ks with [] | [ _ ] -> acc | ks -> Array.of_list ks :: acc)
      pins []
  in
  { a_netlist = nl;
    a_order = order;
    a_width = width;
    a_total = Array.fold_left ( +. ) 0.0 width;
    a_nets = Array.of_list (List.rev nets) }

(* Snake the linear order across [strips] rows, balancing total width:
   cut the sequence into contiguous chunks of roughly equal width.
   Returns per position its strip and left edge, and per strip its
   width. *)
let cut a ~strips =
  if strips < 1 then invalid_arg "Strip.place: strips must be >= 1";
  let n = Array.length a.a_order in
  let target = a.a_total /. float_of_int strips in
  let strip_of = Array.make n 0 and left = Array.make n 0.0 in
  let strip_widths = Array.make strips 0.0 in
  let strip = ref 0 and x = ref 0.0 in
  for k = 0 to n - 1 do
    let w = a.a_width.(k) in
    (* move to the next strip when the current one reaches its share
       (never beyond the last strip) *)
    if !x > 0.0 && !x +. (w /. 2.0) > target && !strip < strips - 1 then begin
      strip_widths.(!strip) <- !x -. cell_gap;
      incr strip;
      x := 0.0
    end;
    strip_of.(k) <- !strip;
    left.(k) <- !x;
    x := !x +. w +. cell_gap
  done;
  if !x > 0.0 then strip_widths.(!strip) <- !x -. cell_gap;
  (* snake: reverse cell order in odd strips so the sequence meanders *)
  for k = 0 to n - 1 do
    let s = strip_of.(k) in
    if s mod 2 = 1 then left.(k) <- strip_widths.(s) -. left.(k) -. a.a_width.(k)
  done;
  (strip_of, left, strip_widths)

(* Horizontal span of each net, per channel: a net connecting cells in
   strips [a..b] occupies the channels between them over the x-range of
   its pins. Returns for each channel (0 .. strips-2, channel k between
   strip k and k+1) the summed span length. *)
let spans a ~strips strip_of left =
  let channels = Array.make (max 1 (strips - 1)) 0.0 in
  Array.iter
    (fun pins ->
      let x0 = ref infinity and x1 = ref neg_infinity in
      let s0 = ref max_int and s1 = ref min_int in
      for j = 0 to Array.length pins - 1 do
        let k = pins.(j) in
        (* the cell's centre *)
        let x = left.(k) +. (a.a_width.(k) /. 2.0) and s = strip_of.(k) in
        x0 := Float.min !x0 x;
        x1 := Float.max !x1 x;
        s0 := min !s0 s;
        s1 := max !s1 s
      done;
      let span = Float.max (!x1 -. !x0) 8.0 in
      if !s0 = !s1 then begin
        (* same-strip net still needs track room in an adjacent
           channel *)
        let ch = max 0 (min !s0 (Array.length channels - 1)) in
        channels.(ch) <- channels.(ch) +. (span /. 2.0)
      end
      else
        for ch = !s0 to !s1 - 1 do
          channels.(ch) <- channels.(ch) +. span
        done)
    a.a_nets;
  channels

let widest strip_widths =
  let w = ref 0.0 in
  for s = 0 to Array.length strip_widths - 1 do
    w := Float.max !w strip_widths.(s)
  done;
  !w

let measure a ~strips =
  let strip_of, left, strip_widths = cut a ~strips in
  (widest strip_widths, spans a ~strips strip_of left)

let place_arranged a ~strips =
  let strip_of, left, strip_widths = cut a ~strips in
  let cells =
    List.init (Array.length a.a_order) (fun k ->
        { pc_inst = a.a_order.(k);
          pc_width = a.a_width.(k);
          pc_strip = strip_of.(k);
          pc_x = left.(k) })
  in
  { netlist = a.a_netlist; strips; cells; strip_widths; arrangement = a }

let place nl ~strips = place_arranged (arrange nl) ~strips

let width t = widest t.strip_widths

let cells_of_strip t k = List.filter (fun c -> c.pc_strip = k) t.cells

let channel_spans t =
  let cells = Array.of_list t.cells in
  spans t.arrangement ~strips:t.strips
    (Array.map (fun c -> c.pc_strip) cells)
    (Array.map (fun c -> c.pc_x) cells)
