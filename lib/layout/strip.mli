(** Strip-based standard-cell placement (the LES substitute, §4.3.2).

    A layout is a stack of horizontal strips, each a row of cells
    between shared Vdd/Vss rails, with routing channels in between.
    Cells are ordered by a connectivity-driven linear arrangement and
    snaked across strips of roughly equal width. *)

open Icdb_netlist

type placed_cell = {
  pc_inst : Netlist.instance;
  pc_width : float;
  pc_strip : int;   (** 0 = bottom *)
  pc_x : float;     (** left edge within the strip *)
}

type arrangement
(** Everything a placement needs that does not depend on the strip
    count: the {!connectivity_order}, the instances' widths and the
    nets' pins. *)

type t = {
  netlist : Netlist.t;
  strips : int;
  cells : placed_cell list;   (** in arrangement order *)
  strip_widths : float array;
  arrangement : arrangement;  (** the arrangement it was placed from *)
}

val cell_gap : float
(** µm between adjacent cells in a strip. *)

val instance_width : Netlist.instance -> float
(** Sized width of an instance's cell (0 for unknown cells). *)

val connectivity_order : Netlist.t -> Netlist.instance list
(** Greedy linear arrangement: seed with the most connected instance,
    repeatedly append the unplaced instance most attracted to the
    placed set. Deterministic. *)

val arrange : Netlist.t -> arrangement

val place_arranged : arrangement -> strips:int -> t
(** Snake the arrangement across [strips] strips of about equal width.
    @raise Invalid_argument when [strips < 1]. *)

val place : Netlist.t -> strips:int -> t
(** [place_arranged (arrange nl) ~strips]. *)

val measure : arrangement -> strips:int -> float * float array
(** [(width p, channel_spans p)] of [p = place_arranged a ~strips],
    without building [p]'s cell list.
    @raise Invalid_argument when [strips < 1]. *)

val width : t -> float
(** Widest strip. *)

val cells_of_strip : t -> int -> placed_cell list

val channel_spans : t -> float array
(** Per routing channel (k between strips k and k+1), the summed
    horizontal span of the nets crossing or living in it — the §4.4.2
    wire-length figure the track estimator divides by utilization. *)
