(** Shape functions (§3.3, Figure 6): the (width, height) alternatives
    a component can be laid out in, obtained by varying the strip
    count. Floorplanners consume these to pick aspect ratios. *)

type alternative = {
  alt_index : int;    (** 1-based, as in the §3.3 listing *)
  alt_strips : int;
  alt_width : float;  (** µm *)
  alt_height : float; (** µm *)
  alt_area : float;   (** µm² *)
}

type t = alternative list

val max_strips_for : Icdb_netlist.Netlist.t -> int

val of_estimates : Area_est.estimate list -> t
(** Normalize estimates for strip counts from 1 upward into a proper
    staircase: widths strictly decrease, heights never decrease
    (conservative where raw channel estimates would dip). *)

val of_netlist : ?seed:int -> Icdb_netlist.Netlist.t -> t
(** {!of_estimates} of every strip count from 1 to {!max_strips_for},
    all estimated from one {!Area_est.prepare}. *)

val pareto : t -> t
(** Drop alternatives dominated in both dimensions. *)

val best_area : t -> alternative
(** @raise Invalid_argument on an empty shape function. *)

val fitting_width : t -> max_width:float -> alternative option
(** Smallest-area alternative no wider than the bound. *)

val to_string : t -> string
(** The §3.3 listing: [Alternative=k width=... height=...] lines. *)
