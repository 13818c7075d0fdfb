(** The paper's area estimator (§4.4.2).

    Width: X is the widest strip over random balanced assignments, Y
    the width of the optimized placement; the estimate is (X + Y) / 2.
    Height: strip rows plus Vdd/Vss rails plus routing channels, with
    the track count derived from total horizontal wire length over a
    track-utilization constant. Deterministic for a given [seed]. *)

type estimate = {
  strips : int;
  width : float;   (** µm *)
  height : float;  (** µm *)
  area : float;    (** µm² *)
  tracks : int;    (** routing tracks across all channels *)
}

val track_pitch : float
val rail_height : float

val track_utilization : cells_in_strip:int -> float
(** Experimentally-derived utilization constant (§4.4.2). *)

type prepared
(** What every strip count's estimate shares: the placement's
    {!Strip.arrangement} and the shuffles of the X figure. *)

val prepare : ?seed:int -> Icdb_netlist.Netlist.t -> prepared

val arrangement : prepared -> Strip.arrangement

val estimate_prepared : prepared -> strips:int -> estimate
(** @raise Invalid_argument when [strips < 1]. *)

val estimate :
  ?seed:int -> Icdb_netlist.Netlist.t -> strips:int -> estimate
(** [estimate_prepared (prepare ?seed nl) ~strips]. *)

val estimate_to_string : estimate -> string
(** The App B §5.3 row: [strip = k width = ... height = ... area = ...]. *)
