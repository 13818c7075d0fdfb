(** CIF (Caltech Intermediate Form) output for generated layouts.

    The layout is symbolic: each placed cell is a labelled box on the
    cell-outline layer, strips sit between power rails, and assigned
    ports appear as labelled pads on the bounding box. Dimensions are
    µm; CIF distances are centimicrons. *)

type layout = {
  lname : string;
  lwidth : float;
  lheight : float;
  lstrips : int;
  boxes : (string * float * float * float * float) list;
      (** label, x, y, w, h — cell outlines *)
  rails : (float * float) list;  (** y, height of each Vdd/Vss rail *)
  port_pads : Ports.placed_port list;
}

val of_placement : Strip.t -> ports:Ports.placed_port list -> layout
(** Stack a placement into coordinates: rails, strips and channels
    bottom-up, channel heights from the track estimate. *)

val to_cif : layout -> string

val generate_prepared :
  Area_est.prepared -> strips:int -> port_specs:Ports.spec list -> layout * string
(** Place a prepared netlist, assign ports and emit CIF in one call. *)

val generate :
  ?seed:int ->
  Icdb_netlist.Netlist.t ->
  strips:int ->
  port_specs:Ports.spec list ->
  layout * string
(** {!generate_prepared} of one {!Area_est.prepare}. *)
