(** Equivalence checking between a flat IIF specification and a mapped
    netlist.

    Both sides run on {!Icdb_iif.Interp}, the netlist through
    {!Gate_sim}'s front end, from the all-zero state, so identical input
    sequences must produce identical output sequences. Combinational
    designs are enumerated exhaustively (up to {!max_exhaustive}
    inputs); sequential designs are driven with a deterministic
    pseudo-random sequence. *)

type result =
  | Equivalent
  | Mismatch of {
      step : int;
      inputs : (string * bool) list;
      expected : (string * bool) list;  (** from the IIF reference *)
      got : (string * bool) list;       (** from the netlist *)
    }

val is_combinational : Icdb_iif.Flat.t -> bool

val max_exhaustive : int
(** Widest input count enumerated exhaustively (14). *)

val check_combinational :
  Icdb_iif.Flat.t -> Icdb_netlist.Netlist.t -> result
(** Exhaustive check. @raise Invalid_argument beyond {!max_exhaustive}. *)

val check_sequential :
  ?steps:int -> ?seed:int -> Icdb_iif.Flat.t -> Icdb_netlist.Netlist.t -> result
(** Randomized sequence check, deterministic in [seed]. *)

type method_ =
  | Words
      (** exhaustive, 63 vectors per native int through the word mode of
          both sides *)
  | Vectors  (** exhaustive, one vector at a time: {!check_combinational} *)
  | Sequence  (** the randomized sequence: {!check_sequential} *)

val method_of : Icdb_iif.Flat.t -> Icdb_netlist.Netlist.t -> method_
(** The method {!check} takes on this pair; [check] dispatches on the
    same decision. A combinational design of at most {!max_exhaustive}
    inputs takes [Words] when both sides settle to a function of the
    present inputs ({!Icdb_iif.Interp.words} of both), have the same
    input names, and the same output names in the same
    order; otherwise [Vectors]. Every other design takes [Sequence].
    Raises what {!Gate_sim.create} raises on a malformed netlist. *)

val check :
  ?steps:int -> ?seed:int -> Icdb_iif.Flat.t -> Icdb_netlist.Netlist.t -> result
(** Exhaustive when possible, randomized otherwise, by {!method_of}.
    [Words] returns exactly what [Vectors] would: [Equivalent], or the
    record of the first mismatching vector, which it replays one vector
    at a time. *)

val result_to_string : result -> string
