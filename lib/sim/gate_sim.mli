(** Gate-level simulator over cell netlists (the VHDL-simulator role in
    the Figure 8 generation path).

    Cells evaluate through their library logic functions; flip-flops
    are rising-edge (the mapper inverts falling-edge clocks), latches
    hold when opaque, and tri-state groups resolve as wired-or with
    bus-keeper behaviour. Semantics mirror {!Icdb_iif.Interp} so the
    two can be compared step by step. *)

exception Sim_error of string

type t

val create : Icdb_netlist.Netlist.t -> t
(** @raise Sim_error on unknown cells or unconnected pins (lazily, at
    first evaluation for some conditions). *)

val step : t -> (string * bool) list -> unit
(** Apply input values, settle combinational logic and update
    registers (iterating for rippled clocks).
    @raise Sim_error if a named net is not an input, or on oscillating
    feedback. *)

val value : t -> string -> bool
(** Current value of a net ("$const0"/"$const1" read as constants). *)

val outputs : t -> (string * bool) list

val output : t -> int -> bool
(** [output st k]: the current value of the [k]-th primary output. *)

val poke : t -> string -> bool -> unit
(** Force a net value. *)

(** {2 Word mode}

    Each net is one native int whose lane [l] holds the net's value
    under the [l]-th of up to 63 input vectors. *)

type words

val words : t -> words option
(** The netlist's cells in topological order, when it has only
    combinational cells, no tri-state group, no unconnected pin or cell
    without a function, every net driven at most once, no input driven,
    no constant net driven except by a tie cell of its own value, and no
    cycle: then every net is a function of the present inputs alone.
    [None] otherwise. *)

val step_words : words -> (string * int) list -> unit
(** Set input words, then evaluate every cell once. Writes to a
    constant net are ignored, as in {!step}.
    @raise Sim_error if a named net is not an input. *)

val output_words : words -> int array
(** The primary outputs' words, in declaration order. *)
