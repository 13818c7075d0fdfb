(** Reference interpreter for flat IIF designs.

    Two-valued, cycle-oriented semantics used as the specification
    oracle for synthesized netlists: combinational equations settle to
    a fixpoint, latches hold when opaque, flip-flops sample on their
    configured edge with asynchronous set/reset taking priority, and
    rippled clocks (registers clocking registers) are iterated to
    quiescence. All state starts at zero. *)

exception Unstable of string
(** Combinational feedback failed to reach a fixpoint (design name). *)

type t

val create : Flat.t -> t

val step : t -> (string * bool) list -> unit
(** Apply input values and settle the design. The caller drives clocks
    explicitly like a testbench:
    [step st [("CLK", false)]; step st [("CLK", true)]].
    @raise Invalid_argument if a named net is not an input.
    @raise Unstable on oscillating feedback. *)

val value : t -> string -> bool
(** Current value of any net (undriven nets read false). *)

val poke : t -> string -> bool -> unit
(** Force a net (e.g. to establish register state before a test). *)

val outputs : t -> (string * bool) list
(** All primary outputs, in declaration order. *)

val output : t -> int -> bool
(** [output st k]: the current value of the [k]-th primary output. *)

(** {2 Word mode}

    Each net is one native int whose lane [l] holds the net's value
    under the [l]-th of up to 63 input vectors. *)

type words

val words : t -> words option
(** The design's equations in topological order, when it has only
    combinational equations, no tri-state or wired-or, every net driven
    at most once, no input driven and no cycle: then every net is a
    function of the present inputs alone. [None] otherwise. *)

val step_words : words -> (string * int) list -> unit
(** Set input words, then evaluate every equation once.
    @raise Invalid_argument if a named net is not an input. *)

val output_words : words -> int array
(** The primary outputs' words, in declaration order. *)
