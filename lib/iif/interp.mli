(** The two-valued simulation machine.

    Cycle-oriented semantics used as the specification oracle for
    synthesized netlists and, through {!Icdb_sim.Gate_sim}'s front end,
    to run those netlists: combinational equations settle to a fixpoint,
    latches hold when opaque, flip-flops sample on their configured edge
    with asynchronous conditions taking priority, and rippled clocks
    (registers clocking registers) are iterated to quiescence. All state
    starts at zero.

    A design is compiled once into a {!design} over numbered nets. The
    four-valued and event-driven simulators read the same form. *)

exception Unstable of string
(** A flat design's combinational feedback failed to reach a fixpoint
    (design name). *)

(** {2 Compiled form} *)

(** An expression over net numbers. [Raise] stands for what cannot be
    evaluated, such as a cell pin left unconnected, and raises its
    exception only when evaluation reaches it: [And] and [Or] stop at
    their first controlling operand, and [Xor] and [Xnor] read their
    right operand first. *)
type expr =
  | Const of bool
  | Net of int
  | Raise of exn
  | Not of expr
  | And of expr list
  | Or of expr list
  | Xor of expr * expr
  | Xnor of expr * expr
  | Tri of { data : expr; enable : expr }
  | Wor of driver list

(** A wired-or driver; only a tri-state one can be disabled. *)
and driver = Drive of { data : expr; enable : expr } | Plain of expr

(** Settled in array order, every pass. A latch keeps what it holds in
    its state [slot]. *)
type element =
  | Comb of { target : int; rhs : expr }
  | Latch of {
      slot : int;
      target : int;
      data : expr;
      transparent_high : bool;
      gate : expr;
    }

type reg = {
  rslot : int;  (** state slot: the clock history *)
  rtarget : int;
  rdata : expr;
  rrising : bool;
  rclock : expr;
  rasyncs : (expr * bool) list;
      (** condition, forced value; in priority order, the first that
          holds wins *)
}

type design = {
  name : string;
  ids : (string, int) Hashtbl.t;  (** net name -> number *)
  inputs : (string, int) Hashtbl.t;  (** primary input -> number *)
  outputs : (string * int) array;  (** primary outputs, in declaration order *)
  elements : element array;
  regs : reg array;
  slots : int;  (** number of state slots *)
  unstable : exn;  (** raised when settling does not converge *)
  not_input : string -> string -> exn;
      (** [not_input op net]: raised when [op] is given a name that is
          not an input *)
}

val const0 : int
val const1 : int
(** Nets 0 and 1 of every design are "$const0" and "$const1": they
    read as their constants and ignore writes. *)

val numbering : unit -> (string, int) Hashtbl.t
(** A net table holding only the two constant nets. *)

val intern : (string, int) Hashtbl.t -> string -> int
(** The number of a name, numbering names as they first occur. *)

val compile : Flat.t -> design
(** A flat design's state slots are its targets' net numbers. *)

val settle_limit : design -> int
(** Settling passes before a design counts as not converging. *)

val eval : bool array -> bool -> expr -> bool
(** [eval values prev e]. [prev] is what the target holds now: a
    disabled tri-state, or a wired-or with every driver disabled, keeps
    it (bus keeper behaviour). *)

(** {2 Simulation} *)

type t

val of_design : design -> t

val create : Flat.t -> t
(** [of_design (compile flat)]. *)

val step : t -> (string * bool) list -> unit
(** Apply input values and settle the design. The caller drives clocks
    explicitly like a testbench:
    [step st [("CLK", false)]; step st [("CLK", true)]].
    @raise Invalid_argument if a named net is not an input of a flat
    design, or the design's [not_input "step"].
    @raise Unstable on a flat design's oscillating feedback, or the
    design's [unstable]. *)

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
    combinational equations, no tri-state, wired-or or [Raise], every
    net driven at most once, no input driven, no constant net driven
    except by a constant of its own value, and no cycle: then every net
    is a function of the present inputs alone. [None] otherwise. *)

val step_words : words -> (string * int) list -> unit
(** Set input words, then evaluate every equation once. Writes to a
    constant net are ignored, as in {!step}.
    @raise Invalid_argument if a named net is not an input of a flat
    design, or the design's [not_input "step_words"]. *)

val output_words : words -> int array
(** The primary outputs' words, in declaration order. *)
