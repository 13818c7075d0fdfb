(** Event-driven timing simulation.

    Transitions propagate through real time on an event wheel: each
    cell contributes its §4.4.1 library delay under its static load,
    and inertial filtering cancels pulses shorter than a gate's delay.
    Measures what the static analyzer only bounds — actual settling
    time after a vector — and counts glitches. Two-valued; state starts
    at zero with the netlist pre-settled. *)

exception Event_error of string

type t

val create : Icdb_netlist.Netlist.t -> t
(** Compiles through {!Gate_sim.compile}, and raises what it raises.
    A register whose set or reset holds at time zero starts forced. *)

val apply : t -> (string * bool) list -> float * int
(** Apply an input vector at the current time and run to quiescence.
    Returns (settling delay in ns, transitions caused — including
    glitch pulses). @raise Event_error on non-input nets or an
    exceeded event budget (oscillation); @raise Gate_sim.Sim_error when
    evaluation reaches an unconnected pin. *)

val value : t -> string -> bool
val outputs : t -> (string * bool) list

val transitions : t -> int
(** Total transitions since creation (the power estimator's activity
    ground truth). *)

val now : t -> float
(** Current simulation time, ns. *)
