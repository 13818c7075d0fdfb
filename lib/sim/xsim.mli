(** Four-valued (0/1/X/Z) gate-level simulation.

    Registers start at X and unknowns propagate pessimistically, so a
    tool can ask what the two-valued simulators hide: after this reset
    sequence, which outputs are still undefined? Z arises only from
    disabled tri-state drivers and reads as X through gate inputs. *)

exception Xsim_error of string

type v = V0 | V1 | VX | VZ

val v_to_string : v -> string
val of_bool : bool -> v

(** Kleene logic with Z-as-X. *)

val v_not : v -> v
val v_and : v -> v -> v
val v_or : v -> v -> v
val v_xor : v -> v -> v

val resolve : v -> v -> v
(** Wired resolution: Z yields, agreement wins, conflict gives X. *)

type t

val create : Icdb_netlist.Netlist.t -> t
(** Every net starts at X. Compiles through {!Gate_sim.compile}, and
    raises what it raises. *)

val step : t -> (string * v) list -> unit
(** Apply input values and settle (oscillating feedback resolves to X
    rather than failing). Of a register's asynchronous conditions, in
    priority order (reset before set), the first that is not 0 decides:
    1 forces its value, X gives X. @raise Xsim_error on non-input nets;
    @raise Gate_sim.Sim_error when evaluation reaches an unconnected
    pin. *)

val value : t -> string -> v
val outputs : t -> (string * v) list

val undefined_outputs : t -> string list
(** Outputs currently at X or Z. *)

val initialization_check :
  Icdb_netlist.Netlist.t ->
  sequence:(string * bool) list list ->
  t * string list
(** Drive a reset sequence (named inputs per step; unnamed inputs stay
    X) and report the outputs still undefined afterwards. *)
