(** Transistor sizing (the TILOS/Aesop substitute, §4.3 step 4).

    Greedy sensitivity-based sizing on the linear delay model: while a
    constraint is violated, try upsizing the gates on the current
    critical path (falling back to the whole netlist when the violated
    constraint lies off that path) and keep the best
    violation-improvement per added area. *)

type strategy =
  | Fastest   (** upsize until delay stops improving *)
  | Cheapest  (** leave every gate at minimum size *)
  | Balanced  (** smallest area meeting the explicit constraints *)

type constraints = {
  clock_width : float option;           (** CW upper bound, ns *)
  comb_delays : (string * float) list;  (** output -> WD bound; port "*"
                                            bounds every output *)
  setup_bound : float option;           (** max SD over all inputs *)
  port_loads : (string * float) list;   (** output -> external load *)
  strategy : strategy;
}

val default_constraints : constraints
(** No bounds, [Balanced]. *)

val max_size : float
(** Drive-multiplier ceiling per instance. *)

val violation : Sta.summary -> constraints -> float
(** Worst constraint violation in ns; [<= 0] when everything is met. A
    set-up bound is checked against the worst SD, so a design without
    inputs has none to meet. *)

val size_to_constraints :
  Icdb_netlist.Netlist.t -> constraints -> Icdb_netlist.Netlist.t
(** Returns a netlist with updated instance sizes (structure otherwise
    identical). Best effort: unreachable constraints yield the best
    netlist found — check with {!meets_constraints}, as the paper's
    server relaxes rather than fails. *)

val report_meets : Sta.report -> constraints -> bool
(** Whether a report already computed under the constraints' port loads
    meets them: what {!meets_constraints} checks, without analyzing the
    netlist again. *)

val meets_constraints : Icdb_netlist.Netlist.t -> constraints -> bool
(** {!report_meets} over a fresh {!Sta.analyze} with the constraints'
    port loads. *)
