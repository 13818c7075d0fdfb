(** Gate-level front end of the two-valued machine (the VHDL-simulator
    role in the Figure 8 generation path).

    [compile] turns a cell netlist into {!Icdb_iif.Interp}'s compiled
    form, so a netlist runs on the same machine as its IIF
    specification and the two can be compared step by step. Cells
    evaluate through their library logic functions; flip-flops are
    rising-edge (the mapper inverts falling-edge clocks) with reset
    winning over set, latches hold when opaque, and tri-state groups
    resolve as wired-or with bus-keeper behaviour. State slots are
    numbered by instance. *)

exception Sim_error of string

val compile : Icdb_netlist.Netlist.t -> Icdb_iif.Interp.design
(** @raise Sim_error on unknown cells; @raise Invalid_argument on a
    missing output, sequential or tri-state pin. An unconnected input
    pin of a combinational cell, or a cell without a function, raises
    [Sim_error] only when evaluation reaches it. Stepping the design
    raises [Sim_error] for a name that is not an input and for
    oscillating feedback. *)

val create : Icdb_netlist.Netlist.t -> Icdb_iif.Interp.t
(** [Interp.of_design (compile nl)]. *)
