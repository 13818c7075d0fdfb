(** Static timing analysis over cell netlists.

    Implements the paper's delay estimator (§4.4.1): each cell carries
    X (delay per unit transistor load), Y (intrinsic) and Z (per
    fanout); an output's delay is [load*X + Y + fanout*Z] and a path
    sums its cells. Produces the §3.3 report: CW (minimum clock
    width), WD (worst clock-to-output delay per output) and SD (setup
    time per input). Register launch times include clock-network
    arrival, so rippled-clock counters time correctly. *)

exception Timing_error of string

type report = {
  clock_width : float;                     (** CW, ns *)
  output_delays : (string * float) list;   (** WD per output port *)
  setup_times : (string * float) list;     (** SD per input port *)
}

val analyze :
  ?port_loads:(string * float) list -> Icdb_netlist.Netlist.t -> report
(** [analyze ~port_loads nl] runs timing with external unit-transistor
    loads on the named output ports (the CQL [oload] figures):
    {!build} then {!evaluate}.
    @raise Timing_error on unknown cells, duplicate instance names,
    registers without Q or CK connections, or timing loops. *)

(** {1 Timing graph}

    One array-indexed view of a netlist, built once and re-timed in
    place as instance sizes change. Instances are numbered in netlist
    order and nets in [Netlist.nets] order.

    The sizer times each candidate resize with {!trial}. The first
    trial decides, once per graph, how trials are timed:
    - {e cone-limited}: the graph keeps each net's input-sourced and
      register-sourced arrival current across {!set_size}, in a
      topological order of its nets (a register's launch time is its Q
      net's register-sourced arrival). A trial re-times only the
      forward cone of the resized instance and of the drivers of its
      fanin nets, reads the summary off the arrays, and undoes the
      re-timing from a log.
    - {e whole passes}: the trial is {!set_size}, {!summarize},
      {!set_size} back. A graph keeps these when the arrays cannot be
      proven to give the passes' figures: an input net that an
      instance also drives, a register whose Q net something else
      drives, a register whose CK cone holds a register output (the
      type-1 ripple counters, whose launch rounds read launch times in
      query order), or a timing loop.

    Either way every figure equals the passes' bit for bit. *)

type graph

val build :
  ?port_loads:(string * float) list -> Icdb_netlist.Netlist.t -> graph
(** @raise Timing_error on unknown cells, duplicate instance names, or
    registers without Q or CK connections. *)

val evaluate : graph -> report
(** The report for the graph's current sizes.
    @raise Timing_error on timing loops. *)

(** The figures the sizer reads: {!report}'s CW and WDs, and only the
    worst of its SDs. *)
type summary = {
  cw : float;                  (** [clock_width] *)
  wd : (string * float) list;  (** [output_delays] *)
  worst_sd : float option;
      (** the largest of [setup_times]; [None] when there are no inputs *)
}

val summarize : graph -> summary
(** [summary_of_report (evaluate g)], bit for bit: read off the kept
    arrays in a cone-limited graph, else from one input-sourced
    longest-path pass where {!evaluate} opens one per input.
    @raise Timing_error on timing loops. *)

val summary_of_report : report -> summary

val trial : graph -> int -> float -> (summary -> 'a) -> 'a
(** [trial g k s f] is [f] applied to the {!summarize} figures with
    instance [k] at size [s]; [f] may read the graph (its {!area}, say)
    but not resize it. Size [k] had before is put back afterwards, and
    every kept array with it, bit for bit. *)

val critical : graph -> int list
(** Instances on the worst path at the current sizes (endpoint with the
    latest arrival, walked back through worst-arrival fanins), in
    instance order. A cone-limited graph reads its kept arrays; another
    reuses the register launch times of the last {!evaluate} or
    {!summarize} when no size has changed since. The sizer restricts
    its upsizing candidates to these. *)

val kept_arrivals : graph -> (float array * float array) option
(** Copies of a cone-limited graph's input-sourced and register-sourced
    arrival arrays, by net, [neg_infinity] where a net has none; [None]
    before the first {!trial} or when trials run whole passes. *)

val instance_count : graph -> int

val size : graph -> int -> float
(** Current drive multiplier of an instance. *)

val set_size : graph -> int -> float -> unit
(** Resize one instance, refreshing its own delay, the loads of the
    nets it reads and the delays of the instances driving them; a
    cone-limited graph re-times its arrays as a {!trial} does. *)

val area : graph -> float
(** {!cell_area} of the graph's current sizes. *)

val netlist : graph -> Icdb_netlist.Netlist.t
(** The netlist with the graph's current sizes. *)

val cell_area : Icdb_netlist.Netlist.t -> float
(** Total sized cell area in µm² (widths times the strip height): the
    pre-layout figure sizing optimizes against. *)

val report_to_string : report -> string
(** The §3.3 textual listing: [CW ...], [WD <port> ...],
    [SD <port> ...] lines. *)
