(** CQL command execution against an ICDB server.

    The paper's C binding [ICDB("...", &vars)] becomes a typed call:
    {!run} fills the %-slots from [args] in order and returns an
    association from each ?-slot's keyword to its result, mirroring
    scanf/printf as §3.2 describes.

    Supported commands: [function_query], [component_query],
    [request_component] (including the layout-request form with
    [instance]/[alternative]/[port_position]/[CIF_layout]),
    [instance_query] (delay, shape_function, area, function, connect,
    VHDL_net_list, VHDL_head, clock_width, gates, area_value,
    constraints_met, power, equivalent_ports, inverted_ports),
    [connect_component], and the component-list commands
    [start_a_design] / [start_a_transaction] / [put_in_component_list]
    / [end_a_transaction] / [end_a_design]. *)

type arg =
  | Astr of string
  | Aint of int
  | Afloat of float
  | Astrs of string list

type result =
  | Rstr of string
  | Rint of int
  | Rfloat of float
  | Rstrs of string list

exception Cql_error of string

val run :
  Icdb.Server.t -> ?args:arg list -> string -> (string * result) list
(** Parse and execute one command string.
    @raise Cql_error on syntax errors, slot/argument mismatches or
    unknown commands.
    @raise Icdb.Server.Icdb_error on semantic failures. *)

val run_command :
  Icdb.Server.t -> ?args:arg list -> Command.t -> (string * result) list
(** {!run} of a command already parsed, for a caller that reads the
    parse itself: [run server ?args s] is
    [run_command server ?args (Command.parse s)]. *)

(** {1 Typed result accessors} *)

val get_string : (string * result) list -> string -> string
val get_strings : (string * result) list -> string -> string list
val get_float : (string * result) list -> string -> float
