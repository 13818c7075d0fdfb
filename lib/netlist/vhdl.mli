(** Structural VHDL: the netlist interchange format of the Figure 8
    generation path. The writer serves the §3.3 [VHDL_net_list] /
    [VHDL_head] queries; the parser reads the subset the partitioner
    uses to hand ICDB a cluster of component instances (§6.3). *)

exception Vhdl_error of string

val sanitize : string -> string
(** Make a net name a legal VHDL identifier (brackets, '$', '.' become
    underscores). *)

(** {1 Writer} *)

val entity_of : Netlist.t -> string
(** Entity declaration only (the VHDL_head query). *)

val architecture_of : Netlist.t -> string
(** Structural architecture: component declarations, signals, one
    instantiation per cell (drive sizes recorded as comments). *)

val to_vhdl : Netlist.t -> string
(** Entity followed by architecture. *)

val dump : Netlist.t -> string
(** {!to_vhdl} followed by a machine-readable "--#" comment trailer
    that encodes the netlist exactly (original net names, drive sizes).
    This is what the server persists to workspace [.vhdl] files so crash
    recovery can reconstruct instances bit-for-bit.
    @raise Vhdl_error if a name contains trailer separator characters. *)

val undump : string -> Netlist.t
(** Reconstruct the exact netlist from a {!dump} trailer (the VHDL text
    above it is ignored). @raise Vhdl_error on a missing or malformed
    trailer. *)

(** {1 Parser (structural subset)} *)

type parsed_instance = {
  pi_label : string;
  pi_component : string;
  pi_ports : (string * string) list;  (** formal -> actual net *)
}

type parsed = {
  p_name : string;
  p_inputs : string list;
  p_outputs : string list;
  p_instances : parsed_instance list;
}

val parse : string -> parsed
(** Parse [entity ... port (...); end ...; architecture ... begin
    label: comp port map (f => a, ...); ... end ...;]. Port names are
    flattened bit nets; "--" comments are skipped.
    @raise Vhdl_error on unsupported or malformed input. *)

val flatten :
  parsed -> resolve:(string -> Netlist.t option) -> Netlist.t
(** Inline each instance's component netlist (looked up by [resolve]),
    connecting ports per the port map and prefixing internal nets with
    the instance label.
    @raise Vhdl_error on unknown components, unconnected ports or
    duplicate instance labels. *)
