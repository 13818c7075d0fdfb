(* CQL command execution against an ICDB server.

   The C-binding of the paper (ICDB("...", &vars)) becomes a typed call:
   [run server command ~args] where [args] fills the %-slots in order
   and the returned association list binds each ?-slot's keyword to its
   result, mirroring scanf/printf as §3.2 describes. *)

open Icdb

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

exception Cql_error = Command.Cql_error

let fail fmt = Printf.ksprintf (fun s -> raise (Cql_error s)) fmt

(* A term's value once input slots are substituted. *)
type value =
  | Vname of string
  | Vnum of float
  | Vtuple of (string * string option) list
  | Vstrs of string list
  | Vout of Command.slot

type bound = { key : string; value : value }

let bind_inputs (cmd : Command.t) (args : arg list) =
  let remaining = ref args in
  let pop key =
    match !remaining with
    | a :: rest ->
        remaining := rest;
        a
    | [] -> fail "not enough arguments: %%-slot for %s unfilled" key
  in
  let bound =
    List.map
      (fun (term : Command.term) ->
        let value =
          match term.Command.rhs with
          | Command.Name n -> Vname n
          | Command.Number f -> Vnum f
          | Command.Tuple t -> Vtuple t
          | Command.Out_slot s -> Vout s
          | Command.In_slot slot -> (
              match slot, pop term.Command.key with
              | (Command.Sstr | Command.Sfile), Astr s -> Vname s
              | Command.Sint, Aint i -> Vnum (float_of_int i)
              | Command.Sfloat, Afloat f -> Vnum f
              | Command.Sfloat, Aint i -> Vnum (float_of_int i)
              | Command.Sstr_arr, Astrs l -> Vstrs l
              | _, _ ->
                  fail "argument type mismatch for %s" term.Command.key)
        in
        { key = term.Command.key; value })
      cmd
  in
  if !remaining <> [] then fail "too many arguments supplied";
  bound

let find bound key = List.find_opt (fun b -> b.key = key) bound

let find_any bound keys = List.find_map (find bound) keys

let name_of key = function
  | Vname n -> n
  | Vnum f -> Printf.sprintf "%g" f
  | _ -> fail "%s expects a name" key

let tuple_of key = function
  | Vtuple t -> t
  | Vname n -> [ (n, None) ]
  | _ -> fail "%s expects a list" key

let wants_output bound key =
  match find bound key with Some { value = Vout _; _ } -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Value conversions                                                   *)
(* ------------------------------------------------------------------ *)

let funcs_of_tuple t =
  List.map
    (fun (name, v) ->
      if v <> None then fail "function list entries take no value";
      Icdb_genus.Func.of_string name)
    t

let attrs_of_tuple t =
  List.map
    (fun (name, v) ->
      match v with
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> (name, i)
          | None -> fail "attribute %s needs an integer value" name)
      | None -> fail "attribute %s needs a value" name)
    t

(* The rdelay/oload block of §3.2.2. *)
let parse_delay_block text =
  let comb = ref [] and loads = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [] -> ()
         | [ "rdelay"; port; bound ] ->
             comb := (port, float_of_string bound) :: !comb
         | [ "oload"; port; load ] ->
             loads := (port, float_of_string load) :: !loads
         | _ -> fail "malformed delay constraint line: %s" line);
  (List.rev !comb, List.rev !loads)

let constraints_of bound =
  let c = ref Icdb_timing.Sizing.default_constraints in
  (match find bound "clock_width" with
   | Some { value = Vnum f; _ } ->
       c := { !c with Icdb_timing.Sizing.clock_width = Some f }
   | Some _ -> fail "clock_width expects a number"
   | None -> ());
  (match find_any bound [ "seq_delay"; "set_up_time" ] with
   | Some { value = Vnum f; _ } ->
       c := { !c with Icdb_timing.Sizing.setup_bound = Some f }
   | Some _ -> fail "set_up_time expects a number"
   | None -> ());
  (match find bound "comb_delay" with
   | Some { value = Vnum f; _ } ->
       (* a single number bounds the delay of every output *)
       c := { !c with Icdb_timing.Sizing.comb_delays = [ ("*", f) ] }
   | Some { value = Vtuple t; _ } ->
       let ds =
         List.map
           (fun (port, v) ->
             match v with
             | Some v -> (port, float_of_string v)
             | None -> fail "comb_delay entry %s needs a bound" port)
           t
       in
       c := { !c with Icdb_timing.Sizing.comb_delays = ds }
   | Some { value = Vname text; _ } ->
       let ds, loads = parse_delay_block text in
       c :=
         { !c with
           Icdb_timing.Sizing.comb_delays = ds;
           Icdb_timing.Sizing.port_loads = loads }
   | Some _ -> fail "comb_delay expects a number, a list or a constraint block"
   | None -> ());
  (match find bound "oload" with
   | Some { value = Vtuple t; _ } ->
       let loads =
         List.map
           (fun (port, v) ->
             match v with
             | Some v -> (port, float_of_string v)
             | None -> fail "oload entry %s needs a load" port)
           t
       in
       c := { !c with Icdb_timing.Sizing.port_loads =
                        !c.Icdb_timing.Sizing.port_loads @ loads }
   | Some _ -> fail "oload expects a list"
   | None -> ());
  (match find bound "strategy" with
   | Some { value = Vname "fastest"; _ } ->
       c := { !c with Icdb_timing.Sizing.strategy = Icdb_timing.Sizing.Fastest }
   | Some { value = Vname "cheapest"; _ } ->
       c := { !c with Icdb_timing.Sizing.strategy = Icdb_timing.Sizing.Cheapest }
   | Some { value = Vname s; _ } -> fail "unknown strategy %s" s
   | Some _ -> fail "strategy expects a name"
   | None -> ());
  !c

(* ------------------------------------------------------------------ *)
(* Command handlers                                                    *)
(* ------------------------------------------------------------------ *)

let strings_result fs = Rstrs fs

let handle_function_query server bound =
  let funcs =
    match find bound "function" with
    | Some { value; _ } -> funcs_of_tuple (tuple_of "function" value)
    | None -> fail "function_query needs a function list"
  in
  let out = ref [] in
  if wants_output bound "component" then
    out := ("component", strings_result (Server.function_query server funcs)) :: !out;
  if wants_output bound "implementation" then
    out :=
      ("implementation", strings_result (Server.implementation_query server funcs))
      :: !out;
  if !out = [] then fail "function_query has no output slot";
  List.rev !out

let handle_component_query server bound =
  (* forward: component/implementation -> functions; reverse: function
     list + output slot -> matching components *)
  match find_any bound [ "component"; "implementation"; "ICDB_components"; "ICDBcomponents" ] with
  | Some { key; value = Vname name; _ } when key <> "" && wants_output bound "function" ->
      let fs = Server.component_query server name in
      [ ("function", strings_result (List.map Icdb_genus.Func.to_string fs)) ]
  | Some { value = Vout _; _ } -> (
      match find bound "function" with
      | Some { value; _ } ->
          let funcs = funcs_of_tuple (tuple_of "function" value) in
          let names = Server.function_query server funcs in
          [ ("component", strings_result names) ]
      | None -> fail "component_query needs a component or a function list")
  | _ -> (
      match find bound "function" with
      | Some { value = Vout _; _ } -> fail "component_query: missing component name"
      | Some { value; _ } ->
          let funcs = funcs_of_tuple (tuple_of "function" value) in
          let names = Server.function_query server funcs in
          let key =
            if wants_output bound "ICDB_components" then "ICDB_components"
            else "component"
          in
          [ (key, strings_result names) ]
      | None -> fail "component_query needs a component or a function list")

let handle_request_component server bound =
  (* layout request variant: instance + CIF_layout *)
  let is_layout_request =
    wants_output bound "CIF_layout"
    &&
    match find bound "instance" with
    | Some { value = Vname _; _ } -> true
    | _ -> false
  in
  if is_layout_request then begin
    let id =
      match find bound "instance" with
      | Some { value = Vname n; _ } -> n
      | _ -> fail "layout request needs an instance"
    in
    let alternative =
      match find bound "alternative" with
      | Some { value = Vnum f; _ } -> int_of_float f
      | Some _ -> fail "alternative expects a number"
      | None -> 0
    in
    let port_specs =
      match find bound "port_position" with
      | Some { value = Vname text; _ } -> Some (Icdb_layout.Ports.parse text)
      | Some _ -> fail "port_position expects a string"
      | None -> None
    in
    let _layout, cif, file =
      Server.request_layout server id ~alternative ?port_specs ()
    in
    [ ("CIF_layout", Rstr cif); ("CIF_file", Rstr file) ]
  end
  else begin
    let constraints = constraints_of bound in
    let functions =
      match find bound "function" with
      | Some { value; _ } -> funcs_of_tuple (tuple_of "function" value)
      | None -> []
    in
    let attributes =
      match find bound "attribute" with
      | Some { value; _ } -> attrs_of_tuple (tuple_of "attribute" value)
      | None -> []
    in
    (* the paper also allows size:4 as a direct keyword *)
    let attributes =
      match find bound "size" with
      | Some { value = Vnum f; _ } -> ("size", int_of_float f) :: attributes
      | Some _ -> fail "size expects a number"
      | None -> attributes
    in
    let source =
      match
        find_any bound [ "component_name"; "component"; "implementation";
                         "IIF"; "VHDL_net_list" ]
      with
      | Some { key = "implementation"; value; _ } ->
          Spec.From_implementation
            { implementation = name_of "implementation" value;
              params = attributes }
      | Some { key = "IIF"; value; _ } ->
          Spec.From_iif (name_of "IIF" value)
      | Some { key = "VHDL_net_list"; value; _ } ->
          Spec.From_vhdl_netlist (name_of "VHDL_net_list" value)
      | Some { key = ("component_name" | "component"); value; _ } ->
          Spec.From_component
            { component = name_of "component" value; attributes; functions }
      | Some { key; _ } -> fail "unexpected source keyword %s" key
      | None -> fail "request_component needs a component, implementation, IIF or VHDL_net_list"
    in
    let name_hint =
      match find bound "naming" with
      | Some { value = Vname n; _ } -> Some n
      | _ -> None
    in
    let generator =
      match find bound "generator" with
      | Some { value = Vname n; _ } -> Some n
      | _ -> None
    in
    let target =
      match find bound "target" with
      | Some { value = Vname "layout"; _ } -> Spec.Layout
      | Some { value = Vname ("logic" | "Logic"); _ } | None -> Spec.Logic
      | Some { value = Vname other; _ } -> fail "unknown target %s" other
      | Some _ -> fail "target expects a name"
    in
    let spec = Spec.make ~constraints ~target ?name_hint ?generator source in
    let before =
      if wants_output bound "cache" then Some (Server.stats server) else None
    in
    let inst = Server.request_component server spec in
    let out_key =
      if wants_output bound "generated_component" then "generated_component"
      else if wants_output bound "instance" then "instance"
      else if wants_output bound "component_instance" then "component_instance"
      else fail "request_component has no instance output slot"
    in
    let extra =
      if wants_output bound "degraded" then
        [ ("degraded", Rstr (if inst.Instance.degraded then "yes" else "no")) ]
      else []
    in
    let extra =
      match before with
      | None -> extra
      | Some b ->
          (* The whole command runs under the server lock, so the
             counter delta is exactly this request's classification. *)
          let a = Server.stats server in
          let kind =
            if a.Server.st_hits > b.Server.st_hits then "hit"
            else if a.Server.st_reuse_hits > b.Server.st_reuse_hits then
              "reuse"
            else "miss"
          in
          ("cache", Rstr kind) :: extra
    in
    (out_key, Rstr inst.Instance.id) :: extra
  end

let handle_instance_query server bound =
  let id =
    match find_any bound [ "instance"; "generated_component" ] with
    | Some { value = Vname n; _ } -> n
    | _ -> fail "instance_query needs an instance name"
  in
  let inst = Server.find_instance server id in
  let out = ref [] in
  let add key r = out := (key, r) :: !out in
  if wants_output bound "delay" then add "delay" (Rstr (Instance.delay_string inst));
  if wants_output bound "shape_function" then
    add "shape_function" (Rstr (Instance.shape_string inst));
  if wants_output bound "area" then add "area" (Rstr (Instance.area_listing inst));
  if wants_output bound "function" then
    add "function"
      (Rstrs (List.map Icdb_genus.Func.to_string inst.Instance.functions));
  if wants_output bound "connect" then
    add "connect" (Rstr (Instance.connect_string inst));
  if wants_output bound "VHDL_net_list" then
    add "VHDL_net_list" (Rstr (Instance.vhdl_netlist inst));
  if wants_output bound "VHDL_head" then
    add "VHDL_head" (Rstr (Instance.vhdl_head inst));
  if wants_output bound "clock_width" then
    add "clock_width" (Rfloat inst.Instance.report.Icdb_timing.Sta.clock_width);
  if wants_output bound "gates" then add "gates" (Rint (Instance.gate_count inst));
  if wants_output bound "area_value" then
    add "area_value" (Rfloat (Instance.best_area inst));
  if wants_output bound "delay_value" then
    add "delay_value" (Rfloat (Instance.worst_delay inst));
  if wants_output bound "power_value" then
    add "power_value"
      (Rfloat (Lazy.force inst.Instance.power).Icdb_timing.Power.dynamic_mw);
  if wants_output bound "constraints_met" then
    add "constraints_met"
      (Rstr (if inst.Instance.constraints_met then "yes" else "no"));
  if wants_output bound "degraded" then
    add "degraded" (Rstr (if inst.Instance.degraded then "yes" else "no"));
  if wants_output bound "power" then
    add "power" (Rstr (Instance.power_string inst));
  if wants_output bound "equivalent_ports" then
    add "equivalent_ports" (Rstr (Instance.equivalent_ports_string inst));
  if wants_output bound "inverted_ports" then
    add "inverted_ports" (Rstr (Instance.inverted_ports_string inst));
  if !out = [] then fail "instance_query has no output slot";
  List.rev !out

let handle_connect server bound =
  let id =
    match find_any bound [ "instance"; "generated_component" ] with
    | Some { value = Vname n; _ } -> n
    | _ -> fail "connect_component needs an instance name"
  in
  let inst = Server.find_instance server id in
  [ ("connect", Rstr (Instance.connect_string inst)) ]

let design_name bound =
  match find bound "design" with
  | Some { value = Vname n; _ } -> n
  | _ -> fail "missing design name"

let handle_list_command server bound = function
  | "start_a_design" ->
      Server.start_design server (design_name bound);
      []
  | "start_a_transaction" ->
      Server.start_transaction server (design_name bound);
      []
  | "put_in_component_list" ->
      let id =
        match find bound "instance" with
        | Some { value = Vname n; _ } -> n
        | _ -> fail "put_in_component_list needs an instance"
      in
      Server.put_in_component_list server (design_name bound) id;
      []
  | "end_a_transaction" ->
      Server.end_transaction server (design_name bound);
      []
  | "end_a_design" ->
      Server.end_design server (design_name bound);
      []
  | cmd -> fail "unknown command %s" cmd

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run_command server ?(args = []) cmd =
  let bound = bind_inputs cmd args in
  match Command.command_name cmd with
  | "function_query" -> handle_function_query server bound
  | "component_query" -> handle_component_query server bound
  | "request_component" -> handle_request_component server bound
  | "instance_query" -> handle_instance_query server bound
  | "connect_component" -> handle_connect server bound
  | ("start_a_design" | "start_a_transaction" | "put_in_component_list"
    | "end_a_transaction" | "end_a_design") as c ->
      handle_list_command server bound c
  | c -> fail "unknown command %s" c

let run server ?args command_string =
  run_command server ?args (Command.parse command_string)

(* Typed accessors over the result bindings. *)

let get_string results key =
  match List.assoc_opt key results with
  | Some (Rstr s) -> s
  | Some _ -> fail "%s is not a string result" key
  | None -> fail "no result bound to %s" key

let get_strings results key =
  match List.assoc_opt key results with
  | Some (Rstrs l) -> l
  | Some _ -> fail "%s is not a string-array result" key
  | None -> fail "no result bound to %s" key

let get_float results key =
  match List.assoc_opt key results with
  | Some (Rfloat f) -> f
  | Some (Rint i) -> float_of_int i
  | Some _ -> fail "%s is not a numeric result" key
  | None -> fail "no result bound to %s" key
