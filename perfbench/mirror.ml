(* The generation path of [Icdb.Server.request_component], replayed one
   layer call at a time so each call sits in its own span.

   It calls the same public functions in the same order as the server's
   miss path — resolve and expand, the synthesis memo, optimize, map,
   verify, size, time, shape, then persist the netlist file, the row
   and (when durable) the journal record — and returns the figures the
   server reports, so a traced run can check the replay against the
   real request it times. *)

open Icdb
module Flat = Icdb_iif.Flat
module Netlist = Icdb_netlist.Netlist
module Sizing = Icdb_timing.Sizing
module Db = Icdb_reldb.Db
module Journal = Icdb_reldb.Journal
module Table = Icdb_reldb.Table
module Value = Icdb_reldb.Value

type t = {
  registry : (string, Icdb_iif.Ast.design) Hashtbl.t;
  memo : (string, Netlist.t) Hashtbl.t;
  db : Db.t;
  journal : Journal.t option;
  workspace : string;
}

let instance_schema =
  [ ("id", Value.Tstr); ("component", Value.Tstr); ("gates", Value.Tint);
    ("area", Value.Tfloat); ("clock_width", Value.Tfloat);
    ("constraints_met", Value.Tbool); ("file", Value.Tstr);
    ("degraded", Value.Tbool); ("spec_key", Value.Tstr) ]

let create ~workspace ~durable =
  if not (Sys.file_exists workspace) then Unix.mkdir workspace 0o755;
  let registry = Hashtbl.create 32 in
  List.iter (fun (name, d) -> Hashtbl.replace registry name d) (Icdb_iif.Builtin.all ());
  let db = Db.create () in
  ignore (Db.create_table db "instances" instance_schema);
  let journal =
    if durable then Some (Journal.open_append (Filename.concat workspace "mirror.journal"))
    else None
  in
  { registry; memo = Hashtbl.create 64; db; journal; workspace }

let span = Spans.with_span

let verify flat netlist =
  let sequential = List.exists Flat.is_sequential flat.Flat.fequations in
  if sequential || List.length flat.Flat.finputs <= 14 then
    match Icdb_sim.Equiv.check ~steps:120 flat netlist with
    | Icdb_sim.Equiv.Equivalent -> ()
    | r -> failwith ("mirror: netlist does not verify: " ^ Icdb_sim.Equiv.result_to_string r)

let resolve m spec =
  match spec.Spec.source with
  | Spec.From_component { component; attributes; _ } ->
      let c =
        match Icdb_genus.Component.find component with
        | Some c -> c
        | None -> failwith ("mirror: unknown component " ^ component)
      in
      let universal, specific = Attributes.split attributes in
      Icdb_genus.Component.check_attributes c specific;
      let design = Hashtbl.find m.registry c.Icdb_genus.Component.implementation in
      let flat =
        span "iif.expand" (fun () ->
            let flat =
              Icdb_iif.Expander.expand ~registry:(Hashtbl.find_opt m.registry) design
                (c.Icdb_genus.Component.params_of specific)
            in
            if Flat.validate flat <> [] then failwith "mirror: invalid flat design";
            flat)
      in
      let ports role =
        List.filter_map
          (fun (p : Icdb_genus.Component.port) ->
            if p.Icdb_genus.Component.role = role then Some p.Icdb_genus.Component.port_name
            else None)
          c.Icdb_genus.Component.ports
      in
      ( Attributes.apply flat universal
          ~data_inputs:(ports Icdb_genus.Component.Data_in)
          ~data_outputs:(ports Icdb_genus.Component.Data_out),
        c.Icdb_genus.Component.comp_name )
  | _ -> failwith "mirror: only catalogue components are replayed"

let synthesize m flat =
  let key = Flat.fingerprint flat ^ "/milo" in
  match Hashtbl.find_opt m.memo key with
  | Some nl -> nl
  | None ->
      let network =
        span "logic.opt" (fun () ->
            let n = Icdb_logic.Network.of_flat flat in
            Icdb_logic.Opt.optimize n;
            n)
      in
      let nl = span "logic.techmap" (fun () -> Icdb_logic.Techmap.map network) in
      span "sim.verify" (fun () -> verify flat nl);
      Hashtbl.replace m.memo key nl;
      nl

let write_file m name contents =
  let path = Filename.concat m.workspace name in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc contents);
  Sys.rename tmp path

(* One generating request under the id the server gave it. Returns
   (best area, clock width). *)
let generate m ~id spec =
  let spec, key =
    span "core.key" (fun () ->
        let s = Spec.canonical spec in
        (s, Spec.cache_key s))
  in
  let c = spec.Spec.constraints in
  let flat, comp = span "core.resolve" (fun () -> resolve m spec) in
  let netlist = span "core.memo" (fun () -> synthesize m flat) in
  let sized = span "timing.sizing" (fun () -> Sizing.size_to_constraints netlist c) in
  let report =
    span "timing.sta" (fun () ->
        Icdb_timing.Sta.analyze ~port_loads:c.Sizing.port_loads sized)
  in
  let shape = span "layout.shape" (fun () -> Icdb_layout.Shape.of_netlist sized) in
  let met = span "timing.check" (fun () -> Sizing.meets_constraints sized c) in
  let area = (Icdb_layout.Shape.best_area shape).Icdb_layout.Shape.alt_area in
  let text = span "netlist.dump" (fun () -> Icdb_netlist.Vhdl.dump { sized with Netlist.name = id }) in
  let file = id ^ ".vhdl" in
  span "core.persist" (fun () -> write_file m file text);
  let values =
    [ Value.Str id; Value.Str comp; Value.Int (Netlist.instance_count sized);
      Value.Float area; Value.Float report.Icdb_timing.Sta.clock_width; Value.Bool met;
      Value.Str (Filename.concat m.workspace file); Value.Bool false; Value.Str key ]
  in
  span "reldb.insert" (fun () -> Table.insert (Db.table m.db "instances") values);
  (match m.journal with
   | Some j ->
       span "reldb.journal_append" (fun () -> Journal.append j (Journal.Insert ("instances", values)))
   | None -> ());
  (area, report.Icdb_timing.Sta.clock_width)

(* The row and file half of [Server.delete_instance]. *)
let delete m id =
  let tbl = Db.table m.db "instances" in
  let victim row = Table.get row tbl "id" = Value.Str id in
  let rows =
    span "reldb.delete" (fun () ->
        let rows = Table.filter tbl victim in
        ignore (Table.delete tbl victim);
        rows)
  in
  (match m.journal with
   | Some j ->
       span "reldb.journal_append" (fun () ->
           List.iter (fun r -> Journal.append j (Journal.Delete ("instances", Array.to_list r))) rows)
   | None -> ());
  span "core.persist" (fun () ->
      try Sys.remove (Filename.concat m.workspace (id ^ ".vhdl")) with Sys_error _ -> ())
