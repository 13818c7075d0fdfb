(* The one request path: a Wire request value in, a Wire response value
   out, under the Sync lock. See dispatch.mli for what it owns; the
   daemon's framing, admission and reply delivery stay in Service. *)

open Icdb_obs

let max_batch_entries = 4096

let slow_cap = 64

type t = {
  sync : Sync.t;
  read_only : bool;
  slow_threshold_s : float;
  on_shutdown : unit -> unit;
  h_request : Metrics.histogram;    (* all-command service time *)
  (* Slow-query log: requests that took longer than [slow_threshold_s],
     kept in a fixed ring of [slow_cap] slots — recording is O(1)
     (overwrite the oldest). [slow_next] counts entries ever recorded;
     the live slot for the next entry is [slow_next mod slow_cap]. *)
  slock : Mutex.t;
  slow_ring : Wire.slow_entry option array;
  mutable slow_next : int;
  mutable last_slow_warn : float;  (* rate limit for the warn event *)
}

let create ~read_only ~slow_threshold_s ~on_shutdown sync =
  { sync;
    read_only;
    slow_threshold_s;
    on_shutdown;
    h_request = Metrics.histogram "net.request_s";
    slock = Mutex.create ();
    slow_ring = Array.make slow_cap None;
    slow_next = 0;
    last_slow_warn = 0.0 }

let now () = Unix.gettimeofday ()

(* Newest-first snapshot of the slow ring. *)
let slow_log t =
  Mutex.lock t.slock;
  let l =
    List.filter_map
      (fun i ->
        let idx = t.slow_next - 1 - i in
        if idx < 0 then None else t.slow_ring.(idx mod slow_cap))
      (List.init slow_cap Fun.id)
  in
  Mutex.unlock t.slock;
  l

let c_readonly_rejected = Metrics.counter "repl.readonly_rejected"

(* CQL commands that mutate the database or workspace; a read-only
   follower refuses them with a structured [Read_only] error so clients
   can redirect to the primary. Everything else — catalog queries,
   component/implementation/instance lookups — is served locally. *)
let mutating_cql =
  [ "request_component"; "start_a_design"; "start_a_transaction";
    "put_in_component_list"; "end_a_transaction"; "end_a_design" ]

let sql_first_word stmt =
  let n = String.length stmt in
  let i = ref 0 in
  while
    !i < n && (match stmt.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    incr i
  done;
  let j = ref !i in
  while
    !j < n && (match stmt.[!j] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  do
    incr j
  done;
  String.uppercase_ascii (String.sub stmt !i (!j - !i))

(* A CQL text parsed once per request or batch entry: the read-only
   rule, the [net.cql.<command>] histogram and execution all read this.
   [name] is the command keyword, when the text parses and has one. *)
type cql = { parsed : (Icdb_cql.Command.t, string) result; name : string option }

let parse_cql text =
  match Icdb_cql.Command.parse text with
  | exception Icdb_cql.Command.Cql_error msg -> { parsed = Error msg; name = None }
  | cmd ->
      { parsed = Ok cmd;
        name =
          (match Icdb_cql.Command.command_name cmd with
           | name -> Some name
           | exception Icdb_cql.Command.Cql_error _ -> None) }

(* The read-only rule's answer to a request that mutates [what]. *)
let refuse what =
  Metrics.incr c_readonly_rejected;
  Wire.Error
    { code = Wire.Read_only;
      message =
        Printf.sprintf
          "follower is read-only: %s mutates the database; send it to the \
           primary"
          what }

let stats_payload t =
  let st = Sync.with_server ~notify:false t.sync Icdb.Server.stats in
  let sp_text =
    Printf.sprintf
      "server cache: %d hits, %d reuse hits, %d misses, %d evictions, %d \
       entries; memo %d/%d"
      st.Icdb.Server.st_hits st.Icdb.Server.st_reuse_hits
      st.Icdb.Server.st_misses st.Icdb.Server.st_evictions
      st.Icdb.Server.st_entries st.Icdb.Server.st_memo_hits
      st.Icdb.Server.st_memo_misses
  in
  let reg = Metrics.default in
  let sp_counters =
    List.map
      (fun (c : Metrics.counter) -> (c.Metrics.cname, c.Metrics.count))
      (Metrics.counters reg)
  in
  let sp_gauges =
    List.map
      (fun (g : Metrics.gauge) -> (g.Metrics.gname, g.Metrics.gvalue))
      (Metrics.gauges reg)
  in
  let sp_hists =
    List.map
      (fun h ->
        let s = Metrics.summary h in
        { Wire.hs_name = s.Metrics.s_name;
          hs_count = s.Metrics.s_count;
          hs_sum = s.Metrics.s_sum;
          hs_min = s.Metrics.s_min;
          hs_max = s.Metrics.s_max;
          hs_p50 = s.Metrics.s_p50;
          hs_p90 = s.Metrics.s_p90;
          hs_p99 = s.Metrics.s_p99 })
      (Metrics.histograms reg)
  in
  { Wire.sp_text; sp_counters; sp_gauges; sp_hists; sp_slow = slow_log t }

let remote_of_span (s : Trace.span) =
  { Wire.rs_id = s.Trace.sid;
    rs_parent = s.Trace.sparent;
    rs_name = s.Trace.sname;
    rs_tag = (match s.Trace.stag with Some tag -> tag | None -> "");
    rs_start_ns = s.Trace.sstart_ns;
    rs_dur_ns = s.Trace.sdur_ns;
    rs_attrs = s.Trace.sattrs }

(* What executing one request reveals, for the slow-query log: the
   owner tag its spans carry, whether the component cache answered,
   and where the time went. *)
type exec_info = {
  mutable xi_cmd : string;  (* histogram and slow-log name: net.<command> *)
  mutable xi_tag : string;
  mutable xi_cache : string;
  mutable xi_phases : (string * float) list;
  mutable xi_plan : string;  (* query-plan summary of the last SQL
                                statement executed, "" when none *)
}

(* Run [f server] with every span tagged [tag]. A request that sent a
   trace id gets tracing even when the server runs untraced: the flag
   flip is safe because it happens under the server lock, which is
   where all span traffic lives (see sync.mli). *)
let with_request_trace t ~tag ~attrs info f =
  Sync.with_server ~notify:false t.sync (fun server ->
      let saved = Trace.enabled () in
      if tag <> "" then Trace.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Trace.set_enabled saved)
        (fun () ->
          let ch = Metrics.counter "cache.hit" in
          let cr = Metrics.counter "cache.reuse_hit" in
          let cm = Metrics.counter "cache.miss" in
          let h0 = ch.Metrics.count + cr.Metrics.count in
          let m0 = cm.Metrics.count in
          let mark = Trace.finished_count () in
          let run () = f server in
          let result =
            if tag = "" then run ()
            else
              Trace.with_tag tag (fun () ->
                  Trace.with_span "net.request" ~attrs run)
          in
          info.xi_cache <-
            (if ch.Metrics.count + cr.Metrics.count > h0 then "hit"
             else if cm.Metrics.count > m0 then "miss"
             else "-");
          info.xi_phases <- Trace.phase_totals (Trace.since mark);
          result))

(* Run one SQL statement to a response body, classifying failures: a
   statement that parses but names a missing column or breaks a
   table's schema is as much the caller's SQL error as a syntax error.
   The planner's decision travels with the request: onto [info] for the
   slow-query log and, when tracing, as a [plan] attribute on the open
   net.request span. *)
let exec_sql t ~tag ~attrs info stmt : Wire.resp =
  match
    with_request_trace t ~tag ~attrs info (fun server ->
        let result, plan =
          Icdb_reldb.Sql.exec_explained (Icdb.Server.db server) stmt
        in
        (match plan with
        | Some p ->
            let s = Icdb_reldb.Plan.summary p in
            info.xi_plan <- s;
            if tag <> "" then Trace.add_attr "plan" s
        | None -> ());
        result)
  with
  | Icdb_reldb.Sql.Affected n -> Wire.Sql_result (Wire.Affected n)
  | Icdb_reldb.Sql.Relation rel ->
      let cols = List.map fst rel.Icdb_reldb.Query.rschema in
      let rows =
        List.map
          (fun row -> Array.to_list (Array.map Icdb_reldb.Value.to_string row))
          rel.Icdb_reldb.Query.rrows
      in
      Wire.Sql_result (Wire.Relation { cols; rows })
  | exception
      ( Icdb_reldb.Sql.Sql_error msg
      | Icdb_reldb.Table.Schema_error msg
      | Icdb_reldb.Db.Db_error msg ) ->
      Wire.Error { code = Wire.Sql_error; message = msg }

(* Run one CQL command to a response body, classifying failures. *)
let exec_cql t ~tag ~attrs info cql args : Wire.resp =
  match
    with_request_trace t ~tag ~attrs info (fun server ->
        match cql.parsed with
        | Ok cmd -> Icdb_cql.Exec.run_command server ~args cmd
        | Error msg -> raise (Icdb_cql.Exec.Cql_error msg))
  with
  | results -> Wire.Results results
  | exception Icdb_cql.Exec.Cql_error msg ->
      Wire.Error { code = Wire.Parse_error; message = msg }
  | exception Icdb.Server.Icdb_error msg ->
      Wire.Error { code = Wire.Exec_error; message = msg }
  | exception Icdb_reldb.Sql.Sql_error msg ->
      Wire.Error { code = Wire.Sql_error; message = msg }

(* SQL and CQL under the read-only rule, for a request and for each
   batch entry alike, so a mutating entry poisons only itself.
   PARETO/DOMINATED are frontier reads, as side-effect-free as SELECT.
   A CQL text that does not parse is let through: the executor produces
   the better (Parse_error) diagnostic. *)
let run_sql t ~tag ~attrs info stmt =
  if
    t.read_only
    && not (List.mem (sql_first_word stmt) [ "SELECT"; "PARETO"; "DOMINATED" ])
  then refuse "this SQL statement"
  else exec_sql t ~tag ~attrs info stmt

let run_cql t ~tag ~attrs info cql args =
  match cql.name with
  | Some name when t.read_only && List.mem name mutating_cql -> refuse ("CQL " ^ name)
  | _ -> exec_cql t ~tag ~attrs info cql args

(* The answer to an exception no classifier above expected. An injected
   Crash simulates the process dying mid-request, so it is re-raised,
   never answered. *)
let internal = function
  | Icdb.Faultinject.Crash _ as e -> raise e
  | e ->
      Wire.Error
        { code = Wire.Internal;
          message = "internal error: " ^ Printexc.to_string e }

let c_batches = Metrics.counter "net.batches"
let c_batch_entries = Metrics.counter "net.batch_entries"

(* Execute one request to a response body, classifying every expected
   failure as a structured error code. A single query is never
   preempted mid-execution (OCaml compute cannot be safely
   interrupted), but a [Batch] re-checks [deadline] between entries and
   answers the remainder with [Berror Timeout]. *)
let execute t ~conn ~id (ctx : Wire.ctx) ~deadline info (body : Wire.req) :
    Wire.resp =
  (* the owner tag for this request's spans: the client's trace id when
     it sent one, else a conn/request tag so concurrent requests never
     interleave anonymously *)
  let tag =
    if ctx.Wire.trace_id <> "" then ctx.Wire.trace_id
    else if Trace.enabled () then Printf.sprintf "c%d.r%d" conn id
    else ""
  in
  info.xi_tag <- tag;
  let attrs = [ ("conn", string_of_int conn); ("request", string_of_int id) ] in
  match body with
  | Wire.Ping -> Wire.Pong
  | Wire.Stats -> Wire.Stats_report (stats_payload t)
  | Wire.Trace_fetch want ->
      (* the ring is only consistent under the server lock *)
      let spans =
        Sync.with_server ~notify:false t.sync (fun _ -> Trace.tagged want)
      in
      Wire.Spans (List.map remote_of_span spans)
  | Wire.Shutdown ->
      Event.info "net: shutdown requested (conn %d)" conn;
      t.on_shutdown ();
      Wire.Bye
  | Wire.Sql stmt -> run_sql t ~tag ~attrs info stmt
  | Wire.Cql { text; args } ->
      let cql = parse_cql text in
      Option.iter (fun name -> info.xi_cmd <- "net.cql." ^ name) cql.name;
      run_cql t ~tag ~attrs info cql args
  | Wire.Batch entries when List.length entries > max_batch_entries ->
      Wire.Error
        { code = Wire.Protocol_error;
          message =
            Printf.sprintf "batch of %d entries exceeds the %d-entry cap"
              (List.length entries) max_batch_entries }
  | Wire.Batch entries ->
      (* one deadline for the whole batch; entries run in order and
         fail independently, so the reply is positionally matched and
         errors stay isolated to their entry. The deadline is re-checked
         between entries: a batch cannot occupy its caller past the
         request's timeout *)
      Metrics.incr c_batches;
      Metrics.incr ~by:(List.length entries) c_batch_entries;
      let run_entry (e : Wire.batch_entry) : Wire.batch_result =
        if now () > deadline then
          Wire.Berror
            { code = Wire.Timeout;
              message = "batch deadline exceeded before this entry ran" }
        else
        let resp =
          try
            match e with
            | Wire.Bcql { text; args } -> run_cql t ~tag ~attrs info (parse_cql text) args
            | Wire.Bsql stmt -> run_sql t ~tag ~attrs info stmt
          with exn -> internal exn
        in
        match resp with
        | Wire.Results rs -> Wire.Bresults rs
        | Wire.Sql_result r -> Wire.Bsql_result r
        | Wire.Error { code; message } -> Wire.Berror { code; message }
        | _ ->
            Wire.Berror
              { code = Wire.Internal;
                message = "unexpected response shape for a batch entry" }
      in
      Wire.Batch_reply (List.map run_entry entries)
  | Wire.Subscribe _ ->
      (* a connection handshake the daemon routes before execution;
         answering makes the match exhaustive *)
      Wire.Repl_error "subscribe cannot be executed as a plain request"

let metric_name (body : Wire.req) =
  match body with
  | Wire.Ping -> "net.ping"
  | Wire.Stats -> "net.stats"
  | Wire.Trace_fetch _ -> "net.trace_fetch"
  | Wire.Shutdown -> "net.shutdown"
  | Wire.Sql _ -> "net.sql"
  | Wire.Subscribe _ -> "net.subscribe"
  | Wire.Batch _ -> "net.batch"
  | Wire.Cql _ -> "net.cql.invalid"  (* until the text parses with a command *)

let record_slow t ~info ~conn ~seconds =
  let cmd = info.xi_cmd in
  let entry =
    { Wire.sl_cmd = cmd;
      sl_trace = info.xi_tag;
      sl_conn = conn;
      sl_seconds = seconds;
      sl_cache = info.xi_cache;
      sl_phases = info.xi_phases;
      sl_plan = info.xi_plan }
  in
  let do_warn =
    Mutex.lock t.slock;
    t.slow_ring.(t.slow_next mod slow_cap) <- Some entry;
    t.slow_next <- t.slow_next + 1;
    let tnow = now () in
    let warn = tnow -. t.last_slow_warn >= 1.0 in
    if warn then t.last_slow_warn <- tnow;
    Mutex.unlock t.slock;
    warn
  in
  Metrics.incr (Metrics.counter "net.slow_requests");
  if do_warn then
    Event.warn
      ~fields:
        [ ("cmd", cmd);
          ("trace", info.xi_tag);
          ("conn", string_of_int conn);
          ("cache", info.xi_cache);
          ("plan", info.xi_plan);
          ("seconds", Printf.sprintf "%.3f" seconds) ]
      "net: slow request (%.3f s > %.3f s threshold)" seconds
      t.slow_threshold_s

let run t ?(ctx = Wire.no_ctx) ?(conn = 0) ?(id = 0) ?(deadline = infinity)
    body =
  let t0 = now () in
  let info =
    { xi_cmd = metric_name body; xi_tag = ""; xi_cache = "-"; xi_phases = [];
      xi_plan = "" }
  in
  let resp =
    try execute t ~conn ~id ctx ~deadline info body with exn -> internal exn
  in
  let elapsed = now () -. t0 in
  Metrics.observe (Metrics.histogram info.xi_cmd) elapsed;
  Metrics.observe t.h_request elapsed;
  if t.slow_threshold_s >= 0.0 && elapsed >= t.slow_threshold_s then
    record_slow t ~info ~conn ~seconds:elapsed;
  resp
