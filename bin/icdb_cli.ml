(* The icdb command-line tool.

   - [icdb shell]    interactive CQL, as in Appendix B §4 ("ICDB provides
                     an interactive user interface program. A user can
                     enter the command description string and the user
                     interface program will call ICDB and display the
                     result on the screen.")
   - [icdb serve]    the same server as a network daemon (icdbd)
   - [icdb connect]  the shell again, but against a remote icdbd
   - [icdb catalog]  list predefined components, functions, attributes
   - [icdb gen]      one-shot component generation from flags
   - [icdb cells]    print the technology cell library *)

open Cmdliner
open Icdb
open Icdb_cql

let print_results results =
  List.iter
    (fun (key, r) ->
      match r with
      | Exec.Rstr s ->
          Printf.printf "%s:\n%s\n" key s
      | Exec.Rint i -> Printf.printf "%s: %d\n" key i
      | Exec.Rfloat f -> Printf.printf "%s: %g\n" key f
      | Exec.Rstrs l -> Printf.printf "%s: %s\n" key (String.concat " " l))
    results

(* ------------------------------------------------------------------ *)
(* shell                                                               *)
(* ------------------------------------------------------------------ *)

let print_relation cols rows =
  print_endline (String.concat " | " cols);
  List.iter (fun row -> print_endline (String.concat " | " row)) rows

let print_sql_result = function
  | Icdb_net.Wire.Affected n -> Printf.printf "%d row(s)\n" n
  | Icdb_net.Wire.Relation { cols; rows } -> print_relation cols rows

let has_prefix p s =
  String.length s > String.length p && String.sub s 0 (String.length p) = p

(* Render a stats payload: the cache summary line, every counter and
   gauge in the registry, histogram percentiles, and the slow-query
   log. *)
let print_stats_payload (p : Icdb_net.Wire.stats_payload) =
  let open Icdb_net.Wire in
  print_endline p.sp_text;
  if p.sp_counters <> [] then begin
    print_endline "\ncounters:";
    List.iter
      (fun (name, v) -> Printf.printf "  %-32s %d\n" name v)
      p.sp_counters
  end;
  if p.sp_gauges <> [] then begin
    print_endline "\ngauges:";
    List.iter
      (fun (name, v) -> Printf.printf "  %-32s %g\n" name v)
      p.sp_gauges
  end;
  if p.sp_hists <> [] then begin
    print_endline "\nhistograms:";
    Printf.printf "  %-32s %7s %10s %10s %10s %10s %10s\n" "name" "count"
      "p50" "p90" "p99" "max" "total";
    List.iter
      (fun h ->
        Printf.printf "  %-32s %7d %10s %10s %10s %10s %10s\n" h.hs_name
          h.hs_count
          (Icdb_obs.Metrics.pretty_s h.hs_p50)
          (Icdb_obs.Metrics.pretty_s h.hs_p90)
          (Icdb_obs.Metrics.pretty_s h.hs_p99)
          (Icdb_obs.Metrics.pretty_s h.hs_max)
          (Icdb_obs.Metrics.pretty_s h.hs_sum))
      p.sp_hists
  end;
  if p.sp_slow <> [] then begin
    print_endline "\nslow requests (newest first):";
    List.iter
      (fun e ->
        Printf.printf "  %10s  %-20s conn=%d cache=%-4s trace=%s plan=%s\n"
          (Icdb_obs.Metrics.pretty_s e.sl_seconds)
          e.sl_cmd e.sl_conn e.sl_cache
          (if e.sl_trace = "" then "-" else e.sl_trace)
          (if e.sl_plan = "" then "-" else e.sl_plan);
        List.iter
          (fun (phase, seconds) ->
            Printf.printf "    %-28s %10s\n" phase
              (Icdb_obs.Metrics.pretty_s seconds))
          e.sl_phases)
      p.sp_slow
  end

(* "!batch" shell syntax: the lines after the "!batch" header are
   entries separated by lines holding only "--" (CQL commands span
   lines, so a one-line-per-entry rule would not fit them). *)
let parse_batch_cmd cmd =
  match String.split_on_char '\n' cmd with
  | [] -> []
  | _header :: rest ->
      let flush acc entry =
        match String.trim (String.concat "\n" (List.rev entry)) with
        | "" -> acc
        | s -> s :: acc
      in
      let rec go acc entry = function
        | [] -> List.rev (flush acc entry)
        | line :: rest when String.trim line = "--" ->
            go (flush acc entry) [] rest
        | line :: rest -> go acc (line :: entry) rest
      in
      go [] [] rest

(* One statement of a shell command: "!sql STMT", "!explain STMT" (sugar
   for "!sql EXPLAIN STMT", so "!explain ANALYZE SELECT ..." composes),
   anything else CQL. *)
let entry_of_cmd cmd =
  if has_prefix "!sql " cmd then
    Icdb_net.Wire.Bsql (String.sub cmd 5 (String.length cmd - 5))
  else if has_prefix "!explain " cmd then
    Icdb_net.Wire.Bsql ("EXPLAIN " ^ String.sub cmd 9 (String.length cmd - 9))
  else Icdb_net.Wire.Bcql { text = String.trim cmd; args = [] }

(* One shell command string to one request, whichever transport carries
   it: "!batch" (entries as [parse_batch_cmd] splits them), "!stats",
   else one statement. *)
let request_of_cmd cmd =
  if String.trim (List.hd (String.split_on_char '\n' cmd)) = "!batch" then
    Icdb_net.Wire.Batch (List.map entry_of_cmd (parse_batch_cmd cmd))
  else if String.trim cmd = "!stats" then Icdb_net.Wire.Stats
  else
    match entry_of_cmd cmd with
    | Icdb_net.Wire.Bsql stmt -> Icdb_net.Wire.Sql stmt
    | Icdb_net.Wire.Bcql { text; args } -> Icdb_net.Wire.Cql { text; args }

let print_error code message =
  Printf.printf "error (%s): %s\n"
    (Icdb_net.Wire.error_code_to_string code)
    message

(* Print one reply; [false] when it, or any batch entry in it, is an
   error — scripted callers turn that into a non-zero exit code. *)
let print_resp (resp : Icdb_net.Wire.resp) =
  match resp with
  | Icdb_net.Wire.Results rs ->
      print_results rs;
      true
  | Icdb_net.Wire.Sql_result r ->
      print_sql_result r;
      true
  | Icdb_net.Wire.Stats_report p ->
      print_stats_payload p;
      true
  | Icdb_net.Wire.Batch_reply results ->
      let ok = ref true in
      List.iteri
        (fun i r ->
          Printf.printf "-- entry %d --\n" (i + 1);
          match r with
          | Icdb_net.Wire.Bresults rs -> print_results rs
          | Icdb_net.Wire.Bsql_result r -> print_sql_result r
          | Icdb_net.Wire.Berror { code; message } ->
              ok := false;
              print_error code message)
        results;
      !ok
  | Icdb_net.Wire.Error { code; message } ->
      print_error code message;
      false
  | _ ->
      print_endline "error: unexpected reply";
      false

(* The in-process transport: the daemon's own request path, minus the
   wire. *)
let local_dispatch server =
  Icdb_net.Dispatch.create ~read_only:false
    ~slow_threshold_s:Icdb_net.Service.default_config.slow_threshold_s
    ~on_shutdown:ignore (Icdb_net.Sync.wrap server)

let local_shell server =
  let d = local_dispatch server in
  fun cmd -> print_resp (Icdb_net.Dispatch.run d (request_of_cmd cmd))

(* Interactive loop shared by [shell] and [connect]. A command is lines
   terminated by a blank line; EOF (Ctrl-D) exits cleanly, mid-command
   or not. Returns the number of failed commands. *)
let shell_loop ?(interactive = true) run_one =
  if interactive then begin
    print_endline "ICDB interactive CQL shell.";
    print_endline
      "Enter a command terminated by a blank line (empty command quits).";
    print_endline
      "Lines starting with !sql query the metadata database; !stats prints \
       server metrics.";
    print_endline
      "!explain STMT shows the query plan (!explain ANALYZE STMT also runs \
       it with per-node timings).";
    print_endline
      "!batch runs the entries after it, separated by `--` lines, as one \
       request.";
    print_endline "Example:";
    print_endline "  command:request_component;";
    print_endline "  component_name:counter;";
    print_endline "  attribute:(size:5);";
    print_endline "  instance:?s"
  end;
  let rec read_command acc =
    if interactive then begin
      print_string (if acc = [] then "icdb> " else "....> ");
      flush stdout
    end;
    match In_channel.input_line stdin with
    | None ->
        (* EOF mid-command: drop the partial input, exit cleanly *)
        if interactive && acc <> [] then print_newline ();
        None
    | Some "" ->
        if acc = [] then None else Some (String.concat "\n" (List.rev acc))
    | Some line when acc = [] && String.length (String.trim line) = 0 ->
        read_command acc
    | Some line
      when acc = []
           && (has_prefix "!sql " line || has_prefix "!explain " line
               || String.trim line = "!stats") ->
        Some line
    | Some line -> read_command (line :: acc)
  in
  let errors = ref 0 in
  let rec loop () =
    match read_command [] with
    | None -> if interactive then print_endline "bye."
    | Some cmd ->
        if not (run_one cmd) then incr errors;
        loop ()
  in
  loop ();
  !errors

(* Scripted entry: run each --exec command in order; stop at the first
   failure so scripts see where things broke. Returns the exit code. *)
let run_execs run_one cmds =
  let rec go = function
    | [] -> 0
    | cmd :: rest -> if run_one cmd then go rest else 1
  in
  go cmds

let setup_logging log_level =
  match log_level with
  | None -> ()
  | Some l -> (
      match Icdb_obs.Event.level_of_string l with
      | Some lvl ->
          Icdb_obs.Event.set_level lvl;
          ignore (Icdb_obs.Event.add_sink (Icdb_obs.Event.stderr_sink ()))
      | None ->
          Printf.eprintf
            "error: unknown log level %s (expected debug|info|warn|error)\n" l;
          exit 1)

let shell workspace durable log_level trace_out execs =
  setup_logging log_level;
  if trace_out <> None then Icdb_obs.Trace.set_enabled true;
  match Server.create ?workspace ~durable () with
  | exception Server.Icdb_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | server ->
      if durable && execs = [] then
        Printf.printf "journaling to %s\n"
          (Filename.concat (Server.workspace server) "icdb.journal");
      let run_one = local_shell server in
      let code =
        if execs <> [] then run_execs run_one execs
        else begin
          let interactive = Unix.isatty Unix.stdin in
          let errors = shell_loop ~interactive run_one in
          (* scripted (piped) sessions must be able to detect failure;
             interactive typo-and-retry keeps exiting 0 *)
          if (not interactive) && errors > 0 then 1 else 0
        end
      in
      (match trace_out with
       | None -> ()
       | Some path ->
           Icdb_obs.Trace.write_chrome path;
           Printf.printf
             "trace written to %s (load it in chrome://tracing or \
              https://ui.perfetto.dev)\n"
             path);
      exit code

(* ------------------------------------------------------------------ *)
(* serve / connect                                                     *)
(* ------------------------------------------------------------------ *)

(* Written atomically so pollers never read a partial value. *)
let write_port_file path value =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc -> Printf.fprintf oc "%d\n" value);
  Sys.rename tmp path

let parse_host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Some ((if host = "" then "127.0.0.1" else host), p)
      | _ -> None)
  | None -> None

(* The tail of both serve flavours: service + optional admin plane up,
   the flight recorder armed, signals routed to a graceful drain,
   checkpoint on the way out. *)
let serve_loop ~host ~port_file ~admin_port ~admin_port_file ?replica ~sync
    ~durable ~blackbox_out ~svc () =
  let bound = Icdb_net.Service.port svc in
  (match port_file with
   | None -> ()
   | Some path -> write_port_file path bound);
  (* the black box: recent events, last telemetry samples, and the live
     connection table, dumped on SIGQUIT, on a fatal exit, and served
     at /blackboxz for `icdb blackbox` *)
  let recorder = Icdb_obs.Recorder.create () in
  let blackbox_path =
    match blackbox_out with
    | Some path -> path
    | None ->
        Filename.concat (Icdb_net.Sync.peek_workspace sync)
          "icdb.blackbox.json"
  in
  Icdb_obs.Recorder.set_meta recorder
    [ ("workspace", Icdb_net.Sync.peek_workspace sync);
      ("port", string_of_int bound);
      ("role", if Option.is_some replica then "follower" else "primary") ];
  (match Icdb_net.Service.sampler svc with
   | Some s -> Icdb_obs.Recorder.set_sampler recorder s
   | None -> ());
  Icdb_obs.Recorder.add_table recorder "conns" (fun () ->
      List.map
        (fun (c : Icdb_net.Service.conn_info) ->
          [ ("cid", string_of_int c.Icdb_net.Service.ci_cid);
            ("peer", c.Icdb_net.Service.ci_peer);
            ("state", c.Icdb_net.Service.ci_state);
            ("wq_bytes", string_of_int c.Icdb_net.Service.ci_wq_bytes);
            ("reqs", string_of_int c.Icdb_net.Service.ci_reqs);
            ("age_s", Printf.sprintf "%.3f" c.Icdb_net.Service.ci_age_s);
            ("idle_s", Printf.sprintf "%.3f" c.Icdb_net.Service.ci_idle_s);
            ("paused_s", Printf.sprintf "%.3f" c.Icdb_net.Service.ci_paused_s)
          ])
        (Icdb_net.Service.conn_table svc));
  let dump reason =
    match Icdb_obs.Recorder.dump ~reason recorder ~path:blackbox_path with
    | () -> Printf.eprintf "blackbox dump (%s): %s\n%!" reason blackbox_path
    | exception _ -> ()
  in
  Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> dump "sigquit"));
  Printexc.set_uncaught_exception_handler (fun e bt ->
      dump ("fatal: " ^ Printexc.to_string e);
      Printf.eprintf "Fatal error: exception %s\n%s%!" (Printexc.to_string e)
        (Printexc.raw_backtrace_to_string bt));
  let admin =
    match admin_port with
    | None -> None
    | Some ap -> (
        match
          Icdb_net.Admin.start ~host ?replica ~recorder ~port:ap ~service:svc
            ~sync ()
        with
        | a ->
            Printf.printf
              "admin endpoint on http://%s:%d (/healthz /readyz /metrics \
               /tracez /slowz /statz /connz /blackboxz)\n%!"
              host (Icdb_net.Admin.port a);
            (match admin_port_file with
             | None -> ()
             | Some path -> write_port_file path (Icdb_net.Admin.port a));
            Some a
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "error: cannot bind admin port %d: %s\n" ap
              (Unix.error_message e);
            Icdb_net.Service.shutdown svc;
            exit 1)
  in
  Option.iter Icdb_net.Replica.run replica;
  let stop _ = Icdb_net.Service.request_shutdown svc in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Icdb_net.Service.wait svc;
  Option.iter Icdb_net.Admin.stop admin;
  Option.iter Icdb_net.Replica.stop replica;
  (* every accepted request is answered; now make recovery cheap *)
  if durable then begin
    match Icdb_net.Sync.with_server sync Server.checkpoint with
    | () ->
        Printf.printf "checkpointed %s\n" (Icdb_net.Sync.peek_workspace sync)
    | exception Server.Icdb_error msg ->
        Printf.eprintf "checkpoint failed: %s\n" msg;
        exit 1
  end;
  let st = Icdb_net.Sync.with_server sync Server.stats in
  Printf.printf "served: %d cache hits, %d reuse hits, %d misses; bye.\n"
    st.Server.st_hits st.Server.st_reuse_hits st.Server.st_misses

let serve workspace durable host port port_file admin_port admin_port_file
    max_connections workers max_queue request_timeout idle_timeout
    slow_threshold telemetry_period blackbox_out follow log_level =
  setup_logging log_level;
  (* a peer vanishing mid-write must surface as EPIPE, not kill icdbd;
     Service.start and Client.connect set this too — this earlier copy
     covers the window before either exists, and is harmless *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config ~read_only =
    { Icdb_net.Service.host;
      port;
      max_connections;
      workers;
      max_queue;
      request_timeout_s = request_timeout;
      idle_timeout_s = idle_timeout;
      slow_threshold_s = slow_threshold;
      read_only;
      telemetry_period_s = telemetry_period }
  in
  let start_service config sync =
    try Icdb_net.Service.start ~config sync
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot listen on %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1
  in
  match follow with
  | Some spec ->
      (* follower: bootstrap from the primary, serve read-only *)
      let phost, pport =
        match parse_host_port spec with
        | Some hp -> hp
        | None ->
            Printf.eprintf "error: --follow expects HOST:PORT, got %S\n" spec;
            exit 2
      in
      let ws =
        match workspace with
        | Some ws -> ws
        | None ->
            Printf.eprintf
              "error: --follow requires --workspace: the follower's durable \
               state (journal, snapshot, netlists) lives there across \
               restarts\n";
            exit 2
      in
      let rconfig = { Icdb_net.Replica.host = phost; port = pport } in
      let replica =
        match Icdb_net.Replica.create ~config:rconfig ~workspace:ws () with
        | r -> r
        | exception
            ( Icdb_net.Replica.Repl_error msg
            | Icdb_net.Client.Net_error msg
            | Server.Icdb_error msg ) ->
            Printf.eprintf "error: cannot bootstrap follower: %s\n" msg;
            exit 1
      in
      let sync = Icdb_net.Replica.sync replica in
      let svc = start_service (config ~read_only:true) sync in
      Printf.printf
        "icdbd listening on %s:%d (workspace %s, read-only follower of \
         %s:%d)\n%!"
        host (Icdb_net.Service.port svc) ws phost pport;
      serve_loop ~host ~port_file ~admin_port ~admin_port_file ~replica ~sync
        ~durable:true ~blackbox_out ~svc ()
  | None -> (
      match Server.create ?workspace ~durable () with
      | exception Server.Icdb_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | server ->
          let sync = Icdb_net.Sync.wrap server in
          let svc = start_service (config ~read_only:false) sync in
          Printf.printf "icdbd listening on %s:%d (workspace %s%s)\n%!" host
            (Icdb_net.Service.port svc)
            (Server.workspace server)
            (if durable then ", durable" else "");
          serve_loop ~host ~port_file ~admin_port ~admin_port_file ~sync
            ~durable ~blackbox_out ~svc ())

let connect endpoint trace_out batch execs =
  if batch && execs = [] then begin
    Printf.eprintf "error: --batch needs at least one --exec command\n";
    exit 2
  end;
  match parse_host_port endpoint with
  | None ->
      Printf.eprintf "error: expected HOST:PORT, got %s\n" endpoint;
      exit 2
  | Some (host, port) -> (
      match Icdb_net.Client.connect ~host ~port () with
      | exception Icdb_net.Client.Net_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | client ->
          if trace_out <> None then Icdb_obs.Trace.set_enabled true;
          (* with --trace-out, each command gets a distinct trace id:
             the server tags its spans with it, and the last id is what
             we fetch back and merge on exit. Meta commands like !stats
             are answered outside the server's traced request path, so
             they never become the fetch target — the merged trace
             always shows a real query *)
          let last_tid = ref None in
          let cmd_no = ref 0 in
          let call ~span req =
            match trace_out with
            | None -> print_resp (Icdb_net.Client.call client req)
            | Some _ ->
                incr cmd_no;
                let tid =
                  Printf.sprintf "cli%d.%d" (Unix.getpid ()) !cmd_no
                in
                (match req with
                 | Icdb_net.Wire.Stats -> ()
                 | _ -> last_tid := Some tid);
                let ctx = { Icdb_net.Wire.no_ctx with trace_id = tid } in
                Icdb_obs.Trace.with_tag tid (fun () ->
                    Icdb_obs.Trace.with_span span (fun () ->
                        print_resp (Icdb_net.Client.call ~ctx client req)))
          in
          let run_one cmd = call ~span:"client.request" (request_of_cmd cmd) in
          let code =
            try
              if batch then begin
                (* all --exec commands ride in one Batch frame; the
                   trace id (when tracing) covers the whole batch *)
                let req =
                  Icdb_net.Wire.Batch (List.map entry_of_cmd execs)
                in
                if call ~span:"client.batch" req then 0 else 1
              end
              else if execs <> [] then run_execs run_one execs
              else begin
                let interactive = Unix.isatty Unix.stdin in
                if interactive then
                  Printf.printf "connected to icdbd at %s:%d\n" host port;
                let errors = shell_loop ~interactive run_one in
                if (not interactive) && errors > 0 then 1 else 0
              end
            with Icdb_net.Client.Net_error msg ->
              Printf.eprintf "connection error: %s\n" msg;
              1
          in
          (match (trace_out, !last_tid) with
           | Some path, Some tid ->
               (* merge the last request's client-side spans with the
                  server-side spans fetched for the same trace id *)
               let local = Icdb_obs.Trace.tagged tid in
               let remote =
                 match Icdb_net.Client.fetch_trace client tid with
                 | Ok spans -> spans
                 | Error (code, msg) ->
                     Printf.eprintf
                       "warning: could not fetch remote spans (%s): %s\n"
                       (Icdb_net.Wire.error_code_to_string code)
                       msg;
                     []
                 | exception Icdb_net.Client.Net_error msg ->
                     Printf.eprintf
                       "warning: could not fetch remote spans: %s\n" msg;
                     []
               in
               let merged =
                 Icdb_net.Client.merge_remote_spans ~local ~remote
               in
               Icdb_obs.Trace.write_chrome ~spans:merged path;
               Printf.printf
                 "merged trace for %s (%d client + %d server spans) written \
                  to %s\n\
                  load it in chrome://tracing or https://ui.perfetto.dev\n"
                 tid (List.length local) (List.length remote) path
           | Some path, None ->
               Icdb_obs.Trace.write_chrome ~spans:[] path;
               Printf.eprintf
                 "warning: no commands were traced; wrote an empty trace to \
                  %s\n"
                 path
           | None, _ -> ());
          Icdb_net.Client.close client;
          exit code)

(* ------------------------------------------------------------------ *)
(* recover                                                             *)
(* ------------------------------------------------------------------ *)

let recover workspace interactive =
  match Server.reopen ~workspace () with
  | exception Server.Icdb_error msg ->
      Printf.eprintf "recovery failed: %s\n" msg;
      exit 1
  | server, r ->
      Printf.printf "recovered workspace %s\n" workspace;
      Printf.printf "  journal entries replayed: %d\n" r.Server.rr_entries_replayed;
      if r.Server.rr_torn_tail then
        print_endline "  torn journal tail truncated";
      if r.Server.rr_rolled_back_tx then
        print_endline "  uncommitted transaction rolled back";
      Printf.printf "  instances: %s\n"
        (match r.Server.rr_instances with
         | [] -> "(none)"
         | ids -> String.concat " " ids);
      List.iter
        (fun (kind, msg) ->
          Printf.printf "  dropped (%s): %s\n" (Fault.kind_to_string kind) msg)
        r.Server.rr_dropped;
      List.iter (Printf.printf "  removed orphan: %s\n") r.Server.rr_orphans;
      if interactive then ignore (shell_loop (local_shell server))

(* ------------------------------------------------------------------ *)
(* catalog                                                             *)
(* ------------------------------------------------------------------ *)

let catalog () =
  Printf.printf "%-18s %-14s %-38s %s\n" "component" "implementation"
    "functions" "attributes (defaults)";
  print_endline (String.make 100 '-');
  List.iter
    (fun (c : Icdb_genus.Component.t) ->
      Printf.printf "%-18s %-14s %-38s %s\n" c.Icdb_genus.Component.comp_name
        c.Icdb_genus.Component.implementation
        (String.concat ","
           (List.map Icdb_genus.Func.to_string
              (c.Icdb_genus.Component.functions_of [])))
        (String.concat ", "
           (List.map
              (fun (n, v) -> Printf.sprintf "%s=%d" n v)
              c.Icdb_genus.Component.attributes)))
    Icdb_genus.Component.all

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen component size strategy clock_width layout_out =
  let server = Server.create () in
  let strategy =
    match strategy with
    | "fastest" -> Icdb_timing.Sizing.Fastest
    | "cheapest" -> Icdb_timing.Sizing.Cheapest
    | _ -> Icdb_timing.Sizing.Balanced
  in
  let constraints =
    { Icdb_timing.Sizing.default_constraints with
      strategy;
      clock_width }
  in
  let inst =
    Server.request_component server
      (Spec.make ~constraints
         (Spec.From_component
            { component; attributes = [ ("size", size) ]; functions = [] }))
  in
  Printf.printf "instance: %s (%d gates, constraints %s)\n" inst.Instance.id
    (Instance.gate_count inst)
    (if inst.Instance.constraints_met then "met" else "NOT met");
  print_endline "-- delay --";
  print_endline (Instance.delay_string inst);
  print_endline "-- shape function --";
  print_endline (Instance.shape_string inst);
  print_endline "-- connection info --";
  print_endline (Instance.connect_string inst);
  match layout_out with
  | None -> ()
  | Some path ->
      let _, cif, _ = Server.request_layout server inst.Instance.id () in
      Out_channel.with_open_text path (fun oc -> output_string oc cif);
      Printf.printf "CIF layout written to %s\n" path

(* ------------------------------------------------------------------ *)
(* cells                                                               *)
(* ------------------------------------------------------------------ *)

let cells () =
  Printf.printf "%-10s %5s %8s %6s %6s %6s %6s\n" "cell" "T" "width" "X" "Y"
    "Z" "setup";
  print_endline (String.make 56 '-');
  List.iter
    (fun (c : Icdb_logic.Celllib.t) ->
      Printf.printf "%-10s %5d %8.1f %6.2f %6.2f %6.2f %6.1f\n"
        c.Icdb_logic.Celllib.cname c.Icdb_logic.Celllib.transistors
        c.Icdb_logic.Celllib.width c.Icdb_logic.Celllib.x_delay
        c.Icdb_logic.Celllib.y_delay c.Icdb_logic.Celllib.z_delay
        c.Icdb_logic.Celllib.setup)
    Icdb_logic.Celllib.all

(* ------------------------------------------------------------------ *)
(* hls                                                                 *)
(* ------------------------------------------------------------------ *)

let hls dfg_name clock pessimism with_rtl =
  let dfg =
    match dfg_name with
    | "diffeq" -> Icdb_hls.Dfg.diffeq
    | "fir4" -> Icdb_hls.Dfg.fir4
    | other ->
        Printf.eprintf "unknown dataflow graph %s (try diffeq or fir4)\n" other;
        exit 1
  in
  let server = Server.create () in
  let r = Icdb_hls.Schedule.run server dfg ~clock ~pessimism in
  print_string (Icdb_hls.Schedule.to_string r);
  if with_rtl then begin
    let ctrl = Icdb_hls.Controller.generate server r in
    Printf.printf "\ncontroller (%d gates):\n%s\n"
      (Instance.gate_count ctrl.Icdb_hls.Controller.c_instance)
      ctrl.Icdb_hls.Controller.c_iif;
    let dp = Icdb_hls.Datapath.generate server r in
    Printf.printf "datapath cluster: %d gates, %d muxes, %d registered results\n"
      (Instance.gate_count dp.Icdb_hls.Datapath.d_instance)
      dp.Icdb_hls.Datapath.d_muxes
      (List.length dp.Icdb_hls.Datapath.d_registers)
  end

(* ------------------------------------------------------------------ *)
(* stats / trace                                                       *)
(* ------------------------------------------------------------------ *)

let workload_spec component size strategy =
  let strategy =
    match strategy with
    | "fastest" -> Icdb_timing.Sizing.Fastest
    | "cheapest" -> Icdb_timing.Sizing.Cheapest
    | _ -> Icdb_timing.Sizing.Balanced
  in
  Spec.make
    ~constraints:{ Icdb_timing.Sizing.default_constraints with strategy }
    ~target:Spec.Layout
    (Spec.From_component
       { component; attributes = [ ("size", size) ]; functions = [] })

(* The machine-readable flavour of `stats`: the wire payload through
   the deterministic emitter, so CI scripts and `icdb top` share one
   schema with bench_out artifacts. Field order is fixed by
   construction; counter/gauge/histogram order is the registry's
   (name-sorted) order, carried verbatim by the payload. *)
let stats_payload_json (p : Icdb_net.Wire.stats_payload) =
  let open Icdb_obs in
  let open Icdb_net.Wire in
  Json.Obj
    [ ("text", Json.Str p.sp_text);
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) p.sp_counters) );
      ( "gauges",
        Json.Obj (List.map (fun (n, v) -> (n, Json.float v)) p.sp_gauges) );
      ( "histograms",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [ ("name", Json.Str h.hs_name);
                   ("count", Json.Int h.hs_count);
                   ("sum", Json.float h.hs_sum);
                   ("min", Json.float h.hs_min);
                   ("max", Json.float h.hs_max);
                   ("p50", Json.float h.hs_p50);
                   ("p90", Json.float h.hs_p90);
                   ("p99", Json.float h.hs_p99) ])
             p.sp_hists) );
      ("slow", Json.List (List.map Icdb_net.Admin.slow_entry_json p.sp_slow))
    ]

(* Run a small representative workload with tracing on, then print the
   Stats reply of the in-process request path: the cache summary, every
   counter the instrumented code bumped and one span.<name> latency
   histogram per phase. With --connect, print the Stats reply of a
   running icdbd instead — cache counters, net.* admission counters,
   the per-wire-command latency histograms and the slow-request log. *)
let stats component requests connect json =
  let resp =
    match connect with
    | Some endpoint -> (
        match parse_host_port endpoint with
        | None ->
            Printf.eprintf "error: expected HOST:PORT, got %s\n" endpoint;
            exit 2
        | Some (host, port) -> (
            match
              let client = Icdb_net.Client.connect ~host ~port () in
              Fun.protect
                ~finally:(fun () -> Icdb_net.Client.close client)
                (fun () -> Icdb_net.Client.call client Icdb_net.Wire.Stats)
            with
            | resp -> resp
            | exception Icdb_net.Client.Net_error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1))
    | None ->
        Icdb_obs.Trace.set_enabled true;
        let server = Server.create ~verify:false () in
        (try
           for i = 0 to requests - 1 do
             (* vary the width so the workload mixes cold generations with
                exact-cache hits, like a real synthesis session *)
             let size = 2 + (i mod 4) in
             ignore
               (Server.request_component server
                  (workload_spec component size "balanced"))
           done
         with Server.Icdb_error msg ->
           Printf.eprintf "error: %s\n" msg;
           exit 1);
        if not json then
          Printf.printf "%d request(s) against component %s\n\n" requests
            component;
        Icdb_net.Dispatch.run (local_dispatch server) Icdb_net.Wire.Stats
  in
  match resp with
  | Icdb_net.Wire.Stats_report p when json ->
      print_string (Icdb_obs.Json.to_string (stats_payload_json p))
  | resp -> if not (print_resp resp) then exit 1

(* Live terminal cockpit over a running icdbd: poll the wire Stats
   payload at a fixed interval, compute rates from counter deltas, and
   read the level gauges the telemetry sampler maintains. One
   persistent wire connection; no admin port needed. *)
let top connect interval iterations =
  let open Icdb_net.Wire in
  match parse_host_port connect with
  | None ->
      Printf.eprintf "error: expected HOST:PORT, got %s\n" connect;
      exit 2
  | Some (host, port) ->
      let client =
        match Icdb_net.Client.connect ~host ~port () with
        | c -> c
        | exception Icdb_net.Client.Net_error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
      in
      let counter p name =
        Option.value (List.assoc_opt name p.sp_counters) ~default:0
      in
      let gauge p name =
        (* Never let a bad sample put nan/inf on the dashboard. *)
        let v = Option.value (List.assoc_opt name p.sp_gauges) ~default:0.0 in
        if Float.is_finite v then v else 0.0
      in
      let hist_p99 p name =
        match List.find_opt (fun h -> h.hs_name = name) p.sp_hists with
        | Some h when h.hs_count > 0 && Float.is_finite h.hs_p99 ->
            Icdb_obs.Metrics.pretty_s h.hs_p99
        | Some _ | None -> "-"
      in
      let tty = Unix.isatty Unix.stdout in
      let prev = ref None in
      let rec loop i =
        (match Icdb_net.Client.stats client with
         | Error (code, msg) ->
             Printf.eprintf "remote error (%s): %s\n"
               (error_code_to_string code) msg;
             exit 1
         | exception Icdb_net.Client.Net_error msg ->
             Printf.eprintf "error: %s\n" msg;
             exit 1
         | Ok p ->
             let t = Unix.gettimeofday () in
             let rate name =
               (* "-" on the first sample, a zero/negative interval
                  (clock step), or a counter reset (server restart):
                  never nan/inf, never a negative rate. *)
               match !prev with
               | Some (q, tq) when t > tq ->
                   let delta = counter p name - counter q name in
                   let r = float_of_int delta /. (t -. tq) in
                   if delta < 0 || not (Float.is_finite r) then "-"
                   else Printf.sprintf "%.1f" r
               | _ -> "-"
             in
             if tty && iterations <> 1 then print_string "\027[2J\027[H";
             Printf.printf "icdb top — %s  (interval %gs)\n" connect interval;
             let tripped = gauge p "net.watchdog.tripped" > 0.5 in
             if tripped then
               print_string "!! STALL WATCHDOG TRIPPED (see /healthz)\n";
             Printf.printf "req/s %-8s err/s %-8s p99(req) %-9s p99(wait) %-9s\n"
               (rate "net.requests") (rate "net.errors")
               (hist_p99 p "net.request_s") (hist_p99 p "net.queue_wait");
             Printf.printf
               "queue %-4.0f age %-6.2fs wq %-9.0fB fds %-5.0f rss %s\n"
               (gauge p "net.queue_depth") (gauge p "net.queue_age_s")
               (gauge p "net.wq_bytes") (gauge p "process.open_fds")
               (let rss = gauge p "process.max_rss_bytes" in
                if rss > 0.0 then Printf.sprintf "%.0fMiB" (rss /. 1048576.0)
                else "-");
             Printf.printf
               "conns %-4.0f (active %.0f paused %.0f fatal %.0f) followers \
                %-3.0f lag %.0frec/%.1fs\n"
               (gauge p "net.connections") (gauge p "net.conns.active")
               (gauge p "net.conns.paused") (gauge p "net.conns.fatal")
               (gauge p "repl.followers") (gauge p "repl.lag_records")
               (gauge p "repl.lag_seconds");
             Printf.printf "loop p99: poll %-9s dispatch %s\n%!"
               (hist_p99 p "net.loop.poll_wait")
               (hist_p99 p "net.loop.dispatch");
             prev := Some (p, t));
        if iterations = 0 || i + 1 < iterations then begin
          Thread.delay interval;
          loop (i + 1)
        end
      in
      Fun.protect
        ~finally:(fun () -> Icdb_net.Client.close client)
        (fun () -> loop 0)

(* Pull a flight-recorder dump from a running icdbd's admin port. *)
let blackbox connect out =
  match parse_host_port connect with
  | None ->
      Printf.eprintf "error: expected HOST:ADMIN_PORT, got %s\n" connect;
      exit 2
  | Some (host, port) -> (
      match Icdb_obs.Expo.http_get ~host ~port "/blackboxz" with
      | 200, body -> (
          match out with
          | None -> print_string body
          | Some path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc body);
              Printf.printf "blackbox dump written to %s (%d bytes)\n" path
                (String.length body))
      | status, body ->
          Printf.eprintf "error: /blackboxz answered %d: %s" status body;
          exit 1
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: cannot reach %s: %s\n" connect
            (Unix.error_message e);
          exit 1
      | exception Failure msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1)

(* Trace one request end to end and write the span tree as Chrome
   trace_event JSON. *)
let trace_run out component size =
  Icdb_obs.Trace.set_enabled true;
  let server = Server.create ~verify:false () in
  let mark = Icdb_obs.Trace.finished_count () in
  (match Server.request_component server (workload_spec component size "balanced") with
   | exception Server.Icdb_error msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1
   | inst ->
       let spans = Icdb_obs.Trace.since mark in
       Icdb_obs.Trace.write_chrome ~spans out;
       Printf.printf "instance %s: %d span(s) written to %s\n" inst.Instance.id
         (List.length spans) out;
       Printf.printf "load the file in chrome://tracing or https://ui.perfetto.dev\n\n";
       Printf.printf "%-20s %10s\n" "phase" "total";
       print_endline (String.make 32 '-');
       List.iter
         (fun (name, seconds) ->
           Printf.printf "%-20s %10s\n" name (Icdb_obs.Metrics.pretty_s seconds))
         (Icdb_obs.Trace.phase_totals spans))

(* ------------------------------------------------------------------ *)
(* cmdliner wiring                                                     *)
(* ------------------------------------------------------------------ *)

let shell_cmd =
  let workspace =
    Arg.(value & opt (some string) None
         & info [ "workspace" ] ~doc:"Workspace directory" ~docv:"DIR")
  in
  let durable =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"Journal every mutation so the workspace survives a crash \
                   (recover it with $(b,icdb recover))")
  in
  let log_level =
    Arg.(value & opt (some string) None
         & info [ "log-level" ]
             ~doc:"Log structured events at this level and above to stderr \
                   (debug|info|warn|error)" ~docv:"LEVEL")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"Trace every request and write Chrome trace_event JSON to \
                   FILE on exit" ~docv:"FILE")
  in
  let execs =
    Arg.(value & opt_all string []
         & info [ "exec"; "e" ]
             ~doc:"Run CMD non-interactively instead of reading stdin; \
                   repeatable, runs in order, exits non-zero at the first \
                   failure" ~docv:"CMD")
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactive CQL shell over an in-process server: the same \
             commands ($(b,!sql), $(b,!explain), $(b,!stats), $(b,!batch)), \
             request path and error codes as $(b,icdb connect), without the \
             network")
    Term.(const shell $ workspace $ durable $ log_level $ trace_out $ execs)

let serve_cmd =
  let workspace =
    Arg.(value & opt (some string) None
         & info [ "workspace" ] ~doc:"Workspace directory" ~docv:"DIR")
  in
  let durable =
    Arg.(value & flag
         & info [ "durable" ]
             ~doc:"Journal every mutation; a SIGTERM shutdown checkpoints, \
                   and $(b,icdb recover) rebuilds the workspace after a crash")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~doc:"Bind address" ~docv:"ADDR")
  in
  let port =
    Arg.(value & opt int 7601
         & info [ "port"; "p" ]
             ~doc:"TCP port (0 picks an ephemeral port; see --port-file)"
             ~docv:"PORT")
  in
  let port_file =
    Arg.(value & opt (some string) None
         & info [ "port-file" ]
             ~doc:"Write the actually-bound port to FILE (atomically) once \
                   listening — the scripting hook for --port 0" ~docv:"FILE")
  in
  let admin_port =
    Arg.(value & opt (some int) None
         & info [ "admin-port" ]
             ~doc:"Also serve an HTTP admin endpoint on this port: /healthz, \
                   /readyz, /metrics (Prometheus text format), /tracez, \
                   /slowz. 0 picks an ephemeral port; see --admin-port-file"
             ~docv:"PORT")
  in
  let admin_port_file =
    Arg.(value & opt (some string) None
         & info [ "admin-port-file" ]
             ~doc:"Write the actually-bound admin port to FILE (atomically) \
                   once listening" ~docv:"FILE")
  in
  let max_connections =
    Arg.(value & opt int Icdb_net.Service.default_config.max_connections
         & info [ "max-connections" ]
             ~doc:"Refuse connections beyond this many concurrent clients")
  in
  let workers =
    Arg.(value & opt int Icdb_net.Service.default_config.workers
         & info [ "workers" ] ~doc:"Worker threads executing requests")
  in
  let max_queue =
    Arg.(value & opt int Icdb_net.Service.default_config.max_queue
         & info [ "max-queue" ]
             ~doc:"Shed requests once this many are queued unserved")
  in
  let request_timeout =
    Arg.(value & opt float Icdb_net.Service.default_config.request_timeout_s
         & info [ "request-timeout" ]
             ~doc:"Requests older than this many seconds when a worker picks \
                   them up are answered with a timeout error" ~docv:"SECONDS")
  in
  let idle_timeout =
    Arg.(value & opt float Icdb_net.Service.default_config.idle_timeout_s
         & info [ "idle-timeout" ]
             ~doc:"Reap connections idle longer than this many seconds"
             ~docv:"SECONDS")
  in
  let slow_threshold =
    Arg.(value & opt float Icdb_net.Service.default_config.slow_threshold_s
         & info [ "slow-threshold" ]
             ~doc:"Log requests at least this slow to the slow-query log \
                   (0 logs everything, negative disables)" ~docv:"SECONDS")
  in
  let telemetry_period =
    Arg.(value & opt float Icdb_net.Service.default_config.telemetry_period_s
         & info [ "telemetry-period" ]
             ~doc:"Sampling period of the continuous-telemetry time-series \
                   rings served at /statz (and of the stall watchdog); 0 \
                   disables both" ~docv:"SECONDS")
  in
  let blackbox_out =
    Arg.(value & opt (some string) None
         & info [ "blackbox-out" ]
             ~doc:"Where the flight recorder dumps on SIGQUIT or a fatal \
                   exit (default: icdb.blackbox.json in the workspace)"
             ~docv:"FILE")
  in
  let follow =
    Arg.(value & opt (some string) None
         & info [ "follow" ]
             ~doc:"Run as a read-only replication follower of the primary \
                   icdbd at HOST:PORT: catch up from a checkpoint or the \
                   journal stream, serve queries locally, refuse mutations \
                   with a read_only error. Requires --workspace (the \
                   follower's durable state lives there across restarts); \
                   /readyz on --admin-port gates on replication lag"
             ~docv:"HOST:PORT")
  in
  let log_level =
    Arg.(value & opt (some string) None
         & info [ "log-level" ]
             ~doc:"Log structured events at this level and above to stderr \
                   (debug|info|warn|error)" ~docv:"LEVEL")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the component server as a network daemon (icdbd), as a \
             primary or (with --follow) a read-only follower. SIGTERM \
             drains in-flight requests, checkpoints a durable workspace, \
             then exits")
    Term.(const serve $ workspace $ durable $ host $ port $ port_file
          $ admin_port $ admin_port_file $ max_connections $ workers
          $ max_queue $ request_timeout $ idle_timeout $ slow_threshold
          $ telemetry_period $ blackbox_out $ follow $ log_level)

let connect_cmd =
  let endpoint =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT"
           ~doc:"Address of a running $(b,icdb serve)")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"Send a trace id with every CQL command, fetch the \
                   server-side spans of the last one back, and write the \
                   merged client+server Chrome trace_event JSON to FILE on \
                   exit" ~docv:"FILE")
  in
  let execs =
    Arg.(value & opt_all string []
         & info [ "exec"; "e" ]
             ~doc:"Run CMD non-interactively instead of reading stdin; \
                   repeatable, runs in order, exits non-zero at the first \
                   failure" ~docv:"CMD")
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:"Send all $(b,--exec) commands as one pipelined Batch \
                   frame: one round trip, per-entry results in order, \
                   failures isolated to their entry")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Interactive CQL shell against a remote icdbd — every local \
             shell workflow, over the wire")
    Term.(const connect $ endpoint $ trace_out $ batch $ execs)

let recover_cmd =
  let workspace =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKSPACE"
           ~doc:"Workspace directory of a durable server")
  in
  let interactive =
    Arg.(value & flag
         & info [ "shell" ] ~doc:"Drop into the CQL shell after recovery")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a durable server from its workspace after a crash")
    Term.(const recover $ workspace $ interactive)

let catalog_cmd =
  Cmd.v (Cmd.info "catalog" ~doc:"List the predefined component catalog")
    Term.(const catalog $ const ())

let cells_cmd =
  Cmd.v (Cmd.info "cells" ~doc:"Print the technology cell library")
    Term.(const cells $ const ())

let gen_cmd =
  let component =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"COMPONENT")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size"; "n" ] ~doc:"Bit width")
  in
  let strategy =
    Arg.(value & opt string "balanced"
         & info [ "strategy" ] ~doc:"fastest | cheapest | balanced")
  in
  let clock_width =
    Arg.(value & opt (some float) None
         & info [ "clock-width" ] ~doc:"Minimum clock width bound (ns)")
  in
  let layout =
    Arg.(value & opt (some string) None
         & info [ "layout" ] ~doc:"Write a CIF layout to FILE" ~docv:"FILE")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate one component and print its reports")
    Term.(const gen $ component $ size $ strategy $ clock_width $ layout)

let hls_cmd =
  let dfg =
    Arg.(value & pos 0 string "diffeq" & info [] ~docv:"DFG"
           ~doc:"Dataflow graph: diffeq or fir4")
  in
  let clock =
    Arg.(value & opt float 30.0 & info [ "clock" ] ~doc:"Clock period (ns)")
  in
  let pessimism =
    Arg.(value & opt float 1.0
         & info [ "pessimism" ]
             ~doc:"Delay margin factor (1.0 = ICDB numbers, 1.6 = generic library)")
  in
  let rtl =
    Arg.(value & flag & info [ "rtl" ] ~doc:"Also generate controller and datapath")
  in
  Cmd.v
    (Cmd.info "hls" ~doc:"Schedule a dataflow graph against ICDB (Figure 1)")
    Term.(const hls $ dfg $ clock $ pessimism $ rtl)

let stats_cmd =
  let component =
    Arg.(value & opt string "counter"
         & info [ "component" ] ~doc:"Component to request" ~docv:"NAME")
  in
  let requests =
    Arg.(value & opt int 8
         & info [ "requests"; "n" ] ~doc:"Number of requests to run")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ]
             ~doc:"Instead of a local workload, fetch the live metrics of \
                   the icdbd at HOST:PORT — cache counters, net.* admission \
                   counters, and per-wire-command latency histograms"
             ~docv:"HOST:PORT")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the stats payload as deterministic JSON (fixed \
                   field order) instead of the human tables — the format CI \
                   scripts parse; the same schema with or without \
                   $(b,--connect)")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a traced workload and print the cache counters, all \
             pipeline counters and the per-phase span.<name> latency \
             histograms; or --connect to a live icdbd")
    Term.(const stats $ component $ requests $ connect $ json)

let top_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ]
             ~doc:"Address of a running icdbd (the wire port, as in \
                   $(b,icdb connect))" ~docv:"HOST:PORT")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval"; "i" ] ~doc:"Seconds between refreshes"
             ~docv:"SECONDS")
  in
  let iterations =
    Arg.(value & opt int 0
         & info [ "iterations"; "n" ]
             ~doc:"Exit after this many refreshes (0 = run until \
                   interrupted) — scripting/CI hook")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a running icdbd: request/error rates, \
             p99 latencies, queue and write-queue pressure, connection \
             states, replication lag, open fds")
    Term.(const top $ connect $ interval $ iterations)

let blackbox_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ]
             ~doc:"Admin endpoint of a running icdbd (the --admin-port, \
                   not the wire port)" ~docv:"HOST:ADMIN_PORT")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ]
             ~doc:"Write the dump to FILE instead of stdout" ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:"Pull a flight-recorder dump (recent events, telemetry samples, \
             connection table) from a running icdbd's /blackboxz")
    Term.(const blackbox $ connect $ out)

let trace_cmd =
  let out =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Output file for the Chrome trace_event JSON")
  in
  let component =
    Arg.(value & opt string "counter"
         & info [ "component" ] ~doc:"Component to request" ~docv:"NAME")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size"; "n" ] ~doc:"Bit width")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Trace one component request end to end and write the span tree \
             as Chrome trace_event JSON (chrome://tracing, Perfetto)")
    Term.(const trace_run $ out $ component $ size)

(* ------------------------------------------------------------------ *)
(* explore — design-space exploration sweeps (DB4HLS workload)         *)
(* ------------------------------------------------------------------ *)

let print_store_result = function
  | Icdb_reldb.Sql.Affected n -> Printf.printf "%d row(s)\n" n
  | Icdb_reldb.Sql.Relation rel ->
      print_relation
        (List.map fst rel.Icdb_reldb.Query.rschema)
        (List.map
           (fun row ->
             Array.to_list (Array.map Icdb_reldb.Value.to_string row))
           rel.Icdb_reldb.Query.rrows)

let explore component axis_specs sweep store_dir connect batch inflight power
    limit verify query pareto json_out log_level =
  setup_logging log_level;
  let module Ax = Icdb_explore.Axis in
  let module St = Icdb_explore.Store in
  let module Dr = Icdb_explore.Driver in
  let fatal fmt = Printf.ksprintf (fun s -> Printf.eprintf "error: %s\n" s;
                                    exit 1) fmt
  in
  let usage fmt = Printf.ksprintf (fun s -> Printf.eprintf "error: %s\n" s;
                                    exit 2) fmt
  in
  let axes =
    try List.map Ax.parse axis_specs
    with Ax.Axis_error msg -> usage "%s" msg
  in
  if axis_specs = [] && query = None && pareto = None then
    usage "nothing to do: give at least one --axis, or --query/--pareto";
  let points =
    if axis_specs = [] then []
    else try Ax.expand ~component axes with Ax.Axis_error msg -> usage "%s" msg
  in
  let sweep = match sweep with Some s -> s | None -> component in
  let store =
    try St.open_ store_dir
    with
    | St.Store_error msg | Icdb_reldb.Db.Db_error msg -> fatal "%s" msg
    | Icdb_reldb.Journal.Journal_error msg -> fatal "%s" msg
  in
  Fun.protect ~finally:(fun () -> St.close store) @@ fun () ->
  let tty = Unix.isatty Unix.stderr in
  let progress_printed = ref false in
  let on_progress (pr : Dr.progress) =
    let show =
      tty || pr.Dr.pr_done = 0
      || pr.Dr.pr_done mod 10 = 0
      || pr.Dr.pr_done + pr.Dr.pr_skipped >= pr.Dr.pr_total
    in
    if show then begin
      progress_printed := true;
      let eta =
        match pr.Dr.pr_eta_s with
        | Some e when Float.is_finite e -> Printf.sprintf "  eta %.0fs" e
        | _ -> ""
      in
      Printf.eprintf "%sexplore %s: %d/%d done, %d skipped, %d failed%s%s%!"
        (if tty then "\r\027[K" else "") sweep pr.Dr.pr_done
        (pr.Dr.pr_total - pr.Dr.pr_skipped) pr.Dr.pr_skipped pr.Dr.pr_failed
        eta
        (if tty then "" else "\n")
    end
  in
  let t0 = Unix.gettimeofday () in
  let summary =
    if points = [] then None
    else
      let run backend =
        try Dr.run ~power ?limit ~on_progress ~sweep backend store points with
        | Dr.Driver_error msg -> fatal "%s" msg
        | Icdb_net.Client.Net_error msg ->
            if tty && !progress_printed then prerr_newline ();
            fatal "connection lost: %s (completed points are persisted; \
                   rerun to resume)" msg
      in
      match connect with
      | None -> Some (run (Dr.Local (Server.create ~verify ())))
      | Some spec -> (
          match parse_host_port spec with
          | None -> usage "expected HOST:PORT, got %s" spec
          | Some (host, port) -> (
              match Icdb_net.Client.connect ~host ~port ~retries:2 () with
              | exception Icdb_net.Client.Net_error msg -> fatal "%s" msg
              | client ->
                  Fun.protect
                    ~finally:(fun () -> Icdb_net.Client.close client)
                    (fun () ->
                      Some
                        (run
                           (Dr.Remote { client; batch; inflight })))))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  if tty && !progress_printed then prerr_newline ();
  (* --verify also covers the reporting queries: re-run each one under
     EXPLAIN ANALYZE so the plan the store actually executed — index
     probe vs. scan, with per-node actual row counts — is printed next
     to its rows. *)
  let explain_if_verify stmt =
    if verify then begin
      match St.query store ("EXPLAIN ANALYZE " ^ stmt) with
      | Icdb_reldb.Sql.Relation rel ->
          List.iter
            (fun row ->
              match row.(0) with
              | Icdb_reldb.Value.Str line -> Printf.printf "  # %s\n" line
              | _ -> ())
            rel.Icdb_reldb.Query.rrows
      | Icdb_reldb.Sql.Affected _ -> ()
      | exception Icdb_reldb.Sql.Sql_error msg ->
          Printf.eprintf "explain failed: %s\n" msg
    end
  in
  (match summary with
  | None -> ()
  | Some s ->
      Printf.printf
        "sweep %s: %d points — %d executed, %d skipped, %d failed (%.1fs); \
         %d rows persisted in %s\n"
        sweep s.Dr.s_total s.Dr.s_executed s.Dr.s_skipped
        (List.length s.Dr.s_failures) seconds
        (St.count store ~sweep) store_dir;
      List.iter
        (fun (f : Dr.failure) ->
          Printf.printf "  failed: %s: %s\n"
            (Ax.point_to_string f.Dr.f_point)
            f.Dr.f_reason)
        s.Dr.s_failures;
      St.checkpoint store);
  (match pareto with
  | None -> ()
  | Some objectives -> (
      match String.split_on_char ',' objectives |> List.map String.trim with
      | [ x; y ] when x <> "" && y <> "" ->
          let stmt =
            Printf.sprintf "PARETO %s ON %s, %s WHERE sweep = %s" St.table_name
              x y
              (Icdb_reldb.Sql.quote_string sweep)
          in
          Printf.printf "%s\n" stmt;
          print_store_result (St.query store stmt);
          explain_if_verify stmt
      | _ -> usage "--pareto expects COLX,COLY (e.g. area,delay)"));
  (match query with
  | None -> ()
  | Some stmt -> (
      try
        print_store_result (St.query store stmt);
        explain_if_verify stmt
      with
      | Icdb_reldb.Sql.Sql_error msg
      | Icdb_reldb.Table.Schema_error msg
      | Icdb_reldb.Db.Db_error msg ->
          fatal "%s" msg));
  (match json_out, summary with
  | Some path, Some s ->
      let failed = List.length s.Dr.s_failures in
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc
            "{\"sweep\": \"%s\", \"total\": %d, \"executed\": %d, \
             \"skipped\": %d, \"failed\": %d, \"seconds\": %.3f, \
             \"rows\": %d}\n"
            (String.concat ""
               (List.map
                  (function
                    | ('"' | '\\') as c -> Printf.sprintf "\\%c" c
                    | c -> String.make 1 c)
                  (List.init (String.length sweep) (String.get sweep))))
            s.Dr.s_total s.Dr.s_executed s.Dr.s_skipped failed seconds
            (St.count store ~sweep))
  | _ -> ());
  match summary with
  | Some s when s.Dr.s_failures <> [] -> exit 1
  | _ -> ()

let explore_cmd =
  let component =
    Arg.(value & opt string "counter"
         & info [ "component" ] ~doc:"Catalog component to sweep" ~docv:"NAME")
  in
  let axes =
    Arg.(value & opt_all string []
         & info [ "axis"; "a" ]
             ~doc:"One sweep axis, $(i,name=values): $(b,size=2..9), \
                   $(b,size=2..16..2), $(b,size=2,4,8), \
                   $(b,strategy=fastest,cheapest,balanced), \
                   $(b,clock=10,20,none), $(b,delay=5,7.5,none); repeatable, \
                   the sweep is the cartesian product" ~docv:"AXIS")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ]
             ~doc:"Sweep name results are filed under (default: the \
                   component name); reruns with the same name skip \
                   already-persisted points" ~docv:"NAME")
  in
  let store_dir =
    Arg.(value & opt string "explore_store"
         & info [ "store" ]
             ~doc:"Results store directory (journal + snapshot); safe to \
                   kill and rerun" ~docv:"DIR")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ]
             ~doc:"Drive a running icdbd through the pipelined wire \
                   batch path instead of an in-process server"
             ~docv:"HOST:PORT")
  in
  let batch =
    Arg.(value & opt int 16
         & info [ "batch" ] ~doc:"Points per Batch frame (with --connect)")
  in
  let inflight =
    Arg.(value & opt int 4
         & info [ "inflight" ]
             ~doc:"Batch frames in flight at once (with --connect)")
  in
  let power =
    Arg.(value & flag
         & info [ "power" ]
             ~doc:"Also simulate and record dynamic power per point \
                   (slower)")
  in
  let limit =
    Arg.(value & opt (some int) None
         & info [ "limit" ]
             ~doc:"Execute at most N new points this run (partial sweeps \
                   resume on rerun)" ~docv:"N")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Verify every generated netlist by simulation (local \
                   backend only; slower). Also prints the EXPLAIN ANALYZE \
                   plan under each --query/--pareto report")
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "query" ]
             ~doc:"After the sweep, run this SQL (SELECT/PARETO/DOMINATED) \
                   against the store and print the rows" ~docv:"STMT")
  in
  let pareto =
    Arg.(value & opt (some string) None
         & info [ "pareto" ]
             ~doc:"After the sweep, print this sweep's Pareto frontier on \
                   two numeric columns, e.g. $(b,area,delay)" ~docv:"X,Y")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ]
             ~doc:"Write a machine-readable run summary to FILE" ~docv:"FILE")
  in
  let log_level =
    Arg.(value & opt (some string) None
         & info [ "log-level" ]
             ~doc:"Log structured events at this level and above to stderr \
                   (debug|info|warn|error)" ~docv:"LEVEL")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Sweep a component's attribute/constraint lattice (design-space \
             exploration), persist every point in an indexed, \
             Pareto-queryable results store, and resume safely after a \
             kill: already-persisted points are never recomputed")
    Term.(const explore $ component $ axes $ sweep $ store_dir $ connect
          $ batch $ inflight $ power $ limit $ verify $ query $ pareto $ json
          $ log_level)

let default =
  Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  Faultinject.init_from_env ();
  let info =
    Cmd.info "icdb" ~version:"1.0.0"
      ~doc:"Intelligent Component Database for behavioral synthesis"
  in
  exit (Cmd.eval (Cmd.group ~default info
                    [ shell_cmd; serve_cmd; connect_cmd; recover_cmd;
                      catalog_cmd; gen_cmd; cells_cmd; hls_cmd; stats_cmd;
                      top_cmd; blackbox_cmd; trace_cmd; explore_cmd ]))
