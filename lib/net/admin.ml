(* The icdbd admin plane: an HTTP/1.0 listener on its own port serving
   scrape and probe endpoints. Kept strictly separate from the wire
   protocol port so an operator's curl, a Prometheus scraper, or a
   load-balancer health check never competes with (or needs to speak)
   the binary protocol, and so the admin surface can be bound to a
   different, more private interface. *)

open Icdb_obs

type t = { http : Expo.http }

let spans_json spans =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"spans\":[";
  List.iteri
    (fun i (s : Trace.span) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n{\"id\":%d,\"name\":\"%s\",\"tag\":%s,\"start_ns\":%d,\"dur_ns\":%d}"
        s.Trace.sid
        (Json.escape s.Trace.sname)
        (match s.Trace.stag with
         | Some tag -> Printf.sprintf "\"%s\"" (Json.escape tag)
         | None -> "null")
        s.Trace.sstart_ns s.Trace.sdur_ns)
    spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* The one JSON shape of a slow-log entry: /slowz and `icdb stats
   --json` both emit it. *)
let slow_entry_json (e : Wire.slow_entry) =
  Json.Obj
    [ ("cmd", Json.Str e.Wire.sl_cmd);
      ("trace", Json.Str e.Wire.sl_trace);
      ("conn", Json.Int e.Wire.sl_conn);
      ("seconds", Json.float e.Wire.sl_seconds);
      ("cache", Json.Str e.Wire.sl_cache);
      ( "phases",
        Json.Obj (List.map (fun (n, s) -> (n, Json.float s)) e.Wire.sl_phases)
      );
      ("plan", Json.Str e.Wire.sl_plan) ]

(* The /queryz body: the statement-statistics plane, rendered through
   the shared deterministic emitter in Qstats.snapshot order
   (most-called first). *)
let queryz_json () =
  let entries = Icdb_reldb.Qstats.snapshot () in
  Json.to_string
    (Json.Obj
       [ ("statements", Json.Int (List.length entries));
         ( "queries",
           Json.List
             (List.map
                (fun (e : Icdb_reldb.Qstats.entry) ->
                  Json.Obj
                    [ ("fingerprint", Json.Str e.Icdb_reldb.Qstats.qs_fingerprint);
                      ("plan", Json.Str e.Icdb_reldb.Qstats.qs_plan);
                      ("calls", Json.Int e.Icdb_reldb.Qstats.qs_calls);
                      ("rows", Json.Int e.Icdb_reldb.Qstats.qs_rows);
                      ( "total_ms",
                        Json.float ~prec:3
                          (e.Icdb_reldb.Qstats.qs_total_s *. 1e3) );
                      ( "max_ms",
                        Json.float ~prec:3
                          (e.Icdb_reldb.Qstats.qs_max_s *. 1e3) ) ])
                entries) ) ])

(* How many recent spans /tracez returns; the ring holds far more, but
   an admin page is for a quick look, not a full export. *)
let tracez_limit = 256

(* Readiness: the daemon is taking traffic usefully. Each check renders
   one "name ok|FAIL" line so a failing probe says why. The workspace
   probe actually writes a file — a read-only disk or deleted
   workspace must turn the daemon not-ready, and only a write proves
   writability. *)
let readiness ?replica ~service ~sync () =
  let cfg = Service.config service in
  let checks =
    [ ("accepting", not (Service.stopping service));
      ( "queue",
        Service.queue_depth service < cfg.Service.max_queue );
      ( "workspace",
        let probe =
          Filename.concat (Sync.peek_workspace sync) ".readyz-probe"
        in
        match
          let oc = open_out probe in
          output_string oc "ok";
          close_out oc;
          Sys.remove probe
        with
        | () -> true
        | exception Sys_error _ -> false ) ]
    @
    (* a follower is only failover-ready while its stream is live and
       its lag within bounds: a load balancer probing /readyz must not
       route reads to a stale replica *)
    (match replica with
     | None -> []
     | Some r ->
         let lag_records, lag_seconds = Replica.lag r in
         [ ("repl_connected", Replica.connected r);
           ( Printf.sprintf "repl_lag_records(%d)" lag_records,
             lag_records <= Replica.max_lag_records );
           ( Printf.sprintf "repl_lag_seconds(%.1f)" lag_seconds,
             lag_seconds <= Replica.max_lag_seconds ) ])
  in
  let ready = List.for_all snd checks in
  let body =
    String.concat ""
      (List.map
         (fun (name, ok) ->
           Printf.sprintf "%s %s\n" name (if ok then "ok" else "FAIL"))
         checks)
  in
  (ready, body)

(* The /connz body: Service's diagnostic connection table through the
   shared deterministic emitter. *)
let connz_json service =
  let rows = Service.conn_table service in
  Json.to_string
    (Json.Obj
       [ ("connections", Json.Int (List.length rows));
         ( "conns",
           Json.List
             (List.map
                (fun (c : Service.conn_info) ->
                  Json.Obj
                    [ ("cid", Json.Int c.Service.ci_cid);
                      ("peer", Json.Str c.Service.ci_peer);
                      ("state", Json.Str c.Service.ci_state);
                      ("wq_bytes", Json.Int c.Service.ci_wq_bytes);
                      ("reqs", Json.Int c.Service.ci_reqs);
                      ("age_s", Json.float ~prec:3 c.Service.ci_age_s);
                      ("idle_s", Json.float ~prec:3 c.Service.ci_idle_s);
                      ("paused_s", Json.float ~prec:3 c.Service.ci_paused_s)
                    ])
                rows) ) ])

let handler ?replica ?recorder ~service ~sync path =
  match path with
  | "/healthz" -> (
      (* liveness, but an honest one: a daemon whose event loop is
         wedged is not alive in any useful sense, and the stall
         watchdog is the component that knows *)
      match Service.watchdog service with
      | false, _ -> Some (Expo.text "ok\n")
      | true, reason ->
          Some (Expo.text ~status:503 ("stall watchdog tripped: " ^ reason ^ "\n")))
  | "/readyz" ->
      let ready, body = readiness ?replica ~service ~sync () in
      Some (Expo.text ~status:(if ready then 200 else 503) body)
  | "/metrics" ->
      Expo.update_process_gauges ();
      Some (Expo.text (Expo.prometheus ()))
  | "/tracez" ->
      (* the span ring is only consistent under the server lock; taking
         the tail via [since] is O(limit), not O(ring) *)
      let spans =
        Sync.with_server sync (fun _ ->
            Trace.since (max 0 (Trace.finished_count () - tracez_limit)))
      in
      Some (Expo.json (spans_json spans))
  | "/slowz" ->
      let slow = List.map slow_entry_json (Service.slow_log service) in
      Some (Expo.json (Json.to_string (Json.Obj [ ("slow", Json.List slow) ])))
  | "/queryz" -> Some (Expo.json (queryz_json ()))
  | "/statz" -> (
      match Service.sampler service with
      | None ->
          Some
            (Expo.json ~status:404
               "{\"error\": \"telemetry sampler disabled\"}\n")
      | Some s -> Some (Expo.json (Json.to_string (Series.to_json s))))
  | "/connz" -> Some (Expo.json (connz_json service))
  | "/blackboxz" -> (
      match recorder with
      | None ->
          Some
            (Expo.json ~status:404 "{\"error\": \"no flight recorder\"}\n")
      | Some r ->
          Some
            (Expo.json
               (Json.to_string (Recorder.to_json ~reason:"blackboxz" r))))
  | "/" ->
      Some
        (Expo.text
           "icdbd admin endpoints:\n\
            /healthz    liveness (503 while the stall watchdog is tripped)\n\
            /readyz     readiness (accepting, queue, workspace, repl lag)\n\
            /metrics    Prometheus text exposition\n\
            /tracez     recent completed spans (JSON)\n\
            /slowz      slow-query log with plan summaries (JSON)\n\
            /queryz     per-statement query statistics (JSON)\n\
            /statz      telemetry time-series rings (JSON)\n\
            /connz      per-connection table (JSON)\n\
            /blackboxz  flight-recorder dump (JSON)\n")
  | _ -> None

let start ?host ?replica ?recorder ~port ~service ~sync () =
  let http =
    Expo.http_start ?host ~port (handler ?replica ?recorder ~service ~sync)
  in
  Event.info "net: admin endpoint listening on port %d" (Expo.http_port http);
  { http }

let port t = Expo.http_port t.http
let stop t = Expo.http_stop t.http
