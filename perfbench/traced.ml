(* Traced runs: the workload's seeded work replayed in process, every
   call into a layer wrapped in a span from [Spans], plus the few
   figures only a live daemon gives (ping and round-trip probes). The
   program's own tracing stays off. *)

open Icdb
module Client = Icdb_net.Client
module Wire = Icdb_net.Wire
module Exec = Icdb_cql.Exec
module Sql = Icdb_reldb.Sql
module Journal = Icdb_reldb.Journal
module Json = Icdb_obs.Json
module W = Workloads

type t = {
  metrics : (string * float * string) list;
  report : (string * Json.t) list;
  checks : (string * bool) list;
  attempted : int;
  failed : int;
  daemons : string list;
}

let span = Spans.with_span
let now = Unix.gettimeofday
let op_counter = ref 0

let next_op () =
  incr op_counter;
  Spans.set_op !op_counter

let p50 b = Stats.pct (Stats.to_sorted [ b ]) 50.0

(* ------------------------------------------------------------------ *)
(* Daemon probes                                                       *)
(* ------------------------------------------------------------------ *)

let ping_p50 c =
  let b = Stats.buf () in
  for _ = 1 to 2000 do
    let t0 = now () in
    Client.ping c;
    Stats.push b (now () -. t0)
  done;
  p50 b

(* ------------------------------------------------------------------ *)
(* Layer calls shared by every workload                                *)
(* ------------------------------------------------------------------ *)

let payload frame = String.sub frame 4 (String.length frame - 4)

(* Encode and decode the request frame and its reply frame; returns
   the bytes both carry. *)
let codec req resp =
  span "wire.codec" (fun () ->
      let rq = Wire.encode_request { Wire.id = 1; body = req } in
      (match Wire.decode_request (payload rq) with
       | Ok _ -> ()
       | Error e -> failwith (Wire.decode_error_to_string e));
      let rs = Wire.encode_response { Wire.id = 1; body = resp } in
      (match Wire.decode_response (payload rs) with
       | Ok _ -> ()
       | Error e -> failwith (Wire.decode_error_to_string e));
      String.length rq + String.length rs)

let parse text = ignore (span "cql.parse" (fun () -> Icdb_cql.Command.parse text))

(* One generating request: the server call the benchmark times, then
   the same request replayed layer by layer. True when both give the
   same figures. *)
let generate server mirror (r : Gen.req) =
  let text = Gen.request_cql r in
  parse text;
  let spec = Gen.request_spec r in
  let inst = span "core.request" (fun () -> Server.request_component server spec) in
  let area, cw = span "core.mirror" (fun () -> Mirror.generate mirror ~id:inst.Instance.id spec) in
  let bytes =
    codec
      (Wire.Cql { text; args = [] })
      (Wire.Results
         [ ("instance", Exec.Rstr inst.Instance.id); ("degraded", Exec.Rstr "no");
           ("cache", Exec.Rstr "miss") ])
  in
  ( inst,
    bytes,
    area = Instance.best_area inst
    && cw = inst.Instance.report.Icdb_timing.Sta.clock_width )

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* The named layers' self time and allocation in the replays of
   generating requests: every span inside a [core.mirror] span. *)
let mirrored () = Spans.self_below "core.mirror"

type agg = { calls : int; self_s : float; words : float }

let aggregate () =
  let h = Spans.totals () in
  fun name ->
    match Hashtbl.find_opt h name with
    | Some (calls, self_s, words) -> { calls; self_s; words }
    | None -> { calls = 0; self_s = 0.0; words = 0.0 }

(* Spans of one name, in order, as durations. *)
let durations name =
  List.filter_map
    (fun s -> if s.Spans.name = name then Some (Spans.dur_s s) else None)
    (Spans.all ())

let mean_per_call a scale = if a.calls = 0 then 0.0 else a.self_s *. scale /. float_of_int a.calls

(* The per-layer metrics every workload reports (BENCHMARK.json's
   per_layer list), from the spans of this run. *)
let common_metrics ~ping_s ~bytes_per_op =
  let get = aggregate () in
  let req = get "core.request" in
  let mirrored, _ = mirrored () in
  let timed name unit scale =
    let a = get name in
    [ (name ^ "_" ^ unit, mean_per_call a scale, unit);
      (name ^ ".calls", float_of_int a.calls, "count");
      (name ^ ".alloc_kw", (if a.calls = 0 then 0.0 else a.words /. 1000.0 /. float_of_int a.calls), "kw") ]
  in
  [ ("net.ping_us", ping_s *. 1e6, "us") ]
  @ timed "wire.codec" "us" 1e6
  @ [ ("wire.bytes_per_op", bytes_per_op, "B") ]
  @ timed "cql.parse" "us" 1e6
  @ timed "core.key" "us" 1e6
  @ timed "core.request" "ms" 1e3
  @ [ ( "core.unattributed_ms",
        (if req.calls = 0 then 0.0
         else (req.self_s -. mirrored) *. 1e3 /. float_of_int req.calls),
        "ms" ) ]
  @ timed "iif.expand" "ms" 1e3
  @ timed "logic.opt" "ms" 1e3
  @ timed "logic.techmap" "ms" 1e3
  @ timed "sim.verify" "ms" 1e3
  @ timed "timing.sizing" "ms" 1e3
  @ timed "timing.sta" "ms" 1e3
  @ timed "layout.shape" "ms" 1e3
  @ timed "netlist.dump" "ms" 1e3
  @ timed "reldb.insert" "us" 1e6

let num v = Json.float ~prec:9 v

(* Attribution: how much of the replayed generating requests the named
   layers cover, and every layer's share, calls and mean self time. *)
let attribution ~e2e_p50_s ~inproc_p50_s extra =
  let get = aggregate () in
  let req = get "core.request" in
  let covered, covered_w = mirrored () in
  let names =
    List.sort_uniq compare (List.map (fun s -> s.Spans.name) (Spans.all ()))
  in
  let table =
    List.map
      (fun n ->
        let a = get n in
        ( n,
          Json.Obj
            [ ("calls", Json.Int a.calls); ("self_ms", num (a.self_s *. 1e3));
              ("mean_self_ms", num (mean_per_call a 1e3));
              ( "alloc_kw_per_call",
                num (if a.calls = 0 then 0.0 else a.words /. 1000.0 /. float_of_int a.calls) ) ] ))
      names
  in
  [ ("generating_requests", Json.Int req.calls);
    ("request_time_ms", num (req.self_s *. 1e3));
    ("layer_time_ms", num (covered *. 1e3));
    ("layer_share_of_request", num (if req.self_s > 0.0 then covered /. req.self_s else 0.0));
    ("layer_alloc_share_of_request", num (if req.words > 0.0 then covered_w /. req.words else 0.0));
    ("e2e_p50_ms", num (e2e_p50_s *. 1e3));
    ("inproc_p50_ms", num (inproc_p50_s *. 1e3));
    ("inproc_share_of_e2e_p50", num (if e2e_p50_s > 0.0 then inproc_p50_s /. e2e_p50_s else 0.0)) ]
  @ List.map (fun (k, v) -> (k, num v)) extra
  @ [ ("layers", Json.Obj table) ]

(* ------------------------------------------------------------------ *)
(* hot_query                                                           *)
(* ------------------------------------------------------------------ *)

(* Round trips of the read mix's request_components on [conns]
   connections for [seconds]. *)
let hot_rtt (h : Gen.hot) conns seconds =
  let n = Array.length h.Gen.ops in
  let logs = List.map (fun _ -> W.conn_log n) conns in
  let deadline = now () +. seconds in
  let threads =
    List.mapi
      (fun i (c, log) ->
        Thread.create (fun () -> W.hot_drive c h.Gen.ops (i * n / 2) deadline log) ())
      (List.combine conns logs)
  in
  List.iter Thread.join threads;
  ( Stats.pct (Stats.to_sorted (List.map (fun l -> l.W.lat) logs)) 50.0,
    List.fold_left (fun a l -> a + l.W.attempted) 0 logs,
    List.fold_left (fun a l -> a + l.W.failed) 0 logs )

let hot_query ~seed ~seconds:_ =
  let h = Gen.hot_query ~seed in
  let _, (d, c0) = W.hot_setup h in
  let ping = ping_p50 c0 in
  let c1 = Daemon.connect d in
  let rtt1, a1, f1 = hot_rtt h [ c0 ] 2.0 in
  let rtt2, a2, f2 = hot_rtt h [ c0; c1 ] 2.0 in
  Client.close c0;
  Client.close c1;
  ignore (Daemon.stop d);
  let server = Server.create ~workspace:(W.fresh_dir "hot-traced") () in
  let mirror = Mirror.create ~workspace:(W.fresh_dir "hot-mirror") ~durable:false in
  let agree = ref true in
  Array.iter
    (fun r ->
      next_op ();
      let _, _, ok = generate server mirror r in
      if not ok then agree := false)
    h.Gen.catalogue;
  (* one cycle of the read mix *)
  let bytes = ref 0 and hits = ref 0 and reuses = ref 0 and requests = ref 0 in
  let rows_in = ref 0 and rows_out = ref 0 in
  let exec_req = Stats.buf () and codec_req = Stats.buf () and reuse = Stats.buf () in
  Array.iter
    (fun op ->
      next_op ();
      match op with
      | Gen.Sql stmt ->
          let res, plan =
            span "reldb.sql" (fun () -> Sql.exec_explained (Server.db server) stmt)
          in
          (* rows the access step reads: the whole table for a scan *)
          (match (plan, res) with
           | Some p, Sql.Relation rel ->
               let out = List.length rel.Icdb_reldb.Query.rrows in
               rows_out := !rows_out + out;
               rows_in :=
                 !rows_in
                 + (match p.Icdb_reldb.Plan.p_kind with
                    | `Scan ->
                        Icdb_reldb.Table.cardinality
                          (Icdb_reldb.Db.table (Server.db server) p.Icdb_reldb.Plan.p_table)
                    | `Indexed -> out)
           | _ -> ());
          bytes := !bytes + codec (Wire.Sql stmt) (Wire.Sql_result (W.wire_sql res))
      | op ->
          let text = Gen.op_text op in
          parse text;
          (match op with
           | Gen.Request r ->
               incr requests;
               let spec = Gen.request_spec r in
               ignore (span "core.key" (fun () -> Spec.cache_key (Spec.canonical spec)))
           | _ -> ());
          let before = Server.stats server in
          let t0 = now () in
          let res = span "cql.exec" (fun () -> Exec.run server text) in
          let dt = now () -. t0 in
          let after = Server.stats server in
          let t1 = now () in
          bytes := !bytes + codec (Wire.Cql { text; args = [] }) (Wire.Results res);
          (match op with
           | Gen.Request _ ->
               Stats.push exec_req dt;
               Stats.push codec_req (now () -. t1);
               if after.Server.st_hits > before.Server.st_hits then incr hits
               else if after.Server.st_reuse_hits > before.Server.st_reuse_hits then begin
                 incr reuses;
                 Stats.push reuse dt
               end
           | _ -> ()))
    h.Gen.ops;
  let nops = Array.length h.Gen.ops in
  let exec_a = (aggregate ()) "cql.exec" in
  let exec_p50 = p50 exec_req and codec_p50 = p50 codec_req in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  { metrics = common_metrics ~ping_s:ping ~bytes_per_op:(float_of_int !bytes /. float_of_int nops);
    report =
      attribution ~e2e_p50_s:rtt1 ~inproc_p50_s:(exec_p50 +. codec_p50)
        [ ("net.overhead_us", (rtt1 -. exec_p50 -. codec_p50) *. 1e6);
          ("net.contention_us", (rtt2 -. rtt1) *. 1e6);
          ("net.rtt_one_conn_us", rtt1 *. 1e6);
          ("net.rtt_two_conn_us", rtt2 *. 1e6);
          ("cql.exec_us", mean_per_call exec_a 1e6);
          ("core.hit_ratio", ratio !hits !requests);
          ("core.reuse_ratio", ratio !reuses !requests);
          ("core.reuse_us", (if reuse.Stats.n = 0 then 0.0 else p50 reuse *. 1e6));
          ("reldb.sql_us", mean_per_call ((aggregate ()) "reldb.sql") 1e6);
          ("reldb.rows_per_result", ratio !rows_in (max 1 !rows_out)) ];
    checks = [ ("replayed layers give the server's figures", !agree) ];
    attempted = a1 + a2 + nops + Array.length h.Gen.catalogue;
    failed = f1 + f2;
    daemons = [ Daemon.describe d ] }

(* ------------------------------------------------------------------ *)
(* cold_explore                                                        *)
(* ------------------------------------------------------------------ *)

let memo_hit_ratio server =
  let st = Server.stats server in
  let total = st.Server.st_memo_hits + st.Server.st_memo_misses in
  if total = 0 then 0.0 else float_of_int st.Server.st_memo_hits /. float_of_int total

let cold_explore ~seed ~seconds:_ =
  let points = Gen.cold_explore ~seed in
  let _, (d, c) = W.cold_setup () in
  let ping = ping_p50 c in
  let wire = Stats.buf () in
  let failed = ref 0 in
  Array.iter
    (fun r ->
      let t0 = now () in
      match Client.exec c (Gen.request_cql r) with
      | Ok _ -> Stats.push wire (now () -. t0)
      | Error _ -> incr failed)
    points;
  Client.close c;
  ignore (Daemon.stop d);
  let server = Server.create ~workspace:(W.fresh_dir "cold-traced") () in
  let mirror = Mirror.create ~workspace:(W.fresh_dir "cold-mirror") ~durable:false in
  let agree = ref true and bytes = ref 0 in
  Array.iter
    (fun r ->
      next_op ();
      let _, b, ok = generate server mirror r in
      bytes := !bytes + b;
      if not ok then agree := false)
    points;
  let req = Stats.buf () in
  List.iter (Stats.push req) (durations "core.request");
  (* Allocation, not time: a request and its replay run at different
     moments, and the host's speed moves between them by more than the
     tolerance (time shares of 0.89 to 1.00 were seen); their allocation
     repeats exactly, so it shows whether they do the same work. *)
  let _, covered_w = mirrored () in
  let share = covered_w /. ((aggregate ()) "core.request").words in
  { metrics =
      common_metrics ~ping_s:ping ~bytes_per_op:(float_of_int !bytes /. float_of_int (Array.length points));
    report =
      attribution ~e2e_p50_s:(p50 wire) ~inproc_p50_s:(p50 req)
        [ ("core.memo_hit_ratio", memo_hit_ratio server) ];
    checks =
      [ ("replayed layers give the server's figures", !agree);
        ( "named layers account for the request's allocation to within 10%",
          Float.abs (1.0 -. share) <= 0.1 ) ];
    attempted = 2 * Array.length points;
    failed = !failed;
    daemons = [ Daemon.describe d ] }

(* ------------------------------------------------------------------ *)
(* durable_churn                                                       *)
(* ------------------------------------------------------------------ *)

let traced_sessions = 12

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let durable_churn ~seed ~seconds:_ =
  let population = Gen.population ~seed ~per:Gen.churn_population in
  let _, (d, c, _) = W.churn_setup ~name:"churn" ~population [] in
  let ping = ping_p50 c in
  (* a short one-connection write loop for the end-to-end p50 *)
  let log = W.conn_log 0 in
  W.churn_drive ~seed ~conn:0 c (now () +. 2.0) log;
  Client.close c;
  ignore (Daemon.stop d);
  let server = Server.create ~durable:true ~workspace:(W.fresh_dir "churn-traced") () in
  let mirror = Mirror.create ~workspace:(W.fresh_dir "churn-mirror") ~durable:true in
  let agree = ref true and bytes = ref 0 and writes = ref 0 in
  Array.iter
    (fun r ->
      next_op ();
      let _, _, ok = generate server mirror r in
      if not ok then agree := false)
    population;
  let journal = Filename.concat (Server.workspace server) "icdb.journal" in
  let j0 = file_size journal in
  let n_pop = (aggregate ()) "core.request" in
  for n = 0 to traced_sessions - 1 do
    for conn = 0 to 1 do
      let ids =
        Array.map
          (fun r ->
            next_op ();
            let inst, b, ok = generate server mirror r in
            incr writes;
            bytes := !bytes + b;
            if not ok then agree := false;
            inst.Instance.id)
          (Gen.churn_session ~seed ~conn n)
      in
      Array.iter
        (fun id ->
          next_op ();
          span "core.delete" (fun () -> Server.delete_instance server id);
          Mirror.delete mirror id)
        ids
    done
  done;
  let get = aggregate () in
  let req = get "core.request" in
  let write_ms =
    (req.self_s -. n_pop.self_s) *. 1e3 /. float_of_int (req.calls - n_pop.calls)
  in
  let left = List.length (Server.instance_ids server) in
  let write = Stats.buf () in
  List.iteri (fun i dt -> if i >= n_pop.calls then Stats.push write dt) (durations "core.request");
  { metrics = common_metrics ~ping_s:ping ~bytes_per_op:(float_of_int !bytes /. float_of_int !writes);
    report =
      attribution ~e2e_p50_s:(p50 log.W.lat) ~inproc_p50_s:(p50 write)
        [ ("core.write_ms", write_ms);
          ("core.delete_ms", mean_per_call (get "core.delete") 1e3);
          ("core.memo_hit_ratio", memo_hit_ratio server);
          ("reldb.journal_append_us", mean_per_call (get "reldb.journal_append") 1e6);
          ("reldb.delete_us", mean_per_call (get "reldb.delete") 1e6);
          ( "reldb.journal_bytes_per_write",
            float_of_int (file_size journal - j0) /. float_of_int !writes ) ];
    checks =
      [ ("replayed layers give the server's figures", !agree);
        ("sessions leave only the standing population", left = Array.length population) ];
    attempted = log.W.attempted + Array.length population + (2 * !writes);
    failed = log.W.failed;
    daemons = [ Daemon.describe d ] }

(* ------------------------------------------------------------------ *)
(* follower_lag                                                        *)
(* ------------------------------------------------------------------ *)

let traced_lag_writes = 24

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let follower_lag ~seed ~seconds:_ =
  let population = Gen.population ~seed ~per:Gen.lag_population in
  let _, (p, cp, f, cf) = W.lag_setup population in
  let ping = ping_p50 cp in
  let lags = Stats.buf () and failed = ref 0 in
  for i = 0 to traced_lag_writes - 1 do
    let r, pause = Gen.lag_write ~seed i in
    match Client.exec cp (Gen.request_cql r) with
    | Ok res -> (
        let t_ack = now () in
        match W.wait_visible cf (W.slot res "instance") with
        | Some t -> Stats.push lags (t -. t_ack); Unix.sleepf pause
        | None -> incr failed)
    | Error _ -> incr failed
  done;
  Client.close cf;
  Client.close cp;
  ignore (Daemon.stop f);
  ignore (Daemon.stop p);
  let primary = Server.create ~durable:true ~workspace:(W.fresh_dir "lag-primary") () in
  let follower = Server.create ~durable:true ~workspace:(W.fresh_dir "lag-follower") () in
  let mirror = Mirror.create ~workspace:(W.fresh_dir "lag-mirror") ~durable:true in
  let journal =
    match Icdb_reldb.Db.journal (Server.db primary) with
    | Some j -> j
    | None -> failwith "in-process primary has no journal"
  in
  let cursor = ref (Journal.next_seq journal) in
  (* ship everything after [cursor] the way the publisher does *)
  let replicate () =
    let s = span "reldb.stream" (fun () -> Journal.stream_from journal ~seq:!cursor ()) in
    let entries = s.Journal.st_entries in
    let records = List.map Journal.encode_line entries in
    let files =
      List.concat_map Server.replication_files entries
      |> List.sort_uniq compare
      |> List.map (fun name ->
             (name, In_channel.with_open_bin
                      (Filename.concat (Server.workspace primary) name) In_channel.input_all))
    in
    let n = List.length records in
    let next = !cursor + n in
    span "wire.repl_codec" (fun () ->
        let frame =
          Wire.encode_response
            { Wire.id = 1;
              body = Wire.Journal_batch { jb_first = !cursor; jb_next = next; jb_records = records; jb_files = files } }
        in
        match Wire.decode_response (payload frame) with
        | Ok _ -> ()
        | Error e -> failwith (Wire.decode_error_to_string e));
    List.iter
      (fun (name, _) ->
        copy_file (Filename.concat (Server.workspace primary) name)
          (Filename.concat (Server.workspace follower) name))
      files;
    List.iter (fun e -> span "core.apply" (fun () -> Server.apply_replicated follower e)) entries;
    cursor := next;
    n
  in
  let agree = ref true and bytes = ref 0 and records = ref 0 in
  Array.iter
    (fun r ->
      next_op ();
      let _, _, ok = generate primary mirror r in
      if not ok then agree := false)
    population;
  records := !records + replicate ();
  for i = 0 to traced_lag_writes - 1 do
    let r, _ = Gen.lag_write ~seed i in
    next_op ();
    let _, b, ok = generate primary mirror r in
    bytes := !bytes + b;
    if not ok then agree := false;
    records := !records + replicate ()
  done;
  let rows s =
    match Sql.exec (Server.db s) "SELECT id, area FROM instances ORDER BY id" with
    | Sql.Relation rel -> List.map (fun row -> Array.to_list (Array.map Icdb_reldb.Value.to_string row)) rel.Icdb_reldb.Query.rrows
    | Sql.Affected _ -> []
  in
  let get = aggregate () in
  let per_record name scale =
    if !records = 0 then 0.0 else (get name).self_s *. scale /. float_of_int !records
  in
  let stream_us = (get "reldb.stream").self_s *. 1e6 /. float_of_int (max 1 (get "reldb.stream").calls) in
  let codec_us = per_record "wire.repl_codec" 1e6 in
  let apply_ms = per_record "core.apply" 1e3 in
  let lag = p50 lags in
  { metrics =
      common_metrics ~ping_s:ping
        ~bytes_per_op:(float_of_int !bytes /. float_of_int traced_lag_writes);
    report =
      attribution ~e2e_p50_s:lag ~inproc_p50_s:(stream_us *. 1e-6 +. codec_us *. 1e-6 +. apply_ms *. 1e-3)
        [ ("net.publish_wait_ms", (lag *. 1e3) -. (stream_us /. 1e3) -. (codec_us /. 1e3) -. apply_ms);
          ("reldb.stream_us", stream_us);
          ("wire.repl_codec_us", codec_us);
          ("core.apply_ms", apply_ms);
          ("records_shipped", float_of_int !records) ];
    checks =
      [ ("replayed layers give the server's figures", !agree);
        ("in-process follower answers like its primary", rows primary = rows follower) ];
    attempted = traced_lag_writes + Array.length population + traced_lag_writes;
    failed = !failed;
    daemons = [ Daemon.describe p; Daemon.describe f ] }

let run = function
  | "hot_query" -> hot_query
  | "cold_explore" -> cold_explore
  | "durable_churn" -> durable_churn
  | "follower_lag" -> follower_lag
  | w -> invalid_arg ("unknown workload " ^ w)
