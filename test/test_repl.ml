(* Replication tests: a follower bootstraps from a checkpoint, streams
   the primary's journal, survives restarts on either side and injected
   faults at the streaming and replay sites, refuses writes, and gates
   its /readyz on replication lag. The differential tests assert the
   strongest property we have: after the stream drains, the follower
   answers CQL and SQL byte-identically to the primary. *)

open Icdb
open Icdb_net

let check = Alcotest.check

let quiet_events = lazy (Icdb_obs.Event.set_level Icdb_obs.Event.Error)

(* A path that does not exist yet; Replica.create makes the directory. *)
let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  path

(* A durable primary with its lock wrapper exposed: the tests need the
   journal cursor and checkpoints under the same lock the service uses. *)
let with_primary ?(config = Service.default_config) f =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false ~durable:true () in
  let sync = Sync.wrap server in
  let svc = Service.start ~config:{ config with port = 0 } sync in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () -> f svc (Service.port svc) sync)

(* [~notify:false]: the probe must not itself wake the publisher, or a
   write that failed to signal its commit would still be shipped. *)
let primary_next sync =
  Sync.with_server ~notify:false sync (fun server ->
      match Icdb_reldb.Db.journal (Server.db server) with
      | Some j -> Icdb_reldb.Journal.next_seq j
      | None -> 0)

let wait_for ?(timeout = 30.0) ~what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if not (pred ()) then Alcotest.failf "timed out waiting for %s" what

(* Caught up = connected and the local journal has every record the
   primary had when we looked. *)
let wait_caught_up ?timeout replica psync =
  let target = primary_next psync in
  wait_for ?timeout ~what:"follower catch-up" (fun () ->
      Replica.connected replica && Replica.cursor replica >= target)

let with_client ~port f =
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok_exec client ?args text =
  match Client.exec client ?args text with
  | Ok results -> results
  | Error (code, msg) ->
      Alcotest.failf "%s failed: %s: %s" text
        (Wire.error_code_to_string code) msg

let get_str results name =
  match List.assoc_opt name results with
  | Some (Icdb_cql.Exec.Rstr s) -> s
  | _ -> Alcotest.failf "no string binding %s" name

(* ------------------------------------------------------------------ *)
(* Differential probes                                                 *)
(* ------------------------------------------------------------------ *)

(* Every instances column except [file], whose value is a primary-side
   path: identical bytes in the replicated row, but comparing it would
   prove nothing about the follower's own workspace. *)
let instances_sql =
  "SELECT id, component, gates, area, clock_width, constraints_met, \
   degraded, spec_key FROM instances"

let instance_rows port =
  with_client ~port @@ fun c ->
  match Client.sql c instances_sql with
  | Ok (Wire.Relation { rows; _ }) -> List.sort compare rows
  | Ok _ -> Alcotest.fail "instances query returned no relation"
  | Error (_, msg) -> Alcotest.failf "sql failed: %s" msg

let instance_ids port =
  with_client ~port @@ fun c ->
  match Client.sql c "SELECT id FROM instances" with
  | Ok (Wire.Relation { rows; _ }) ->
      List.sort compare (List.concat rows)
  | Ok _ -> Alcotest.fail "id query returned no relation"
  | Error (_, msg) -> Alcotest.failf "sql failed: %s" msg

let instance_fields port id =
  with_client ~port @@ fun c ->
  ok_exec c ~args:[ Icdb_cql.Exec.Astr id ]
    "command:instance_query; instance:%s; delay:?s; gates:?d; \
     area_value:?r; shape_function:?s; VHDL_net_list:?s"

(* The follower must be indistinguishable from the primary: same rows,
   same instances, and field-for-field identical CQL answers. *)
let assert_identical ~pport ~fport =
  let prows = instance_rows pport and frows = instance_rows fport in
  check Alcotest.bool "instances relation identical" true (prows = frows);
  let pids = instance_ids pport in
  check Alcotest.bool "some instances survived" true (pids <> []);
  List.iter
    (fun id ->
      let p = instance_fields pport id and f = instance_fields fport id in
      check Alcotest.bool
        (Printf.sprintf "instance %s answers identically" id)
        true (p = f))
    pids

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let components = [| ("counter", ""); ("adder", ""); ("comparator", "") |]
let sizes = [| 2; 3; 4; 5; 8 |]
let design_counter = ref 0

(* One randomized design round: generate a few instances inside a
   transaction, keep a random subset, and sometimes tear the whole
   design down — exercising both Insert and Delete journal records. *)
let workload_round rng client =
  incr design_counter;
  let design = Printf.sprintf "repl_d%d" !design_counter in
  let run text = ignore (ok_exec client text) in
  run (Printf.sprintf "command:start_a_design; design:%s" design);
  run (Printf.sprintf "command:start_a_transaction; design:%s" design);
  let made = ref [] in
  for _ = 1 to 1 + Random.State.int rng 2 do
    let name, _ = components.(Random.State.int rng (Array.length components)) in
    let size = sizes.(Random.State.int rng (Array.length sizes)) in
    let r =
      ok_exec client
        (Printf.sprintf
           "command:request_component; component_name:%s; \
            attribute:(size:%d); instance:?s"
           name size)
    in
    made := get_str r "instance" :: !made
  done;
  List.iter
    (fun id ->
      if Random.State.bool rng then
        ignore
          (ok_exec client
             ~args:[ Icdb_cql.Exec.Astr id ]
             (Printf.sprintf
                "command:put_in_component_list; design:%s; instance:%%s"
                design)))
    !made;
  run (Printf.sprintf "command:end_a_transaction; design:%s" design);
  if Random.State.int rng 3 = 0 then
    run (Printf.sprintf "command:end_a_design; design:%s" design)

let workload rng client rounds =
  for _ = 1 to rounds do
    workload_round rng client
  done

(* ------------------------------------------------------------------ *)
(* Checkpoint bootstrap                                                *)
(* ------------------------------------------------------------------ *)

(* A virgin follower whose primary already checkpointed must fetch the
   checkpoint (its cursor predates the journal window), then stream,
   and end up byte-identical. *)
let test_checkpoint_bootstrap () =
  with_primary @@ fun _psvc pport psync ->
  let rng = Random.State.make [| 11 |] in
  with_client ~port:pport (fun c -> workload rng c 4);
  (* absorb the journal: the window now starts at the checkpoint *)
  Sync.with_server psync Server.checkpoint;
  let ws = fresh_dir "icdb_repl_boot" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  (* keep writing after the checkpoint: the stream part of catch-up *)
  with_client ~port:pport (fun c -> workload rng c 2);
  wait_caught_up replica psync;
  let fsvc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      (Replica.sync replica)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown fsvc) @@ fun () ->
  assert_identical ~pport ~fport:(Service.port fsvc)

(* ------------------------------------------------------------------ *)
(* Differential workload with a follower restart mid-catch-up          *)
(* ------------------------------------------------------------------ *)

let test_differential_restart () =
  with_primary @@ fun _psvc pport psync ->
  let rng = Random.State.make [| 42 |] in
  let ws = fresh_dir "icdb_repl_diff" in
  let rcfg = { Replica.default_config with port = pport } in
  (* first life: stream from a virgin workspace while writes flow *)
  let r1 = Replica.create ~config:rcfg ~workspace:ws () in
  Replica.run r1;
  with_client ~port:pport (fun c -> workload rng c 5);
  (* stop mid-catch-up — r1 may or may not have drained; the point is
     the second life resumes from whatever its journal holds *)
  Replica.stop r1;
  with_client ~port:pport (fun c -> workload rng c 5);
  (* force the primary's window past the stopped follower's cursor, so
     the restart must also handle a mid-life checkpoint re-sync *)
  Sync.with_server psync Server.checkpoint;
  with_client ~port:pport (fun c -> workload rng c 2);
  let r2 = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop r2) @@ fun () ->
  Replica.run r2;
  wait_caught_up r2 psync;
  let fsvc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      (Replica.sync r2)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown fsvc) @@ fun () ->
  assert_identical ~pport ~fport:(Service.port fsvc)

(* ------------------------------------------------------------------ *)
(* Read-only enforcement                                               *)
(* ------------------------------------------------------------------ *)

let test_read_only () =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false ~durable:true () in
  (* seed one instance while still writable, for the read probes *)
  let inst =
    Icdb_cql.Exec.get_string
      (Icdb_cql.Exec.run server
         "command:request_component; component_name:counter; \
          attribute:(size:4); instance:?s")
      "instance"
  in
  let sync = Sync.wrap server in
  let svc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      sync
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  with_client ~port:(Service.port svc) @@ fun c ->
  (* every mutating CQL command bounces with the structured code *)
  List.iter
    (fun text ->
      match Client.exec c text with
      | Error (Wire.Read_only, msg) ->
          check Alcotest.bool "names the command" true
            (String.length msg > 0)
      | Error (code, msg) ->
          Alcotest.failf "%s: wrong code %s: %s" text
            (Wire.error_code_to_string code) msg
      | Ok _ -> Alcotest.failf "%s succeeded on a follower" text)
    [ "command:request_component; component_name:counter; \
       attribute:(size:4); instance:?s";
      "command:start_a_design; design:chip";
      "command:start_a_transaction; design:chip";
      "command:put_in_component_list; design:chip; instance:x";
      "command:end_a_transaction; design:chip";
      "command:end_a_design; design:chip" ];
  (* mutating SQL bounces too *)
  (match Client.sql c "DELETE FROM instances" with
   | Error (Wire.Read_only, _) -> ()
   | Error (code, _) ->
       Alcotest.failf "DELETE: wrong code %s"
         (Wire.error_code_to_string code)
   | Ok _ -> Alcotest.fail "DELETE succeeded on a follower");
  (* reads still work *)
  let r =
    ok_exec c ~args:[ Icdb_cql.Exec.Astr inst ]
      "command:instance_query; instance:%s; gates:?d"
  in
  check Alcotest.bool "instance_query allowed" true (r <> []);
  (match Client.sql c "SELECT id FROM instances" with
   | Ok (Wire.Relation { rows; _ }) ->
       check Alcotest.int "select allowed" 1 (List.length rows)
   | _ -> Alcotest.fail "SELECT failed on a follower");
  (* a follower does not fan out: subscribing to it is refused *)
  match Client.call c (Wire.Subscribe { cursor = 0 }) with
  | Wire.Repl_error _ -> ()
  | _ -> Alcotest.fail "subscribe to a follower not refused"

(* ------------------------------------------------------------------ *)
(* Fault injection at the streaming and replay sites                   *)
(* ------------------------------------------------------------------ *)

let with_faults f = Fun.protect ~finally:Faultinject.reset f

(* Transient faults in the primary's journal tail-read and the
   follower's replay must heal: the publisher retries its tick, the
   follower reconnects, and catch-up still completes. *)
let test_fault_healing () =
  with_faults @@ fun () ->
  with_primary @@ fun _psvc pport psync ->
  let rng = Random.State.make [| 7 |] in
  let ws = fresh_dir "icdb_repl_fault" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  wait_caught_up replica psync;
  Faultinject.arm Faultinject.Journal_stream
    (Faultinject.Fail (2, Fault.Transient));
  Faultinject.arm Faultinject.Repl_replay
    (Faultinject.Fail (1, Fault.Transient));
  with_client ~port:pport (fun c -> workload rng c 3);
  wait_caught_up replica psync;
  check Alcotest.bool "journal_stream site fired" true
    (Faultinject.hits Faultinject.Journal_stream > 0);
  check Alcotest.bool "repl_replay site fired" true
    (Faultinject.hits Faultinject.Repl_replay > 0);
  let fsvc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      (Replica.sync replica)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown fsvc) @@ fun () ->
  assert_identical ~pport ~fport:(Service.port fsvc)

(* ------------------------------------------------------------------ *)
(* Lag-gated readiness                                                 *)
(* ------------------------------------------------------------------ *)

let test_readyz_gating () =
  with_primary @@ fun _psvc pport psync ->
  with_client ~port:pport (fun c ->
      ignore
        (ok_exec c
           "command:request_component; component_name:counter; \
            attribute:(size:4); instance:?s"));
  let ws = fresh_dir "icdb_repl_ready" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  let fsvc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      (Replica.sync replica)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown fsvc) @@ fun () ->
  let admin =
    Admin.start ~replica ~port:0 ~service:fsvc ~sync:(Replica.sync replica) ()
  in
  Fun.protect ~finally:(fun () -> Admin.stop admin) @@ fun () ->
  let aport = Admin.port admin in
  (* stream not started: not connected, so not ready *)
  let status, body = Icdb_obs.Expo.http_get ~port:aport "/readyz" in
  check Alcotest.int "not ready before the stream starts" 503 status;
  check Alcotest.bool "repl_connected is the failing check" true
    (let rec contains i =
       i + 19 <= String.length body
       && (String.sub body i 19 = "repl_connected FAIL" || contains (i + 1))
     in
     contains 0);
  (* start the stream: readiness flips once the lag drains *)
  Replica.run replica;
  wait_for ~what:"/readyz 200" (fun () ->
      fst (Icdb_obs.Expo.http_get ~port:aport "/readyz") = 200);
  ignore (primary_next psync)

(* ------------------------------------------------------------------ *)
(* Primary restart: the follower reconnects and drains the rest        *)
(* ------------------------------------------------------------------ *)

let test_primary_restart () =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false ~durable:true () in
  let sync = Sync.wrap server in
  let svc1 =
    Service.start ~config:{ Service.default_config with port = 0 } sync
  in
  let pport = Service.port svc1 in
  let rng = Random.State.make [| 3 |] in
  with_client ~port:pport (fun c -> workload rng c 2);
  let ws = fresh_dir "icdb_repl_prestart" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  wait_caught_up replica sync;
  (* take the primary's service down; its server (and journal) survive *)
  Service.shutdown svc1;
  wait_for ~what:"follower to notice the outage" (fun () ->
      not (Replica.connected replica));
  (* bring it back on the same port and keep writing *)
  let svc2 =
    Service.start ~config:{ Service.default_config with port = pport } sync
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc2) @@ fun () ->
  with_client ~port:pport (fun c -> workload rng c 2);
  wait_caught_up ~timeout:60.0 replica sync;
  let fsvc =
    Service.start
      ~config:{ Service.default_config with port = 0; read_only = true }
      (Replica.sync replica)
  in
  Fun.protect ~finally:(fun () -> Service.shutdown fsvc) @@ fun () ->
  assert_identical ~pport ~fport:(Service.port fsvc)

(* ------------------------------------------------------------------ *)
(* Push replication: wake causes                                       *)
(* ------------------------------------------------------------------ *)

let counter name = (Icdb_obs.Metrics.counter name).Icdb_obs.Metrics.count
let gauge name = (Icdb_obs.Metrics.gauge name).Icdb_obs.Metrics.gvalue

let wake_causes = [ "commit"; "subscribe"; "timer"; "retry"; "drain" ]

let wake_counts () =
  List.map (fun c -> (c, counter ("repl.wake." ^ c))) wake_causes

(* Per-cause increase since [before]. *)
let wakes_since before =
  List.map (fun (c, n) -> (c, counter ("repl.wake." ^ c) - n)) before

let generate client name size =
  ignore
    (ok_exec client
       (Printf.sprintf
          "command:request_component; component_name:%s; \
           attribute:(size:%d); instance:?s"
          name size))

(* A record reaches a caught-up follower from the commit wake that
   announced it. Records ship only below a cursor a commit or subscribe
   wake has carried, so a heartbeat coming due at the same moment (a
   timer wake) cannot carry them, and a batch that had to be retried or
   resumed after a drain would show as a retry or drain wake: with
   neither, the commit wake shipped them. Writes made outside the
   request path, straight through the server lock, are pushed the same
   way. A primary with no follower wakes its publisher for nothing. *)
let test_push_on_commit () =
  with_primary @@ fun _psvc pport psync ->
  let before = wake_counts () in
  with_client ~port:pport (fun c ->
      List.iter (fun size -> generate c "counter" size) [ 2; 3; 4; 5 ]);
  List.iter
    (fun (cause, n) ->
      check Alcotest.int
        (Printf.sprintf "no %s wake without a follower" cause)
        0 n)
    (wakes_since before);
  let ws = fresh_dir "icdb_repl_push" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  let before = wake_counts () in
  Replica.run replica;
  wait_caught_up replica psync;
  check Alcotest.bool "the subscribe woke the publisher" true
    (List.assoc "subscribe" (wakes_since before) >= 1);
  let pushed what write =
    let before = wake_counts () in
    let sent0 = counter "repl.records_sent" and next0 = primary_next psync in
    write ();
    let next = primary_next psync in
    check Alcotest.bool (what ^ " journaled records") true (next > next0);
    wait_caught_up replica psync;
    let since = wakes_since before in
    check Alcotest.bool (what ^ ": shipped on a commit wake") true
      (List.assoc "commit" since >= 1);
    check Alcotest.int (what ^ ": no retry wake") 0 (List.assoc "retry" since);
    check Alcotest.int (what ^ ": no drain wake") 0 (List.assoc "drain" since);
    check Alcotest.int (what ^ ": every record shipped once") (next - next0)
      (counter "repl.records_sent" - sent0);
    wait_for ~what:"cursor gauges" (fun () ->
        gauge "repl.commit_cursor" = float_of_int next
        && gauge "repl.min_shipped_cursor" = float_of_int next)
  in
  pushed "a request" (fun () ->
      with_client ~port:pport (fun c -> generate c "adder" 3));
  pushed "a write outside the request path" (fun () ->
      Sync.with_server psync (fun server ->
          ignore
            (Server.request_component server
               (Spec.make
                  (Spec.From_component
                     { component = "comparator";
                       attributes = [ ("size", 3) ];
                       functions = [] })))))

(* A stream that fails is retried on the publisher's retry deadline, not
   at the next commit: one write, one injected failure, and the follower
   still catches up. *)
let test_retry_without_later_write () =
  with_faults @@ fun () ->
  with_primary @@ fun _psvc pport psync ->
  let ws = fresh_dir "icdb_repl_retry" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  wait_caught_up replica psync;
  let before = wake_counts () in
  Faultinject.arm Faultinject.Journal_stream
    (Faultinject.Fail (1, Fault.Transient));
  with_client ~port:pport (fun c -> generate c "counter" 6);
  wait_caught_up replica psync;
  check Alcotest.bool "the journal_stream fault fired" true
    (Faultinject.hits Faultinject.Journal_stream >= 2);
  check Alcotest.bool "caught up through a retry wake" true
    (List.assoc "retry" (wakes_since before) >= 1)

(* Threads of this process, from /proc (Linux). *)
let thread_count () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char '\t' l with
         | [ "Threads:"; n ] -> int_of_string_opt (String.trim n)
         | _ -> None)
  |> Option.value ~default:0

(* A follower whose connection dies leaves no thread behind on the
   primary: its sender, idle on an empty queue, is woken and exits when
   the publisher drops the follower. *)
let test_dead_follower_sender_exits () =
  with_primary @@ fun psvc pport psync ->
  with_client ~port:pport (fun c -> generate c "counter" 3);
  let before = thread_count () in
  for life = 1 to 3 do
    let ws = fresh_dir (Printf.sprintf "icdb_repl_life%d" life) in
    let rcfg = { Replica.default_config with port = pport } in
    let replica = Replica.create ~config:rcfg ~workspace:ws () in
    Replica.run replica;
    wait_caught_up replica psync;
    Replica.stop replica;
    wait_for ~what:"the primary to drop the follower" (fun () ->
        Service.follower_count psvc = 0)
  done;
  wait_for ~what:"the senders to exit" (fun () -> thread_count () <= before)

(* [stop] wakes the streaming thread through its self-pipe: a caught-up
   follower idle in its pump, which waits up to a second for the next
   frame, stops at once. *)
let test_stop_is_prompt () =
  with_primary @@ fun _psvc pport psync ->
  with_client ~port:pport (fun c -> generate c "counter" 3);
  let ws = fresh_dir "icdb_repl_stop" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  wait_caught_up replica psync;
  let t0 = Unix.gettimeofday () in
  Replica.stop replica;
  let took = Unix.gettimeofday () -. t0 in
  check Alcotest.bool
    (Printf.sprintf "stopped in %.3f s, under 0.3 s" took)
    true (took < 0.3)

(* ------------------------------------------------------------------ *)
(* Backpressure: a follower that stops reading                         *)
(* ------------------------------------------------------------------ *)

(* Rows of about 1 KiB in a table of their own, keyed by a running
   number, so a few thousand records fill a follower's write queue and
   each shipped record names its place in the stream. *)
let pad_table = "repl_pad"

let pad_rows sync ~from n =
  Sync.with_server sync (fun server ->
      let db = Server.db server in
      if Icdb_reldb.Db.table_opt db pad_table = None then
        ignore
          (Icdb_reldb.Db.create_table db pad_table
             Icdb_reldb.Value.[ ("k", Tint); ("pad", Tstr) ]);
      for k = from to from + n - 1 do
        Icdb_reldb.Db.insert db pad_table
          Icdb_reldb.Value.[ Int k; Str (String.make 1000 'x') ]
      done)

let mib = 1 lsl 20

(* The follower connection's unsent bytes on the primary. *)
let follower_wq svc =
  match
    List.find_opt
      (fun ci -> ci.Service.ci_state = "follower")
      (Service.conn_table svc)
  with
  | Some ci -> ci.Service.ci_wq_bytes
  | None -> Alcotest.fail "no follower connection on the primary"

(* A bare subscriber that reads nothing until the test says so. It
   keeps the default receive buffer: a tiny one makes catch-up crawl. *)
let subscribe_raw svc ~port cursor =
  let c = Client.connect ~port () in
  Wire.write_frame (Client.fd c)
    (Wire.encode_request { Wire.id = 1; body = Wire.Subscribe { cursor } });
  wait_for ~what:"the subscription" (fun () -> Service.follower_count svc = 1);
  c

(* Commit pad rows, 100 at a time, until the follower's write queue is
   at the 1 MiB mark. Returns the next unused key. *)
let fill_to_mark svc sync =
  let next = ref 0 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while follower_wq svc < mib do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "write queue stuck at %d bytes" (follower_wq svc);
    pad_rows sync ~from:!next 100;
    next := !next + 100;
    Unix.sleepf 0.005
  done;
  !next

(* Read pushed batches until the stream reaches [until], each with a
   deadline so a stream that stalls fails instead of hanging. Every
   batch must start where the last one ended; returns the keys of the
   pad rows received, in order. *)
let read_stream c ~from ~until =
  let fd = Client.fd c in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let cursor = ref from and keys = ref [] in
  while !cursor < until do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then
      Alcotest.failf "stream stalled at cursor %d of %d" !cursor until;
    match Unix.select [ fd ] [] [] left with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Wire.read_response fd with
        | Ok { Wire.body = Wire.Journal_batch { jb_first; jb_records; _ }; _ }
          ->
            if jb_first <> !cursor then
              Alcotest.failf "batch starts at %d, the stream ended at %d"
                jb_first !cursor;
            List.iter
              (fun line ->
                match
                  Icdb_reldb.Journal.decode_line (String.trim line)
                with
                | Some
                    (Icdb_reldb.Journal.Insert
                       (tbl, Icdb_reldb.Value.Int k :: _))
                  when tbl = pad_table ->
                    keys := k :: !keys
                | _ -> Alcotest.failf "record %S is not a pad row" line)
              jb_records;
            cursor := !cursor + List.length jb_records
        | Ok { Wire.body = Wire.Repl_error msg; _ } ->
            Alcotest.failf "follower dropped: %s" msg
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "stream broke: %s" (Wire.decode_error_to_string e))
  done;
  List.rev !keys

(* A follower that stops reading holds one write queue at the mark and
   stays subscribed however far the primary runs ahead: its backlog
   waits in the journal. Once it reads again, the queue's drain wakes
   the publisher, and every record arrives once, in order. *)
let test_stalled_follower () =
  with_primary @@ fun psvc pport psync ->
  pad_rows psync ~from:0 0;
  let start = primary_next psync in
  let c = subscribe_raw psvc ~port:pport start in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let next = ref (fill_to_mark psvc psync) in
  for _ = 1 to 101 do
    pad_rows psync ~from:!next 100;
    next := !next + 100;
    Unix.sleepf 0.005
  done;
  (* stall past a heartbeat period: a pass falls due in that time, and
     finds nothing to send a follower at the mark *)
  Unix.sleepf 1.2;
  check Alcotest.int "still subscribed" 1 (Service.follower_count psvc);
  let wq = follower_wq psvc in
  check Alcotest.bool
    (Printf.sprintf "write queue %d bytes, under 2 MiB" wq)
    true (wq < 2 * mib);
  let drains = counter "repl.wake.drain" in
  let keys = read_stream c ~from:start ~until:(primary_next psync) in
  check Alcotest.(list int) "every record once, in order"
    (List.init !next Fun.id) keys;
  check Alcotest.bool "the drained queue woke the publisher" true
    (counter "repl.wake.drain" > drains)

(* The thread count once it holds still for 50 ms: a thread an earlier
   case ended may still be on its way out. *)
let settled_thread_count () =
  let rec go prev tries =
    Unix.sleepf 0.05;
    let n = thread_count () in
    if n = prev || tries = 0 then n else go n (tries - 1)
  in
  go (thread_count ()) 20

(* Serving a follower takes no thread on the primary: once a replica
   has caught up, the process has one thread more, the replica's own. *)
let test_follower_adds_no_thread () =
  with_primary @@ fun _psvc pport psync ->
  with_client ~port:pport (fun c -> generate c "counter" 3);
  let before = settled_thread_count () in
  let ws = fresh_dir "icdb_repl_threads" in
  let rcfg = { Replica.default_config with port = pport } in
  let replica = Replica.create ~config:rcfg ~workspace:ws () in
  Fun.protect ~finally:(fun () -> Replica.stop replica) @@ fun () ->
  Replica.run replica;
  wait_caught_up replica psync;
  check Alcotest.int "threads: the replica's own and no other" (before + 1)
    (settled_thread_count ())

(* A follower that goes away while its queue is at the mark is dropped
   at once, with no later write to bring the publisher round. *)
let test_stalled_follower_dies () =
  with_primary @@ fun psvc pport psync ->
  pad_rows psync ~from:0 0;
  let c = subscribe_raw psvc ~port:pport (primary_next psync) in
  ignore (fill_to_mark psvc psync);
  Client.close c;
  wait_for ~timeout:5.0 ~what:"the primary to drop the closed follower"
    (fun () -> Service.follower_count psvc = 0)

let () =
  Alcotest.run "repl"
    [ ( "replication",
        [ Alcotest.test_case "checkpoint bootstrap" `Quick
            test_checkpoint_bootstrap;
          Alcotest.test_case "differential restart" `Quick
            test_differential_restart;
          Alcotest.test_case "read-only follower" `Quick test_read_only;
          Alcotest.test_case "fault healing" `Quick test_fault_healing;
          Alcotest.test_case "readyz gating" `Quick test_readyz_gating;
          Alcotest.test_case "primary restart" `Quick test_primary_restart;
          Alcotest.test_case "push on commit" `Quick test_push_on_commit;
          Alcotest.test_case "retry without a later write" `Quick
            test_retry_without_later_write;
          Alcotest.test_case "dead follower's sender exits" `Quick
            test_dead_follower_sender_exits;
          Alcotest.test_case "stop is prompt" `Quick test_stop_is_prompt;
          Alcotest.test_case "stalled follower" `Quick test_stalled_follower;
          Alcotest.test_case "follower adds no thread" `Quick
            test_follower_adds_no_thread;
          Alcotest.test_case "stalled follower dies" `Quick
            test_stalled_follower_dies ] ) ]
