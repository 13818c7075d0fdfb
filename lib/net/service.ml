(* icdbd: a poll(2) event loop + worker pool over one locked Server.t.
   See service.mli for the admission-control and shutdown contracts,
   and sync.mli for the locking discipline.

   One event-loop thread owns all socket readiness: it accepts,
   reads/frames requests (via Wire.Dechunk, so frames may arrive split
   at any byte boundary), and drains per-connection write queues with
   nonblocking writes. Workers execute requests and *enqueue* replies;
   they never touch a socket. Idle connections therefore cost one
   registry entry and two ints of poll spec — no thread, no stack.

   Thread ownership rules, which keep the teardown free of races:
   - the event-loop thread is the only one that creates connections,
     reads sockets, writes sockets, closes fds, and runs [teardown];
   - any thread may queue a response ([send_bytes]), serialized by the
     connection's write lock; queueing to a dead connection is a no-op;
   - any thread may mark a connection dead ([mark_dead]); only the
     loop actually closes it, so a watched fd can never be recycled
     under the running poll;
   - workers never join other threads, so a [Shutdown] frame handled in
     a worker only flips the stop flag and lets the loop thread do the
     teardown.

   Backpressure: responses queue per connection. Past [wq_hiwater]
   bytes the loop stops polling that connection for reads (a client
   that won't drain replies cannot keep submitting); past [wq_hardcap]
   the connection is killed (a client that never reads cannot buffer
   the server into the ground). Replication followers are exempt from
   the hard cap, because a checkpoint is queued whole; the publisher
   ships a follower nothing while its queue is at the high-water mark,
   so the records it has not been sent yet wait in the journal. *)

open Icdb_obs

type config = {
  host : string;
  port : int;
  max_connections : int;
  workers : int;
  max_queue : int;
  request_timeout_s : float;
  idle_timeout_s : float;
  slow_threshold_s : float;
  read_only : bool;
  telemetry_period_s : float;
}

let default_config =
  { host = "127.0.0.1";
    port = 7601;
    max_connections = 64;
    workers = 4;
    max_queue = 128;
    request_timeout_s = 30.0;
    idle_timeout_s = 300.0;
    slow_threshold_s = 1.0;
    read_only = false;
    telemetry_period_s = 1.0 }

(* Stop polling a connection for reads once this many response bytes
   are queued unsent... *)
let wq_hiwater = 1 lsl 20

(* ...and kill a non-follower connection outright at this point: the
   peer has not read for [wq_hardcap - wq_hiwater] bytes of backlog. *)
let wq_hardcap = 64 * (1 lsl 20)

(* Bytes per read(2) on a readable connection. *)
let rbuf_size = 1 lsl 16

type conn = {
  cid : int;
  fd : Unix.file_descr;
  peer : string;
  created_at : float;
  wlock : Mutex.t;             (* serializes queueing vs flush vs close *)
  mutable alive : bool;        (* false = logically dead; loop reaps it *)
  mutable closed : bool;       (* fd actually closed (loop thread only) *)
  mutable last_active : float; (* wall clock of the last complete frame *)
  mutable follower : bool;     (* subscribed replication follower: exempt
                                  from idle reaping and the hard cap; its
                                  drain below the mark and its close wake
                                  the publisher *)
  dechunk : Wire.Dechunk.t;    (* reassembles partial reads; loop-owned *)
  wq : string Queue.t;         (* encoded frames awaiting the socket *)
  mutable wq_off : int;        (* bytes of the queue head already sent *)
  mutable wq_bytes : int;      (* total queued bytes *)
  mutable fatal : bool;        (* framing lost / reaped: flush, then close *)
  mutable fatal_at : float;    (* when [fatal] flipped: starts the
                                  flush-grace clock, after which the
                                  connection closes even with unsent
                                  bytes queued *)
  mutable reqs : int;          (* complete requests enqueued (loop thread) *)
  mutable paused_since : float;(* 0.0 = reads not paused; else when this
                                  connection crossed the high-water mark
                                  (loop thread; watchdog reads it) *)
}

(* One subscribed follower, owned by the publisher. Its batches go
   straight onto its connection's write queue, and only while that
   queue is under [wq_hiwater]: the publisher never blocks on a socket,
   a slow follower costs one queue at the mark, and the records it has
   not been sent yet stay in the journal. [flush_writes] wakes the
   publisher when the queue falls back under the mark, so a long
   catch-up goes at the follower's own pace. *)
type follower = {
  fl_conn : conn;
  fl_rid : int;                (* subscribe request id, echoed on pushes *)
  mutable fl_cursor : int;     (* next journal sequence number to ship *)
  mutable fl_last_sent : float;  (* heartbeat pacing *)
  mutable fl_retry_at : float;   (* a failed stream retries at this
                                    instant; infinity when none *)
}

type task = {
  tconn : conn;
  tframe : Wire.req Wire.frame;
  tctx : Wire.ctx;
  enqueued_at : float;
}

type counters = {
  c_accepted : Metrics.counter;
  c_refused : Metrics.counter;
  c_closed : Metrics.counter;
  c_requests : Metrics.counter;
  c_errors : Metrics.counter;
  c_shed : Metrics.counter;
  c_timeouts : Metrics.counter;
  c_malformed : Metrics.counter;
  c_version_mismatch : Metrics.counter;
  c_idle_reaped : Metrics.counter;
  c_bp_pauses : Metrics.counter;   (* read-pause transitions (hiwater) *)
  c_bp_kills : Metrics.counter;    (* hard-cap connection kills *)
  c_wd_trips : Metrics.counter;    (* stall-watchdog trip transitions *)
}

type t = {
  cfg : config;
  sync : Sync.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  want_stop : bool Atomic.t;
  queue : task Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  conns : (int, conn) Hashtbl.t;
  clock : Mutex.t;        (* guards [conns] and [next_cid] *)
  mutable next_cid : int;
  mutable worker_threads : Thread.t list;
  mutable loop_thread : Thread.t option;
  (* self-pipe: any thread that queues bytes or kills a connection
     writes one byte here so a parked poll wakes and notices *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  rlock : Mutex.t;        (* guards [followers] *)
  mutable followers : follower list;
  mutable publisher : Thread.t option;
  (* The publisher's own self-pipe. It parks in poll(2) on [pub_r] with
     a timeout only for the nearest clock deadline; a commit or a
     subscribe writes a byte after recording the commit cursor it
     announces in [pub_commit] / [pub_subscribe] (-1: none pending). *)
  pub_r : Unix.file_descr;
  pub_w : Unix.file_descr;
  pub_commit : int Atomic.t;
  pub_subscribe : int Atomic.t;
  pub_drain : bool Atomic.t;     (* a follower's queue fell below the mark *)
  pub_signalled : int Atomic.t;  (* highest cursor a wake has carried *)
  (* The journal followers stream from; [None] while no follower is
     subscribed, which is what keeps a follower-less primary from doing
     any replication work per request. *)
  repl_journal : Icdb_reldb.Journal.t option Atomic.t;
  ctr : counters;
  h_queue_wait : Metrics.histogram;
  h_poll_wait : Metrics.histogram;  (* per-tick time parked in poll(2) *)
  h_dispatch : Metrics.histogram;   (* per-tick time dispatching readiness *)
  dispatch : Dispatch.t;            (* executes every request *)
  (* Continuous telemetry (None when [telemetry_period_s <= 0]). *)
  mutable sampler : Series.t option;
  mutable loop_heartbeat : float;  (* wall clock of the last completed
                                      event-loop tick; the watchdog's
                                      primary liveness signal *)
  (* Stall watchdog, written only from the sampler tick hook. *)
  mutable wd_tripped : bool;
  mutable wd_reason : string;
  mutable wd_missed_seen : int;    (* sampler missed-deadline highwater *)
}

let now () = Unix.gettimeofday ()

(* Primary-side replication metrics. *)
let g_followers = Metrics.gauge "repl.followers"
let c_batches_sent = Metrics.counter "repl.batches_sent"
let c_records_sent = Metrics.counter "repl.records_sent"
let c_followers_shed = Metrics.counter "repl.followers_shed"
let c_checkpoints_sent = Metrics.counter "repl.checkpoints_sent"

(* Why the publisher woke: a commit or a subscribe announced a new
   commit cursor, a heartbeat came due, a failed stream's retry came
   due, or a follower's write queue fell below the mark. *)
let c_wake_commit = Metrics.counter "repl.wake.commit"
let c_wake_subscribe = Metrics.counter "repl.wake.subscribe"
let c_wake_timer = Metrics.counter "repl.wake.timer"
let c_wake_retry = Metrics.counter "repl.wake.retry"
let c_wake_drain = Metrics.counter "repl.wake.drain"

(* The commit cursor the publisher ships up to, and the lowest cursor
   placed on any follower's connection: a write is queued for every
   follower once the second passes it. *)
let g_commit_cursor = Metrics.gauge "repl.commit_cursor"
let g_min_shipped = Metrics.gauge "repl.min_shipped_cursor"

let g_connections = Metrics.gauge "net.connections"

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let wake_pipe fd =
  try ignore (Unix.write_substring fd "w" 0 1)
  with Unix.Unix_error _ | Sys_error _ -> ()
  (* EAGAIN = pipe already full of wakeups: the reader is waking anyway *)

let wake t = wake_pipe t.wake_w
let wake_publisher t = wake_pipe t.pub_w

let drain_pipe fd buf =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Queue pre-encoded bytes on the connection and nudge the loop; the
   loop does the actual write when the socket is ready. Queueing to a
   dead connection silently drops. *)
let send_bytes t conn bytes =
  Mutex.lock conn.wlock;
  let killed = ref false in
  let queued =
    if conn.alive then begin
      Queue.push bytes conn.wq;
      conn.wq_bytes <- conn.wq_bytes + String.length bytes;
      if conn.wq_bytes > wq_hardcap && not conn.follower then begin
        (* the peer stopped reading long ago; cut it loose rather than
           buffer without bound (its queued replies are forfeit) *)
        conn.alive <- false;
        killed := true
      end;
      true
    end
    else false
  in
  Mutex.unlock conn.wlock;
  if !killed then begin
    Metrics.incr t.ctr.c_bp_kills;
    Event.warn ~fields:[ ("conn", string_of_int conn.cid) ]
      "net: killing %s: write queue past hard cap (%d bytes unread)"
      conn.peer conn.wq_bytes
  end;
  if queued then wake t

let send_resp t conn id body =
  send_bytes t conn (Wire.encode_response { id; body })

let send_error t conn id code message =
  Metrics.incr t.ctr.c_errors;
  send_resp t conn id (Wire.Error { code; message })

(* Flag lost framing (or an idle reap): the loop keeps the connection
   just long enough to flush the queued courtesy frame, then closes.
   [fatal_at] starts that clock — a fatal connection whose peer never
   reads is force-closed after the flush grace rather than pinning its
   fd and [max_connections] slot behind an undrainable write queue.
   Loop thread only (like everything else that touches [fatal]). *)
let mark_fatal conn =
  if not conn.fatal then begin
    conn.fatal <- true;
    conn.fatal_at <- now ()
  end

(* Logical death, callable from any thread. The loop notices on its
   next tick and does the close, so a polled fd is never recycled out
   from under the running poll(2). Idempotent. *)
let mark_dead t conn =
  Mutex.lock conn.wlock;
  let was_alive = conn.alive in
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  if was_alive then wake t

(* Nonblocking flush of the write queue; loop/teardown thread only.
   Stops at EAGAIN (the socket buffer is full; poll will say when);
   a socket error marks the connection dead. A follower's queue that
   this flush takes from at or above the mark to below it wakes the
   publisher, which ships nothing to a follower at the mark. The
   crossing is judged under [wlock], so a queue that fills and drains
   between two publisher passes still wakes it. *)
let flush_writes t conn =
  Mutex.lock conn.wlock;
  let was_full = conn.wq_bytes >= wq_hiwater in
  let continue = ref true in
  while !continue && not (Queue.is_empty conn.wq) do
    let head = Queue.peek conn.wq in
    let off = conn.wq_off in
    let len = String.length head - off in
    match Unix.write_substring conn.fd head off len with
    | n ->
        conn.wq_bytes <- conn.wq_bytes - n;
        if n = len then begin
          ignore (Queue.pop conn.wq);
          conn.wq_off <- 0
        end
        else begin
          conn.wq_off <- off + n;
          continue := false
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        continue := false
    | exception (Unix.Unix_error _ | Sys_error _) ->
        conn.alive <- false;
        continue := false
  done;
  let drained = conn.follower && was_full && conn.wq_bytes < wq_hiwater in
  Mutex.unlock conn.wlock;
  if drained then begin
    Atomic.set t.pub_drain true;
    wake_publisher t
  end

(* Close the socket and unregister; loop/teardown thread only. A last
   best-effort flush delivers whatever fits in the socket buffer (the
   courtesy Bye / Repl_error frames). Closing a follower wakes the
   publisher to drop it: a follower at the mark has no deadline that
   would bring the publisher round. Idempotent. *)
let close_conn t conn =
  let doit =
    Mutex.lock conn.wlock;
    let doit = not conn.closed in
    conn.closed <- true;
    Mutex.unlock conn.wlock;
    doit
  in
  if doit then begin
    flush_writes t conn;
    Mutex.lock conn.wlock;
    conn.alive <- false;
    Mutex.unlock conn.wlock;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Mutex.lock t.clock;
    Hashtbl.remove t.conns conn.cid;
    Metrics.set g_connections (float_of_int (Hashtbl.length t.conns));
    Mutex.unlock t.clock;
    Metrics.incr t.ctr.c_closed;
    if conn.follower then wake_publisher t;
    Event.debug ~fields:[ ("conn", string_of_int conn.cid) ]
      "net: connection %s closed" conn.peer
  end

let conns_snapshot t =
  Mutex.lock t.clock;
  let l = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  Mutex.unlock t.clock;
  l

(* One row per live connection for /connz, `icdb top` and the flight
   recorder. Reads of the mutable conn fields are racy snapshots, which
   is fine for a diagnostic table. *)
type conn_info = {
  ci_cid : int;
  ci_peer : string;
  ci_state : string;           (* follower | fatal | paused | active *)
  ci_wq_bytes : int;
  ci_reqs : int;
  ci_age_s : float;
  ci_idle_s : float;
  ci_paused_s : float;         (* 0 unless reads are paused *)
}

let conn_state c =
  if c.follower then "follower"
  else if c.fatal then "fatal"
  else if c.paused_since > 0.0 then "paused"
  else "active"

let conn_table t =
  let t0 = now () in
  conns_snapshot t
  |> List.filter (fun c -> not c.closed)
  |> List.map (fun c ->
         { ci_cid = c.cid;
           ci_peer = c.peer;
           ci_state = conn_state c;
           ci_wq_bytes = c.wq_bytes;
           ci_reqs = c.reqs;
           ci_age_s = t0 -. c.created_at;
           ci_idle_s = t0 -. c.last_active;
           ci_paused_s =
             (if c.paused_since > 0.0 then t0 -. c.paused_since else 0.0) })
  |> List.sort (fun a b -> compare a.ci_cid b.ci_cid)

(* ------------------------------------------------------------------ *)
(* Replication publisher (primary side)                                *)
(* ------------------------------------------------------------------ *)

let snapshot_name = "icdb.snapshot"
let chunk_bytes = 1 lsl 20

(* Journal records per pushed batch. *)
let batch_records = 512

(* The clock deadlines the publisher keeps: a follower that got nothing
   for [heartbeat_s] gets an empty batch, and a failed stream is retried
   after [retry_s]. Nothing else is timed: records ship when a wake
   announces them or a follower's write queue falls below the mark. *)
let heartbeat_s = 1.0
let retry_s = 0.05

(* Raise [a] to at least [v]. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* The commit wake, sent after a request's reply is queued (waking the
   publisher earlier slows the ack: it competes with the reply for the
   runtime) and, through the {!Sync} release hook, whenever a caller
   outside the request path releases the server lock. Costs one atomic
   read while no follower is subscribed, and wakes nothing when the
   commit cursor has not moved. *)
let signal_commit t =
  match Atomic.get t.repl_journal with
  | None -> ()
  | Some j ->
      let c = Icdb_reldb.Journal.committed j in
      if c > Atomic.get t.pub_signalled then begin
        atomic_max t.pub_signalled c;
        atomic_max t.pub_commit c;
        wake_publisher t
      end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* What a fresh follower needs besides the journal stream: the snapshot
   plus every netlist/IIF artifact in the workspace. *)
let checkpoint_files workspace =
  let all = try Sys.readdir workspace with Sys_error _ -> [||] in
  Array.to_list all
  |> List.filter (fun name ->
         name = snapshot_name
         || Filename.check_suffix name ".vhdl"
         || Filename.check_suffix name ".iif")
  |> List.sort compare

(* Drop a follower: queue the courtesy [Repl_error] and mark the
   connection dead. Neither blocks; the event loop flushes what it can
   and closes, and the publisher's sweep forgets the follower. *)
let shed_follower t fl reason =
  Metrics.incr c_followers_shed;
  Event.warn
    ~fields:[ ("conn", string_of_int fl.fl_conn.cid) ]
    "repl: dropping follower %s: %s" fl.fl_conn.peer reason;
  send_resp t fl.fl_conn fl.fl_rid (Wire.Repl_error reason);
  mark_dead t fl.fl_conn

(* The subscribe handshake, run on the worker that picked the frame up.
   Under the server lock, decide whether the follower's cursor is still
   inside the journal window (stream from it) or stale/fresh (checkpoint
   first, then stream from the post-checkpoint cursor); queue the
   checkpoint whole, then hand the follower to the publisher, so chunk
   and batch frames never interleave. *)
let handle_subscribe t conn rid cursor =
  if t.cfg.read_only then
    send_resp t conn rid
      (Wire.Repl_error "this node is a follower; subscribe to the primary")
  else begin
    let plan =
      Sync.with_server ~notify:false t.sync (fun server ->
          if not (Icdb.Server.durable server) then
            Error "primary is not durable: start it with --durable"
          else
            match Icdb_reldb.Db.journal (Icdb.Server.db server) with
            | None -> Error "primary has no journal attached"
            | Some j ->
                let base = Icdb_reldb.Journal.base_seq j in
                let next = Icdb_reldb.Journal.next_seq j in
                if cursor >= base && cursor <= next then Ok (j, `Stream cursor)
                else begin
                  (* absorb the journal so the window starts exactly at
                     the cursor the checkpoint is handed out with *)
                  Icdb.Server.checkpoint server;
                  let c = Icdb_reldb.Journal.next_seq j in
                  let ws = Icdb.Server.workspace server in
                  let files =
                    List.filter_map
                      (fun name ->
                        match read_file (Filename.concat ws name) with
                        | data -> Some (name, data)
                        | exception Sys_error _ -> None)
                      (checkpoint_files ws)
                  in
                  Ok (j, `Checkpoint (c, files))
                end)
    in
    match plan with
    | Error msg -> send_resp t conn rid (Wire.Repl_error msg)
    | Ok (j, plan) ->
        conn.follower <- true;
        let start_cursor =
          match plan with
          | `Stream c ->
              Event.info
                ~fields:[ ("conn", string_of_int conn.cid) ]
                "repl: follower %s subscribed at cursor %d" conn.peer c;
              c
          | `Checkpoint (c, files) ->
              Metrics.incr c_checkpoints_sent;
              Event.info
                ~fields:[ ("conn", string_of_int conn.cid) ]
                "repl: follower %s needs a checkpoint (%d files, cursor %d)"
                conn.peer (List.length files) c;
              send_resp t conn rid
                (Wire.Checkpoint_offer
                   { co_cursor = c; co_files = List.length files });
              let nfiles = List.length files in
              List.iteri
                (fun i (name, data) ->
                  let len = String.length data in
                  let nchunks = max 1 ((len + chunk_bytes - 1) / chunk_bytes) in
                  for k = 0 to nchunks - 1 do
                    let off = k * chunk_bytes in
                    send_resp t conn rid
                      (Wire.Checkpoint_chunk
                         { cc_name = name;
                           cc_data =
                             String.sub data off (min chunk_bytes (len - off));
                           cc_last = i = nfiles - 1 && k = nchunks - 1 })
                  done)
                files;
              (* an empty checkpoint still needs its terminator *)
              if files = [] then
                send_resp t conn rid
                  (Wire.Checkpoint_chunk
                     { cc_name = ""; cc_data = ""; cc_last = true });
              c
        in
        let fl =
          { fl_conn = conn;
            fl_rid = rid;
            fl_cursor = start_cursor;
            fl_last_sent = 0.0;
            fl_retry_at = infinity }
        in
        Mutex.lock t.rlock;
        t.followers <- fl :: t.followers;
        Atomic.set t.repl_journal (Some j);
        Metrics.set g_followers (float_of_int (List.length t.followers));
        Mutex.unlock t.rlock;
        (* read the cursor only now that commits can see the journal: a
           commit that found no journal to signal lies below it *)
        let c = Icdb_reldb.Journal.committed j in
        atomic_max t.pub_signalled c;
        atomic_max t.pub_subscribe c;
        wake_publisher t
  end

(* A follower at the mark gets nothing until its queue drains. *)
let at_mark fl = fl.fl_conn.wq_bytes >= wq_hiwater

(* Queue one batch frame on [fl]'s connection. *)
let push_batch t fl ~records ~files ~jnext =
  let n = List.length records in
  send_resp t fl.fl_conn fl.fl_rid
    (Wire.Journal_batch
       { jb_first = fl.fl_cursor;
         jb_next = jnext;
         jb_records = records;
         jb_files = files });
  fl.fl_cursor <- fl.fl_cursor + n;
  fl.fl_last_sent <- now ();
  Metrics.incr c_batches_sent;
  if n > 0 then Metrics.incr ~by:n c_records_sent

(* Ship [fl] its records below [bound], with the workspace files they
   depend on, one full batch per server-lock hold, until it reaches
   [bound] or the mark. A failed or torn read keeps the cursor and
   schedules a retry. *)
let rec ship_records t fl ~bound =
  match
    Sync.with_server ~notify:false t.sync (fun server ->
        match Icdb_reldb.Db.journal (Icdb.Server.db server) with
        | None -> `Gone
        | Some j ->
            let base = Icdb_reldb.Journal.base_seq j in
            let next = Icdb_reldb.Journal.next_seq j in
            if fl.fl_cursor < base || fl.fl_cursor > next then `Stale
            else begin
              let want = min batch_records (bound - fl.fl_cursor) in
              let s =
                Icdb_reldb.Journal.stream_from j ~seq:fl.fl_cursor
                  ~max_records:want ()
              in
              let records =
                List.map Icdb_reldb.Journal.encode_line
                  s.Icdb_reldb.Journal.st_entries
              in
              let ws = Icdb.Server.workspace server in
              let files =
                List.concat_map Icdb.Server.replication_files
                  s.Icdb_reldb.Journal.st_entries
                |> List.sort_uniq compare
                |> List.filter_map (fun name ->
                       match read_file (Filename.concat ws name) with
                       | data -> Some (name, data)
                       | exception Sys_error _ -> None)
              in
              `Batch (records, files, want, Icdb_reldb.Journal.committed j)
            end)
  with
  | exception e ->
      (* the journal_stream fault site or an I/O hiccup: the cursor has
         not moved *)
      fl.fl_retry_at <- now () +. retry_s;
      Event.warn "repl: journal stream failed: %s" (Printexc.to_string e)
  | `Gone -> shed_follower t fl "primary journal detached"
  | `Stale ->
      shed_follower t fl
        "cursor left the journal window (a checkpoint truncated it); \
         reconnect for a fresh checkpoint"
  | `Batch (records, files, want, jnext) ->
      let n = List.length records in
      fl.fl_retry_at <- (if n < want then now () +. retry_s else infinity);
      push_batch t fl ~records ~files ~jnext;
      if n = want && fl.fl_cursor < bound && fl.fl_conn.alive
         && not (at_mark fl)
      then ship_records t fl ~bound

(* Serve one live follower in a publisher pass: nothing at the mark;
   records when it is behind [bound] and no retry is pending (or its
   retry came due); else a heartbeat when it got nothing for
   [heartbeat_s], which carries the commit cursor so the follower can
   measure its lag. *)
let serve_follower t fl ~bound ~tnow =
  let retry_due = fl.fl_retry_at <= tnow in
  if at_mark fl then `Idle
  else if retry_due || (fl.fl_retry_at = infinity && fl.fl_cursor < bound)
  then begin
    ship_records t fl ~bound;
    if retry_due then `Retry else `Records
  end
  else if tnow -. fl.fl_last_sent >= heartbeat_s then begin
    let jnext =
      match Atomic.get t.repl_journal with
      | Some j -> Icdb_reldb.Journal.committed j
      | None -> fl.fl_cursor
    in
    push_batch t fl ~records:[] ~files:[] ~jnext;
    `Heartbeat
  end
  else `Idle

let followers_snapshot t =
  Mutex.lock t.rlock;
  let l = t.followers in
  Mutex.unlock t.rlock;
  l

(* The nearest clock deadline over the followers: a heartbeat or a
   retry. A follower at the mark has none (its drain wakes the
   publisher); its heartbeat, already due, would spin the poll. *)
let next_deadline fls =
  List.fold_left
    (fun acc fl ->
      if (not fl.fl_conn.alive) || at_mark fl then acc
      else
        Float.min acc
          (Float.min fl.fl_retry_at (fl.fl_last_sent +. heartbeat_s)))
    infinity fls

(* One pass over the followers after a wake, then the registry sweep:
   closed connections drop out, and the journal handle goes once the
   last follower has. *)
let publish_pass t ~bound =
  let fls = followers_snapshot t in
  let tnow = now () in
  let retried = ref false and timed = ref false in
  List.iter
    (fun fl ->
      if fl.fl_conn.alive then
        match serve_follower t fl ~bound ~tnow with
        | `Retry -> retried := true
        | `Heartbeat -> timed := true
        | `Records | `Idle -> ())
    fls;
  if !retried then Metrics.incr c_wake_retry;
  if !timed then Metrics.incr c_wake_timer;
  Mutex.lock t.rlock;
  let live = List.filter (fun fl -> fl.fl_conn.alive) t.followers in
  t.followers <- live;
  if live = [] then Atomic.set t.repl_journal None;
  Metrics.set g_followers (float_of_int (List.length t.followers));
  Metrics.set g_commit_cursor (float_of_int (max 0 bound));
  Metrics.set g_min_shipped
    (float_of_int
       (List.fold_left (fun acc fl -> min acc fl.fl_cursor) (max 0 bound)
          live));
  Mutex.unlock t.rlock

(* The publisher parks on its self-pipe until a wake or the nearest
   clock deadline; it has no poll period. Records ship only below
   [bound], the highest commit cursor a commit or subscribe wake has
   carried, so each records batch belongs to the wake that made it due:
   a heartbeat coming due at the same instant ships none of them. *)
let publisher_loop t =
  let spec = [| Evpoll.fd_int t.pub_r; Evpoll.rd |] in
  let buf = Bytes.create 64 in
  let bound = ref (-1) in
  while not (Atomic.get t.want_stop) do
    let deadline = next_deadline (followers_snapshot t) in
    let timeout_ms =
      if deadline = infinity then -1
      else max 0 (int_of_float (Float.ceil ((deadline -. now ()) *. 1e3)))
    in
    (* a failed poll(2) (EINTR is absorbed) just ends the wait early *)
    (try ignore (Evpoll.poll spec 1 timeout_ms) with Failure _ -> ());
    (* drain before reading the causes: a wake recorded after this
       leaves its byte for the next poll *)
    drain_pipe t.pub_r buf;
    if not (Atomic.get t.want_stop) then begin
      let commit = Atomic.exchange t.pub_commit (-1) in
      let subscribe = Atomic.exchange t.pub_subscribe (-1) in
      if commit >= 0 then Metrics.incr c_wake_commit;
      if subscribe >= 0 then Metrics.incr c_wake_subscribe;
      if Atomic.exchange t.pub_drain false then Metrics.incr c_wake_drain;
      bound := max !bound (max commit subscribe);
      publish_pass t ~bound:!bound
    end
  done

let handle_task t task =
  let conn = task.tconn and frame = task.tframe and ctx = task.tctx in
  let wait = now () -. task.enqueued_at in
  Metrics.observe t.h_queue_wait wait;
  let deadline_missed =
    ctx.Wire.timeout_s > 0.0 && wait > ctx.Wire.timeout_s
  in
  if wait > t.cfg.request_timeout_s || deadline_missed then begin
    Metrics.incr t.ctr.c_timeouts;
    let bound =
      if deadline_missed then ctx.Wire.timeout_s else t.cfg.request_timeout_s
    in
    send_error t conn frame.Wire.id Wire.Timeout
      (Printf.sprintf
         "request timed out after %.3f s in queue (deadline %.3f s)" wait
         bound)
  end
  else
    match frame.Wire.body with
    | Wire.Subscribe { cursor } ->
        (* replication handshake: sends its own frames (offer, chunks)
           and registers with the publisher, which pushes the batches —
           there is no single response to send here *)
        handle_subscribe t conn frame.Wire.id cursor
    | body -> (
        (* the absolute instant this request must stop consuming a
           worker: the tighter of the client's deadline and the server's
           request timeout, both anchored at enqueue (re-checked
           mid-batch) *)
        let deadline =
          let server_d = task.enqueued_at +. t.cfg.request_timeout_s in
          if ctx.Wire.timeout_s > 0.0 then
            Float.min server_d (task.enqueued_at +. ctx.Wire.timeout_s)
          else server_d
        in
        match
          Dispatch.run t.dispatch ~ctx ~conn:conn.cid ~id:frame.Wire.id
            ~deadline body
        with
        | resp ->
            (match resp with
             | Wire.Error _ -> Metrics.incr t.ctr.c_errors
             | _ -> ());
            send_resp t conn frame.Wire.id resp;
            signal_commit t
        | exception (Icdb.Faultinject.Crash _ as e) ->
            (* an injected crash simulates the process dying mid-request
               (see Faultinject): the daemon dies, as an in-process
               caller does, rather than lose one worker *)
            Event.error "net: %s in a request; exiting" (Printexc.to_string e);
            exit 2)

(* Workers drain the queue completely before exiting, which is what
   makes shutdown graceful: every request that was accepted is answered. *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not (Atomic.get t.want_stop) do
      Condition.wait t.qcond t.qlock
    done;
    let task = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    Mutex.unlock t.qlock;
    match task with
    | Some task ->
        handle_task t task;
        loop ()
    | None -> () (* stopping and drained *)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let enqueue t conn frame ctx =
  Metrics.incr t.ctr.c_requests;
  conn.reqs <- conn.reqs + 1;
  if Atomic.get t.want_stop then
    send_error t conn frame.Wire.id Wire.Shutting_down "server is shutting down"
  else begin
    Mutex.lock t.qlock;
    let shed = Queue.length t.queue >= t.cfg.max_queue in
    if not shed then begin
      Queue.push
        { tconn = conn; tframe = frame; tctx = ctx; enqueued_at = now () }
        t.queue;
      Condition.signal t.qcond
    end;
    Mutex.unlock t.qlock;
    if shed then begin
      Metrics.incr t.ctr.c_shed;
      send_error t conn frame.Wire.id Wire.Overloaded
        (Printf.sprintf "request shed: queue full (%d deep)" t.cfg.max_queue)
    end
  end

(* Decode and dispatch every complete frame sitting in the connection's
   reassembly buffer. Loop thread only. The recoverable decode errors
   (bad version, malformed body) answer a structured error and keep
   going; the fatal ones (oversized — framing is lost) flush the error
   and close. *)
let rec drain_frames t conn =
  if conn.alive && not conn.fatal then
    match Wire.Dechunk.next conn.dechunk with
    | `Await -> ()
    | `Oversized n ->
        Metrics.incr t.ctr.c_malformed;
        send_error t conn 0 Wire.Protocol_error
          (Wire.decode_error_to_string (Wire.Oversized n));
        mark_fatal conn
    | `Payload payload ->
        (match Wire.decode_request payload with
         | Ok (frame, ctx) ->
             conn.last_active <- now ();
             enqueue t conn frame ctx
         | Error (Wire.Bad_version { id; got }) ->
             (* the frame was fully consumed: the connection survives *)
             Metrics.incr t.ctr.c_version_mismatch;
             send_error t conn
               (Option.value id ~default:0)
               Wire.Version_mismatch
               (Printf.sprintf
                  "peer speaks protocol v%d, this server speaks v%d" got
                  Wire.protocol_version);
             conn.last_active <- now ()
         | Error (Wire.Malformed { id; reason }) ->
             Metrics.incr t.ctr.c_malformed;
             send_error t conn
               (Option.value id ~default:0)
               Wire.Protocol_error ("malformed frame: " ^ reason);
             conn.last_active <- now ()
         | Error (Wire.Closed | Wire.Truncated _ | Wire.Oversized _) ->
             (* transport-level classifications cannot arise from a
                complete payload; treat as lost framing *)
             Metrics.incr t.ctr.c_malformed;
             mark_fatal conn);
        drain_frames t conn

(* One readable connection: read what the kernel has, reassemble,
   dispatch. EOF with a partial frame buffered is the stream-level
   [Truncated]: answer the error out loud, then close. *)
let handle_readable t rbuf conn =
  match Unix.read conn.fd rbuf 0 rbuf_size with
  | 0 ->
      if Wire.Dechunk.buffered conn.dechunk > 0 then begin
        Metrics.incr t.ctr.c_malformed;
        send_error t conn 0 Wire.Protocol_error
          (Wire.decode_error_to_string (Wire.Truncated "stream ended mid-frame"));
        mark_fatal conn
      end
      else mark_dead t conn
  | n ->
      Wire.Dechunk.feed conn.dechunk rbuf 0 n;
      drain_frames t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> mark_dead t conn

let admit t fd peer_addr =
  let peer =
    match peer_addr with
    | Unix.ADDR_INET (a, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
    | Unix.ADDR_UNIX p -> p
  in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  Mutex.lock t.clock;
  let live = Hashtbl.length t.conns in
  let admitted = live < t.cfg.max_connections in
  let conn =
    if not admitted then None
    else begin
      t.next_cid <- t.next_cid + 1;
      let conn =
        { cid = t.next_cid;
          fd;
          peer;
          created_at = now ();
          wlock = Mutex.create ();
          alive = true;
          closed = false;
          last_active = now ();
          follower = false;
          dechunk = Wire.Dechunk.create ();
          wq = Queue.create ();
          wq_off = 0;
          wq_bytes = 0;
          fatal = false;
          fatal_at = 0.0;
          reqs = 0;
          paused_since = 0.0 }
      in
      Hashtbl.replace t.conns conn.cid conn;
      Metrics.set g_connections (float_of_int (Hashtbl.length t.conns));
      Some conn
    end
  in
  Mutex.unlock t.clock;
  match conn with
  | None ->
      Metrics.incr t.ctr.c_refused;
      Event.warn "net: refusing %s: %d/%d connections in use" peer live
        t.cfg.max_connections;
      (* the fd is still blocking here, so this small frame goes out
         without joining the event loop's bookkeeping *)
      (try
         Wire.write_frame fd
           (Wire.encode_response
              { id = 0;
                body =
                  Wire.Error
                    { code = Wire.Overloaded;
                      message =
                        Printf.sprintf "connection limit reached (%d)"
                          t.cfg.max_connections } })
       with Unix.Unix_error _ | Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | Some conn ->
      Unix.set_nonblock fd;
      Metrics.incr t.ctr.c_accepted;
      Event.debug ~fields:[ ("conn", string_of_int conn.cid) ]
        "net: accepted %s" peer

let rec accept_burst t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* out of fds: stop accepting this tick; pending connections stay
         in the listen backlog until capacity frees up *)
      Event.warn "net: accept failed: out of file descriptors"
  | exception Unix.Unix_error (err, _, _) ->
      (* anything else (ENOMEM, EPERM, proto errors surfaced by
         accept): log and give up on this tick rather than let the
         exception escape and kill the event-loop thread *)
      Event.warn "net: accept failed: %s" (Unix.error_message err)
  | fd, peer ->
      admit t fd peer;
      accept_burst t

let idle_scan t =
  List.iter
    (fun conn ->
      (* followers legitimately never send another frame after the
         subscribe: the traffic is all primary→follower pushes *)
      if conn.alive && (not conn.fatal) && (not conn.follower)
         && now () -. conn.last_active > t.cfg.idle_timeout_s
      then begin
        Metrics.incr t.ctr.c_idle_reaped;
        Event.info ~fields:[ ("conn", string_of_int conn.cid) ]
          "net: reaping idle connection %s" conn.peer;
        send_resp t conn 0 Wire.Bye;
        mark_fatal conn
      end)
    (conns_snapshot t)

(* Drain phase of the teardown: every reply the workers produced is
   sitting in a write queue; push the queues out (bounded — a peer that
   refuses to read forfeits its replies after [flush_grace_s]). *)
let flush_grace_s = 5.0

let teardown t =
  (* no new connections *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* wake idle workers so they can observe the stop flag and drain:
     every accepted request gets its reply queued *)
  Mutex.lock t.qlock;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qlock;
  List.iter Thread.join t.worker_threads;
  (* retire the replication plane: the publisher wakes and exits on the
     stop flag; from here on followers are ordinary connections *)
  (match t.publisher with
   | Some th ->
       wake_publisher t;
       Thread.join th;
       Sync.set_on_release t.sync ignore;
       Atomic.set t.repl_journal None
   | None -> ());
  (* say goodbye, then flush all write queues out *)
  List.iter
    (fun conn -> if conn.alive then send_resp t conn 0 Wire.Bye)
    (conns_snapshot t);
  let deadline = now () +. flush_grace_s in
  let rec flush_all () =
    let pending =
      List.filter (fun c -> c.alive && c.wq_bytes > 0) (conns_snapshot t)
    in
    if pending <> [] && now () < deadline then begin
      let arr = Array.of_list pending in
      let n = Array.length arr in
      let spec = Array.make (2 * n) 0 in
      Array.iteri
        (fun i c ->
          spec.(2 * i) <- Evpoll.fd_int c.fd;
          spec.((2 * i) + 1) <- Evpoll.wr)
        arr;
      (match Evpoll.poll spec n 100 with
       | res ->
           Array.iteri
             (fun i c ->
               if res.(i) land Evpoll.er <> 0 then mark_dead t c
               else if res.(i) land Evpoll.wr <> 0 then flush_writes t c)
             arr
       | exception _ -> Thread.delay 0.05);
      flush_all ()
    end
  in
  flush_all ();
  List.iter (fun conn -> close_conn t conn) (conns_snapshot t);
  (* retire the telemetry sampler (joins its thread; the watchdog hook
     only takes short-lived locks, so this cannot deadlock) *)
  (match t.sampler with
   | Some s ->
       Series.stop s;
       t.sampler <- None
   | None -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.wake_r; t.wake_w; t.pub_r; t.pub_w ];
  Event.info "net: service stopped"

(* The loop: one poll(2) over the wake pipe, the listen socket, and
   every live connection. Read-interest is withdrawn from connections
   over the write high-water mark (backpressure) and from fatal ones
   (flush-then-close); write-interest exists only while bytes are
   queued, so an idle connection costs nothing but its table entry. *)
let event_loop t =
  let rbuf = Bytes.create rbuf_size in
  let wakebuf = Bytes.create 256 in
  let last_scan = ref (now ()) in
  while not (Atomic.get t.want_stop) do
    (* the whole tick is guarded: an unexpected exception from any
       dispatch path must not kill the only thread that accepts, reads,
       writes and closes — log it and keep ticking *)
    try
    (* stall-injection point for the watchdog tests: an armed
       [Loop_stall] hit wedges this thread for a while instead of
       raising, exactly the failure the watchdog exists to catch *)
    (match Icdb.Faultinject.hit Icdb.Faultinject.Loop_stall with
     | () -> ()
     | exception _ -> Thread.delay 1.5);
    (* reap: close what was marked dead, what finished flushing, and
       any fatal connection whose peer would not drain its courtesy
       frame within the flush grace (it forfeits the frame; the fd and
       max_connections slot must not leak behind its write queue) *)
    List.iter
      (fun c ->
        if (not c.alive)
           || (c.fatal
               && (c.wq_bytes = 0 || now () -. c.fatal_at > flush_grace_s))
        then close_conn t c)
      (conns_snapshot t);
    let live = List.filter (fun c -> c.alive) (conns_snapshot t) in
    let arr = Array.of_list live in
    let nconns = Array.length arr in
    let nfds = 2 + nconns in
    let spec = Array.make (2 * nfds) 0 in
    spec.(0) <- Evpoll.fd_int t.wake_r;
    spec.(1) <- Evpoll.rd;
    spec.(2) <- Evpoll.fd_int t.listen_fd;
    spec.(3) <- Evpoll.rd;
    Array.iteri
      (fun i c ->
        let want_read = (not c.fatal) && c.wq_bytes < wq_hiwater in
        (* read-pause transition bookkeeping for the watchdog and the
           backpressure counters; reads of [paused_since] elsewhere are
           racy snapshots, writes happen only here *)
        if want_read then begin
          if c.paused_since > 0.0 then c.paused_since <- 0.0
        end
        else if (not c.fatal) && c.paused_since = 0.0 then begin
          c.paused_since <- now ();
          Metrics.incr t.ctr.c_bp_pauses
        end;
        let ev =
          (if want_read then Evpoll.rd else 0)
          lor (if c.wq_bytes > 0 then Evpoll.wr else 0)
        in
        spec.((2 * (i + 2))) <- Evpoll.fd_int c.fd;
        spec.((2 * (i + 2)) + 1) <- ev)
      arr;
    let t_poll = now () in
    (match Evpoll.poll spec nfds 200 with
     | res ->
         let t_disp = now () in
         Metrics.observe t.h_poll_wait (t_disp -. t_poll);
         if res.(0) land Evpoll.rd <> 0 then drain_pipe t.wake_r wakebuf;
         if (not (Atomic.get t.want_stop)) && res.(1) land Evpoll.rd <> 0 then
           accept_burst t;
         Array.iteri
           (fun i c ->
             let r = res.(i + 2) in
             if r land Evpoll.er <> 0 then mark_dead t c
             else begin
               if r land Evpoll.wr <> 0 then flush_writes t c;
               (* re-check interest: the flush may have erred the
                  connection out, and POLLHUP reports as readable even
                  on read-paused connections *)
               if r land Evpoll.rd <> 0 && c.alive && (not c.fatal)
                  && c.wq_bytes < wq_hiwater
               then handle_readable t rbuf c
             end)
           arr;
         Metrics.observe t.h_dispatch (now () -. t_disp)
     | exception _ -> Thread.delay 0.05);
    if now () -. !last_scan >= 1.0 then begin
      last_scan := now ();
      idle_scan t
    end;
    t.loop_heartbeat <- now ()
    with e ->
      Event.warn "net: event loop tick failed: %s" (Printexc.to_string e);
      Thread.delay 0.05
  done;
  teardown t

(* ------------------------------------------------------------------ *)
(* Continuous telemetry & stall watchdog                               *)
(* ------------------------------------------------------------------ *)

(* The loop heartbeat may go this many sampler periods stale before the
   watchdog calls the loop wedged; floored at 1 s because an idle loop
   legitimately parks in poll(2) for its 200 ms timeout per tick. *)
let wd_stall_periods = 5

(* A connection read-paused (over the write high-water mark) longer
   than this is evidence the loop stopped draining writes — or that a
   peer is being slowly poisoned — either way worth alarming on. *)
let wd_pause_bound_s = 30.0

let wd_stall_bound_s t =
  Float.max 1.0 (float_of_int wd_stall_periods *. t.cfg.telemetry_period_s)

let g_wd_tripped = Metrics.gauge "net.watchdog.tripped"

(* Runs on every sampler tick. Detects: a stale loop heartbeat (the
   loop is wedged), a burst of missed sampler deadlines (the whole
   process was wedged — scheduler starvation, a stop-the-world pause),
   or a connection paused past bound. Trip/recover transitions emit
   structured events; the current verdict surfaces in /healthz. *)
let watchdog_check t sampler =
  let t0 = now () in
  let missed = Series.missed_deadlines sampler in
  let missed_delta = missed - t.wd_missed_seen in
  t.wd_missed_seen <- missed;
  let reason =
    let stale = t0 -. t.loop_heartbeat in
    if stale > wd_stall_bound_s t then
      Printf.sprintf "event loop stalled: no tick for %.2f s (bound %.2f s)"
        stale (wd_stall_bound_s t)
    else if missed_delta >= wd_stall_periods then
      Printf.sprintf "sampler missed %d consecutive deadlines (period %g s)"
        missed_delta t.cfg.telemetry_period_s
    else
      match
        List.find_opt
          (fun c ->
            c.alive && c.paused_since > 0.0
            && t0 -. c.paused_since > wd_pause_bound_s)
          (conns_snapshot t)
      with
      | Some c ->
          Printf.sprintf
            "connection %d (%s) read-paused for %.0f s (%d bytes unread)"
            c.cid c.peer (t0 -. c.paused_since) c.wq_bytes
      | None -> ""
  in
  if reason <> "" then begin
    if not t.wd_tripped then begin
      Metrics.incr t.ctr.c_wd_trips;
      Metrics.set g_wd_tripped 1.0;
      Event.error ~fields:[ ("reason", reason) ] "net: stall watchdog tripped"
    end;
    t.wd_tripped <- true;
    t.wd_reason <- reason
  end
  else if t.wd_tripped then begin
    Metrics.set g_wd_tripped 0.0;
    Event.info ~fields:[ ("was", t.wd_reason) ]
      "net: stall watchdog recovered";
    t.wd_tripped <- false;
    t.wd_reason <- ""
  end

(* Build the sampler: delta series for traffic counters, percentile
   series for the latency ramps, and poll series that both record
   history and refresh same-named registry gauges so /metrics shows the
   live values. Runs only when [telemetry_period_s > 0]. *)
let setup_telemetry t =
  if t.cfg.telemetry_period_s > 0.0 then begin
    let s = Series.create ~cap:600 ~period_s:t.cfg.telemetry_period_s () in
    let add name src = ignore (Series.add s name src) in
    let poll name f =
      let g = Metrics.gauge name in
      add name
        (Series.Poll
           (fun () ->
             let v = f () in
             Metrics.set g v;
             v))
    in
    add "net.requests" (Series.Counter t.ctr.c_requests);
    add "net.errors" (Series.Counter t.ctr.c_errors);
    add "net.queue_wait.p99" (Series.Percentile (t.h_queue_wait, 0.99));
    add "net.request_s.p99"
      (Series.Percentile (Metrics.histogram "net.request_s", 0.99));
    add "net.loop.poll_wait.p99" (Series.Percentile (t.h_poll_wait, 0.99));
    add "net.loop.dispatch.p99" (Series.Percentile (t.h_dispatch, 0.99));
    poll "net.queue_depth" (fun () ->
        Mutex.lock t.qlock;
        let n = Queue.length t.queue in
        Mutex.unlock t.qlock;
        float_of_int n);
    poll "net.queue_age_s" (fun () ->
        Mutex.lock t.qlock;
        let v =
          match Queue.peek_opt t.queue with
          | Some task -> now () -. task.enqueued_at
          | None -> 0.0
        in
        Mutex.unlock t.qlock;
        v);
    poll "net.wq_bytes" (fun () ->
        float_of_int
          (List.fold_left
             (fun acc c -> acc + c.wq_bytes)
             0 (conns_snapshot t)));
    let count_state st () =
      float_of_int
        (List.length
           (List.filter
              (fun c -> c.alive && conn_state c = st)
              (conns_snapshot t)))
    in
    poll "net.conns.active" (count_state "active");
    poll "net.conns.paused" (count_state "paused");
    poll "net.conns.fatal" (count_state "fatal");
    add "repl.followers" (Series.Gauge g_followers);
    (* lag gauges are written by Replica on a follower; on a primary
       they exist and stay 0, so the series is always well-defined *)
    add "repl.lag_records" (Series.Gauge (Metrics.gauge "repl.lag_records"));
    add "repl.lag_seconds" (Series.Gauge (Metrics.gauge "repl.lag_seconds"));
    add "process.open_fds"
      (Series.Poll
         (fun () ->
           Expo.update_process_gauges ();
           Expo.g_open_fds.Metrics.gvalue));
    Series.on_tick s (fun () -> watchdog_check t s);
    t.sampler <- Some s;
    Series.start s
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let counters () =
  { c_accepted = Metrics.counter "net.accepted";
    c_refused = Metrics.counter "net.refused";
    c_closed = Metrics.counter "net.closed";
    c_requests = Metrics.counter "net.requests";
    c_errors = Metrics.counter "net.errors";
    c_shed = Metrics.counter "net.shed";
    c_timeouts = Metrics.counter "net.timeouts";
    c_malformed = Metrics.counter "net.malformed";
    c_version_mismatch = Metrics.counter "net.version_mismatch";
    c_idle_reaped = Metrics.counter "net.idle_reaped";
    c_bp_pauses = Metrics.counter "net.backpressure.pauses";
    c_bp_kills = Metrics.counter "net.backpressure.kills";
    c_wd_trips = Metrics.counter "net.watchdog.trips" }

let start ?(config = default_config) sync =
  (* a dead peer must surface as EPIPE on the write, not kill the
     process; set here (not only in the CLI) so library embedders are
     covered *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen listen_fd 256;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let self_pipe () =
    let r, w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    (r, w)
  in
  let wake_r, wake_w = self_pipe () in
  let pub_r, pub_w = self_pipe () in
  let want_stop = Atomic.make false in
  let t =
    { cfg = config;
      sync;
      listen_fd;
      bound_port;
      want_stop;
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      conns = Hashtbl.create 64;
      clock = Mutex.create ();
      next_cid = 0;
      worker_threads = [];
      loop_thread = None;
      wake_r;
      wake_w;
      rlock = Mutex.create ();
      followers = [];
      publisher = None;
      pub_r;
      pub_w;
      pub_commit = Atomic.make (-1);
      pub_subscribe = Atomic.make (-1);
      pub_drain = Atomic.make false;
      pub_signalled = Atomic.make (-1);
      repl_journal = Atomic.make None;
      ctr = counters ();
      h_queue_wait = Metrics.histogram "net.queue_wait";
      h_poll_wait = Metrics.histogram "net.loop.poll_wait";
      h_dispatch = Metrics.histogram "net.loop.dispatch";
      dispatch =
        Dispatch.create ~read_only:config.read_only
          ~slow_threshold_s:config.slow_threshold_s
          ~on_shutdown:(fun () ->
            Atomic.set want_stop true;
            wake_pipe wake_w)
          sync;
      sampler = None;
      loop_heartbeat = now ();
      wd_tripped = false;
      wd_reason = "";
      wd_missed_seen = 0 }
  in
  t.worker_threads <-
    List.init (max 1 config.workers) (fun _ -> Thread.create worker_loop t);
  t.loop_thread <- Some (Thread.create event_loop t);
  (* a follower never publishes; only primaries run the publisher, and
     hear of commits made outside the request path through the lock's
     release hook *)
  if not config.read_only then begin
    Sync.set_on_release sync (fun () -> signal_commit t);
    t.publisher <- Some (Thread.create publisher_loop t)
  end;
  Expo.update_process_gauges ();
  setup_telemetry t;
  Event.info
    "net: icdbd listening on %s:%d (%d workers, %d connections max, event loop)"
    config.host bound_port (max 1 config.workers) config.max_connections;
  t

let port t = t.bound_port
let config t = t.cfg
let slow_log t = Dispatch.slow_log t.dispatch
let stopping t = Atomic.get t.want_stop

let queue_depth t =
  Mutex.lock t.qlock;
  let n = Queue.length t.queue in
  Mutex.unlock t.qlock;
  n

let follower_count t =
  Mutex.lock t.rlock;
  let n = List.length t.followers in
  Mutex.unlock t.rlock;
  n

let sampler t = t.sampler

let watchdog t = (t.wd_tripped, t.wd_reason)

let request_shutdown t =
  Atomic.set t.want_stop true;
  wake t

let wait t =
  match t.loop_thread with Some th -> Thread.join th | None -> ()

let shutdown t =
  request_shutdown t;
  wait t
