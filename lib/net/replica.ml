(* The replication follower: keep a local read-only ICDB server in
   sync with a primary by subscribing to its journal stream.

   Life of a follower:
   - [create] bootstraps the local server. A workspace that already
     holds a journal or snapshot is reopened through the ordinary crash
     recovery path (a follower restart is just a crash restart); a
     fresh workspace first fetches a full checkpoint from the primary
     (snapshot + netlists + IIF sources), installs it with the
     journal's sequence base set to the checkpoint cursor, and reopens.
   - [run] starts the streaming loop: subscribe at the local journal's
     [next_seq], apply each pushed batch through
     [Icdb.Server.apply_replicated] — which appends every shipped
     record verbatim to the local journal, so the cursor IS the local
     journal and survives crashes for free — and reconnect with capped,
     jittered exponential backoff whenever the stream breaks.
   - A primary that answers the subscribe with a checkpoint (our cursor
     predates its last truncation) triggers a full re-sync in place:
     the old state files are dropped, the checkpoint installed, a new
     server reopened and swapped in under the service's lock
     ({!Sync.replace}) while queries keep being served.

   Lag is tracked against the primary's [next_seq], which every batch
   (including the 1 Hz heartbeats) carries; [ready] gates the /readyz
   endpoint on connectedness and on lag in both records and seconds. *)

open Icdb_obs

type config = { host : string; port : int }

let default_config = { host = "127.0.0.1"; port = 7601 }

(* Extra connect attempts at bootstrap, and the first reconnect backoff
   (it doubles, capped at 5 s, jittered). *)
let connect_retries = 5
let backoff_s = 0.1

(* The {!ready} bounds; [max_lag_seconds] also sizes the silent-stream
   grace. *)
let max_lag_records = 1_000
let max_lag_seconds = 10.0

exception Repl_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Repl_error s)) fmt

(* Raised inside a streaming session to force a reconnect without
   tearing the follower down. *)
exception Reconnect of string

type t = {
  rcfg : config;
  workspace : string;
  verify : bool;
  sync : Sync.t;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
  (* The self-pipe the streaming thread waits on next to its socket and
     in its reconnect backoff, open while the thread runs: [stop] writes
     it rather than waiting out a select timeout. *)
  mutable stop_pipe : (Unix.file_descr * Unix.file_descr) option;
  (* Loop → readiness signalling; single-word reads, no lock needed. *)
  mutable connected : bool;
  mutable primary_next : int;     (* primary next_seq from the last batch *)
  mutable caught_up_at : float;   (* last time local cursor = primary_next *)
  mutable started_at : float;
}

let g_lag_records = Metrics.gauge "repl.lag_records"
let g_lag_seconds = Metrics.gauge "repl.lag_seconds"
let g_connected = Metrics.gauge "repl.connected"
let c_batches_applied = Metrics.counter "repl.batches_applied"
let c_records_applied = Metrics.counter "repl.records_applied"
let h_apply = Metrics.histogram "repl.apply_s"
let c_reconnects = Metrics.counter "repl.reconnects"
let c_checkpoints_fetched = Metrics.counter "repl.checkpoints_fetched"

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Workspace plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let journal_name = "icdb.journal"
let snapshot_name = "icdb.snapshot"

(* Shipped names are basenames by contract; enforcing it here keeps a
   malicious or corrupt primary from writing outside the workspace. *)
let write_file_atomic dir name data =
  let name = Filename.basename name in
  if name <> "" && name <> "." && name <> ".." then begin
    let path = Filename.concat dir name in
    let tmp = path ^ ".part" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc data);
    Sys.rename tmp path
  end

let local_next t =
  Sync.with_server t.sync (fun server ->
      match Icdb_reldb.Db.journal (Icdb.Server.db server) with
      | Some j -> Icdb_reldb.Journal.next_seq j
      | None -> fail "follower server has no journal attached")

let update_lag t =
  let lag_records =
    if t.primary_next < 0 then 0 else max 0 (t.primary_next - local_next t)
  in
  let lag_seconds = now () -. t.caught_up_at in
  Metrics.set g_lag_records (float_of_int lag_records);
  Metrics.set g_lag_seconds lag_seconds;
  Metrics.set g_connected (if t.connected then 1.0 else 0.0);
  (lag_records, lag_seconds)

(* ------------------------------------------------------------------ *)
(* Checkpoint transfer (follower side)                                 *)
(* ------------------------------------------------------------------ *)

(* Drain [Checkpoint_chunk] frames into workspace files until the
   terminal chunk. Chunks of one file arrive contiguously, so a single
   pending buffer suffices. *)
let receive_checkpoint_chunks fd ~workspace =
  let pending_name = ref "" in
  let pending = Buffer.create 4096 in
  let flush_pending () =
    if !pending_name <> "" then
      write_file_atomic workspace !pending_name (Buffer.contents pending);
    Buffer.clear pending;
    pending_name := ""
  in
  let rec loop () =
    match Wire.read_response fd with
    | Error e -> fail "checkpoint transfer failed: %s" (Wire.decode_error_to_string e)
    | Ok { Wire.body = Wire.Checkpoint_chunk { cc_name; cc_data; cc_last }; _ }
      ->
        if cc_name <> !pending_name then begin
          flush_pending ();
          pending_name := cc_name
        end;
        Buffer.add_string pending cc_data;
        if cc_last then flush_pending () else loop ()
    | Ok { Wire.body = Wire.Repl_error msg; _ } ->
        fail "primary refused mid-checkpoint: %s" msg
    | Ok { Wire.body = Wire.Bye; _ } ->
        fail "primary closed the connection mid-checkpoint"
    | Ok _ -> loop () (* unrelated frame; skip *)
  in
  loop ()

(* Install a checkpoint fetched at [cursor]: drop the old durable state
   so nothing stale survives, then seed the journal's sequence base.
   Crash-safe by retry: a crash part-way leaves either no journal and
   no snapshot (fresh fetch next time) or a journal whose base is 0 and
   thus below the primary's (checkpoint again next time). *)
let install_checkpoint ~workspace ~cursor =
  List.iter
    (fun name ->
      let p = Filename.concat workspace name in
      if Sys.file_exists p then Sys.remove p)
    [ journal_name; journal_name ^ ".seq" ];
  Icdb_reldb.Journal.install_base (Filename.concat workspace journal_name) cursor

(* Subscribe with a hopeless cursor to make the primary ship a full
   checkpoint; returns the cursor the checkpoint was taken at. Used by
   [create] on a virgin workspace (the connection is then discarded —
   the streaming session re-subscribes from the installed cursor). *)
let fetch_checkpoint ~rcfg ~workspace =
  let c =
    Client.connect ~host:rcfg.host ~port:rcfg.port
      ~retries:connect_retries ~backoff_s ()
  in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let fd = Client.fd c in
      Wire.write_frame fd
        (Wire.encode_request { Wire.id = 1; body = Wire.Subscribe { cursor = -1 } });
      let rec first () =
        match Wire.read_response fd with
        | Error e ->
            fail "subscribe failed: %s" (Wire.decode_error_to_string e)
        | Ok { Wire.body = Wire.Checkpoint_offer { co_cursor; co_files }; _ } ->
            Event.info "repl: fetching checkpoint (%d files, cursor %d)"
              co_files co_cursor;
            receive_checkpoint_chunks fd ~workspace;
            Metrics.incr c_checkpoints_fetched;
            co_cursor
        | Ok { Wire.body = Wire.Repl_error msg; _ } ->
            fail "primary refused subscription: %s" msg
        | Ok { Wire.body = Wire.Error { message; _ }; _ } ->
            fail "primary rejected subscribe: %s" message
        | Ok { Wire.body = Wire.Bye; _ } ->
            fail "primary closed the connection"
        | Ok _ -> first ()
      in
      first ())

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)
(* ------------------------------------------------------------------ *)

let reopen_follower ~verify ~workspace =
  let server, report = Icdb.Server.reopen ~verify ~workspace () in
  if report.Icdb.Server.rr_entries_replayed > 0
     || report.Icdb.Server.rr_torn_tail
  then
    Event.info "repl: follower recovery replayed %d entries%s"
      report.Icdb.Server.rr_entries_replayed
      (if report.Icdb.Server.rr_torn_tail then " (torn tail cut)" else "");
  server

let create ?(verify = false) ?(config = default_config) ~workspace () =
  if not (Sys.file_exists workspace) then Unix.mkdir workspace 0o755;
  let have_state =
    Sys.file_exists (Filename.concat workspace journal_name)
    || Sys.file_exists (Filename.concat workspace snapshot_name)
  in
  if not have_state then begin
    let cursor = fetch_checkpoint ~rcfg:config ~workspace in
    install_checkpoint ~workspace ~cursor
  end;
  let server = reopen_follower ~verify ~workspace in
  let sync = Sync.wrap server in
  let t =
    { rcfg = config;
      workspace;
      verify;
      sync;
      stop_flag = Atomic.make false;
      thread = None;
      stop_pipe = None;
      connected = false;
      primary_next = -1;
      caught_up_at = now ();
      started_at = now () }
  in
  ignore (update_lag t);
  t

let sync t = t.sync

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)
(* ------------------------------------------------------------------ *)

(* Apply one pushed batch under the service lock. Records the follower
   already has (an overlap after a reconnect race) are skipped; a gap
   means the stream and our cursor diverged, so reconnect and let the
   subscribe handshake sort it out. *)
let apply_batch t ~jb_first ~jb_next ~jb_records ~jb_files =
  let t0 = now () in
  let applied =
    Sync.with_server t.sync (fun server ->
        let j =
          match Icdb_reldb.Db.journal (Icdb.Server.db server) with
          | Some j -> j
          | None -> fail "follower server lost its journal"
        in
        let next = Icdb_reldb.Journal.next_seq j in
        if jb_first > next then
          raise
            (Reconnect
               (Printf.sprintf "stream gap: batch starts at %d, local cursor %d"
                  jb_first next));
        (* the files a record depends on must exist before the record's
           in-memory rebuild runs *)
        List.iter
          (fun (name, data) -> write_file_atomic t.workspace name data)
          jb_files;
        let applied = ref 0 in
        List.iteri
          (fun i line ->
            let seq = jb_first + i in
            if seq >= Icdb_reldb.Journal.next_seq j then begin
              let line =
                (* records ship in exact journal line encoding,
                   trailing newline included *)
                let n = String.length line in
                if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1)
                else line
              in
              match Icdb_reldb.Journal.decode_line line with
              | None ->
                  raise
                    (Reconnect
                       (Printf.sprintf "record %d failed its checksum" seq))
              | Some entry ->
                  Icdb.Server.apply_replicated server entry;
                  incr applied
            end)
          jb_records;
        !applied)
  in
  if applied > 0 then begin
    Metrics.incr ~by:applied c_records_applied
  end;
  Metrics.incr c_batches_applied;
  (* heartbeats (empty batches) are excluded: the histogram should show
     what applying shipped records costs, not the idle poll cadence *)
  if jb_records <> [] then Metrics.observe h_apply (now () -. t0);
  t.primary_next <- jb_next;
  if local_next t >= jb_next then t.caught_up_at <- now ();
  ignore (update_lag t)

(* A mid-stream checkpoint (our cursor predates the primary's last
   truncation): install it next to the live state, rebuild a fresh
   server, and swap it in under the lock while queries keep flowing. *)
let resync_from_checkpoint t fd co_cursor co_files =
  Event.warn "repl: cursor too old; re-syncing from a full checkpoint (%d files)"
    co_files;
  receive_checkpoint_chunks fd ~workspace:t.workspace;
  Metrics.incr c_checkpoints_fetched;
  install_checkpoint ~workspace:t.workspace ~cursor:co_cursor;
  Sync.replace t.sync (fun _old -> reopen_follower ~verify:t.verify ~workspace:t.workspace);
  t.primary_next <- co_cursor;
  t.caught_up_at <- now ();
  ignore (update_lag t)

(* One connected session: subscribe at the local cursor, then pump
   pushed frames until the stream breaks or goes silent, or [stop]
   writes [stop_r]. *)
let session t stop_r =
  let cursor = local_next t in
  let c =
    Client.connect ~host:t.rcfg.host ~port:t.rcfg.port ~retries:0
      ~backoff_s ()
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      t.connected <- false;
      ignore (update_lag t))
    (fun () ->
      let fd = Client.fd c in
      Wire.write_frame fd
        (Wire.encode_request { Wire.id = 1; body = Wire.Subscribe { cursor } });
      Event.info "repl: subscribed to %s:%d at cursor %d" t.rcfg.host
        t.rcfg.port cursor;
      t.connected <- true;
      ignore (update_lag t);
      (* heartbeats come at 1 Hz; a stream silent for much longer than
         the lag budget is a dead primary even if TCP has not noticed *)
      let grace = Float.max 5.0 (2.0 *. max_lag_seconds) in
      let last_frame = ref (now ()) in
      let rec pump () =
        if not (Atomic.get t.stop_flag) then begin
          (match Unix.select [ fd; stop_r ] [] [] 1.0 with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | [], _, _ ->
               if now () -. !last_frame > grace then
                 raise
                   (Reconnect
                      (Printf.sprintf "stream silent for %.0f s" grace))
           | ready, _, _ when not (List.mem fd ready) -> () (* stopping *)
           | _ -> (
               match Wire.read_response fd with
               | Error e ->
                   raise (Reconnect (Wire.decode_error_to_string e))
               | Ok { Wire.body; _ } -> (
                   last_frame := now ();
                   match body with
                   | Wire.Journal_batch { jb_first; jb_next; jb_records; jb_files }
                     ->
                       apply_batch t ~jb_first ~jb_next ~jb_records ~jb_files
                   | Wire.Checkpoint_offer { co_cursor; co_files } ->
                       resync_from_checkpoint t fd co_cursor co_files
                   | Wire.Repl_error msg ->
                       raise (Reconnect ("primary dropped us: " ^ msg))
                   | Wire.Bye -> raise (Reconnect "primary said goodbye")
                   | _ -> () (* unrelated frame; skip *))));
          ignore (update_lag t);
          pump ()
        end
      in
      pump ())

(* Sleep [total] seconds, or until [stop] writes [stop_r]. *)
let backoff stop_r total =
  match Unix.select [ stop_r ] [] [] total with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let loop t stop_r =
  let delay = ref backoff_s in
  while not (Atomic.get t.stop_flag) do
    let t0 = now () in
    (try session t stop_r with
     | Reconnect reason ->
         Event.warn "repl: stream interrupted: %s; reconnecting" reason
     | Repl_error msg | Client.Net_error msg ->
         Event.warn "repl: session failed: %s; reconnecting" msg
     | Icdb.Server.Icdb_error msg ->
         Event.warn "repl: apply failed: %s; reconnecting" msg
     | Unix.Unix_error (e, _, _) ->
         Event.warn "repl: session failed: %s; reconnecting"
           (Unix.error_message e)
     (* injected faults and anything else unforeseen must reconnect,
        not silently kill the streaming thread *)
     | e ->
         Event.warn "repl: session failed: %s; reconnecting"
           (Printexc.to_string e));
    t.connected <- false;
    ignore (update_lag t);
    if not (Atomic.get t.stop_flag) then begin
      Metrics.incr c_reconnects;
      (* a session that lived a while earns a fresh backoff *)
      if now () -. t0 > 5.0 then delay := backoff_s;
      backoff stop_r (!delay +. Random.float (0.25 *. !delay));
      delay := Float.min 5.0 (2.0 *. !delay)
    end
  done

let run t =
  match t.thread with
  | Some _ -> fail "replica is already running"
  | None ->
      t.started_at <- now ();
      t.caught_up_at <- now ();
      let stop_r, stop_w = Unix.pipe ~cloexec:true () in
      t.stop_pipe <- Some (stop_r, stop_w);
      t.thread <- Some (Thread.create (loop t) stop_r)

let stop t =
  Atomic.set t.stop_flag true;
  (match t.stop_pipe with
   | Some (_, w) -> (
       try ignore (Unix.write_substring w "x" 0 1) with Unix.Unix_error _ -> ())
   | None -> ());
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  (match t.stop_pipe with
   | Some (r, w) ->
       List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ]
   | None -> ());
  t.stop_pipe <- None

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let connected t = t.connected
let cursor t = local_next t
let lag t = update_lag t

let ready t =
  let lag_records, lag_seconds = update_lag t in
  t.connected
  && lag_records <= max_lag_records
  && lag_seconds <= max_lag_seconds
