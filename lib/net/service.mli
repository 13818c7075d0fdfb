(** icdbd: the concurrent TCP service over an ICDB component server.

    One poll(2)-based event-loop thread owns every socket: it accepts
    (refusing beyond [max_connections]), reads and reassembles frames
    (via {!Wire.Dechunk}, so requests may arrive split at any byte
    boundary) into a bounded task queue, and drains per-connection
    write queues with nonblocking writes. A fixed worker pool executes
    the queued requests through {!Dispatch.run}, the request path every
    in-process caller uses, and enqueues the replies — workers never
    touch a socket — so network and file I/O overlap while server state
    stays single-writer under one lock (the discipline {!Sync}
    documents). An idle connection costs a table entry and two ints of
    poll spec, not a thread, so thousands of mostly-idle clients are
    cheap.

    Pipelining: responses are written in completion order, matched to
    requests by the echoed frame id, so a client may keep many requests
    in flight per connection; a [Batch] frame executes its entries on
    one worker under one admission-control decision, bounded by
    {!Dispatch.max_batch_entries} and by the request deadline, which
    {!Dispatch.run} re-checks between entries.

    Admission control, timeouts and backpressure:
    - connections beyond [max_connections] get an [Error Overloaded]
      frame and are closed before entering the event loop;
    - requests landing on a full queue are shed immediately with
      [Error Overloaded];
    - a request older than [request_timeout_s] when a worker picks it
      up is answered [Error Timeout] without executing — a request
      already executing is never preempted (OCaml compute cannot be
      safely interrupted), which bounds added latency by one request's
      service time per worker; a [Batch] additionally re-checks the
      deadline between entries, so one frame cannot hold a worker past
      its timeout;
    - connections idle longer than [idle_timeout_s] are reaped with a
      [Bye] frame;
    - a connection whose unsent replies exceed a high-water mark (1 MiB)
      stops being polled for reads until the peer drains — a client that
      will not read replies cannot keep submitting — and a non-follower
      that buffers past a hard cap (64 MiB) is closed outright; slow
      readers only ever stall themselves, never other connections.

    Decode-error taxonomy on a live connection: recoverable errors
    ([Bad_version], [Malformed] — the frame boundary was still sound)
    are answered with a structured error and the connection survives;
    fatal ones ([Oversized], EOF mid-frame = [Truncated] — framing is
    lost) are answered where possible and the connection is closed. A
    fatal connection whose peer will not read gets a bounded flush
    grace (a few seconds) to drain the courtesy error frame, after
    which it is closed anyway — an unread write queue cannot pin the
    fd or its [max_connections] slot.

    Graceful shutdown ({!request_shutdown}, a [Shutdown] frame, or
    SIGTERM routed to {!request_shutdown} by the CLI): stop accepting,
    drain every queued and in-flight request to its reply, send [Bye]
    on every connection, then return from {!wait}. Durability is the
    caller's: checkpoint after {!wait} returns, as [icdb serve] does.

    The service's own instruments, under [net.*] in
    {!Icdb_obs.Metrics}: accepted/refused/closed/requests/errors/shed/
    timeouts/malformed/version_mismatch/idle_reaped counters, a
    [net.connections] gauge and a [net.queue_wait] histogram; the
    per-request ones belong to {!Dispatch}. A request whose {!Wire.ctx}
    carries a deadline is answered [Error Timeout] if it waited in the
    queue past it. An injected {!Icdb.Faultinject.Crash} in a request
    ends the process, as it ends an in-process caller. *)

type config = {
  host : string;             (** bind address, default ["127.0.0.1"] *)
  port : int;                (** 0 picks an ephemeral port — read it back
                                 with {!port} *)
  max_connections : int;
  workers : int;
  max_queue : int;
  request_timeout_s : float;
  idle_timeout_s : float;
  slow_threshold_s : float;  (** requests at least this slow are logged;
                                 0 logs everything, negative disables *)
  read_only : bool;          (** follower mode: refuse mutating CQL/SQL
                                 with [Error Read_only] and [Subscribe]
                                 with [Repl_error]; queries are served
                                 locally *)
  telemetry_period_s : float;
  (** sampling period of the continuous-telemetry rings (see
      {!Icdb_obs.Series}); zero or negative disables the sampler and
      the stall watchdog entirely *)
}

val default_config : config
(** 127.0.0.1:7601, 64 connections, 4 workers, queue of 128, 30 s
    request timeout, 300 s idle timeout, 1 s slow threshold; not
    read-only; 1 s telemetry period. *)

type t

val start : ?config:config -> Sync.t -> t
(** Bind, listen and spawn the event loop and worker pool; returns
    once the socket is accepting.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port (useful with [port = 0]). *)

val config : t -> config
(** The configuration the service was started with. *)

val stopping : t -> bool
(** True once a shutdown has been requested (liveness turns not-ready). *)

val queue_depth : t -> int
(** Requests currently waiting for a worker. *)

val slow_log : t -> Wire.slow_entry list
(** {!Dispatch.slow_log} of the service's dispatcher. *)

type conn_info = {
  ci_cid : int;
  ci_peer : string;
  ci_state : string;    (** ["active"], ["paused"] (read-paused over the
                            write high-water mark), ["fatal"] (flushing
                            a courtesy frame before close), or
                            ["follower"] *)
  ci_wq_bytes : int;
  ci_reqs : int;
  ci_age_s : float;
  ci_idle_s : float;
  ci_paused_s : float;  (** seconds read-paused so far; 0 when not *)
}

val conn_table : t -> conn_info list
(** One row per live connection, cid-ascending: the /connz body, the
    flight recorder's connection table, and `icdb top`'s detail view.
    Field reads are racy snapshots — fine for diagnostics. *)

val sampler : t -> Icdb_obs.Series.t option
(** The continuous-telemetry sampler: traffic-rate deltas, latency
    percentile ramps, queue/connection/fd level gauges, replication
    lag — one point per [telemetry_period_s], retained for the ring's
    capacity. [None] when the config disabled telemetry. *)

val watchdog : t -> bool * string
(** Stall-watchdog verdict [(tripped, reason)]. The watchdog runs on
    the sampler's tick and trips on a stale event-loop heartbeat, a
    burst of missed sampler deadlines, or a connection read-paused past
    a bound; /healthz turns 503 while tripped, and each trip/recovery
    emits a structured event and bumps [net.watchdog.trips]. Always
    [(false, "")] when telemetry is disabled. *)

val follower_count : t -> int
(** Currently subscribed replication followers (primaries only;
    always 0 on a read-only service).

    A primary accepts [Subscribe {cursor}] frames: a cursor inside the
    journal's sequence window starts a push stream of [Journal_batch]
    frames from there (records verbatim in journal line encoding, plus
    the workspace files they depend on); a stale or fresh cursor first
    receives a full checkpoint ([Checkpoint_offer] + [Checkpoint_chunk]
    frames: snapshot, netlists, IIF sources) taken under the server
    lock. One publisher thread serves every follower: it queues batches
    of up to 512 records straight onto the follower's connection, and
    only while that connection's write queue is under the 1 MiB
    high-water mark, so one slow follower never stalls the publisher or
    the other followers. A follower at the mark is sent nothing until
    its queue drains; its backlog stays in the journal, and costs no
    thread. A follower whose cursor leaves the journal window (or whose
    primary loses its journal) is shed with a terminal [Repl_error] and
    must reconnect; at shutdown followers get [Bye] like every other
    connection. Empty batches are 1 Hz heartbeats carrying the
    primary's next sequence number so followers can measure lag.
    Instrumented under [repl.*]: followers gauge, batches_sent /
    records_sent / followers_shed / checkpoints_sent /
    readonly_rejected counters. *)

val request_shutdown : t -> unit
(** Ask for a graceful shutdown and return immediately. Safe to call
    from any thread and from a signal handler. Idempotent. *)

val wait : t -> unit
(** Block until the service has fully shut down (all requests drained,
    all connections closed, all threads joined). *)

val shutdown : t -> unit
(** [request_shutdown] + [wait]. Must not be called from one of the
    service's own threads. *)
