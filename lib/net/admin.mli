(** The icdbd admin plane: a zero-dependency HTTP/1.0 listener on a
    port of its own, serving operational probes over the running
    {!Service.t}:

    - [/healthz] — liveness: 200 ["ok"] while the process serves HTTP
      and the stall watchdog is quiet; 503 with the watchdog's reason
      while it is tripped (see {!Service.watchdog}).
    - [/readyz] — readiness: 200 when the daemon is accepting (no
      shutdown requested), the request queue is below the shed
      threshold, and the workspace accepts a probe write; 503 with one
      ["name ok|FAIL"] line per check otherwise. When started with a
      [replica], three further checks gate on the replication stream:
      connected, record lag and staleness within the replica's bounds
      ({!Replica.ready}) — so a follower answers 503 until its
      catch-up drains and flips to 200 once failover-ready.
    - [/metrics] — the full {!Icdb_obs.Metrics} registry in Prometheus
      text exposition format (see {!Icdb_obs.Expo.prometheus}), with
      the process gauges refreshed per scrape.
    - [/tracez] — the most recent completed spans as JSON.
    - [/slowz] — the slow-query log as JSON.
    - [/statz] — the continuous-telemetry time-series rings as JSON
      (404 when the sampler is disabled); `icdb top`'s data source.
    - [/connz] — the per-connection diagnostic table as JSON.
    - [/blackboxz] — an on-demand flight-recorder dump as JSON (404
      when started without a [recorder]); `icdb blackbox`'s source.

    The listener is single-threaded and closes each connection after
    one response — sized for scrapers and probes, not user traffic.
    Bind it to loopback (the default) or a management interface. *)

val slow_entry_json : Wire.slow_entry -> Icdb_obs.Json.t
(** One slow-log entry as JSON: [cmd], [trace], [conn], [seconds],
    [cache], [phases] (name to seconds) and [plan], in that order,
    seconds at six decimals. [/slowz] and [icdb stats --json] both
    emit this shape. *)

type t

val start :
  ?host:string ->
  ?replica:Replica.t ->
  ?recorder:Icdb_obs.Recorder.t ->
  port:int -> service:Service.t -> sync:Sync.t -> unit -> t
(** Bind and start serving; [port = 0] picks an ephemeral port.
    [replica] adds the replication-lag readiness checks; [recorder]
    enables [/blackboxz].
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually-bound port. *)

val stop : t -> unit
(** Stop accepting and join the listener thread. *)
