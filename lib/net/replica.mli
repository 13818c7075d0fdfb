(** The replication follower: a local read-only ICDB server kept in
    sync with a primary by subscribing to its journal stream.

    The follower's replication cursor {e is} its own journal:
    [Icdb.Server.apply_replicated] appends every shipped record
    verbatim after applying it, so the local journal's [next_seq]
    always names the next record to fetch, and a crash at any point
    restarts — through the ordinary {!Icdb.Server.reopen} recovery
    path — at exactly the right place. No separate cursor file exists
    to get out of sync.

    Catch-up: a cursor still inside the primary's journal window
    streams from there; a cursor predating the primary's last
    checkpoint truncation (or a virgin workspace) fetches a full
    checkpoint — snapshot, netlists, IIF sources — installs it with
    the journal base seeded to the checkpoint cursor, and reopens.
    Mid-life, the same case swaps the rebuilt server in under the
    service lock ({!Sync.replace}) while queries keep being served.

    The stream breaking (dead primary, shed, torn frame, gap) triggers
    reconnection with capped, jittered exponential backoff, riding the
    retry support in {!Client.connect}.

    Follower-side metrics, under [repl.*]: [lag_records],
    [lag_seconds], [connected] gauges; [batches_applied],
    [records_applied], [reconnects], [checkpoints_fetched] counters. *)

type config = {
  host : string;  (** primary's host *)
  port : int;     (** primary's wire-protocol port *)
}

val default_config : config
(** 127.0.0.1:7601. The rest is fixed: bootstrap makes 5 extra connect
    attempts, and reconnects back off from 0.1 s, doubling to at most
    5 s, jittered. *)

val max_lag_records : int
(** {!ready}'s bound on record lag: 1 000. *)

val max_lag_seconds : float
(** {!ready}'s bound on staleness: 10 s. A stream silent for twice
    this long is taken for a dead primary. *)

exception Repl_error of string

type t

val create : ?verify:bool -> ?config:config -> workspace:string -> unit -> t
(** Bootstrap the local follower server (reopen an existing workspace,
    or fetch and install a checkpoint from the primary into a fresh
    one) without starting the stream. [verify] is passed to the
    server rebuild (default false: the primary already verified every
    netlist it shipped).
    @raise Repl_error when the primary refuses (not durable, or itself
    a follower) or cannot be reached within its connect attempts. *)

val sync : t -> Sync.t
(** The lock wrapper around the follower's server — start the local
    read-only {!Service} and {!Admin} endpoints on this. After a
    mid-life re-sync it transparently holds the rebuilt server. *)

val run : t -> unit
(** Start the streaming loop in its own thread: subscribe, apply
    batches, reconnect forever until {!stop}.
    @raise Repl_error if already running. *)

val stop : t -> unit
(** Ask the loop to stop and join it. Idempotent. *)

val connected : t -> bool
(** True while a subscription is live. *)

val cursor : t -> int
(** The local journal's [next_seq] — the next record the follower will
    ask for. *)

val lag : t -> int * float
(** [(records, seconds)]: how many records behind the primary's last
    advertised [next_seq], and how long since the follower was last
    fully caught up. Also refreshes the [repl.lag_*] gauges. *)

val ready : t -> bool
(** Failover-ready: connected, record lag within {!max_lag_records}
    and staleness within {!max_lag_seconds}. {!Admin}'s /readyz gates on
    this when given a replica. *)
