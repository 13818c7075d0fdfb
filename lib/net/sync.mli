(** A mutual-exclusion wrapper around {!Icdb.Server.t}.

    [Server.t] itself is single-threaded: the instance caches, the
    reuse index, the write-ahead journal channel and the workspace
    files are all mutated without internal locking. The network layer
    (and any other multi-threaded caller) therefore routes {e every}
    server operation through one coarse lock.

    The discipline is documented here because it is deliberate rather
    than lazy: under OCaml's [threads] library all threads share one
    runtime lock, so server work is serialized by the runtime anyway —
    a finer-grained scheme would buy no parallelism while multiplying
    the lock-order surface across the journal, the caches and the
    workspace. What concurrency {e does} buy is overlap between server
    compute and network/file I/O, and that only needs the single lock
    released while a thread blocks on a socket.

    Corollaries callers rely on:
    - {!Icdb_obs.Trace} keeps one global span stack, so spans must only
      be opened while holding this lock (see {!with_server}); the
      service layer opens its per-request span inside the critical
      section for exactly this reason.
    - Journal writes and their in-memory effects commit atomically with
      respect to other requests, so a SIGTERM drain can never observe a
      half-applied mutation. *)

type t

val wrap : Icdb.Server.t -> t
(** Takes ownership: after [wrap server], touching [server] outside
    {!with_server} from any thread is a bug. *)

val with_server : ?notify:bool -> t -> (Icdb.Server.t -> 'a) -> 'a
(** Run [f] holding the lock. Exceptions release the lock and
    propagate. Not reentrant — calling {!with_server} inside [f]
    deadlocks, as [Mutex.lock] on an owned mutex does.

    After the lock is released (also when [f] raises) the release hook
    runs, unless [~notify:false]: a primary's replication publisher
    hooks it to learn of journal commits made by callers outside the
    request path. The request path passes [~notify:false] and signals
    after its reply is queued instead. *)

val set_on_release : t -> (unit -> unit) -> unit
(** Install the release hook (initially [ignore]). It runs on the
    releasing thread without the lock, so it must be cheap, must not
    raise, and must not call {!with_server}. *)

val replace : t -> (Icdb.Server.t -> Icdb.Server.t) -> unit
(** [replace t f] swaps the wrapped server for [f server], holding the
    lock for the whole exchange: in-flight requests finish against the
    old server, later ones see the new one. A replication follower uses
    this to install the server rebuilt from a freshly fetched
    checkpoint. [f] must not raise after discarding the old server's
    usability; if it raises, the old server stays installed. *)

val peek_workspace : t -> string
(** The current server's workspace path (a single mutable-field read,
    so this needs no lock; it changes only across {!replace}). *)
