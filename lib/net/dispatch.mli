(** The one request path: a {!Wire.req} value in, a {!Wire.resp} value
    out, under the {!Sync} lock, with no sockets. The daemon's workers,
    both shells, local [icdb stats] and Explore's in-process sweeps all
    execute here, so local and remote callers differ only in transport.

    It owns, per request: the read-only rule (mutating CQL/SQL answers
    [Error Read_only], counted in [repl.readonly_rejected]); the trace
    wrapper (a {!Wire.ctx} trace id tags every span under a
    [net.request] span); error classification ([Parse_error],
    [Exec_error], [Sql_error] for SQL, schema and database errors,
    else [Internal]); [Batch] with its entry cap and deadline; the
    [Stats] payload (the server's cache summary, the whole metrics
    registry and {!slow_log}); the [net.<command>] and [net.request_s]
    latency histograms; and the slow-query log. A CQL text is parsed
    once per request or batch entry, for the read-only rule, its
    histogram name and execution. *)

type t

val create :
  read_only:bool -> slow_threshold_s:float -> on_shutdown:(unit -> unit) ->
  Sync.t -> t
(** [read_only] refuses mutations as a follower does;
    [slow_threshold_s] is the slow-log threshold (0 logs everything,
    negative disables the log); [on_shutdown] runs when a [Shutdown]
    request executes, which then answers [Bye]. *)

val max_batch_entries : int
(** Most entries a [Batch] may carry; a larger one is refused whole with
    [Error Protocol_error] (in the daemon a batch spends one queue slot
    and one worker whatever its size). *)

val run :
  t -> ?ctx:Wire.ctx -> ?conn:int -> ?id:int -> ?deadline:float ->
  Wire.req -> Wire.resp
(** Execute one request. [conn] and [id] (default 0) name it in span
    tags, span attributes and the slow log; [deadline] (default none)
    is the wall-clock instant after which a [Batch] answers its
    remaining entries [Berror Timeout]. [Subscribe] answers
    [Repl_error]: it is a connection handshake, not a request.
    @raise Icdb.Faultinject.Crash when an armed crash site fires: it
    simulates process death, so it is never answered. *)

val slow_log : t -> Wire.slow_entry list
(** Requests at least [slow_threshold_s] slow, newest first, at most
    64; each is also reported by a warn event, at most one a second. *)
