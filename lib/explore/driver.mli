(** Sweep execution over a lattice of request points, against a local
    {!Icdb.Server} or a remote daemon. Both backends run one pipeline of
    [Batch] requests (request_component, then instance_query for the
    figures) and differ only in transport: in process through
    {!Icdb_net.Dispatch.run}, one point per request; remotely through
    pipelined wire frames. Every completed point is persisted into the
    {!Store} as it lands; points whose spec key is already persisted
    are skipped, so a killed sweep resumes without recomputing finished
    work. *)

exception Driver_error of string

type backend =
  | Local of Icdb.Server.t
      (** in process; the sweep owns the server while it runs, as
          {!Icdb_net.Sync.wrap} does *)
  | Remote of { client : Icdb_net.Client.t; batch : int; inflight : int }
      (** [batch] points per Batch frame, up to [inflight] frames
          outstanding on the connection at once *)

type progress = {
  pr_total : int;       (** points in the sweep *)
  pr_done : int;        (** executed or failed, this run *)
  pr_skipped : int;     (** already persisted, or duplicate spec key *)
  pr_failed : int;
  pr_eta_s : float option;  (** estimated seconds remaining *)
}

type failure = { f_point : Axis.point; f_reason : string }

type summary = {
  s_total : int;
  s_executed : int;
  s_skipped : int;
  s_failures : failure list;
}

val run :
  ?power:bool ->
  ?limit:int ->
  ?on_progress:(progress -> unit) ->
  sweep:string ->
  backend ->
  Store.t ->
  Axis.point list ->
  summary
(** Execute the not-yet-persisted points of a sweep. [power] (default
    false) additionally simulates and records dynamic power — costly,
    off by default. [limit] caps how many points this run executes
    (partial runs; the rest persist on the next run). [on_progress]
    fires after every completed point and once at start.

    Per-point failures (per-entry errors, reported as
    ["<error code>: <message>"]) are recorded in the summary and do not
    abort the sweep; transport
    failures ([Icdb_net.Client.Net_error]) propagate — already-persisted
    points survive for the next run. Remote per-entry [Timeout] errors
    — a deep pipeline of cold points can outrun the service's
    enqueue-anchored deadline — are retried once in single-entry
    frames before being recorded as failures. *)
