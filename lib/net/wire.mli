(** The icdbd wire protocol: length-prefixed, versioned binary frames.

    A frame on the wire is a 4-byte big-endian payload length followed
    by the payload:

    {v
      u32  payload length          (at most {!max_payload})
      u8   protocol version        ({!protocol_version})
      u8   frame kind
      i64  request id              (echoed verbatim in the response)
      ...  request context         (requests only: trace id + deadline)
      ...  kind-specific body
    v}

    Every request carries a {!ctx} — a client-generated trace id
    string (empty = none) and a deadline in seconds (0 = none) —
    between the id and the body, so trace-context propagation works
    uniformly across all request kinds.

    Scalars are big-endian; a string is a u32 byte count followed by
    the bytes; a list is a u32 element count followed by the elements;
    a float is the IEEE-754 bits as an i64. Requests and responses use
    disjoint kind bytes so a peer speaking the wrong direction is
    caught as {!Malformed} rather than misparsed.

    Decoding classifies failures by whether the stream is still
    framable: a bad version byte or a garbled body inside a
    correctly-delimited payload is {e recoverable} (the frame was fully
    consumed; the server answers with a structured [Error] frame and
    the connection lives on), while a truncated or oversized frame
    means byte-level sync is lost and the connection must close.

    A [Batch] request carries many CQL/SQL entries under one framing
    header and is answered by one vectorized [Batch_reply] (per-entry
    results in entry order, errors isolated to their entry), and
    servers may answer {e single} requests out of order — responses
    are matched to requests by the i64 id, never by arrival order. *)

val protocol_version : int
(** The one version this codec speaks: every frame is stamped with it,
    and any other version byte decodes to the recoverable
    {!Bad_version}. *)

val max_payload : int

(** {1 Frame bodies} *)

type ctx = { trace_id : string; timeout_s : float }
(** Per-request context carried by every request: [trace_id] tags all
    server-side spans produced while serving the request (empty
    string = no tracing requested), and [timeout_s] is a client-set
    deadline — a request that waits in the server queue longer than
    this is answered with [Error Timeout] instead of being executed
    (0 = no deadline). *)

val no_ctx : ctx
(** [{ trace_id = ""; timeout_s = 0.0 }] — no tracing, no deadline. *)

type batch_entry =
  | Bcql of { text : string; args : Icdb_cql.Exec.arg list }
  | Bsql of string
(** One element of a {!req.Batch}: the two query shapes a client can
    vectorize. Each entry succeeds or fails on its own. *)

type req =
  | Ping
  | Cql of { text : string; args : Icdb_cql.Exec.arg list }
      (** a CQL command string; [args] fill its %-slots in order *)
  | Sql of string  (** a SQL statement against the metadata database *)
  | Stats          (** full metrics registry + slow-query log *)
  | Trace_fetch of string
      (** retrieve the server-side spans tagged with this trace id *)
  | Shutdown       (** drain in-flight requests, checkpoint, exit *)
  | Subscribe of { cursor : int }
      (** subscribe this connection to the primary's replication
          stream from journal sequence [cursor] (-1 = no local state,
          send a full checkpoint). The connection becomes a push
          stream; see the replication frames in {!resp}. *)
  | Batch of batch_entry list
      (** many queries under one framing header, answered by a
          single {!resp.Batch_reply} with one {!batch_result} per entry
          in entry order. The whole batch executes on one worker as one
          admission-control unit (one queue slot, one deadline), so a
          batch amortizes framing, syscalls, and scheduling — not just
          latency. *)

type sql_result =
  | Affected of int
  | Relation of { cols : string list; rows : string list list }

type remote_span = {
  rs_id : int;
  rs_parent : int option;  (** another [rs_id] in the same reply *)
  rs_name : string;
  rs_tag : string;
  rs_start_ns : int;       (** server monotonic clock — not comparable
                               across processes; align before merging *)
  rs_dur_ns : int;
  rs_attrs : (string * string) list;
}
(** A completed server-side span, flattened for the wire. *)

type hist_summary = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type slow_entry = {
  sl_cmd : string;             (** command kind, e.g. "cql" *)
  sl_trace : string;           (** trace id the client sent, or the
                                   server-assigned fallback tag *)
  sl_conn : int;
  sl_seconds : float;
  sl_cache : string;           (** "hit" | "miss" | "-" *)
  sl_phases : (string * float) list;  (** per-phase seconds *)
  sl_plan : string;            (** query-plan summary, e.g.
                                   ["indexed(pts.key)"]; [""] when the
                                   request had no plan *)
}

type stats_payload = {
  sp_text : string;  (** pre-rendered cache summary line *)
  sp_counters : (string * int) list;
  sp_gauges : (string * float) list;
  sp_hists : hist_summary list;
  sp_slow : slow_entry list;
}
(** Everything the server knows about itself: the full [Metrics]
    registry plus the recent slow-query log. *)

type error_code =
  | Parse_error       (** CQL syntax or slot/argument mismatch *)
  | Exec_error        (** semantic failure inside the server *)
  | Sql_error
  | Protocol_error    (** malformed or oversized frame *)
  | Version_mismatch
  | Overloaded        (** connection refused or request shed *)
  | Timeout           (** request aged out of the queue *)
  | Shutting_down
  | Internal
  | Read_only         (** a mutating command sent to a follower *)

type batch_result =
  | Bresults of (string * Icdb_cql.Exec.result) list
  | Bsql_result of sql_result
  | Berror of { code : error_code; message : string }
(** Per-entry outcome inside a {!resp.Batch_reply}: positionally
    matched to the {!batch_entry} list of the request, so an error in
    entry [k] never disturbs entries [k+1..]. *)

and resp =
  | Pong
  | Results of (string * Icdb_cql.Exec.result) list
      (** CQL ?-slot bindings, every shape {!Icdb_cql.Exec.run} produces *)
  | Sql_result of sql_result
  | Stats_report of stats_payload
  | Spans of remote_span list  (** answer to [Trace_fetch] *)
  | Error of { code : error_code; message : string }
  | Bye  (** the server is closing this connection deliberately *)
  | Journal_batch of {
      jb_first : int;                  (** seq of the first record *)
      jb_next : int;                   (** primary's next_seq at send
                                           time — the follower's lag is
                                           [jb_next] minus its cursor *)
      jb_records : string list;        (** exact journal line encodings,
                                           CRC included, so followers
                                           re-verify end to end *)
      jb_files : (string * string) list;
          (** workspace files the records depend on: basename ->
              contents (exact netlists, IIF sources) *)
    }
      (** a slice of the primary's journal, pushed to a subscribed
          follower. An empty batch is a heartbeat carrying the
          primary's cursor. *)
  | Checkpoint_offer of { co_cursor : int; co_files : int }
      (** the follower's cursor predates the primary's last
          truncation (or it asked for a full sync); [co_files]
          {!Checkpoint_chunk} streams follow, after which the journal
          stream continues from [co_cursor]. *)
  | Checkpoint_chunk of { cc_name : string; cc_data : string; cc_last : bool }
      (** one piece of a checkpoint file; consecutive chunks with
          the same [cc_name] concatenate, [cc_last] marks the end of
          the whole checkpoint. *)
  | Repl_error of string
      (** the subscription is over (slow-follower shed, primary not
          durable, ...); the follower should back off and reconnect. *)
  | Batch_reply of batch_result list
      (** the vectorized answer to a {!req.Batch}. *)

type 'a frame = { id : int; body : 'a }

val error_code_to_string : error_code -> string

(** {1 Encoding} *)

val encode_request : ?ctx:ctx -> req frame -> string
(** Full frame bytes, length header included. [ctx] defaults to
    {!no_ctx}. *)

val encode_response : resp frame -> string

(** {1 Decoding} *)

type decode_error =
  | Closed  (** clean EOF between frames *)
  | Truncated of string
      (** EOF or short read inside a frame: fatal, close *)
  | Oversized of int
      (** declared payload length beyond {!max_payload}: fatal, close *)
  | Bad_version of { id : int option; got : int }
      (** recoverable: answer [Error Version_mismatch] and carry on *)
  | Malformed of { id : int option; reason : string }
      (** recoverable: answer [Error Protocol_error] and carry on.
          [id] is recovered from the fixed header offset when the
          payload is long enough to hold one. *)

val decode_error_to_string : decode_error -> string

val decode_request : string -> (req frame * ctx, decode_error) result
(** Decode one payload (length header already stripped). *)

val decode_response : string -> (resp frame, decode_error) result

(** {1 Incremental framing}

    The event loop reads whatever bytes the kernel has ready; a frame
    can arrive split at any byte boundary or glued to its neighbors.
    {!Dechunk} reassembles the length-prefixed stream so the field-level
    decoders above only ever see complete payloads — partial reads are
    handled once here, not at every field boundary. *)

module Dechunk : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t src off n] appends [n] raw bytes from [src] starting at
      [off]. Amortized O(n); the internal buffer grows as needed. *)

  val feed_string : t -> string -> unit

  val next : t -> [ `Payload of string | `Await | `Oversized of int ]
  (** Pull the next complete payload (length header stripped — feed it
      to {!decode_request}/{!decode_response}). [`Await] = not enough
      bytes yet. [`Oversized n] = the next length header declares [n]
      outside [0, {!max_payload}]: byte sync is unrecoverable and the
      connection must close ([`Oversized] is sticky — detected from the
      4 header bytes alone, before any body is buffered). Call in a
      loop after each [feed]: one read may complete many frames. *)

  val buffered : t -> int
  (** Bytes fed but not yet returned by {!next} — nonzero at EOF means
      the peer died mid-frame (the blocking transport's [Truncated]). *)
end

(** {1 Blocking transport helpers} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write all bytes, retrying on [EINTR].
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE]). *)

val read_request : Unix.file_descr -> (req frame * ctx, decode_error) result
(** Read exactly one frame. Never raises on EOF — that is [Closed] or
    [Truncated] — but lets genuine socket errors escape as
    [Unix.Unix_error]. *)

val read_response : Unix.file_descr -> (resp frame, decode_error) result
