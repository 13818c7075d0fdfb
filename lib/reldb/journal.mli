(** Write-ahead journal for {!Db} — the durability the paper gets for
    free from INGRES (§2.3).

    Each mutating operation is appended as a typed, CRC-32-checksummed,
    line-oriented record. Recovery replays the longest valid prefix and
    truncates torn or corrupt tails, so a crash at any point loses at
    most the operation in flight. *)

type entry =
  | Create of string * (string * Value.ty) list  (** create table *)
  | Drop of string                               (** drop table *)
  | Insert of string * Value.t list              (** insert row *)
  | Delete of string * Value.t list              (** delete one row *)
  | Tx_begin of string   (** App B §7 transaction opened *)
  | Tx_commit of string  (** App B §7 transaction committed *)

exception Journal_error of string

type t

val append_hook : (unit -> unit) ref
(** Fired before each append. The fault-injection harness
    ([Icdb.Faultinject]) points this at its journal-append site so tests
    can kill the server between the in-memory mutation and the log
    write. *)

val stream_hook : (unit -> unit) ref
(** Fired at the top of each {!stream_from}; wired to the
    [journal_stream] fault-injection site. *)

val open_append : string -> t
(** Open (creating if needed) a journal for appending. The replication
    cursor is restored from the ["<path>.seq"] sidecar (base sequence)
    plus a count of the valid records already in the file. *)

val path : t -> string

(** {1 Record-sequence cursor}

    Every record carries an implicit monotonic sequence number, starting
    at 0 and surviving checkpoint truncations: {!reset} advances the
    persisted base instead of restarting the numbering, so a replication
    cursor taken before a truncation is recognisably stale (below
    {!base_seq}) rather than silently ambiguous. *)

val base_seq : t -> int
(** Sequence number of the first record currently in the file — the
    oldest record {!stream_from} can still serve. *)

val next_seq : t -> int
(** Sequence number the next {!append} will get; equivalently, one past
    the last record in the file. *)

val committed : t -> int
(** The commit cursor: every record below it is committed and may be
    replicated. It is published through an [Atomic] at the commit
    point, so any thread may read it without the lock that serializes
    appends. Today the commit point is the end of {!append} (the record
    is flushed to the OS), so this equals {!next_seq}; a journal that
    syncs would publish its synced cursor here instead. *)

val install_base : string -> int -> unit
(** [install_base path seq] seeds a journal that does not exist yet: it
    writes the sequence sidecar and an empty journal file so the next
    {!open_append} numbers records from [seq]. A follower installing a
    checkpoint fetched at cursor [seq] uses this to keep its local
    journal in sequence lockstep with the primary's. *)

val append : t -> entry -> unit
(** Append one record and flush it. *)

val close : t -> unit

val reset : t -> unit
(** Truncate the journal to empty (after a snapshot checkpoint has
    absorbed every journaled operation). Advances and persists
    {!base_seq} to {!next_seq} first, so sequence numbers stay
    monotonic across the truncation. *)

val replay : string -> entry list * bool
(** [replay path] is the longest valid record prefix of the journal,
    plus [true] when a torn or corrupt tail was found after it. A
    missing file reads as empty. *)

val rewrite : string -> entry list -> unit
(** Atomically rewrite the journal to contain exactly the given entries
    (recovery uses this to drop torn tails and uncommitted
    transactions). The sequence base is unchanged: rewrite only ever
    drops a tail, so the surviving prefix keeps its numbering. *)

(** {1 Replication tail reads} *)

type stream = {
  st_first : int;        (** sequence number of the first entry *)
  st_entries : entry list;
  st_torn : bool;        (** a torn/corrupt final record was cut — the
                             publisher reports it and retries; only
                             recovery truncates the file itself *)
}

val stream_from : t -> seq:int -> ?max_records:int -> unit -> stream
(** [stream_from t ~seq ()] reads the records from global sequence
    [seq] (inclusive) to the end of the journal, at most [max_records]
    of them, in time proportional to the records returned: the handle
    keeps each record's byte offset, so the read seeks to [seq], and
    [seq = next_seq] returns the empty stream without opening the file.
    Tolerates a torn final record the same way {!replay} does: the
    stream stops at the longest valid prefix and sets [st_torn]. A file
    holding bytes this handle did not write (a torn tail found at open,
    or a foreign append) is scanned from {!base_seq} to keep that rule.
    {!stream_hook} fires on every call.
    @raise Journal_error when [seq] is outside [[base_seq, next_seq]] —
    the caller's cursor predates the last truncation (serve a full
    checkpoint instead) or comes from a diverged future. *)

val encode_line : entry -> string
(** The exact on-disk encoding of one record, checksum included — also
    the wire encoding replication ships, so followers re-verify the
    CRC end to end. *)

val decode_line : string -> entry option
(** [None] for a torn or corrupt line. *)

(**/**)

val crc32 : string -> int32
(** Exposed for tests. *)
