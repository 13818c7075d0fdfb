(** The ICDB component server (§2): serves components to synthesis
    tools given attributes and constraints, running the full generation
    path of Figure 8 (IIF expansion, logic optimization, technology
    mapping, verification by simulation, transistor sizing, delay and
    shape estimation) and answering queries about implementations and
    generated instances.

    Metadata lives in the relational engine (the INGRES role); bulk
    design data — IIF sources, VHDL netlists, CIF layouts — lives in
    plain files under a workspace directory (the UNIX-file-system
    role), exactly as §2.3 describes.

    A durable server additionally write-ahead-journals every dynamic
    database mutation and writes every workspace file atomically, so
    {!reopen} reconstructs the complete server state after a crash at
    any point. *)

type t

exception Icdb_error of string

val create :
  ?verify:bool ->
  ?workspace:string ->
  ?durable:bool ->
  ?cache_capacity:int ->
  unit ->
  t
(** A server preloaded with the generic component library and the
    builtin generators. [verify] (default true) simulates every
    generated netlist against its IIF specification with
    {!Icdb_sim.Equiv.check}: exhaustively for a combinational design
    of at most {!Icdb_sim.Equiv.max_exhaustive} inputs, by a seeded
    random sequence otherwise. A netlist that does not match is
    rejected like a failed generator: the request falls back to the
    next generator and is served degraded, or fails when none is
    left. [workspace] defaults to a fresh temp directory unique
    to this server. [durable] (default false) journals to
    [<workspace>/icdb.journal] for {!reopen}. [cache_capacity]
    (default 512) bounds the exact-specification reuse cache and the
    synthesis memo; eviction never deletes instances, only the fast
    path to them.
    @raise Icdb_error when [durable] and the workspace already holds a
    journal — reopen that workspace instead of re-creating over it. *)

val workspace : t -> string

val db : t -> Icdb_reldb.Db.t
(** The metadata database (the INGRES role): components,
    component_functions, implementations and instances tables, queryable
    through [Icdb_reldb.Sql]. *)

(** {1 Knowledge acquisition (§2.2, §4.2)} *)

val insert_implementation : t -> string -> string -> Icdb_iif.Ast.design
(** Register an IIF implementation source under a name; it becomes
    available to requests and as a SUBFUNCTION.
    @raise Icdb_error on parse errors. *)

val insert_generator : t -> Generator.t -> unit
(** Register an additional component generator. *)

val generator_names : t -> string list

(** {1 Catalog queries (§3.2.1)} *)

val function_query : t -> Icdb_genus.Func.t list -> string list
(** Components performing {e all} the given functions (an empty list
    returns the whole catalog). Answered through the SQL layer. *)

val implementation_query : t -> Icdb_genus.Func.t list -> string list

val component_query : t -> string -> Icdb_genus.Func.t list
(** Functions a component (or implementation) performs.
    @raise Icdb_error on unknown names. *)

(** {1 Generation (§3.2.2)} *)

val request_component : t -> Spec.t -> Instance.t
(** Generate — or reuse — a component instance. Identical (canonical)
    specifications are never regenerated (§2.2); a request differing
    only in constraints is answered by an existing clean instance of
    the same structure, sizing strategy and port loads whose measured
    figures already satisfy the new bounds (the §3.3 reuse rule),
    re-checked against the actual netlist before serving. Everything
    else runs the full generation path, with synthesis itself memoized
    by flat-design fingerprint. Constraints are best-effort, as in the
    paper: check [Instance.constraints_met].
    @raise Icdb_error on unknown components/implementations, function
    mismatches, expansion or mapping failures, or verification
    mismatches. *)

(** {1 Observability}

    Each {!request_component} runs inside a [request] span. While
    {!Icdb_obs.Trace} is enabled, every finished span feeds the
    process-wide [span.<name>] latency histogram in
    {!Icdb_obs.Metrics}; with tracing disabled only the plain counters
    below are maintained (the per-request cost is a handful of integer
    increments). *)

type stats = {
  st_hits : int;        (** exact-specification cache hits *)
  st_reuse_hits : int;  (** §3.3 figure-based reuse hits *)
  st_misses : int;      (** requests that ran the generation path *)
  st_evictions : int;   (** exact-cache entries evicted by capacity *)
  st_entries : int;     (** live exact-cache entries *)
  st_memo_hits : int;   (** synthesis-memo hits (pipeline skipped) *)
  st_memo_misses : int; (** synthesis-memo misses (pipeline ran) *)
}

val stats : t -> stats
(** Counters since [create]/[reopen] (reopen starts them afresh). *)

val find_instance : t -> string -> Instance.t
(** @raise Icdb_error on unknown ids. *)

val instance_ids : t -> string list

val delete_instance : t -> string -> unit
(** Remove an instance: in-memory maps, database row, and its workspace
    netlist/layout files (best-effort — files already gone are fine).
    Unknown ids are a no-op. *)

val request_layout :
  t ->
  string ->
  ?alternative:int ->
  ?port_specs:Icdb_layout.Ports.spec list ->
  unit ->
  Icdb_layout.Cif.layout * string * string
(** [request_layout t id ~alternative ~port_specs ()] lays the instance
    out at the chosen shape alternative (0 = best area) with the given
    port positions (§3.3), returning the layout, the CIF text, and the
    workspace file it was stored in. *)

(** {1 Component list management (Appendix B §7)} *)

val start_design : t -> string -> unit
val start_transaction : t -> string -> unit
val put_in_component_list : t -> string -> string -> unit

val end_transaction : t -> string -> unit
(** Deletes every instance generated during the transaction that was
    not put in the component list. *)

val end_design : t -> string -> unit
(** Deletes the design's kept instances and forgets the design. *)

val component_list : t -> string -> string list

(** {1 Crash recovery}

    A durable server's workspace holds everything needed to rebuild it:
    the journal (and optional snapshot), the IIF sources, and one
    exact-netlist [.vhdl] file per instance. *)

type recovery_report = {
  rr_entries_replayed : int;   (** journal entries re-applied *)
  rr_torn_tail : bool;         (** a torn/corrupt journal tail was cut *)
  rr_rolled_back_tx : bool;    (** an uncommitted App B §7 tx was undone *)
  rr_instances : string list;  (** instance ids reconstructed *)
  rr_dropped : (Fault.kind * string) list;
      (** rows dropped, with their fault class: [Resource] when the
          artifact's bytes are gone, [Corrupt] when present but wrong *)
  rr_orphans : string list;    (** stray workspace files removed *)
}

val reopen :
  ?verify:bool ->
  ?cache_capacity:int ->
  workspace:string ->
  unit ->
  t * recovery_report
(** Rebuild a durable server from its workspace after a crash (or a
    clean exit): load the snapshot if present, re-run the deterministic
    bootstrap otherwise, replay the journal (rolling back an
    uncommitted transaction and truncating any torn tail), reconstruct
    every instance from its netlist file — re-verifying gate count and
    area against the stored row, dropping what fails — and sweep
    half-written temp files and orphaned artifacts. The
    exact-specification cache is rebuilt from the recovered instances
    table (never from the crashed process's memory); the §3.3
    constraint-relaxed reuse index only covers instances generated
    after the reopen, since it needs the creating request's full
    constraints, which are not persisted.
    @raise Icdb_error when the directory is missing or holds neither a
    journal nor a snapshot. *)

val checkpoint : t -> unit
(** Absorb the journal into [<workspace>/icdb.snapshot] (atomically)
    and truncate it, bounding future recovery time.
    @raise Icdb_error on a non-durable server. *)

val durable : t -> bool
(** Whether this server journals its mutations (created with
    [~durable:true] or rebuilt by {!reopen}). *)

(** {1 Replication}

    A primary ships journal records (plus the workspace files they
    depend on) to followers; a follower applies each record with
    {!apply_replicated}, which reuses the {!reopen} machinery to
    rebuild in-memory state and keeps the follower's own journal in
    sequence lockstep with the primary's stream. *)

val replication_files : Icdb_reldb.Journal.entry -> string list
(** Workspace file basenames the record depends on (an instance's exact
    netlist, an implementation's IIF source) — the publisher ships
    their contents alongside the record, since the row alone cannot
    rebuild the in-memory artifact. *)

val apply_replicated : t -> Icdb_reldb.Journal.entry -> unit
(** Apply one shipped journal record to a follower server: mutate the
    metadata database, rebuild or drop the in-memory instance or
    implementation it describes (a rebuild failure is logged and the
    row kept, mirroring what the same damage would do at reopen), then
    append the record verbatim to the local journal — exactly one local
    record per shipped record, so the follower's replication cursor is
    its journal's [next_seq] and is crash-consistent by construction.
    Fires the [repl_replay] fault-injection site.
    @raise Icdb_error on a non-durable server. *)
