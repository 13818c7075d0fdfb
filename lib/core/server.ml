(* The ICDB component server (§2).

   Serves components to synthesis tools: given attributes and
   constraints it dynamically generates component instances through the
   full generation path of Figure 8 (IIF expansion, logic optimization,
   technology mapping, transistor sizing, delay and shape estimation)
   and answers queries about implementations and generated instances.

   Metadata lives in the relational engine (the INGRES role); bulk
   design data (IIF sources, VHDL netlists, CIF layouts) lives in plain
   files under a workspace directory (the UNIX-file-system role), and
   tools fetch file names from the database, exactly as §2.3 describes.

   Durability: a durable server journals every dynamic database
   mutation (Journal/Db.replay_journal) and writes every workspace file
   atomically (temp + rename), so [reopen] can reconstruct the full
   server state after a crash at any point. The static catalog and the
   builtin component library are deterministic and are rebuilt by
   bootstrap rather than journaled. *)

open Icdb_iif
open Icdb_logic
open Icdb_netlist
open Icdb_timing
open Icdb_layout
open Icdb_reldb
open Icdb_genus

exception Icdb_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Icdb_error s)) fmt

module Metrics = Icdb_obs.Metrics
module Trace = Icdb_obs.Trace
module Event = Icdb_obs.Event

(* Process-wide instruments (lib/obs). Counters are always live — a
   bump is one mutable-field update; spans cost one branch unless
   tracing is enabled. *)
let m_requests = Metrics.counter "server.requests"
let m_request_errors = Metrics.counter "server.request_errors"
let m_cache_hit = Metrics.counter "cache.hit"
let m_cache_reuse = Metrics.counter "cache.reuse_hit"
let m_cache_miss = Metrics.counter "cache.miss"
let m_memo_hit = Metrics.counter "memo.hit"
let m_memo_miss = Metrics.counter "memo.miss"
let m_ws_retry = Metrics.counter "workspace.collision_retry"
let m_degraded = Metrics.counter "server.degraded_instances"

(* Faults escaping the pipeline surface to callers as Icdb_error; an
   injected Crash is never converted — it simulates the process dying. *)
let fault_boundary f =
  try f () with
  | Fault.Fault (kind, msg) ->
      Event.emit Event.Error
        ~fields:[ ("fault", Fault.kind_to_string kind); ("detail", msg) ]
        "fault escaped the generation pipeline";
      fail "%s fault: %s" (Fault.kind_to_string kind) msg

let () =
  Journal.append_hook := (fun () -> Faultinject.hit Faultinject.Journal_append);
  Journal.stream_hook := (fun () -> Faultinject.hit Faultinject.Journal_stream)

type design_book = {
  mutable kept : string list;          (* instances in the component list *)
  mutable tx_created : string list option;  (* instances made in the open tx *)
}

type t = {
  db : Db.t;
  workspace : string;
  registry : (string, Ast.design) Hashtbl.t;   (* IIF implementations *)
  generators : (string, Generator.t) Hashtbl.t;(* tool management (§4.2) *)
  instances : (string, Instance.t) Hashtbl.t;  (* id -> instance *)
  cache : (string, string) Lru.t;              (* exact spec key -> id *)
  by_struct : (string, string list ref) Hashtbl.t;
      (* structural key -> ids, oldest first: the §3.3 reuse index *)
  synth_memo : (string, Netlist.t) Lru.t;
      (* flat fingerprint / preferred generator -> verified netlist *)
  designs : (string, design_book) Hashtbl.t;   (* component lists (App B §7) *)
  mutable seq : int;
  mutable hits : int;        (* exact-key cache hits *)
  mutable reuse_hits : int;  (* §3.3 figure-based reuse hits *)
  mutable misses : int;      (* requests that ran the generation path *)
  mutable memo_hits : int;   (* synthesis memo hits *)
  mutable memo_misses : int;
  verify : bool;  (* simulate generated netlists against their IIF spec *)
  durable : bool; (* journal + snapshot live in the workspace *)
}

type stats = {
  st_hits : int;
  st_reuse_hits : int;
  st_misses : int;
  st_evictions : int;
  st_entries : int;
  st_memo_hits : int;
  st_memo_misses : int;
}

let stats t =
  { st_hits = t.hits;
    st_reuse_hits = t.reuse_hits;
    st_misses = t.misses;
    st_evictions = Lru.evictions t.cache;
    st_entries = Lru.length t.cache;
    st_memo_hits = t.memo_hits;
    st_memo_misses = t.memo_misses }

let default_cache_capacity = 512

type recovery_report = {
  rr_entries_replayed : int;   (* journal entries re-applied *)
  rr_torn_tail : bool;         (* a torn/corrupt journal tail was cut *)
  rr_rolled_back_tx : bool;    (* an uncommitted App B §7 tx was undone *)
  rr_instances : string list;  (* instance ids reconstructed *)
  rr_dropped : (Fault.kind * string) list;
      (* rows dropped, each with its fault classification — [Corrupt]
         for damaged artifacts, [Resource] for unreadable ones — so
         callers can react per class instead of parsing strings *)
  rr_orphans : string list;    (* stray workspace files removed *)
}

(* ------------------------------------------------------------------ *)
(* Creation and knowledge acquisition                                  *)
(* ------------------------------------------------------------------ *)

let ws_journal ws = Filename.concat ws "icdb.journal"
let ws_snapshot ws = Filename.concat ws "icdb.snapshot"

let ws_counter = ref 0

(* Workspace names must be unique across *processes*, not just within
   one: pids recycle, and OCaml's default [Random] state is
   deterministic, so two boots that happen to share a recycled pid
   would walk the exact same pid/counter/tag sequence. The tag
   therefore comes from a private state seeded off the wall clock and
   pid; [Unix.mkdir] has O_EXCL semantics (it fails with EEXIST instead
   of adopting an existing directory), so losing the race is detected,
   counted, and retried with a fresh tag. *)
let ws_rng =
  lazy
    (Random.State.make
       [| Unix.getpid ();
          int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFF |])

let fresh_workspace () =
  let tmp = Filename.get_temp_dir_name () in
  let rec attempt tries =
    incr ws_counter;
    let dir =
      Filename.concat tmp
        (Printf.sprintf "icdb_ws_%d_%d_%06x" (Unix.getpid ()) !ws_counter
           (Random.State.bits (Lazy.force ws_rng) land 0xFFFFFF))
    in
    match Unix.mkdir dir 0o755 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries < 1000 ->
        Metrics.incr m_ws_retry;
        Event.emit Event.Warn
          ~fields:[ ("dir", dir) ]
          "workspace name collision; retrying with a fresh tag";
        attempt (tries + 1)
  in
  attempt 0

(* Atomic workspace write: the file either keeps its old contents or
   carries the complete new ones — a crash in between leaves only a
   ".tmp" orphan that reopen sweeps up. *)
(* [on_retry] hook shared by every bounded-retry site: the degradation
   trail becomes structured warn events instead of silence. *)
let log_retry what attempt msg =
  Event.emit Event.Warn
    ~fields:
      [ ("site", what); ("attempt", string_of_int attempt); ("detail", msg) ]
    "transient fault; retrying"

let write_file t name contents =
  let path = Filename.concat t.workspace name in
  let tmp = path ^ ".tmp" in
  Fault.with_retry ~on_retry:(log_retry "write_file") (fun () ->
      (try
         let oc = open_out tmp in
         Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
             output_string oc contents)
       with Sys_error msg -> Fault.fault Fault.Resource "writing %s: %s" tmp msg);
      Faultinject.hit Faultinject.File_write;
      (try Sys.rename tmp path
       with Sys_error msg ->
         Fault.fault Fault.Resource "renaming %s: %s" tmp msg);
      path)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let setup_tables db =
  ignore
    (Db.create_table db "components"
       [ ("name", Value.Tstr); ("implementation", Value.Tstr) ]);
  ignore
    (Db.create_table db "component_functions"
       [ ("component", Value.Tstr); ("func", Value.Tstr) ]);
  ignore
    (Db.create_table db "implementations"
       [ ("name", Value.Tstr); ("format", Value.Tstr); ("file", Value.Tstr) ]);
  ignore
    (Db.create_table db "instances"
       [ ("id", Value.Tstr); ("component", Value.Tstr); ("gates", Value.Tint);
         ("area", Value.Tfloat); ("clock_width", Value.Tfloat);
         ("constraints_met", Value.Tbool); ("file", Value.Tstr);
         ("degraded", Value.Tbool); ("spec_key", Value.Tstr) ])

let workspace t = t.workspace

let db t = t.db

(* Register an IIF implementation: parse, remember, record in the
   database and keep the source in the workspace (knowledge acquisition
   of §2.2). *)
let insert_implementation t name source =
  fault_boundary @@ fun () ->
  let design =
    try Parser.parse source with
    | Parser.Parse_error (msg, line) ->
        fail "implementation %s: parse error at line %d: %s" name line msg
    | Lexer.Lex_error (msg, line) ->
        fail "implementation %s: lex error at line %d: %s" name line msg
  in
  Hashtbl.replace t.registry name design;
  let file = write_file t (name ^ ".iif") source in
  Db.insert t.db "implementations"
    [ Value.Str name; Value.Str "IIF"; Value.Str file ];
  design

(* The generic component library and the catalog rows are deterministic
   knowledge, so they are rebuilt by both [create] and [reopen] (with
   the journal detached) instead of being journaled. *)
let bootstrap_static t =
  List.iter
    (fun (name, source) -> ignore (insert_implementation t name source))
    Builtin.sources;
  List.iter
    (fun (c : Component.t) ->
      Db.insert t.db "components"
        [ Value.Str c.Component.comp_name; Value.Str c.Component.implementation ];
      List.iter
        (fun f ->
          Db.insert t.db "component_functions"
            [ Value.Str c.Component.comp_name; Value.Str (Func.to_string f) ])
        (c.Component.functions_of []))
    Component.all

let register_builtin_generators t =
  List.iter
    (fun g -> Hashtbl.replace t.generators g.Generator.gen_name g)
    Generator.builtins

let create ?(verify = true) ?workspace ?(durable = false)
    ?(cache_capacity = default_cache_capacity) () =
  let workspace =
    match workspace with
    | Some w ->
        if not (Sys.file_exists w) then Unix.mkdir w 0o755;
        w
    | None -> fresh_workspace ()
  in
  if durable && Sys.file_exists (ws_journal workspace) then
    fail "workspace %s already has a journal; use reopen to recover it"
      workspace;
  let db = Db.create () in
  setup_tables db;
  let t =
    { db; workspace;
      registry = Hashtbl.create 32;
      generators = Hashtbl.create 4;
      instances = Hashtbl.create 64;
      cache = Lru.create cache_capacity;
      by_struct = Hashtbl.create 64;
      synth_memo = Lru.create cache_capacity;
      designs = Hashtbl.create 8;
      seq = 0;
      hits = 0; reuse_hits = 0; misses = 0;
      memo_hits = 0; memo_misses = 0;
      verify;
      durable }
  in
  register_builtin_generators t;
  bootstrap_static t;
  if durable then Db.attach_journal db (Journal.open_append (ws_journal workspace));
  t

(* ------------------------------------------------------------------ *)
(* Catalog queries (§3.2.1)                                            *)
(* ------------------------------------------------------------------ *)

(* Components performing all of [funcs], via the SQL layer. Values are
   quoted with Sql.quote_string: a function name is attacker-ish input
   (it may come straight off the CQL wire) and must never splice into
   the statement text. *)
let function_query t funcs =
  match funcs with
  | [] -> List.map (fun c -> c.Component.comp_name) Component.all
  | funcs ->
      let matching f =
        let rel =
          Sql.select t.db
            (Printf.sprintf
               "SELECT component FROM component_functions WHERE func = %s"
               (Sql.quote_string (Func.to_string f)))
        in
        Query.column_values rel "component"
        |> List.map Value.to_string
      in
      let sets = List.map matching funcs in
      (match sets with
       | [] -> []
       | first :: rest ->
           List.filter
             (fun c -> List.for_all (List.mem c) rest)
             (List.sort_uniq String.compare first))

(* Implementations able to perform the functions (via their catalog
   components). *)
let implementation_query t funcs =
  function_query t funcs
  |> List.filter_map (fun name ->
         Option.map
           (fun c -> c.Component.implementation)
           (Component.find name))
  |> List.sort_uniq String.compare

(* Functions a component (or one of its implementations) performs. *)
let component_query t name =
  ignore t;
  match Component.find name with
  | Some c -> c.Component.functions_of []
  | None -> (
      (* maybe an implementation name *)
      match
        List.find_opt
          (fun c -> c.Component.implementation = name)
          Component.all
      with
      | Some c -> c.Component.functions_of []
      | None -> fail "unknown component %s" name)

(* ------------------------------------------------------------------ *)
(* Generation (§3.2.2, Figure 8)                                       *)
(* ------------------------------------------------------------------ *)

let lookup_design t name =
  match Hashtbl.find_opt t.registry name with
  | Some d -> Some d
  | None -> None

let expand_design t design params =
  Trace.with_span "expand" @@ fun () ->
  Trace.add_attr "design" design.Ast.dname;
  let flat =
    Fault.with_retry ~on_retry:(log_retry "expand") (fun () ->
        Faultinject.hit Faultinject.Expand;
        try Expander.expand ~registry:(lookup_design t) design params with
        | Expander.Expand_error msg -> fail "expansion failed: %s" msg)
  in
  match Flat.validate flat with
  | [] -> flat
  | problems ->
      fail "%s: %s" flat.Flat.fname
        (String.concat "; " (List.map Flat.problem_to_string problems))

(* Knowledge-server side: register an additional component generator. *)
let insert_generator t g =
  Hashtbl.replace t.generators g.Generator.gen_name g

let generator_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.generators []
  |> List.sort String.compare

let generator_of t spec =
  match spec.Spec.generator with
  | None -> Generator.milo
  | Some name -> (
      match Hashtbl.find_opt t.generators name with
      | Some g -> g
      | None -> fail "unknown component generator %s" name)

(* A netlist (or specification) that does not settle, or that leaves a
   pin unconnected, fails verification like a mismatch does, so the
   request falls back instead of raising the simulator's exception. *)
let verify_instance flat netlist =
  match Icdb_sim.Equiv.check ~steps:120 flat netlist with
  | Icdb_sim.Equiv.Equivalent -> ()
  | m ->
      fail "generated netlist does not match its IIF specification: %s"
        (Icdb_sim.Equiv.result_to_string m)
  | exception Icdb_sim.Gate_sim.Sim_error msg ->
      fail "generated netlist cannot be simulated: %s" msg
  | exception Icdb_iif.Interp.Unstable name ->
      fail "IIF specification %s does not settle" name

(* The preferred generator first, then every other registered one in a
   deterministic order — the fallback chain for graceful degradation. *)
let generation_chain t spec =
  let preferred = generator_of t spec in
  let rank g =
    match g.Generator.gen_name with "milo" -> 0 | "direct" -> 1 | _ -> 2
  in
  let others =
    Hashtbl.fold (fun _ g acc -> g :: acc) t.generators []
    |> List.filter (fun g -> g.Generator.gen_name <> preferred.Generator.gen_name)
    |> List.sort (fun a b ->
           match compare (rank a) (rank b) with
           | 0 -> String.compare a.Generator.gen_name b.Generator.gen_name
           | c -> c)
  in
  preferred :: others

(* Synthesize with bounded retry (transient faults) and generator
   fallback: if the preferred generator fails — tool error, classified
   fault, or a netlist that does not verify — the next registered
   generator is tried, and success off the preferred path marks the
   instance degraded. An injected Crash always propagates: a dead
   process does not fall back. *)
let synthesize_with_fallback t spec flat =
  let attempt g =
    Trace.with_span ~attrs:[ ("generator", g.Generator.gen_name) ] "synthesize"
    @@ fun () ->
    Fault.with_retry ~on_retry:(log_retry "synthesize") (fun () ->
        Faultinject.hit Faultinject.Techmap;
        let netlist =
          try g.Generator.synthesize flat with
          | Techmap.Map_error msg -> fail "technology mapping failed: %s" msg
          | Network.Network_error msg ->
              fail "network construction failed: %s" msg
        in
        if t.verify then
          Trace.with_span "verify" (fun () -> verify_instance flat netlist);
        netlist)
  in
  let fallback_warn g msg =
    Event.emit Event.Warn
      ~fields:
        [ ("generator", g.Generator.gen_name); ("design", flat.Flat.fname);
          ("detail", msg) ]
      "generator failed; falling back to the next in the chain"
  in
  let rec go errors = function
    | [] ->
        fail "generation of %s failed on every generator: %s" flat.Flat.fname
          (String.concat "; " (List.rev errors))
    | g :: rest -> (
        match attempt g with
        | netlist -> (netlist, g.Generator.gen_name)
        | exception Faultinject.Crash s -> raise (Faultinject.Crash s)
        | exception Icdb_error msg ->
            fallback_warn g msg;
            go (Printf.sprintf "%s: %s" g.Generator.gen_name msg :: errors)
              rest
        | exception Fault.Fault (kind, msg) ->
            fallback_warn g msg;
            go
              (Printf.sprintf "%s: %s fault: %s" g.Generator.gen_name
                 (Fault.kind_to_string kind) msg
               :: errors)
              rest)
  in
  let chain =
    Trace.with_span "generator_select" (fun () -> generation_chain t spec)
  in
  let preferred = (List.hd chain).Generator.gen_name in
  let netlist, used = go [] chain in
  (netlist, used <> preferred)

(* Memoized synthesis: the expand→optimize→map→verify chain is a pure
   function of the flat design and the preferred generator, so its
   (immutable) netlist is cached by content fingerprint. Only clean
   results are kept — a degraded netlist came off the fallback path
   and the preferred generator deserves a retry next time. The memo is
   per-server: a fresh server always re-runs (and re-verifies) the
   pipeline. *)
let synthesize_memo t spec flat =
  let mkey =
    Flat.fingerprint flat ^ "/" ^ (generator_of t spec).Generator.gen_name
  in
  match Lru.find t.synth_memo mkey with
  | Some netlist ->
      t.memo_hits <- t.memo_hits + 1;
      Metrics.incr m_memo_hit;
      Trace.add_attr "memo" "hit";
      (netlist, false)
  | None ->
      t.memo_misses <- t.memo_misses + 1;
      Metrics.incr m_memo_miss;
      let netlist, degraded = synthesize_with_fallback t spec flat in
      if not degraded then Lru.put t.synth_memo mkey netlist;
      (netlist, degraded)

(* Sizing failure degrades to the unsized netlist (constraints simply
   end up unmet) rather than aborting the request. *)
let size_with_degradation netlist constraints =
  match
    Fault.with_retry ~on_retry:(log_retry "sizing") (fun () ->
        Faultinject.hit Faultinject.Sizing;
        Sizing.size_to_constraints netlist constraints)
  with
  | sized -> (sized, false)
  | exception Faultinject.Crash s -> raise (Faultinject.Crash s)
  | exception (Fault.Fault _ | Icdb_error _ | Sta.Timing_error _) ->
      Event.emit Event.Warn
        ~fields:[ ("netlist", netlist.Netlist.name) ]
        "sizing failed; degrading to the unsized netlist";
      (netlist, true)

let next_id t base =
  t.seq <- t.seq + 1;
  Printf.sprintf "%s_%d" (String.lowercase_ascii base) t.seq

let functions_of_design design =
  List.map Func.of_string design.Ast.dfunctions

(* The paper relaxes unreachable constraints instead of failing
   (App B §5): we size best-effort and report whether the result meets
   the request. *)
let resolve_source t spec =
  match spec.Spec.source with
  | Spec.From_component { component; attributes; functions } -> (
      match Component.find component with
      | None -> fail "unknown component %s" component
      | Some c ->
          (* the five universal attributes (input/output polarity,
             latches, tri-state) apply to every component; the rest
             must belong to this one (App B §3) *)
          let universal, specific = Attributes.split attributes in
          Component.check_attributes c specific;
          let have = c.Component.functions_of specific in
          List.iter
            (fun f ->
              if not (List.exists (Func.equal f) have) then
                fail "component %s with these attributes cannot perform %s"
                  component (Func.to_string f))
            functions;
          let params = c.Component.params_of specific in
          let design =
            match lookup_design t c.Component.implementation with
            | Some d -> d
            | None -> fail "missing implementation %s" c.Component.implementation
          in
          let flat = expand_design t design params in
          let data_ports role =
            List.filter_map
              (fun (p : Component.port) ->
                if p.Component.role = role then Some p.Component.port_name
                else None)
              c.Component.ports
          in
          let flat =
            Attributes.apply flat universal
              ~data_inputs:(data_ports Component.Data_in)
              ~data_outputs:(data_ports Component.Data_out)
          in
          (Some flat, Some c, specific, c.Component.comp_name)
      )
  | Spec.From_implementation { implementation; params } -> (
      match lookup_design t implementation with
      | None -> fail "unknown implementation %s" implementation
      | Some design ->
          let flat = expand_design t design params in
          let comp =
            List.find_opt
              (fun c -> c.Component.implementation = implementation)
              Component.all
          in
          (Some flat, comp, params, implementation))
  | Spec.From_iif source ->
      let design =
        try Parser.parse source with
        | Parser.Parse_error (msg, line) ->
            fail "IIF parse error at line %d: %s" line msg
        | Lexer.Lex_error (msg, line) ->
            fail "IIF lex error at line %d: %s" line msg
      in
      if design.Ast.dparams <> [] then
        fail "IIF specification %s still has parameters %s" design.Ast.dname
          (String.concat ", " design.Ast.dparams);
      let flat = expand_design t design [] in
      (Some flat, None, [], design.Ast.dname)
  | Spec.From_vhdl_netlist _ -> (None, None, [], "cluster")

let generate_netlist t spec =
  match spec.Spec.source with
  | Spec.From_vhdl_netlist src ->
      let parsed =
        try Vhdl.parse src with Vhdl.Vhdl_error msg -> fail "VHDL: %s" msg
      in
      let resolve name =
        match Hashtbl.find_opt t.instances name with
        | Some inst -> Some inst.Instance.netlist
        | None -> None
      in
      (try Vhdl.flatten parsed ~resolve with
       | Vhdl.Vhdl_error msg -> fail "VHDL: %s" msg)
  | _ -> assert false

(* §3.3 reuse rule: an existing instance of the same structure may
   answer a request with different constraints when its recorded
   figures already satisfy them. Guarded tightly so the answer is
   indistinguishable from fresh generation for the caller: the
   instance must be clean (not degraded), have met its own request,
   and share sizing strategy and port loads (its report was computed
   under those loads); then its actual netlist is re-checked against
   the new bounds. *)
let figures_meet inst (c : Sizing.constraints) =
  try Sizing.meets_constraints inst.Instance.netlist c with
  | Faultinject.Crash s -> raise (Faultinject.Crash s)
  | _ -> false

let reusable spec inst =
  let c_new = spec.Spec.constraints in
  let c_old = inst.Instance.spec.Spec.constraints in
  (not inst.Instance.degraded)
  && inst.Instance.constraints_met
  && c_old.Sizing.strategy = c_new.Sizing.strategy
  && c_old.Sizing.port_loads = c_new.Sizing.port_loads
  && figures_meet inst c_new

let find_reusable t spec skey =
  match Hashtbl.find_opt t.by_struct skey with
  | None -> None
  | Some ids ->
      List.find_map
        (fun id ->
          match Hashtbl.find_opt t.instances id with
          | Some inst when reusable spec inst -> Some inst
          | _ -> None)
        !ids

let index_instance t ~key ~skey id =
  Lru.put t.cache key id;
  match Hashtbl.find_opt t.by_struct skey with
  | Some ids -> if not (List.mem id !ids) then ids := !ids @ [ id ]
  | None -> Hashtbl.replace t.by_struct skey (ref [ id ])

let request_inner t (spec : Spec.t) key =
  let exact =
    Trace.with_span "cache_lookup" @@ fun () ->
    match Lru.find t.cache key with
    | Some id -> (
        match Hashtbl.find_opt t.instances id with
        | Some inst -> Some inst
        | None ->
            (* mapping outlived its instance; drop it *)
            Lru.remove t.cache key;
            None)
    | None -> None
  in
  match exact with
  | Some inst ->
      t.hits <- t.hits + 1;
      Metrics.incr m_cache_hit;
      Trace.add_attr "outcome" "hit";
      inst
  | None -> (
      let skey = Spec.structural_key spec in
      match find_reusable t spec skey with
      | Some inst ->
          t.reuse_hits <- t.reuse_hits + 1;
          Metrics.incr m_cache_reuse;
          Trace.add_attr "outcome" "reuse";
          index_instance t ~key ~skey inst.Instance.id;
          inst
      | None ->
      t.misses <- t.misses + 1;
      Metrics.incr m_cache_miss;
      Trace.add_attr "outcome" "generate";
      fault_boundary @@ fun () ->
      let flat, comp, attributes, base =
        Trace.with_span "resolve" (fun () -> resolve_source t spec)
      in
      let netlist, synth_degraded =
        match flat with
        | Some flat -> synthesize_memo t spec flat
        | None ->
            (Trace.with_span "cluster" (fun () -> generate_netlist t spec),
             false)
      in
      let sized, size_degraded =
        Trace.with_span "sizing" @@ fun () ->
        size_with_degradation netlist spec.Spec.constraints
      in
      let degraded = synth_degraded || size_degraded in
      if degraded then Metrics.incr m_degraded;
      let report =
        Trace.with_span "sta" @@ fun () ->
        Sta.analyze ~port_loads:spec.Spec.constraints.Sizing.port_loads sized
      in
      let shape = Trace.with_span "shape" (fun () -> Shape.of_netlist sized) in
      let functions, connections =
        match comp with
        | Some c ->
            (c.Component.functions_of attributes,
             c.Component.connections_of attributes)
        | None -> (
            match flat, spec.Spec.source with
            | Some _, Spec.From_iif src ->
                (functions_of_design (Parser.parse src), [])
            | _ -> ([], []))
      in
      let id =
        match spec.Spec.name_hint with
        | Some n ->
            if Hashtbl.mem t.instances n then
              fail "instance name %s already in use" n
            else n
        | None -> next_id t base
      in
      let constraints_met = Sizing.report_meets report spec.Spec.constraints in
      let inst =
        { Instance.id;
          spec;
          flat;
          netlist = sized;
          report;
          shape;
          functions;
          connections;
          component = Option.map (fun c -> c.Component.comp_name) comp;
          equivalent_ports =
            (match comp with
             | Some c -> c.Component.equivalent_ports
             | None -> []);
          inverted_ports =
            (match comp with
             | Some c -> c.Component.inverted_ports
             | None -> []);
          constraints_met;
          degraded;
          power = lazy (Power.estimate sized) }
      in
      (* persist first — the exact netlist file, then the database row;
         the recovery invariant is "a row implies its file" — then
         publish to the in-memory maps, so a crash mid-persist leaves
         both the disk and the memory views consistent *)
      (Trace.with_span "persist" @@ fun () ->
       let file =
         write_file t (id ^ ".vhdl")
           (Vhdl.dump { sized with Netlist.name = id })
       in
       Db.insert t.db "instances"
         [ Value.Str id;
           Value.Str (match inst.Instance.component with Some c -> c | None -> "-");
           Value.Int (Instance.gate_count inst);
           Value.Float (Instance.best_area inst);
           Value.Float report.Sta.clock_width;
           Value.Bool constraints_met;
           Value.Str file;
           Value.Bool degraded;
           Value.Str key ]);
      (* a layout-target request (§6.1) goes all the way to CIF now,
         at the best-area shape alternative *)
      (match spec.Spec.target with
       | Spec.Logic -> ()
       | Spec.Layout ->
           Trace.with_span "cif" @@ fun () ->
           let alt = Shape.best_area shape in
           let port_specs =
             Ports.default ~inputs:sized.Netlist.inputs
               ~outputs:sized.Netlist.outputs
           in
           let _, cif =
             Cif.generate sized ~strips:alt.Shape.alt_strips ~port_specs
           in
           ignore
             (write_file t
                (Printf.sprintf "%s_s%d.cif" id alt.Shape.alt_strips)
                cif));
      Hashtbl.replace t.instances id inst;
      index_instance t ~key ~skey id;
      (* record in the open transaction, if any *)
      Hashtbl.iter
        (fun _ book ->
          match book.tx_created with
          | Some created -> book.tx_created <- Some (id :: created)
          | None -> ())
        t.designs;
      inst)

let request_component t (spec : Spec.t) =
  Metrics.incr m_requests;
  let spec = Spec.canonical spec in
  let key = Spec.cache_key spec in
  try Trace.with_span "request" (fun () -> request_inner t spec key)
  with e ->
    Metrics.incr m_request_errors;
    raise e

(* ------------------------------------------------------------------ *)
(* Instance queries (§3.3)                                             *)
(* ------------------------------------------------------------------ *)

let find_instance t id =
  match Hashtbl.find_opt t.instances id with
  | Some i -> i
  | None -> fail "unknown component instance %s" id

(* Layout generation for a chosen shape alternative (§3.3): returns the
   CIF text and the file it was stored in. *)
let request_layout t id ?(alternative = 0) ?port_specs () =
  let inst = find_instance t id in
  let shape = inst.Instance.shape in
  let alt =
    if alternative = 0 then Shape.best_area shape
    else
      match
        List.find_opt (fun a -> a.Shape.alt_index = alternative) shape
      with
      | Some a -> a
      | None -> fail "instance %s has no shape alternative %d" id alternative
  in
  let specs =
    match port_specs with
    | Some s -> s
    | None ->
        Ports.default ~inputs:inst.Instance.netlist.Netlist.inputs
          ~outputs:inst.Instance.netlist.Netlist.outputs
  in
  let layout, cif =
    Cif.generate inst.Instance.netlist ~strips:alt.Shape.alt_strips
      ~port_specs:specs
  in
  let file =
    fault_boundary @@ fun () ->
    write_file t (Printf.sprintf "%s_s%d.cif" id alt.Shape.alt_strips) cif
  in
  (layout, cif, file)

(* ------------------------------------------------------------------ *)
(* Component list management (Appendix B §7)                           *)
(* ------------------------------------------------------------------ *)

let start_design t name =
  if Hashtbl.mem t.designs name then fail "design %s already started" name;
  Hashtbl.replace t.designs name { kept = []; tx_created = None }

let get_design t name =
  match Hashtbl.find_opt t.designs name with
  | Some d -> d
  | None -> fail "design %s not started" name

let start_transaction t name =
  let d = get_design t name in
  if d.tx_created <> None then fail "design %s already has an open transaction" name;
  d.tx_created <- Some [];
  Db.mark_tx_begin t.db name

let put_in_component_list t name inst_id =
  let d = get_design t name in
  ignore (find_instance t inst_id);
  if not (List.mem inst_id d.kept) then d.kept <- inst_id :: d.kept

(* Is [fname] a CIF layout file of instance [id] (<id>_s<k>.cif)? *)
let is_cif_of id fname =
  let prefix = id ^ "_s" and suffix = ".cif" in
  String.length fname > String.length prefix + String.length suffix
  && String.sub fname 0 (String.length prefix) = prefix
  && Filename.check_suffix fname suffix
  && String.for_all
       (fun c -> c >= '0' && c <= '9')
       (String.sub fname (String.length prefix)
          (String.length fname - String.length prefix - String.length suffix))

(* Best-effort workspace cleanup: the instance's netlist file and any
   CIF layouts. A file already gone is fine (ENOENT is not an error —
   a previous crash may have taken it). *)
let remove_instance_files t id =
  let rm name =
    try Sys.remove (Filename.concat t.workspace name) with Sys_error _ -> ()
  in
  rm (id ^ ".vhdl");
  match Sys.readdir t.workspace with
  | entries -> Array.iter (fun f -> if is_cif_of id f then rm f) entries
  | exception Sys_error _ -> ()

let delete_instance t id =
  (match Hashtbl.find_opt t.instances id with
   | Some _ ->
       Hashtbl.remove t.instances id;
       (* scan by value: a recovered instance's live cache key is the
          journaled spec_key, not the cache_key of its placeholder
          spec; reuse may also have aliased extra keys onto this id *)
       let stale =
         Lru.fold (fun k v acc -> if v = id then k :: acc else acc) t.cache []
       in
       List.iter (Lru.remove t.cache) stale;
       let empty =
         Hashtbl.fold
           (fun skey ids acc ->
             ids := List.filter (fun i -> i <> id) !ids;
             if !ids = [] then skey :: acc else acc)
           t.by_struct []
       in
       List.iter (Hashtbl.remove t.by_struct) empty
   | None -> ());
  let tbl = Db.table t.db "instances" in
  ignore
    (Db.delete_where t.db "instances" (fun row ->
         Table.get row tbl "id" = Value.Str id));
  remove_instance_files t id

let end_transaction t name =
  let d = get_design t name in
  match d.tx_created with
  | None -> fail "design %s has no open transaction" name
  | Some created ->
      (* instances generated during the transaction and not put in the
         component list are deleted (App B §7) *)
      List.iter
        (fun id -> if not (List.mem id d.kept) then delete_instance t id)
        created;
      d.tx_created <- None;
      Db.mark_tx_commit t.db name

let end_design t name =
  let d = get_design t name in
  List.iter (fun id -> delete_instance t id) d.kept;
  Hashtbl.remove t.designs name

let component_list t name = List.rev (get_design t name).kept

let instance_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.instances []
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Reconstruct one instance from its database row and its exact-netlist
   workspace file, re-verifying the stored figures: a mismatch between
   the file and the row means one of them is damaged, and the instance
   is dropped rather than served wrong. *)
let rebuild_instance t row tbl =
  let str c = Value.to_string (Table.get row tbl c) in
  let id = str "id" in
  let gates =
    match Table.get row tbl "gates" with Value.Int n -> n | _ -> 0
  in
  let area =
    match Table.get row tbl "area" with Value.Float f -> f | _ -> 0.
  in
  let cw =
    match Table.get row tbl "clock_width" with Value.Float f -> f | _ -> 0.
  in
  let bool_col c =
    match Table.get row tbl c with Value.Bool b -> b | _ -> false
  in
  let file =
    Filename.concat t.workspace (Filename.basename (str "file"))
  in
  let contents =
    try read_file file with Sys_error msg ->
      Fault.fault Fault.Corrupt "instance %s: cannot read %s: %s" id file msg
  in
  let nl =
    try Vhdl.undump contents with Vhdl.Vhdl_error msg ->
      Fault.fault Fault.Corrupt "instance %s: bad netlist file: %s" id msg
  in
  if Netlist.instance_count nl <> gates then
    Fault.fault Fault.Corrupt
      "instance %s: file has %d gates, database says %d" id
      (Netlist.instance_count nl) gates;
  let shape = Shape.of_netlist nl in
  let best = (Shape.best_area shape).Shape.alt_area in
  if abs_float (best -. area) > 1e-6 *. (abs_float area +. 1.) then
    Fault.fault Fault.Corrupt
      "instance %s: file area %.3f does not match database area %.3f" id best
      area;
  (* delays are re-derived from the recovered netlist; CW keeps the
     stored figure (the request's port loads are not persisted) *)
  let report = { (Sta.analyze nl) with Sta.clock_width = cw } in
  let component = match str "component" with "-" -> None | c -> Some c in
  let comp = Option.bind component Component.find in
  let functions, connections =
    match comp with
    | Some c -> (c.Component.functions_of [], c.Component.connections_of [])
    | None -> ([], [])
  in
  { Instance.id;
    spec = Spec.make ~name_hint:id (Spec.From_vhdl_netlist contents);
    flat = None;
    netlist = nl;
    report;
    shape;
    functions;
    connections;
    component;
    equivalent_ports =
      (match comp with Some c -> c.Component.equivalent_ports | None -> []);
    inverted_ports =
      (match comp with Some c -> c.Component.inverted_ports | None -> []);
    constraints_met = bool_col "constraints_met";
    degraded = bool_col "degraded";
    power = lazy (Power.estimate nl) }

(* Raise the id counter past an instance name, so fresh requests never
   collide with recovered or replicated ones. *)
let bump_seq_for t id =
  match String.rindex_opt id '_' with
  | None -> ()
  | Some i -> (
      match
        int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
      with
      | Some n when n > t.seq -> t.seq <- n
      | _ -> ())

(* An instance row into memory, for reopen and for a follower's apply:
   the instance rebuilt from its exact netlist file, its journaled
   spec_key indexed and the id counter raised past it. Exact-spec reuse
   survives that way; the §3.3 by_struct index does not, because its
   reuse predicate needs the creating request's full constraints, which
   are not persisted. Raises what [rebuild_instance] raises. *)
let restore_instance t tbl row =
  let id = Value.to_string (Table.get row tbl "id") in
  Hashtbl.replace t.instances id (rebuild_instance t row tbl);
  let key = Value.to_string (Table.get row tbl "spec_key") in
  if key <> "" then Lru.put t.cache key id;
  bump_seq_for t id

(* An implementation's parsed design: the builtin text, else the
   workspace's [<name>.iif], the file its row names (see
   [insert_implementation]). A missing source is a [Resource] fault, one
   that no longer parses [Corrupt]. *)
let load_implementation t name =
  let source =
    match List.assoc_opt name Builtin.sources with
    | Some s -> Some s
    | None -> (
        try Some (read_file (Filename.concat t.workspace (name ^ ".iif")))
        with Sys_error _ -> None)
  in
  match source with
  | None ->
      Error
        ( Fault.Resource,
          Printf.sprintf
            "implementation %s: source file missing or unreadable" name )
  | Some src -> (
      try Ok (Parser.parse src)
      with _ ->
        Error
          ( Fault.Corrupt,
            Printf.sprintf "implementation %s: source no longer parses" name ))

(* Sweep files a crash may have stranded: half-written ".tmp" files and
   netlist/layout/IIF files whose database row is gone. *)
let sweep_orphans t =
  let live_vhdl name = Hashtbl.mem t.instances name in
  let removed = ref [] in
  (match Sys.readdir t.workspace with
   | entries ->
       Array.iter
         (fun f ->
           let drop () =
             (try Sys.remove (Filename.concat t.workspace f)
              with Sys_error _ -> ());
             removed := f :: !removed
           in
           if f = "icdb.journal" || f = "icdb.snapshot" then ()
           else if Filename.check_suffix f ".tmp" then drop ()
           else if Filename.check_suffix f ".vhdl" then (
             if not (live_vhdl (Filename.chop_suffix f ".vhdl")) then drop ())
           else if Filename.check_suffix f ".iif" then (
             if not (Hashtbl.mem t.registry (Filename.chop_suffix f ".iif"))
             then drop ())
           else if Filename.check_suffix f ".cif" then
             if
               not
                 (Hashtbl.fold
                    (fun id _ acc -> acc || is_cif_of id f)
                    t.instances false)
             then drop ())
         entries
   | exception Sys_error _ -> ());
  List.sort String.compare !removed

let reopen ?(verify = true)
    ?(cache_capacity = default_cache_capacity) ~workspace () =
  if not (Sys.file_exists workspace && Sys.is_directory workspace) then
    fail "no workspace directory %s" workspace;
  let jpath = ws_journal workspace in
  let spath = ws_snapshot workspace in
  if not (Sys.file_exists jpath || Sys.file_exists spath) then
    fail "workspace %s has no journal or snapshot (not created durable?)"
      workspace;
  let have_snapshot = Sys.file_exists spath in
  let db =
    if have_snapshot then Db.load spath
    else (
      let db = Db.create () in
      setup_tables db;
      db)
  in
  let t =
    { db; workspace;
      registry = Hashtbl.create 32;
      generators = Hashtbl.create 4;
      instances = Hashtbl.create 64;
      (* the reuse cache is rebuilt from the instances table below —
         never carried over from the crashed process's memory *)
      cache = Lru.create cache_capacity;
      by_struct = Hashtbl.create 64;
      synth_memo = Lru.create cache_capacity;
      designs = Hashtbl.create 8;
      seq = 0;
      hits = 0; reuse_hits = 0; misses = 0;
      memo_hits = 0; memo_misses = 0;
      verify;
      durable = true }
  in
  register_builtin_generators t;
  (* static knowledge is rebuilt, not replayed; a snapshot already
     carries its rows (and bootstrap would duplicate them) *)
  if not have_snapshot then bootstrap_static t;
  let rp = Db.replay_journal db ~journal_path:jpath in
  Db.attach_journal db (Journal.open_append jpath);
  (* IIF registry from the implementations table: builtin sources are
     known in-process; acquired ones are re-read from the workspace *)
  (* Every artifact recovery refuses to serve keeps its fault class —
     [Resource] when the bytes are gone, [Corrupt] when they are there
     but wrong — and is logged as a structured warn event, instead of
     being flattened to a bare exception string. *)
  let dropped = ref [] in
  let dropped_impls = ref [] in
  let drop kind msg =
    dropped := (kind, msg) :: !dropped;
    Event.emit Event.Warn
      ~fields:[ ("fault", Fault.kind_to_string kind); ("detail", msg) ]
      "recovery dropped a damaged artifact"
  in
  let impl_tbl = Db.table db "implementations" in
  List.iter
    (fun row ->
      let name = Value.to_string (Table.get row impl_tbl "name") in
      if not (Hashtbl.mem t.registry name) then
        match load_implementation t name with
        | Ok design -> Hashtbl.replace t.registry name design
        | Error (kind, msg) ->
            dropped_impls := name :: !dropped_impls;
            drop kind msg)
    (Table.rows impl_tbl);
  ignore
    (Db.delete_where t.db "implementations" (fun row ->
         List.mem
           (Value.to_string (Table.get row impl_tbl "name"))
           !dropped_impls));
  (* instances from their rows + exact netlist files *)
  let inst_tbl = Db.table db "instances" in
  List.iter
    (fun row ->
      match restore_instance t inst_tbl row with
      | () -> ()
      | exception Faultinject.Crash s -> raise (Faultinject.Crash s)
      | exception Fault.Fault (kind, msg) -> drop kind msg
      | exception e ->
          drop Fault.Corrupt
            (Printf.sprintf "instance %s: %s"
               (Value.to_string (Table.get row inst_tbl "id"))
               (Printexc.to_string e)))
    (Table.rows inst_tbl);
  (* drop rows whose instance could not be reconstructed *)
  ignore
    (Db.delete_where t.db "instances" (fun row ->
         let id = Value.to_string (Table.get row inst_tbl "id") in
         not (Hashtbl.mem t.instances id)));
  let orphans = sweep_orphans t in
  let report =
    { rr_entries_replayed = rp.Db.rp_applied;
      rr_torn_tail = rp.Db.rp_torn;
      rr_rolled_back_tx = rp.Db.rp_discarded <> [];
      rr_instances = instance_ids t;
      rr_dropped =
        List.sort (fun (_, a) (_, b) -> String.compare a b) !dropped;
      rr_orphans = orphans }
  in
  Event.info
    ~fields:
      [ ("workspace", workspace);
        ("replayed", string_of_int report.rr_entries_replayed);
        ("instances", string_of_int (List.length report.rr_instances));
        ("dropped", string_of_int (List.length report.rr_dropped));
        ("orphans", string_of_int (List.length report.rr_orphans)) ]
    "workspace recovered";
  (t, report)

let checkpoint t =
  if not t.durable then fail "server was not created durable";
  Db.checkpoint t.db ~snapshot:(ws_snapshot t.workspace)

let durable t = t.durable

(* ------------------------------------------------------------------ *)
(* Replication (follower-side apply)                                   *)
(* ------------------------------------------------------------------ *)

(* Workspace files a journal record depends on, as basenames. A row
   alone is not enough to rebuild an instance or an implementation —
   reopen needs the exact netlist / IIF source file — so the publisher
   ships these contents alongside the record. *)
let replication_files entry =
  let file_col values i =
    match List.nth_opt values i with
    | Some (Value.Str file) when file <> "" -> [ Filename.basename file ]
    | _ -> []
  in
  match entry with
  | Journal.Insert ("instances", values) -> file_col values 6
  | Journal.Insert ("implementations", values) -> file_col values 2
  | _ -> []

let apply_replicated t entry =
  Faultinject.hit Faultinject.Repl_replay;
  if not t.durable then fail "apply_replicated: server is not durable";
  let j =
    match Db.journal t.db with
    | Some j -> j
    | None -> fail "apply_replicated: no journal attached"
  in
  (* Apply with the journal detached, then append the shipped record
     verbatim: exactly one local record per shipped record, whatever
     side effects the apply has, keeps the follower's journal in
     sequence lockstep with the primary's stream — the follower's
     cursor IS its journal's next_seq, crash-consistent with the
     applied state for free (a reopen replays exactly the records that
     made it to disk and resumes from there). *)
  Db.detach_journal t.db;
  Fun.protect
    ~finally:(fun () -> Db.attach_journal t.db j)
    (fun () ->
      match entry with
      | Journal.Insert ("instances", values) -> (
          Db.apply_entry t.db entry;
          let tbl = Db.table t.db "instances" in
          let row = Array.of_list values in
          match restore_instance t tbl row with
          | () -> ()
          | exception Faultinject.Crash s -> raise (Faultinject.Crash s)
          | exception e ->
              (* keep the row — the same record would also journal on
                 the primary; queries for this one instance degrade
                 until a later Delete or a full re-sync heals it *)
              let id = Value.to_string (Table.get row tbl "id") in
              Event.warn
                ~fields:[ ("instance", id) ]
                "replica: cannot rebuild instance from shipped row: %s"
                (Printexc.to_string e))
      | Journal.Delete ("instances", values) ->
          (* with the journal detached this deletes the row, the
             in-memory maps and the workspace files without logging;
             the verbatim append below is the one local record *)
          (match values with
           | Value.Str id :: _ -> delete_instance t id
           | _ -> Db.apply_entry t.db entry)
      | Journal.Insert ("implementations", values) -> (
          Db.apply_entry t.db entry;
          match values with
          | Value.Str name :: _ -> (
              match load_implementation t name with
              | Ok design -> Hashtbl.replace t.registry name design
              | Error (_, msg) ->
                  Event.warn
                    ~fields:[ ("implementation", name) ]
                    "replica: shipped %s" msg)
          | _ -> ())
      | Journal.Delete ("implementations", values) ->
          Db.apply_entry t.db entry;
          (match values with
           | Value.Str name :: _ -> Hashtbl.remove t.registry name
           | _ -> ())
      | entry -> Db.apply_entry t.db entry);
  Journal.append j entry
