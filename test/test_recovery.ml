(* Crash-safety tests: write-ahead journaling, kill-and-recover at every
   fault-injection site, App B §7 transaction rollback on reopen, and
   graceful degradation in the generation pipeline. *)

open Icdb
open Icdb_reldb

let check = Alcotest.check

let counter_spec ?constraints ?target ?(size = 5) () =
  Spec.make ?constraints ?target
    (Spec.From_component
       { component = "counter";
         attributes = [ ("size", size) ];
         functions = [ Icdb_genus.Func.INC ] })

let with_faults f = Fun.protect ~finally:Faultinject.reset f

let instance_rows server =
  Table.cardinality (Db.table (Server.db server) "instances")

let vhdl_exists server id =
  Sys.file_exists (Filename.concat (Server.workspace server) (id ^ ".vhdl"))

let no_tmp_litter server =
  Array.for_all
    (fun f -> not (Filename.check_suffix f ".tmp"))
    (Sys.readdir (Server.workspace server))

(* ------------------------------------------------------------------ *)
(* Journal format                                                      *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let path = Filename.temp_file "icdb_j" ".journal" in
  let entries =
    [ Journal.Create ("t", [ ("a", Value.Tstr); ("n", Value.Tint) ]);
      Journal.Insert ("t", [ Value.Str "tab\there\nand newline"; Value.Int 3 ]);
      Journal.Tx_begin "design";
      Journal.Delete ("t", [ Value.Str "tab\there\nand newline"; Value.Int 3 ]);
      Journal.Tx_commit "design";
      Journal.Drop "t" ]
  in
  let j = Journal.open_append path in
  List.iter (Journal.append j) entries;
  Journal.close j;
  let got, torn = Journal.replay path in
  check Alcotest.bool "not torn" false torn;
  check Alcotest.bool "entries survive encode/decode" true (got = entries);
  Sys.remove path

let test_journal_torn_tail () =
  let path = Filename.temp_file "icdb_j" ".journal" in
  let j = Journal.open_append path in
  Journal.append j (Journal.Tx_begin "a");
  Journal.append j (Journal.Tx_commit "a");
  Journal.close j;
  (* a crash mid-write leaves a partial last line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeef\tI\tt";
  close_out oc;
  let got, torn = Journal.replay path in
  check Alcotest.bool "torn tail detected" true torn;
  check Alcotest.int "valid prefix kept" 2 (List.length got);
  Sys.remove path

let test_journal_checksum () =
  let path = Filename.temp_file "icdb_j" ".journal" in
  let j = Journal.open_append path in
  Journal.append j (Journal.Tx_begin "a");
  Journal.append j (Journal.Tx_begin "b");
  Journal.append j (Journal.Tx_begin "c");
  Journal.close j;
  (* flip bytes in the middle line: its checksum no longer matches *)
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let tampered =
    List.mapi
      (fun i l ->
        if i = 1 then String.map (fun c -> if c = 'b' then 'x' else c) l
        else l)
      lines
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (String.concat "\n" tampered));
  let got, torn = Journal.replay path in
  check Alcotest.bool "corruption detected" true torn;
  check Alcotest.bool "only the prefix survives" true
    (got = [ Journal.Tx_begin "a" ])

(* The record-sequence cursor: monotonic across truncations, persisted
   in the sidecar, and rebuilt on reopen as base + records on disk. *)
let test_journal_cursor () =
  let path = Filename.temp_file "icdb_j" ".journal" in
  let j = Journal.open_append path in
  check Alcotest.int "fresh base" 0 (Journal.base_seq j);
  check Alcotest.int "fresh next" 0 (Journal.next_seq j);
  Journal.append j (Journal.Tx_begin "a");
  Journal.append j (Journal.Tx_commit "a");
  check Alcotest.int "next counts appends" 2 (Journal.next_seq j);
  (* a checkpoint truncation absorbs the records but never rewinds the
     sequence space *)
  Journal.reset j;
  check Alcotest.int "base advances to next" 2 (Journal.base_seq j);
  check Alcotest.int "next survives reset" 2 (Journal.next_seq j);
  Journal.append j (Journal.Tx_begin "b");
  check Alcotest.int "appends keep counting" 3 (Journal.next_seq j);
  Journal.close j;
  let j2 = Journal.open_append path in
  check Alcotest.int "base survives close/reopen" 2 (Journal.base_seq j2);
  check Alcotest.int "next = base + records on disk" 3 (Journal.next_seq j2);
  Journal.close j2;
  (* seeding a follower journal pins both ends of the window *)
  let ws = Filename.temp_file "icdb_jb" "" in
  Sys.remove ws;
  Unix.mkdir ws 0o755;
  let jpath = Filename.concat ws "icdb.journal" in
  Journal.install_base jpath 57;
  let jb = Journal.open_append jpath in
  check Alcotest.int "installed base" 57 (Journal.base_seq jb);
  check Alcotest.int "installed next" 57 (Journal.next_seq jb);
  Journal.close jb;
  Sys.remove path;
  Sys.remove (path ^ ".seq")

let test_journal_stream_from () =
  let path = Filename.temp_file "icdb_j" ".journal" in
  let j = Journal.open_append path in
  List.iter
    (fun n -> Journal.append j (Journal.Tx_begin n))
    [ "a"; "b"; "c"; "d" ];
  (* a window in the middle, bounded by max_records *)
  let s = Journal.stream_from j ~seq:1 ~max_records:2 () in
  check Alcotest.int "first requested seq" 1 s.Journal.st_first;
  check Alcotest.bool "exact middle slice" true
    (s.Journal.st_entries = [ Journal.Tx_begin "b"; Journal.Tx_begin "c" ]);
  check Alcotest.bool "clean read" false s.Journal.st_torn;
  (* seq = next is a valid empty read (a caught-up follower) *)
  let s = Journal.stream_from j ~seq:4 () in
  check Alcotest.bool "caught up means empty" true (s.Journal.st_entries = []);
  (* outside the window is the caller's bug *)
  (try
     ignore (Journal.stream_from j ~seq:5 ());
     Alcotest.fail "expected Journal_error past next"
   with Journal.Journal_error _ -> ());
  Journal.reset j;
  (try
     ignore (Journal.stream_from j ~seq:0 ());
     Alcotest.fail "expected Journal_error below base"
   with Journal.Journal_error _ -> ());
  (* a torn final record stops the stream at the valid prefix *)
  Journal.append j (Journal.Tx_begin "e");
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeef\tI\tt";
  close_out oc;
  let s = Journal.stream_from j ~seq:4 () in
  check Alcotest.bool "valid prefix served" true
    (s.Journal.st_entries = [ Journal.Tx_begin "e" ]);
  check Alcotest.bool "torn tail flagged" true s.Journal.st_torn;
  Journal.close j;
  Sys.remove path;
  Sys.remove (path ^ ".seq")

(* The indexed tail read against the full-scan oracle, at every cursor
   of the window after every step of seeded sequences of appends,
   checkpoint truncations, reopens, and foreign bytes appended behind
   the channel (a torn fragment, a junk line, a whole valid record, an
   unterminated valid record), each followed by more appends. The
   journal_stream hook must fire once per call, in-window or not. *)
let test_journal_tail_read_differential () =
  let hits = ref 0 and calls = ref 0 in
  let saved_hook = !Journal.stream_hook in
  Journal.stream_hook := (fun () -> incr hits);
  Fun.protect ~finally:(fun () -> Journal.stream_hook := saved_hook)
  @@ fun () ->
  let entry rng =
    let tag = Printf.sprintf "d%d" (Random.State.int rng 1000) in
    match Random.State.int rng 4 with
    | 0 -> Journal.Tx_begin tag
    | 1 -> Journal.Insert ("t", [ Value.Str (tag ^ "\tx\ny"); Value.Int 7 ])
    | 2 -> Journal.Delete ("t", [ Value.Str tag; Value.Int 7 ])
    | _ -> Journal.Create (tag, [ ("a", Value.Tstr) ])
  in
  let foreign rng =
    match Random.State.int rng 4 with
    | 0 -> "deadbeef\tI\tt"
    | 1 -> "junk line\n"
    | 2 -> Journal.encode_line (entry rng)
    | _ ->
        let l = Journal.encode_line (entry rng) in
        String.sub l 0 (String.length l - 1)
  in
  let stream_eq (a : Journal.stream) (b : Journal.stream) =
    a.Journal.st_first = b.Journal.st_first
    && a.Journal.st_entries = b.Journal.st_entries
    && a.Journal.st_torn = b.Journal.st_torn
  in
  for seed = 1 to 25 do
    let rng = Random.State.make [| seed |] in
    let path = Filename.temp_file "icdb_jdiff" ".journal" in
    let j = ref (Journal.open_append path) in
    for step = 1 to 30 do
      (match Random.State.int rng 10 with
       | 0 -> Journal.reset !j
       | 1 ->
           Journal.close !j;
           j := Journal.open_append path
       | 2 ->
           let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
           output_string oc (foreign rng);
           close_out oc
       | _ -> Journal.append !j (entry rng));
      let base = Journal.base_seq !j and next = Journal.next_seq !j in
      for seq = base to next do
        List.iter
          (fun max_records ->
            incr calls;
            let got = Journal.stream_from !j ~seq ?max_records () in
            let want = Oracle_journal.stream_from !j ~seq ?max_records () in
            if not (stream_eq got want) then
              Alcotest.failf
                "seed %d step %d: stream_from ~seq:%d ~max_records:%s \
                 returned %d entries (torn %b), the full scan %d (torn %b)"
                seed step seq
                (match max_records with
                 | Some n -> string_of_int n
                 | None -> "-")
                (List.length got.Journal.st_entries) got.Journal.st_torn
                (List.length want.Journal.st_entries) want.Journal.st_torn)
          [ None; Some 0; Some 1; Some 2; Some (1 + Random.State.int rng 8) ]
      done;
      List.iter
        (fun seq ->
          incr calls;
          match Journal.stream_from !j ~seq () with
          | _ -> Alcotest.failf "seed %d: seq %d outside the window served" seed seq
          | exception Journal.Journal_error _ -> ())
        (next + 1 :: (if base > 0 then [ base - 1 ] else []))
    done;
    Journal.close !j;
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ path; path ^ ".seq" ]
  done;
  check Alcotest.int "journal_stream hook fires on every call" !calls !hits

let test_faultinject_spec () =
  with_faults @@ fun () ->
  Faultinject.arm_from_spec "techmap:crash:2;sizing:transient:1";
  (try
     Faultinject.hit Faultinject.Techmap;
     (* second techmap hit crashes *)
     (try
        Faultinject.hit Faultinject.Techmap;
        Alcotest.fail "expected crash"
      with Faultinject.Crash Faultinject.Techmap -> ());
     (try
        Faultinject.hit Faultinject.Sizing;
        Alcotest.fail "expected transient fault"
      with Fault.Fault (Fault.Transient, _) -> ())
   with Faultinject.Crash _ -> Alcotest.fail "crashed too early");
  (try
     Faultinject.arm_from_spec "nonsense";
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* SQL quoting (injection hardening)                                   *)
(* ------------------------------------------------------------------ *)

let test_sql_quote () =
  let db = Db.create () in
  ignore (Db.create_table db "t" [ ("name", Value.Tstr) ]);
  Db.insert db "t" [ Value.Str "o'brien" ];
  Db.insert db "t" [ Value.Str "plain" ];
  let rows q =
    match Sql.exec db q with
    | Sql.Relation rel -> List.length rel.Query.rrows
    | Sql.Affected _ -> Alcotest.fail "expected a relation"
  in
  check Alcotest.int "quoted literal matches" 1
    (rows ("SELECT name FROM t WHERE name = " ^ Sql.quote_string "o'brien"));
  (* a classic injection payload stays a plain string *)
  check Alcotest.int "injection payload finds nothing" 0
    (rows
       ("SELECT name FROM t WHERE name = "
       ^ Sql.quote_string "x' OR 'a' = 'a"))

(* ------------------------------------------------------------------ *)
(* Workspace hygiene                                                   *)
(* ------------------------------------------------------------------ *)

let test_fresh_workspaces_distinct () =
  let a = Server.create ~verify:false () in
  let b = Server.create ~verify:false () in
  check Alcotest.bool "distinct workspaces" true
    (Server.workspace a <> Server.workspace b);
  check Alcotest.bool "both exist" true
    (Sys.file_exists (Server.workspace a)
    && Sys.file_exists (Server.workspace b))

let test_delete_instance_files () =
  let server = Server.create ~verify:false () in
  let inst =
    Server.request_component server
      (counter_spec ~target:Spec.Layout ~size:4 ())
  in
  let id = inst.Instance.id in
  let ws = Server.workspace server in
  let cifs () =
    Sys.readdir ws |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".cif"
           && String.length f > String.length id
           && String.sub f 0 (String.length id) = id)
  in
  check Alcotest.bool "netlist file written" true (vhdl_exists server id);
  check Alcotest.bool "layout file written" true (cifs () <> []);
  Server.delete_instance server id;
  check Alcotest.bool "netlist file removed" false (vhdl_exists server id);
  check (Alcotest.list Alcotest.string) "layout files removed" [] (cifs ());
  check (Alcotest.list Alcotest.string) "no instances" []
    (Server.instance_ids server);
  check Alcotest.int "no rows" 0 (instance_rows server);
  (* deleting again (or a file already gone) is a no-op *)
  Server.delete_instance server id

(* ------------------------------------------------------------------ *)
(* Durable server: clean reopen                                        *)
(* ------------------------------------------------------------------ *)

let test_durable_reopen () =
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let a = Server.request_component server (counter_spec ~size:4 ()) in
  let b = Server.request_component server (counter_spec ~size:6 ()) in
  let gates_a = Instance.gate_count a and area_a = Instance.best_area a in
  (* abandon [server] without any shutdown and rebuild from disk *)
  let server2, r = Server.reopen ~verify:false ~workspace:ws () in
  check (Alcotest.list Alcotest.string) "nothing dropped" []
    (List.map snd r.Server.rr_dropped);
  check Alcotest.bool "no torn tail" false r.Server.rr_torn_tail;
  check
    (Alcotest.list Alcotest.string)
    "both instances recovered"
    (List.sort String.compare [ a.Instance.id; b.Instance.id ])
    (Server.instance_ids server2);
  let a2 = Server.find_instance server2 a.Instance.id in
  check Alcotest.int "gate count survives" gates_a (Instance.gate_count a2);
  check (Alcotest.float 1e-3) "area survives" area_a (Instance.best_area a2);
  check Alcotest.bool "not marked degraded" false a2.Instance.degraded;
  (* the generation cache survives: the same spec is not regenerated *)
  let a3 = Server.request_component server2 (counter_spec ~size:4 ()) in
  check Alcotest.string "cache hit after reopen" a.Instance.id a3.Instance.id;
  (* and fresh ids do not collide with recovered ones *)
  let c = Server.request_component server2 (counter_spec ~size:7 ()) in
  check Alcotest.bool "fresh id" true
    (not (List.mem c.Instance.id [ a.Instance.id; b.Instance.id ]));
  (* re-creating over a journaled workspace is refused *)
  try
    ignore (Server.create ~workspace:ws ~durable:true ());
    Alcotest.fail "expected Icdb_error"
  with Server.Icdb_error _ -> ()

(* A crash mid-append leaves a partial final journal record: reopen
   must cut it, report it, and leave a journal that appends cleanly. *)
let test_reopen_torn_tail () =
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let a = Server.request_component server (counter_spec ~size:4 ()) in
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat ws "icdb.journal")
  in
  output_string oc "deadbeef\tI\tinstances\tpart";
  close_out oc;
  let server2, r = Server.reopen ~verify:false ~workspace:ws () in
  check Alcotest.bool "torn tail reported" true r.Server.rr_torn_tail;
  check
    (Alcotest.list Alcotest.string)
    "full records all survive" [ a.Instance.id ]
    (Server.instance_ids server2);
  (* the tail was truncated, not just skipped: new writes land after a
     valid prefix and a second reopen is clean *)
  let b = Server.request_component server2 (counter_spec ~size:6 ()) in
  let server3, r3 = Server.reopen ~verify:false ~workspace:ws () in
  check Alcotest.bool "clean after truncation" false r3.Server.rr_torn_tail;
  check
    (Alcotest.list Alcotest.string)
    "both instances recovered"
    (List.sort String.compare [ a.Instance.id; b.Instance.id ])
    (Server.instance_ids server3)

let test_checkpoint () =
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let a = Server.request_component server (counter_spec ~size:4 ()) in
  Server.checkpoint server;
  let b = Server.request_component server (counter_spec ~size:6 ()) in
  let server2, r = Server.reopen ~verify:false ~workspace:ws () in
  check
    (Alcotest.list Alcotest.string)
    "snapshot + journal give both instances"
    (List.sort String.compare [ a.Instance.id; b.Instance.id ])
    (Server.instance_ids server2);
  (* the snapshot absorbed everything before it: only b's mutations
     remain in the journal *)
  check Alcotest.bool "short journal after checkpoint" true
    (r.Server.rr_entries_replayed <= 2);
  (* a non-durable server cannot checkpoint *)
  let plain = Server.create ~verify:false () in
  try
    Server.checkpoint plain;
    Alcotest.fail "expected Icdb_error"
  with Server.Icdb_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Kill-and-recover at every injection site                            *)
(* ------------------------------------------------------------------ *)

(* The invariant checked after every crash: the instances table, the
   in-memory maps and the workspace files agree exactly — the crashed
   request either fully exists or never happened — and no half-written
   temp file is left behind. *)
let crash_and_recover site () =
  with_faults @@ fun () ->
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let before = Server.request_component server (counter_spec ~size:4 ()) in
  Faultinject.arm site (Faultinject.Crash_on 1);
  (try
     ignore (Server.request_component server (counter_spec ~size:6 ()));
     Alcotest.fail "expected the injected crash"
   with Faultinject.Crash s ->
     check Alcotest.string "crashed at the armed site"
       (Faultinject.site_to_string site)
       (Faultinject.site_to_string s));
  Faultinject.reset ();
  let server2, _ = Server.reopen ~verify:false ~workspace:ws () in
  check
    (Alcotest.list Alcotest.string)
    "only the pre-crash instance survives" [ before.Instance.id ]
    (Server.instance_ids server2);
  check Alcotest.int "one database row" 1 (instance_rows server2);
  check Alcotest.bool "its netlist file exists" true
    (vhdl_exists server2 before.Instance.id);
  check Alcotest.bool "no temp litter" true (no_tmp_litter server2);
  (* the server keeps working after recovery *)
  let again = Server.request_component server2 (counter_spec ~size:6 ()) in
  check Alcotest.bool "post-recovery generation works" true
    (Instance.gate_count again > 0)

let test_crash_file_write () = crash_and_recover Faultinject.File_write ()
let test_crash_journal_append () =
  crash_and_recover Faultinject.Journal_append ()
let test_crash_expand () = crash_and_recover Faultinject.Expand ()
let test_crash_techmap () = crash_and_recover Faultinject.Techmap ()
let test_crash_sizing () = crash_and_recover Faultinject.Sizing ()

let test_tx_rollback_on_reopen () =
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let a = Server.request_component server (counter_spec ~size:4 ()) in
  Server.start_design server "chip";
  Server.start_transaction server "chip";
  let b = Server.request_component server (counter_spec ~size:6 ()) in
  (* crash with the App B §7 transaction still open: everything inside
     it must be rolled back by recovery *)
  let server2, r = Server.reopen ~verify:false ~workspace:ws () in
  check Alcotest.bool "rollback reported" true r.Server.rr_rolled_back_tx;
  check
    (Alcotest.list Alcotest.string)
    "transaction instance rolled back" [ a.Instance.id ]
    (Server.instance_ids server2);
  check Alcotest.bool "its file was swept" false
    (vhdl_exists server2 b.Instance.id);
  (* a committed transaction is not rolled back *)
  let server3 = Server.create ~verify:false ~durable:true () in
  Server.start_design server3 "chip";
  Server.start_transaction server3 "chip";
  let c = Server.request_component server3 (counter_spec ~size:4 ()) in
  Server.put_in_component_list server3 "chip" c.Instance.id;
  Server.end_transaction server3 "chip";
  let server4, r4 =
    Server.reopen ~verify:false ~workspace:(Server.workspace server3) ()
  in
  check Alcotest.bool "no rollback after commit" false
    r4.Server.rr_rolled_back_tx;
  check
    (Alcotest.list Alcotest.string)
    "kept instance survives" [ c.Instance.id ]
    (Server.instance_ids server4)

let test_corrupt_artifact_dropped () =
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let a = Server.request_component server (counter_spec ~size:4 ()) in
  let b = Server.request_component server (counter_spec ~size:6 ()) in
  (* silently corrupt b's netlist file behind the server's back *)
  Out_channel.with_open_text
    (Filename.concat ws (b.Instance.id ^ ".vhdl"))
    (fun oc -> output_string oc "-- damaged\n");
  let server2, r = Server.reopen ~verify:false ~workspace:ws () in
  check
    (Alcotest.list Alcotest.string)
    "damaged instance dropped, healthy one served" [ a.Instance.id ]
    (Server.instance_ids server2);
  check Alcotest.bool "the drop is reported" true (r.Server.rr_dropped <> [])

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

let test_generator_fallback () =
  with_faults @@ fun () ->
  let server = Server.create ~verify:false () in
  (* the preferred generator fails hard once; the fallback serves *)
  Faultinject.arm Faultinject.Techmap (Faultinject.Fail (1, Fault.Corrupt));
  let inst = Server.request_component server (counter_spec ~size:4 ()) in
  check Alcotest.bool "served degraded" true inst.Instance.degraded;
  check Alcotest.bool "both generators ran" true
    (Faultinject.hits Faultinject.Techmap >= 2);
  check Alcotest.bool "netlist still produced" true
    (Instance.gate_count inst > 0);
  (* degradation is visible through CQL *)
  let results =
    Icdb_cql.Exec.run server
      ~args:[ Icdb_cql.Exec.Astr inst.Instance.id ]
      "command:instance_query;\ngenerated_component:%s;\ndegraded:?s"
  in
  check Alcotest.string "degraded through CQL" "yes"
    (Icdb_cql.Exec.get_string results "degraded");
  (* and it is persisted in the instances table *)
  let tbl = Db.table (Server.db server) "instances" in
  let row =
    List.find
      (fun r -> Table.get r tbl "id" = Value.Str inst.Instance.id)
      (Table.rows tbl)
  in
  check Alcotest.bool "degraded column set" true
    (Table.get row tbl "degraded" = Value.Bool true)

let test_sizing_degrades_to_unsized () =
  with_faults @@ fun () ->
  let server = Server.create ~verify:false () in
  Faultinject.arm Faultinject.Sizing (Faultinject.Fail (1, Fault.Resource));
  let inst = Server.request_component server (counter_spec ~size:4 ()) in
  check Alcotest.bool "served unsized but alive" true inst.Instance.degraded;
  check Alcotest.bool "netlist still produced" true
    (Instance.gate_count inst > 0)

let test_transient_retry () =
  with_faults @@ fun () ->
  let server = Server.create ~verify:false () in
  (* two transient write failures: the bounded retry absorbs them *)
  Faultinject.arm Faultinject.File_write (Faultinject.Fail (2, Fault.Transient));
  let inst = Server.request_component server (counter_spec ~size:4 ()) in
  check Alcotest.bool "not degraded" false inst.Instance.degraded;
  check Alcotest.int "three attempts" 3 (Faultinject.hits Faultinject.File_write);
  check Alcotest.bool "file landed" true (vhdl_exists server inst.Instance.id)

let test_resource_fault_surfaces () =
  with_faults @@ fun () ->
  let server = Server.create ~verify:false () in
  (* a persistent resource failure exhausts the retries and surfaces as
     a classified Icdb_error — not a crash, not a hang *)
  Faultinject.arm Faultinject.File_write (Faultinject.Fail (99, Fault.Resource));
  try
    ignore (Server.request_component server (counter_spec ~size:4 ()));
    Alcotest.fail "expected Icdb_error"
  with Server.Icdb_error msg ->
    check Alcotest.bool "kind in message" true
      (String.length msg > 0
      && String.sub msg 0 8 = "resource")

let () =
  Alcotest.run "recovery"
    [ ( "journal",
        [ Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "checksum" `Quick test_journal_checksum;
          Alcotest.test_case "cursor" `Quick test_journal_cursor;
          Alcotest.test_case "stream_from" `Quick test_journal_stream_from;
          Alcotest.test_case "tail read = full scan" `Quick
            test_journal_tail_read_differential;
          Alcotest.test_case "fault spec" `Quick test_faultinject_spec ] );
      ( "hardening",
        [ Alcotest.test_case "sql quoting" `Quick test_sql_quote;
          Alcotest.test_case "distinct workspaces" `Quick
            test_fresh_workspaces_distinct;
          Alcotest.test_case "delete cleans files" `Quick
            test_delete_instance_files ] );
      ( "reopen",
        [ Alcotest.test_case "durable reopen" `Quick test_durable_reopen;
          Alcotest.test_case "torn tail truncated" `Quick
            test_reopen_torn_tail;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint;
          Alcotest.test_case "corrupt artifact dropped" `Quick
            test_corrupt_artifact_dropped;
          Alcotest.test_case "tx rollback" `Quick test_tx_rollback_on_reopen ] );
      ( "crash sites",
        [ Alcotest.test_case "file write" `Quick test_crash_file_write;
          Alcotest.test_case "journal append" `Quick test_crash_journal_append;
          Alcotest.test_case "expand" `Quick test_crash_expand;
          Alcotest.test_case "techmap" `Quick test_crash_techmap;
          Alcotest.test_case "sizing" `Quick test_crash_sizing ] );
      ( "degradation",
        [ Alcotest.test_case "generator fallback" `Quick
            test_generator_fallback;
          Alcotest.test_case "unsized fallback" `Quick
            test_sizing_degrades_to_unsized;
          Alcotest.test_case "transient retry" `Quick test_transient_retry;
          Alcotest.test_case "resource surfaces" `Quick
            test_resource_fault_surfaces ] ) ]
