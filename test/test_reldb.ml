(* Tests for the relational engine (INGRES substitute). *)

open Icdb_reldb

let check = Alcotest.check
let vint i = Value.Int i
let vstr s = Value.Str s
let vfloat f = Value.Float f
let vbool b = Value.Bool b

let sample_components () =
  let t =
    Table.create "components"
      [ ("name", Value.Tstr); ("size", Value.Tint); ("area", Value.Tfloat);
        ("sequential", Value.Tbool) ]
  in
  Table.insert t [ vstr "counter"; vint 5; vfloat 37.3; vbool true ];
  Table.insert t [ vstr "adder"; vint 8; vfloat 21.0; vbool false ];
  Table.insert t [ vstr "register"; vint 4; vfloat 12.5; vbool true ];
  Table.insert t [ vstr "alu"; vint 8; vfloat 55.0; vbool false ];
  t

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_roundtrip () =
  let values =
    [ vint 42; vint (-7); vfloat 3.25; vfloat (-0.5); vstr "hello";
      vstr "with\nnewline\tand\\slash"; vstr ""; vbool true; vbool false ]
  in
  List.iter
    (fun v ->
      check Alcotest.bool "roundtrip" true
        (Value.equal v (Value.decode (Value.encode v))))
    values

let test_value_equal_across_types () =
  check Alcotest.bool "int<>float" false (Value.equal (vint 1) (vfloat 1.0));
  check Alcotest.bool "str<>bool" false (Value.equal (vstr "true") (vbool true))

let test_value_compare_total () =
  let vs = [ vint 3; vint 1; vfloat 2.0; vstr "b"; vstr "a"; vbool false ] in
  let sorted = List.sort Value.compare vs in
  check Alcotest.int "stable size" (List.length vs) (List.length sorted);
  check Alcotest.bool "ints first, ordered" true
    (match sorted with
     | Value.Int 1 :: Value.Int 3 :: _ -> true
     | _ -> false)

let test_value_escape_injective () =
  let nasty = [ "a\\nb"; "a\nb"; "a\\\nb"; "\\"; "\n"; "" ] in
  let encoded = List.map Value.escape nasty in
  let distinct = List.sort_uniq String.compare encoded in
  check Alcotest.int "no collisions" (List.length nasty) (List.length distinct);
  List.iter
    (fun s -> check Alcotest.string "unescape" s (Value.unescape (Value.escape s)))
    nasty

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_insert_and_rows () =
  let t = sample_components () in
  check Alcotest.int "cardinality" 4 (Table.cardinality t);
  let names =
    List.map (fun r -> Value.to_string (Table.get r t "name")) (Table.rows t)
  in
  check Alcotest.(list string) "insertion order"
    [ "counter"; "adder"; "register"; "alu" ] names

let test_table_type_mismatch () =
  let t = sample_components () in
  Alcotest.check_raises "type error"
    (Table.Schema_error "table components: column size expects int, got string")
    (fun () -> Table.insert t [ vstr "x"; vstr "bad"; vfloat 1.0; vbool true ])

let test_table_arity_mismatch () =
  let t = sample_components () in
  Alcotest.check_raises "arity error"
    (Table.Schema_error "table components: expected 4 values")
    (fun () -> Table.insert t [ vstr "x" ])

let test_table_duplicate_column () =
  Alcotest.check_raises "dup column"
    (Table.Schema_error "table bad: duplicate column a")
    (fun () ->
      ignore (Table.create "bad" [ ("a", Value.Tint); ("a", Value.Tstr) ]))

let test_table_insert_assoc () =
  let t = sample_components () in
  Table.insert_assoc t
    [ ("area", vfloat 9.9); ("name", vstr "mux"); ("sequential", vbool false);
      ("size", vint 2) ];
  check Alcotest.int "inserted" 5 (Table.cardinality t);
  let last = List.nth (Table.rows t) 4 in
  check Alcotest.string "name bound" "mux" (Value.to_string (Table.get last t "name"))

let test_table_insert_assoc_missing () =
  let t = sample_components () in
  Alcotest.check_raises "missing binding"
    (Table.Schema_error "table components: column area not bound")
    (fun () -> Table.insert_assoc t [ ("name", vstr "x"); ("size", vint 1);
                                      ("sequential", vbool true) ])

let test_table_update () =
  let t = sample_components () in
  let n =
    Table.update t
      (fun r -> Table.get r t "size" = vint 8)
      (fun _ -> [ ("area", vfloat 99.0) ])
  in
  check Alcotest.int "two rows updated" 2 n;
  let areas =
    Table.filter t (fun r -> Table.get r t "size" = vint 8)
    |> List.map (fun r -> Table.get r t "area")
  in
  List.iter (fun a -> check Alcotest.bool "updated" true (Value.equal a (vfloat 99.0))) areas

let test_table_delete () =
  let t = sample_components () in
  let n = Table.delete t (fun r -> Table.get r t "sequential" = vbool true) in
  check Alcotest.int "deleted" 2 n;
  check Alcotest.int "remaining" 2 (Table.cardinality t)

let test_table_rows_are_copies () =
  let t = sample_components () in
  (match Table.rows t with
   | row :: _ -> row.(0) <- vstr "clobbered"
   | [] -> Alcotest.fail "expected rows");
  match Table.rows t with
  | row :: _ ->
      check Alcotest.string "unaffected" "counter" (Value.to_string row.(0))
  | [] -> Alcotest.fail "expected rows"

let test_table_copy_restore () =
  let t = sample_components () in
  let snap = Table.copy t in
  ignore (Table.delete t (fun _ -> true));
  check Alcotest.int "emptied" 0 (Table.cardinality t);
  Table.restore t ~from:snap;
  check Alcotest.int "restored" 4 (Table.cardinality t)

(* ------------------------------------------------------------------ *)
(* Query                                                               *)
(* ------------------------------------------------------------------ *)

let rel () = Query.of_table (sample_components ())

let test_query_select_eq () =
  let r = Query.select (Query.Eq ("name", vstr "adder")) (rel ()) in
  check Alcotest.int "one row" 1 (Query.count r)

let test_query_select_numeric_coercion () =
  (* Int column compared against a Float literal must coerce. *)
  let r = Query.select (Query.Ge ("size", vfloat 5.0)) (rel ()) in
  check Alcotest.int "three rows >= 5" 3 (Query.count r)

let test_query_select_and_or_not () =
  let p =
    Query.And
      ( Query.Eq ("sequential", vbool true),
        Query.Not (Query.Eq ("name", vstr "register")) )
  in
  let r = Query.select p (rel ()) in
  check Alcotest.int "only counter" 1 (Query.count r);
  let r2 =
    Query.select
      (Query.Or (Query.Eq ("name", vstr "alu"), Query.Eq ("name", vstr "adder")))
      (rel ())
  in
  check Alcotest.int "two" 2 (Query.count r2)

let test_query_like () =
  let r = Query.select (Query.Like ("name", "der")) (rel ()) in
  check Alcotest.int "adder matches" 1 (Query.count r);
  let r2 = Query.select (Query.Like ("name", "")) (rel ()) in
  check Alcotest.int "empty pattern matches all" 4 (Query.count r2)

let test_query_project_reorders () =
  let r = Query.project [ "area"; "name" ] (rel ()) in
  check Alcotest.(list string) "schema" [ "area"; "name" ]
    (List.map fst r.Query.rschema);
  match r.Query.rrows with
  | row :: _ -> check Alcotest.string "first col is area" "37.3" (Value.to_string row.(0))
  | [] -> Alcotest.fail "rows expected"

let test_query_order_by () =
  let r = Query.order_by "area" (rel ()) in
  let names = Query.column_values r "name" |> List.map Value.to_string in
  check Alcotest.(list string) "ascending area"
    [ "register"; "adder"; "counter"; "alu" ] names;
  let r = Query.order_by "area" ~desc:true (rel ()) in
  let names = Query.column_values r "name" |> List.map Value.to_string in
  check Alcotest.(list string) "descending area"
    [ "alu"; "counter"; "adder"; "register" ] names

let test_query_join () =
  let impls =
    Table.create "impls" [ ("comp", Value.Tstr); ("impl", Value.Tstr) ]
  in
  Table.insert impls [ vstr "counter"; vstr "ripple" ];
  Table.insert impls [ vstr "counter"; vstr "synchronous" ];
  Table.insert impls [ vstr "adder"; vstr "ripple_carry" ];
  let j = Query.join (rel ()) (Query.of_table impls) ~on:("name", "comp") in
  check Alcotest.int "join rows" 3 (Query.count j);
  let impls_of_counter =
    Query.select (Query.Eq ("name", vstr "counter")) j
    |> fun r -> Query.column_values r "impl" |> List.map Value.to_string
  in
  check Alcotest.(list string) "counter impls" [ "ripple"; "synchronous" ]
    impls_of_counter

let test_query_join_name_collision () =
  let other = Table.create "o" [ ("name", Value.Tstr); ("x", Value.Tint) ] in
  Table.insert other [ vstr "adder"; vint 1 ];
  let j = Query.join (rel ()) (Query.of_table other) ~on:("name", "name") in
  let cols = List.map fst j.Query.rschema in
  check Alcotest.bool "disambiguated" true (List.mem "name'" cols)

let test_query_distinct_limit () =
  let t = Table.create "d" [ ("v", Value.Tint) ] in
  List.iter (fun i -> Table.insert t [ vint i ]) [ 1; 2; 2; 3; 1 ];
  let r = Query.distinct (Query.of_table t) in
  check Alcotest.int "distinct" 3 (Query.count r);
  check Alcotest.int "limit" 2 (Query.count (Query.limit 2 r));
  check Alcotest.int "limit 0" 0 (Query.count (Query.limit 0 r))

(* ------------------------------------------------------------------ *)
(* Db: transactions + persistence                                      *)
(* ------------------------------------------------------------------ *)

let mkdb () =
  let db = Db.create () in
  let t = Db.create_table db "comps" [ ("name", Value.Tstr); ("n", Value.Tint) ] in
  Table.insert t [ vstr "a"; vint 1 ];
  Table.insert t [ vstr "b"; vint 2 ];
  db

let test_db_rollback () =
  let db = mkdb () in
  Db.begin_tx db;
  Table.insert (Db.table db "comps") [ vstr "c"; vint 3 ];
  ignore (Db.create_table db "scratch" [ ("x", Value.Tint) ]);
  Db.rollback db;
  check Alcotest.int "insert undone" 2 (Table.cardinality (Db.table db "comps"));
  check Alcotest.bool "created table dropped" true
    (Db.table_opt db "scratch" = None)

let test_db_commit () =
  let db = mkdb () in
  Db.begin_tx db;
  Table.insert (Db.table db "comps") [ vstr "c"; vint 3 ];
  Db.commit db;
  check Alcotest.int "kept" 3 (Table.cardinality (Db.table db "comps"));
  check Alcotest.bool "no tx" false (Db.in_tx db)

let test_db_nested_tx () =
  let db = mkdb () in
  Db.begin_tx db;
  Table.insert (Db.table db "comps") [ vstr "c"; vint 3 ];
  Db.begin_tx db;
  Table.insert (Db.table db "comps") [ vstr "d"; vint 4 ];
  Db.rollback db;
  check Alcotest.int "inner undone" 3 (Table.cardinality (Db.table db "comps"));
  Db.commit db;
  check Alcotest.int "outer kept" 3 (Table.cardinality (Db.table db "comps"))

let test_db_with_tx_exn () =
  let db = mkdb () in
  (try
     Db.with_tx db (fun () ->
         Table.insert (Db.table db "comps") [ vstr "c"; vint 3 ];
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "rolled back on exn" 2 (Table.cardinality (Db.table db "comps"))

let test_db_save_load () =
  let db = mkdb () in
  let t2 = Db.create_table db "delays"
      [ ("port", Value.Tstr); ("wd", Value.Tfloat); ("seq", Value.Tbool) ] in
  Table.insert t2 [ vstr "Q[4]"; vfloat 8.5; vbool true ];
  Table.insert t2 [ vstr "line\nbreak"; vfloat (-1.5); vbool false ];
  let path = Filename.temp_file "icdb_reldb" ".db" in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  check Alcotest.(list string) "tables" [ "comps"; "delays" ] (Db.table_names db');
  check Alcotest.int "rows back" 2 (Table.cardinality (Db.table db' "delays"));
  let rows = Table.rows (Db.table db' "delays") in
  (match rows with
   | [ r1; r2 ] ->
       check Alcotest.string "str" "Q[4]" (Value.to_string r1.(0));
       check Alcotest.string "newline preserved" "line\nbreak" (Value.to_string r2.(0));
       check Alcotest.bool "float" true (Value.equal r1.(1) (vfloat 8.5))
   | _ -> Alcotest.fail "expected 2 rows")

let test_db_missing_table () =
  let db = mkdb () in
  Alcotest.check_raises "no table" (Db.Db_error "no table nope") (fun () ->
      ignore (Db.table db "nope"))

(* ------------------------------------------------------------------ *)
(* Sql                                                                 *)
(* ------------------------------------------------------------------ *)

let sqldb () =
  let db = Db.create () in
  let t =
    Db.create_table db "impls"
      [ ("name", Value.Tstr); ("comp", Value.Tstr); ("size", Value.Tint);
        ("area", Value.Tfloat) ]
  in
  Table.insert t [ vstr "ripple"; vstr "counter"; vint 5; vfloat 17.2 ];
  Table.insert t [ vstr "sync_up"; vstr "counter"; vint 5; vfloat 23.6 ];
  Table.insert t [ vstr "sync_updown"; vstr "counter"; vint 5; vfloat 37.3 ];
  Table.insert t [ vstr "ripple_carry"; vstr "adder"; vint 8; vfloat 21.0 ];
  db

let run_select db q =
  match Sql.exec db q with
  | Sql.Relation r -> r
  | Sql.Affected _ -> Alcotest.fail "expected relation"

let test_sql_select_star () =
  let r = run_select (sqldb ()) "SELECT * FROM impls" in
  check Alcotest.int "all rows" 4 (Query.count r);
  check Alcotest.int "all cols" 4 (List.length r.Query.rschema)

let test_sql_select_where () =
  let r =
    run_select (sqldb ())
      "SELECT name FROM impls WHERE comp = 'counter' AND area < 30.0"
  in
  let names = Query.column_values r "name" |> List.map Value.to_string in
  check Alcotest.(list string) "cheap counters" [ "ripple"; "sync_up" ] names

let test_sql_select_or_parens () =
  let r =
    run_select (sqldb ())
      "SELECT name FROM impls WHERE (comp = 'adder' OR name = 'ripple') AND size >= 5"
  in
  check Alcotest.int "two rows" 2 (Query.count r)

let test_sql_like () =
  let r = run_select (sqldb ()) "SELECT name FROM impls WHERE name LIKE 'sync'" in
  check Alcotest.int "two sync impls" 2 (Query.count r)

let test_sql_order_limit () =
  let r =
    run_select (sqldb ())
      "SELECT name FROM impls WHERE comp = 'counter' ORDER BY area DESC LIMIT 1"
  in
  check Alcotest.(list string) "largest counter" [ "sync_updown" ]
    (Query.column_values r "name" |> List.map Value.to_string)

let test_sql_insert_update_delete () =
  let db = sqldb () in
  (match Sql.exec db "INSERT INTO impls VALUES ('cla', 'adder', 8, 35.5)" with
   | Sql.Affected 1 -> ()
   | _ -> Alcotest.fail "insert");
  (match Sql.exec db "UPDATE impls SET area = 36.0 WHERE name = 'cla'" with
   | Sql.Affected 1 -> ()
   | _ -> Alcotest.fail "update");
  let r = run_select db "SELECT area FROM impls WHERE name = 'cla'" in
  check Alcotest.bool "updated" true
    (Value.equal (List.hd (Query.column_values r "area")) (vfloat 36.0));
  (match Sql.exec db "DELETE FROM impls WHERE comp = 'adder'" with
   | Sql.Affected 2 -> ()
   | _ -> Alcotest.fail "delete");
  let r = run_select db "SELECT * FROM impls" in
  check Alcotest.int "three left" 3 (Query.count r)

let test_sql_case_insensitive_keywords () =
  let r = run_select (sqldb ()) "select name from impls where size > 5" in
  check Alcotest.int "one" 1 (Query.count r)

let test_sql_syntax_error () =
  let db = sqldb () in
  (try
     ignore (Sql.exec db "SELECT FROM");
     Alcotest.fail "should raise"
   with Sql.Sql_error _ -> ())

let test_sql_string_with_spaces () =
  let db = Db.create () in
  let t = Db.create_table db "files" [ ("k", Value.Tstr) ] in
  ignore t;
  (match Sql.exec db "INSERT INTO files VALUES ('a b c.cif')" with
   | Sql.Affected 1 -> ()
   | _ -> Alcotest.fail "insert");
  let r = run_select db "SELECT k FROM files WHERE k = 'a b c.cif'" in
  check Alcotest.int "found" 1 (Query.count r)

(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                   *)
(* ------------------------------------------------------------------ *)

(* The differential that matters everywhere below: the indexed plan and
   the pure scan must return the same rows in the same order. *)
let same_rows tbl p =
  let indexed = (Query.select_table tbl p).Query.rrows in
  let scan = (Query.select p (Query.of_table tbl)).Query.rrows in
  List.length indexed = List.length scan
  && List.for_all2 (fun a b -> Array.for_all2 Value.equal a b) indexed scan

let test_index_basics () =
  let t = sample_components () in
  check Alcotest.bool "no index yet" false (Table.has_index t "size");
  Table.create_index t "size";
  Table.create_index t "size" (* idempotent *);
  check Alcotest.bool "indexed" true (Table.has_index t "size");
  check Alcotest.(list string) "indexed columns" [ "size" ]
    (Table.indexed_columns t);
  check Alcotest.bool "same rows, same order" true
    (same_rows t (Query.Eq ("size", vint 8)));
  (match Table.index_lookup t "size" (vint 8) with
  | Some rows -> check Alcotest.int "bucket" 2 (List.length rows)
  | None -> Alcotest.fail "expected an index hit");
  Table.drop_index t "size";
  check Alcotest.bool "dropped" false (Table.has_index t "size");
  check Alcotest.bool "lookup gone" true (Table.index_lookup t "size" (vint 8) = None)

let test_index_maintenance () =
  let t = sample_components () in
  Table.create_index t "size";
  Table.insert t [ vstr "mux"; vint 8; vfloat 5.0; vbool false ];
  check Alcotest.bool "after insert" true (same_rows t (Query.Eq ("size", vint 8)));
  ignore (Table.delete_one t (fun r -> Table.get r t "name" = vstr "adder"));
  check Alcotest.bool "after delete_one" true (same_rows t (Query.Eq ("size", vint 8)));
  ignore (Table.delete t (fun r -> Table.get r t "sequential" = vbool true));
  check Alcotest.bool "after bulk delete" true (same_rows t (Query.Eq ("size", vint 8)));
  ignore (Table.update t (fun r -> Table.get r t "name" = vstr "alu")
            (fun _ -> [ ("size", vint 4) ]));
  check Alcotest.bool "after update (8)" true (same_rows t (Query.Eq ("size", vint 8)));
  check Alcotest.bool "after update (4)" true (same_rows t (Query.Eq ("size", vint 4)));
  let snap = Table.copy t in
  ignore (Table.delete t (fun _ -> true));
  Table.restore t ~from:snap;
  check Alcotest.bool "after restore" true (same_rows t (Query.Eq ("size", vint 4)))

let test_index_numeric_coercion () =
  let t = sample_components () in
  Table.create_index t "size";
  (* Int column probed with an equal Float must coerce like the scan *)
  check Alcotest.bool "float probe" true (same_rows t (Query.Eq ("size", vfloat 8.0)));
  check Alcotest.bool "non-integral float" true
    (same_rows t (Query.Eq ("size", vfloat 7.5)));
  (* too large to round-trip exactly: the planner must fall back *)
  check Alcotest.bool "huge float falls back" true
    (same_rows t (Query.Eq ("size", vfloat 1e300)));
  (* cross-type probe: empty on both plans, not an error *)
  check Alcotest.bool "string probe" true
    (same_rows t (Query.Eq ("size", vstr "8")))

let test_index_only_eq_conjuncts () =
  let t = sample_components () in
  Table.create_index t "name";
  let p =
    Query.And
      ( Query.Eq ("name", vstr "counter"),
        Query.Gt ("area", vfloat 10.0) )
  in
  check Alcotest.bool "eq under and" true (same_rows t p);
  (* Eq under Or must not be pushed down (it is not a conjunct) *)
  let p2 =
    Query.Or (Query.Eq ("name", vstr "adder"), Query.Gt ("area", vfloat 50.0))
  in
  check Alcotest.bool "eq under or" true (same_rows t p2)

let test_where_unknown_column () =
  let t = sample_components () in
  Alcotest.check_raises "structured error, table named"
    (Table.Schema_error
       "table components: no column nosuch (columns: name, size, area, \
        sequential)")
    (fun () -> ignore (Query.select_table t (Query.Eq ("nosuch", vint 1))));
  (* the empty table reports the same error instead of silently matching
     nothing *)
  let e = Table.create "empty" [ ("a", Value.Tint) ] in
  Alcotest.check_raises "empty table too"
    (Table.Schema_error "table empty: no column b (columns: a)")
    (fun () -> ignore (Query.select_table e (Query.Eq ("b", vint 1))))

(* ------------------------------------------------------------------ *)
(* Pareto queries                                                      *)
(* ------------------------------------------------------------------ *)

let pareto_db () =
  let db = Db.create () in
  let t =
    Db.create_table db "pts"
      [ ("name", Value.Tstr); ("area", Value.Tfloat); ("delay", Value.Tfloat);
        ("grp", Value.Tstr) ]
  in
  List.iter
    (fun (n, a, d, g) -> Table.insert t [ vstr n; vfloat a; vfloat d; vstr g ])
    [ ("a", 1.0, 5.0, "g1"); ("b", 2.0, 3.0, "g1"); ("d", 2.0, 4.0, "g1");
      ("c", 3.0, 1.0, "g1"); ("e", 3.0, 3.5, "g2"); ("f", 2.0, 3.0, "g2") ];
  db

let names r = Query.column_values r "name" |> List.map Value.to_string

let test_sql_pareto () =
  let r = run_select (pareto_db ()) "PARETO pts ON area, delay" in
  (* duplicates of a frontier point stay on the frontier; original
     insertion order is preserved *)
  check Alcotest.(list string) "frontier" [ "a"; "b"; "c"; "f" ] (names r)

let test_sql_dominated_is_complement () =
  let db = pareto_db () in
  let front = run_select db "PARETO pts ON area, delay" in
  let dom = run_select db "DOMINATED pts ON area, delay" in
  check Alcotest.(list string) "dominated" [ "d"; "e" ] (names dom);
  check Alcotest.int "partition" 6 (Query.count front + Query.count dom)

let counter_value name =
  Icdb_obs.Metrics.counter_value (Icdb_obs.Metrics.counter name)

let test_sql_pareto_where_limit () =
  let db = pareto_db () in
  (* restricting to g2 changes the frontier: f dominates e *)
  let stmt = "PARETO pts ON area, delay WHERE grp = 'g2'" in
  let r = run_select db stmt in
  check Alcotest.(list string) "per-group frontier" [ "f" ] (names r);
  let r2 = run_select db "PARETO pts ON area, delay LIMIT 2" in
  check Alcotest.(list string) "limit after frontier" [ "a"; "b" ] (names r2);
  (* indexed ≡ scan: one probe of the grp index finds the same frontier *)
  ignore (Sql.exec db "CREATE INDEX ON pts (grp)");
  let hits = counter_value "reldb.index.pts.grp.hits" in
  check Alcotest.(list string) "indexed frontier" (names r)
    (names (run_select db stmt));
  check Alcotest.int "one index probe" (hits + 1)
    (counter_value "reldb.index.pts.grp.hits")

let test_sql_pareto_non_numeric () =
  try
    ignore (Sql.exec (pareto_db ()) "PARETO pts ON name, delay");
    Alcotest.fail "should raise"
  with Table.Schema_error msg ->
    check Alcotest.bool "names the table and objective" true
      (String.length msg > 0
      && String.sub msg 0 9 = "table pts")

let test_sql_create_drop_index () =
  let db = pareto_db () in
  (match Sql.exec db "CREATE INDEX ON pts (grp)" with
  | Sql.Affected 0 -> ()
  | _ -> Alcotest.fail "create index");
  check Alcotest.bool "table indexed" true (Table.has_index (Db.table db "pts") "grp");
  let r = run_select db "SELECT name FROM pts WHERE grp = 'g2'" in
  check Alcotest.(list string) "served by index" [ "e"; "f" ] (names r);
  (match Sql.exec db "DROP INDEX ON pts (grp)" with
  | Sql.Affected 0 -> ()
  | _ -> Alcotest.fail "drop index");
  check Alcotest.bool "dropped" false (Table.has_index (Db.table db "pts") "grp")

let test_sql_where_unknown_column_message () =
  try
    ignore (Sql.exec (pareto_db ()) "SELECT * FROM pts WHERE nope = 1");
    Alcotest.fail "should raise"
  with Table.Schema_error msg ->
    check Alcotest.string "structured error"
      "table pts: no column nope (columns: name, area, delay, grp)" msg

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Query observability: EXPLAIN, ANALYZE, QUERY STATS                  *)
(* ------------------------------------------------------------------ *)

let plan_lines db stmt =
  List.map
    (fun row ->
      match row.(0) with Value.Str s -> s | v -> Value.to_string v)
    (run_select db stmt).Query.rrows

(* The rendered plan text is a stable, golden surface: CI greps and the
   docs both quote it verbatim. *)
let test_explain_golden () =
  let db = sqldb () in
  check Alcotest.(list string) "scan plan"
    [ "Seq Scan on impls"; "  Filter: comp = 'counter'"; "  Project: name" ]
    (plan_lines db "EXPLAIN SELECT name FROM impls WHERE comp = 'counter'");
  ignore (Sql.exec db "CREATE INDEX ON impls (comp)");
  check Alcotest.(list string) "indexed plan"
    [ "Index Probe on impls comp = 'counter' (est 3 rows via bucket)";
      "  Filter: comp = 'counter'"; "  Project: name" ]
    (plan_lines db "EXPLAIN SELECT name FROM impls WHERE comp = 'counter'");
  check Alcotest.(list string) "decorated plan"
    [ "Index Probe on impls comp = 'counter' (est 3 rows via bucket)";
      "  Filter: comp = 'counter'"; "  Sort: area DESC"; "  Limit: 2";
      "  Project: name" ]
    (plan_lines db
       "EXPLAIN SELECT name FROM impls WHERE comp = 'counter' \
        ORDER BY area DESC LIMIT 2");
  check Alcotest.(list string) "frontier plan"
    [ "Seq Scan on impls"; "  Pareto Frontier: minimize (size, area)" ]
    (plan_lines db "EXPLAIN PARETO impls ON size, area");
  (* a typo'd column must be an error, not a plausible plan *)
  check Alcotest.bool "unknown column rejected" true
    (match Sql.exec db "EXPLAIN SELECT name FROM impls WHERE nope = 1" with
     | exception Table.Schema_error _ -> true
     | _ -> false);
  (* EXPLAIN reads no rows, so projection and ORDER BY columns must be
     validated at plan time too — not only when a stage executes *)
  check Alcotest.bool "unknown projection rejected" true
    (match Sql.exec db "EXPLAIN SELECT nope FROM impls" with
     | exception Table.Schema_error _ -> true
     | _ -> false);
  check Alcotest.bool "unknown order-by rejected" true
    (match Sql.exec db "EXPLAIN SELECT name FROM impls ORDER BY nope" with
     | exception Table.Schema_error _ -> true
     | _ -> false)

let test_explain_analyze_actuals () =
  let db = sqldb () in
  ignore (Sql.exec db "CREATE INDEX ON impls (comp)");
  let lines =
    plan_lines db
      "EXPLAIN ANALYZE SELECT name FROM impls WHERE comp = 'counter'"
  in
  let contains needle hay =
    let nn = String.length needle and nh = String.length hay in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.int "three steps" 3 (List.length lines);
  List.iter
    (fun l -> check Alcotest.bool ("actuals on: " ^ l) true (contains "actual" l))
    lines;
  (* 4 rows considered, 3 in the comp='counter' bucket, 3 survive *)
  check Alcotest.bool "probe actuals" true
    (contains "(actual 4 -> 3 rows," (List.nth lines 0));
  check Alcotest.bool "filter actuals" true
    (contains "(actual 3 -> 3 rows," (List.nth lines 1))

let test_sql_analyze_stats () =
  let db = sqldb () in
  (match Sql.exec db "ANALYZE impls" with
   | Sql.Affected 1 -> ()
   | _ -> Alcotest.fail "ANALYZE impls should report 1 table");
  let st =
    match Table.stats (Db.table db "impls") with
    | Some st -> st
    | None -> Alcotest.fail "no stats installed"
  in
  check Alcotest.int "row count" 4 st.Table.st_rows;
  let col name =
    List.find (fun c -> c.Table.cs_column = name) st.Table.st_cols
  in
  check Alcotest.int "comp distinct" 2 (col "comp").Table.cs_distinct;
  check Alcotest.int "name distinct" 4 (col "name").Table.cs_distinct;
  check Alcotest.(float 1e-9) "no nulls" 0.0 (col "comp").Table.cs_null_frac;
  check Alcotest.bool "size min/max" true
    (match (col "size").Table.cs_min, (col "size").Table.cs_max with
     | Some (Value.Int 5), Some (Value.Int 8) -> true
     | _ -> false);
  (* empty strings count as nulls; stats refresh on re-ANALYZE *)
  Table.insert (Db.table db "impls")
    [ vstr ""; vstr "counter"; vint 5; vfloat 1.0 ];
  ignore (Sql.exec db "ANALYZE impls");
  let st2 = Option.get (Table.stats (Db.table db "impls")) in
  let name2 = List.find (fun c -> c.Table.cs_column = "name") st2.Table.st_cols in
  check Alcotest.(float 1e-9) "null fraction" 0.2 name2.Table.cs_null_frac

(* Two candidate equality indexes, very different selectivity: before
   ANALYZE the planner ranks exact bucket lengths, after ANALYZE the
   statistics estimates — either way the probe must go through the
   selective column, and the per-index hit counters prove which index
   actually served it. *)
let test_stats_driven_choice () =
  let db = Db.create () in
  let t =
    Db.create_table db "pts" [ ("grp", Value.Tstr); ("key", Value.Tstr) ]
  in
  for i = 0 to 99 do
    Table.insert t
      [ vstr (Printf.sprintf "g%d" (i mod 2));
        vstr (Printf.sprintf "k%d" (i mod 50)) ]
  done;
  ignore (Sql.exec db "CREATE INDEX ON pts (grp)");
  ignore (Sql.exec db "CREATE INDEX ON pts (key)");
  let stmt = "SELECT * FROM pts WHERE grp = 'g1' AND key = 'k7'" in
  let plan_line () = List.hd (plan_lines db ("EXPLAIN " ^ stmt)) in
  check Alcotest.string "bucket-ranked probe"
    "Index Probe on pts key = 'k7' (est 2 rows via bucket)" (plan_line ());
  ignore (Sql.exec db "ANALYZE pts");
  check Alcotest.string "stats-ranked probe"
    "Index Probe on pts key = 'k7' (est 2 rows via stats)" (plan_line ());
  let key_b = counter_value "reldb.index.pts.key.hits" in
  let grp_b = counter_value "reldb.index.pts.grp.hits" in
  let indexed = run_select db stmt in
  check Alcotest.int "key index served the probe" (key_b + 1)
    (counter_value "reldb.index.pts.key.hits");
  check Alcotest.int "grp index untouched" grp_b
    (counter_value "reldb.index.pts.grp.hits");
  ignore (Sql.exec db "DROP INDEX ON pts (grp)");
  ignore (Sql.exec db "DROP INDEX ON pts (key)");
  let scanned = run_select db stmt in
  check Alcotest.int "same count as scan" (Query.count scanned)
    (Query.count indexed);
  check Alcotest.bool "same rows as scan" true
    (List.for_all2
       (fun a b -> Array.for_all2 Value.equal a b)
       indexed.Query.rrows scanned.Query.rrows)

let test_query_stats_sql () =
  let db = sqldb () in
  ignore (Sql.exec db "QUERY STATS RESET");
  let stmt = "SELECT name FROM impls WHERE comp = 'counter'" in
  ignore (Sql.exec db stmt);
  ignore (Sql.exec db "SELECT name FROM impls WHERE comp = 'adder'");
  let r = run_select db "QUERY STATS" in
  check Alcotest.(list string) "columns"
    [ "fingerprint"; "plan"; "calls"; "rows"; "total_ms"; "max_ms" ]
    (List.map fst r.Query.rschema);
  (* both literals normalize to one fingerprint with two calls *)
  check Alcotest.int "one statement" 1 (Query.count r);
  let row = List.hd r.Query.rrows in
  check Alcotest.bool "normalized fingerprint" true
    (Value.equal row.(0) (vstr (Sql.fingerprint stmt)));
  check Alcotest.bool "two calls" true (Value.equal row.(2) (vint 2));
  (* 3 counter rows + 1 adder row flowed through it *)
  check Alcotest.bool "rows aggregated" true (Value.equal row.(3) (vint 4));
  check Alcotest.bool "plan label" true
    (Value.equal row.(1) (vstr "scan(impls)"));
  (* reading the stats plane does not pollute it; RESET empties it *)
  check Alcotest.int "QUERY STATS not self-recorded" 1
    (Query.count (run_select db "QUERY STATS"));
  (match Sql.exec db "QUERY STATS RESET" with
   | Sql.Affected 1 -> ()
   | _ -> Alcotest.fail "RESET should report 1 dropped statement");
  check Alcotest.int "empty after reset" 0
    (Query.count (run_select db "QUERY STATS"))

let value_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1000.0);
        map (fun s -> Value.Str s) (string_size (int_bound 12));
        map (fun b -> Value.Bool b) bool ])

let arb_value = QCheck.make ~print:Value.to_string value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value encode/decode roundtrip" ~count:500 arb_value
    (fun v -> Value.equal v (Value.decode (Value.encode v)))

let prop_compare_reflexive =
  QCheck.Test.make ~name:"value compare reflexive" ~count:200 arb_value
    (fun v -> Value.compare v v = 0)

let prop_compare_antisym =
  QCheck.Test.make ~name:"value compare antisymmetric" ~count:500
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      Value.compare a b = -Value.compare b a)

let prop_select_idempotent =
  QCheck.Test.make ~name:"select idempotent" ~count:100
    QCheck.(list_of_size Gen.(int_bound 20) (pair small_int (string_gen_of_size Gen.(int_bound 8) Gen.printable)))
    (fun rows ->
      let t = Table.create "p" [ ("n", Value.Tint); ("s", Value.Tstr) ] in
      List.iter (fun (n, s) -> Table.insert t [ vint n; vstr s ]) rows;
      let p = Query.Gt ("n", vint 10) in
      let r1 = Query.select p (Query.of_table t) in
      let r2 = Query.select p r1 in
      Query.count r1 = Query.count r2)

let prop_project_preserves_count =
  QCheck.Test.make ~name:"project preserves row count" ~count:100
    QCheck.(list_of_size Gen.(int_bound 20) small_int)
    (fun ns ->
      let t = Table.create "p" [ ("n", Value.Tint); ("m", Value.Tint) ] in
      List.iter (fun n -> Table.insert t [ vint n; vint (n * 2) ]) ns;
      let r = Query.of_table t in
      Query.count (Query.project [ "m" ] r) = Query.count r)

let prop_save_load_identity =
  QCheck.Test.make ~name:"db save/load identity" ~count:50
    QCheck.(list_of_size Gen.(int_bound 15)
              (pair (string_gen_of_size Gen.(int_bound 8) Gen.printable) small_int))
    (fun rows ->
      let db = Db.create () in
      let t = Db.create_table db "t" [ ("s", Value.Tstr); ("n", Value.Tint) ] in
      List.iter (fun (s, n) -> Table.insert t [ vstr s; vint n ]) rows;
      let path = Filename.temp_file "icdb_prop" ".db" in
      Db.save db path;
      let db' = Db.load path in
      Sys.remove path;
      let r = Query.of_table (Db.table db' "t") in
      let orig = Query.of_table t in
      Query.count r = Query.count orig
      && List.for_all2
           (fun a b -> Array.for_all2 Value.equal a b)
           orig.Query.rrows r.Query.rrows)

(* The index differential, end to end: randomized inserts and deletes
   against a journaled, indexed table; a fault-injected crash partway
   through the tail (the same ICDB_FAULT machinery icdbd uses, spec
   "journal_append:crash:N"); recovery by journal replay into a fresh
   process image; indexes re-declared (they are derived state, never
   journaled). At every stage, for every probe value — including the
   Int/Float coercion edges the planner special-cases — the indexed plan
   must return exactly what the scan returns. *)
let prop_indexed_equals_scan =
  let probes =
    [ vint 0; vint 3; vint 7; vfloat 0.0; vfloat 3.0; vfloat 2.5;
      vfloat 1e300; vstr "3" ]
  in
  let all_probes_agree tbl =
    List.for_all (fun v -> same_rows tbl (Query.Eq ("n", v))) probes
    && same_rows tbl
         (Query.And (Query.Eq ("n", vint 3), Query.Gt ("n", vint (-1))))
  in
  (* the plan kind EXPLAIN reports must be the plan that then executes:
     an Index Probe plan bumps exactly the indexed counter, a Seq Scan
     plan exactly the scan counter *)
  let plan_kind_matches db =
    let stmt = "SELECT * FROM t WHERE n = 3" in
    match Sql.exec_explained db ("EXPLAIN " ^ stmt) with
    | _, None -> false
    | _, Some plan -> (
        let ix0 = counter_value "reldb.select.indexed"
        and sc0 = counter_value "reldb.select.scan" in
        ignore (Sql.exec db stmt);
        let ix = counter_value "reldb.select.indexed" - ix0
        and sc = counter_value "reldb.select.scan" - sc0 in
        match plan.Plan.p_kind with
        | `Indexed -> ix = 1 && sc = 0
        | `Scan -> ix = 0 && sc = 1)
  in
  QCheck.Test.make
    ~name:"indexed select = scan across insert/delete/crash/replay" ~count:40
    QCheck.(
      triple
        (list_of_size Gen.(int_bound 25)
           (pair (int_bound 8) (string_gen_of_size Gen.(int_bound 4) Gen.printable)))
        (list_of_size Gen.(int_bound 8) (int_bound 8))
        (pair
           (list_of_size Gen.(int_bound 8)
              (pair (int_bound 8) (string_gen_of_size Gen.(int_bound 4) Gen.printable)))
           (int_bound 5)))
    (fun (inserts, deletes, (tail, crash_after)) ->
      let dir = Filename.temp_file "icdb_ixprop" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let jpath = Filename.concat dir "t.journal" in
      Fun.protect
        ~finally:(fun () ->
          Journal.append_hook := (fun () -> ());
          Icdb.Faultinject.reset ();
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir)
      @@ fun () ->
      let db = Db.create () in
      let j = Journal.open_append jpath in
      Db.attach_journal db j;
      (* create through the journal so replay can rebuild the table *)
      let tbl = Db.create_table db "t" [ ("n", Value.Tint); ("s", Value.Tstr) ] in
      Table.create_index tbl "n";
      List.iter (fun (n, s) -> Db.insert db "t" [ vint n; vstr s ]) inserts;
      List.iter
        (fun n ->
          ignore (Db.delete_where db "t" (fun r -> Value.equal r.(0) (vint n))))
        deletes;
      let live_ok = all_probes_agree tbl && plan_kind_matches db in
      (* crash partway through the tail writes, through the fault plane *)
      Journal.append_hook :=
        (fun () -> Icdb.Faultinject.hit Icdb.Faultinject.Journal_append);
      Icdb.Faultinject.arm_from_spec
        (Printf.sprintf "journal_append:crash:%d" (crash_after + 1));
      let crashed =
        try
          List.iter (fun (n, s) -> Db.insert db "t" [ vint n; vstr s ]) tail;
          false
        with Icdb.Faultinject.Crash _ -> true
      in
      Icdb.Faultinject.reset ();
      Journal.append_hook := (fun () -> ());
      ignore crashed;
      Journal.close j;
      (* reopen as a recovery would: replay, then re-declare the index *)
      let db2, _report = Db.recover ~journal_path:jpath () in
      let tbl2 = Db.table db2 "t" in
      let pre_index_rows = Table.cardinality tbl2 in
      Table.create_index tbl2 "n";
      live_ok && all_probes_agree tbl2 && plan_kind_matches db2
      && Table.cardinality tbl2 = pre_index_rows)

let props = List.map QCheck_alcotest.to_alcotest
    [ prop_value_roundtrip; prop_compare_reflexive; prop_compare_antisym;
      prop_select_idempotent; prop_project_preserves_count;
      prop_save_load_identity; prop_indexed_equals_scan ]

let () =
  Alcotest.run "reldb"
    [ ("value",
       [ Alcotest.test_case "encode/decode roundtrip" `Quick test_value_roundtrip;
         Alcotest.test_case "no cross-type equality" `Quick test_value_equal_across_types;
         Alcotest.test_case "total order" `Quick test_value_compare_total;
         Alcotest.test_case "escape injective" `Quick test_value_escape_injective ]);
      ("table",
       [ Alcotest.test_case "insert and rows" `Quick test_table_insert_and_rows;
         Alcotest.test_case "type mismatch" `Quick test_table_type_mismatch;
         Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
         Alcotest.test_case "duplicate column" `Quick test_table_duplicate_column;
         Alcotest.test_case "insert_assoc" `Quick test_table_insert_assoc;
         Alcotest.test_case "insert_assoc missing" `Quick test_table_insert_assoc_missing;
         Alcotest.test_case "update" `Quick test_table_update;
         Alcotest.test_case "delete" `Quick test_table_delete;
         Alcotest.test_case "rows are copies" `Quick test_table_rows_are_copies;
         Alcotest.test_case "copy/restore" `Quick test_table_copy_restore ]);
      ("query",
       [ Alcotest.test_case "select eq" `Quick test_query_select_eq;
         Alcotest.test_case "numeric coercion" `Quick test_query_select_numeric_coercion;
         Alcotest.test_case "and/or/not" `Quick test_query_select_and_or_not;
         Alcotest.test_case "like" `Quick test_query_like;
         Alcotest.test_case "project reorders" `Quick test_query_project_reorders;
         Alcotest.test_case "order_by" `Quick test_query_order_by;
         Alcotest.test_case "join" `Quick test_query_join;
         Alcotest.test_case "join name collision" `Quick test_query_join_name_collision;
         Alcotest.test_case "distinct/limit" `Quick test_query_distinct_limit ]);
      ("db",
       [ Alcotest.test_case "rollback" `Quick test_db_rollback;
         Alcotest.test_case "commit" `Quick test_db_commit;
         Alcotest.test_case "nested tx" `Quick test_db_nested_tx;
         Alcotest.test_case "with_tx exn" `Quick test_db_with_tx_exn;
         Alcotest.test_case "save/load" `Quick test_db_save_load;
         Alcotest.test_case "missing table" `Quick test_db_missing_table ]);
      ("sql",
       [ Alcotest.test_case "select star" `Quick test_sql_select_star;
         Alcotest.test_case "select where" `Quick test_sql_select_where;
         Alcotest.test_case "or/parens" `Quick test_sql_select_or_parens;
         Alcotest.test_case "like" `Quick test_sql_like;
         Alcotest.test_case "order/limit" `Quick test_sql_order_limit;
         Alcotest.test_case "insert/update/delete" `Quick test_sql_insert_update_delete;
         Alcotest.test_case "case-insensitive keywords" `Quick test_sql_case_insensitive_keywords;
         Alcotest.test_case "syntax error" `Quick test_sql_syntax_error;
         Alcotest.test_case "string with spaces" `Quick test_sql_string_with_spaces ]);
      ("index",
       [ Alcotest.test_case "create/lookup/drop" `Quick test_index_basics;
         Alcotest.test_case "maintenance through mutation" `Quick test_index_maintenance;
         Alcotest.test_case "numeric coercion at the probe" `Quick test_index_numeric_coercion;
         Alcotest.test_case "only eq conjuncts push down" `Quick test_index_only_eq_conjuncts;
         Alcotest.test_case "unknown WHERE column is an error" `Quick test_where_unknown_column ]);
      ("pareto",
       [ Alcotest.test_case "frontier with ties" `Quick test_sql_pareto;
         Alcotest.test_case "dominated is the complement" `Quick test_sql_dominated_is_complement;
         Alcotest.test_case "where + limit" `Quick test_sql_pareto_where_limit;
         Alcotest.test_case "non-numeric objective" `Quick test_sql_pareto_non_numeric;
         Alcotest.test_case "create/drop index statements" `Quick test_sql_create_drop_index;
         Alcotest.test_case "unknown column names the table" `Quick test_sql_where_unknown_column_message ]);
      ("queryobs",
       [ Alcotest.test_case "golden EXPLAIN text" `Quick test_explain_golden;
         Alcotest.test_case "EXPLAIN ANALYZE actuals" `Quick test_explain_analyze_actuals;
         Alcotest.test_case "ANALYZE statistics values" `Quick test_sql_analyze_stats;
         Alcotest.test_case "statistics-driven index choice" `Quick test_stats_driven_choice;
         Alcotest.test_case "QUERY STATS aggregation/reset" `Quick test_query_stats_sql ]);
      ("properties", props) ]
