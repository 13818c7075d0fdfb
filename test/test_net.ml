(* Network layer tests: the wire codec round-trips every request and
   response shape; malformed, truncated, oversized and wrong-version
   frames classify as the protocol promises; and an in-process icdbd
   serves the full CQL command set to concurrent clients, survives
   garbage frames, enforces admission control, and loses no journaled
   writes across a graceful shutdown. *)

open Icdb
open Icdb_net

let check = Alcotest.check

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let strip_header s = String.sub s 4 (String.length s - 4)

let rt_req ?(id = 7) ?ctx body =
  let bytes = Wire.encode_request ?ctx { Wire.id; body } in
  match Wire.decode_request (strip_header bytes) with
  | Ok (f, c) -> (f, c)
  | Error e -> Alcotest.failf "decode_request: %s" (Wire.decode_error_to_string e)

let rt_resp ?(id = 7) body =
  let bytes = Wire.encode_response { Wire.id; body } in
  match Wire.decode_response (strip_header bytes) with
  | Ok f -> f
  | Error e -> Alcotest.failf "decode_response: %s" (Wire.decode_error_to_string e)

let test_request_roundtrip () =
  let reqs =
    [ Wire.Ping;
      Wire.Cql { text = "command:function_query; function:(INC); component:?s[]";
                 args = [] };
      Wire.Cql
        { text = "command:instance_query; instance:%s; delay:?s";
          args =
            [ Icdb_cql.Exec.Astr "counter_1"; Icdb_cql.Exec.Aint (-42);
              Icdb_cql.Exec.Afloat 1.5e-9;
              Icdb_cql.Exec.Astrs [ "a"; ""; "tab\there\nnewline" ] ] };
      Wire.Sql "SELECT name FROM components";
      Wire.Stats;
      Wire.Trace_fetch "cli42.7";
      Wire.Subscribe { cursor = 0 };
      Wire.Subscribe { cursor = 0x7edc_ba98_7654 };
      Wire.Subscribe { cursor = -1 };
      Wire.Shutdown ]
  in
  List.iter
    (fun body ->
      let f, c = rt_req body in
      check Alcotest.int "id" 7 f.Wire.id;
      check Alcotest.bool "body round-trips" true (f.Wire.body = body);
      check Alcotest.bool "default ctx" true (c = Wire.no_ctx))
    reqs;
  (* ids survive at full width and at zero *)
  let f, _ = rt_req ~id:0x1234_5678_9abc Wire.Ping in
  check Alcotest.int "wide id" 0x1234_5678_9abc f.Wire.id;
  let f, _ = rt_req ~id:0 Wire.Ping in
  check Alcotest.int "zero id" 0 f.Wire.id

let test_ctx_roundtrip () =
  (* every request kind carries its context in the same fixed slot *)
  let ctx = { Wire.trace_id = "cli42.7"; timeout_s = 2.5 } in
  List.iter
    (fun body ->
      let _, c = rt_req ~ctx body in
      check Alcotest.bool "ctx round-trips" true (c = ctx))
    [ Wire.Ping; Wire.Stats; Wire.Trace_fetch "x"; Wire.Shutdown;
      Wire.Sql "SELECT 1";
      Wire.Cql { text = "command:stats"; args = [] } ];
  (* partial contexts: only a trace id, only a deadline *)
  let _, c = rt_req ~ctx:{ Wire.trace_id = "t"; timeout_s = 0.0 } Wire.Ping in
  check Alcotest.bool "trace-only ctx" true
    (c.Wire.trace_id = "t" && c.Wire.timeout_s = 0.0);
  let _, c = rt_req ~ctx:{ Wire.trace_id = ""; timeout_s = 0.25 } Wire.Ping in
  check Alcotest.bool "deadline-only ctx" true
    (c.Wire.trace_id = "" && c.Wire.timeout_s = 0.25)

let all_error_codes =
  [ Wire.Parse_error; Wire.Exec_error; Wire.Sql_error; Wire.Protocol_error;
    Wire.Version_mismatch; Wire.Overloaded; Wire.Timeout; Wire.Shutting_down;
    Wire.Internal; Wire.Read_only ]

let test_response_roundtrip () =
  let resps =
    [ Wire.Pong;
      Wire.Results [];
      Wire.Results
        [ ("instance", Icdb_cql.Exec.Rstr "counter_1");
          ("gates", Icdb_cql.Exec.Rint 57);
          ("negative", Icdb_cql.Exec.Rint (-3));
          ("clock_width", Icdb_cql.Exec.Rfloat 29.0625);
          ("tiny", Icdb_cql.Exec.Rfloat 1.5e-9);
          ("component", Icdb_cql.Exec.Rstrs [ "counter"; "alu" ]);
          ("empty_list", Icdb_cql.Exec.Rstrs []);
          ("empty_str", Icdb_cql.Exec.Rstr "") ];
      Wire.Sql_result (Wire.Affected 42);
      Wire.Sql_result (Wire.Relation { cols = []; rows = [] });
      Wire.Sql_result
        (Wire.Relation
           { cols = [ "name"; "area" ];
             rows = [ [ "adder"; "35.5" ]; [ "counter"; "" ] ] });
      Wire.Stats_report
        { Wire.sp_text = "server cache: 1 hits";
          sp_counters = [ ("net.requests", 3); ("cache.miss", 1) ];
          sp_gauges = [ ("net.connections", 2.0) ];
          sp_hists =
            [ { Wire.hs_name = "net.cql.request_component"; hs_count = 4;
                hs_sum = 0.25; hs_min = 0.01; hs_max = 0.2; hs_p50 = 0.02;
                hs_p90 = 0.19; hs_p99 = 0.2 } ];
          sp_slow =
            [ { Wire.sl_cmd = "net.cql.request_component"; sl_trace = "cli1.1";
                sl_conn = 3; sl_seconds = 1.75; sl_cache = "miss";
                sl_phases = [ ("synth", 1.5); ("verify", 0.2) ];
                sl_plan = "" };
              { Wire.sl_cmd = "net.sql"; sl_trace = ""; sl_conn = 4;
                sl_seconds = 1.01; sl_cache = "-"; sl_phases = [];
                sl_plan = "indexed(instances.component)" } ] };
      Wire.Stats_report
        { Wire.sp_text = ""; sp_counters = []; sp_gauges = []; sp_hists = [];
          sp_slow = [] };
      Wire.Spans [];
      Wire.Spans
        [ { Wire.rs_id = 1; rs_parent = None; rs_name = "net.request";
            rs_tag = "cli1.1"; rs_start_ns = 12345; rs_dur_ns = 6789;
            rs_attrs = [ ("cmd", "request_component"); ("conn", "3") ] };
          { Wire.rs_id = 2; rs_parent = Some 1; rs_name = "gen.synthesize";
            rs_tag = "cli1.1"; rs_start_ns = 12400; rs_dur_ns = 500;
            rs_attrs = [] } ];
      Wire.Bye;
      (* v3 replication stream frames *)
      Wire.Journal_batch
        { jb_first = 0; jb_next = 0; jb_records = []; jb_files = [] };
      Wire.Journal_batch
        { jb_first = 41; jb_next = 44;
          jb_records = [ "a1b2c3d4\tI\tinstances\tx"; "00000000\tD\tt\ty";
                         "" ];
          jb_files =
            [ ("c1.vhdl", "entity c1 is\nend;\n"); ("empty.iif", "");
              ("bin", String.init 256 Char.chr) ] };
      Wire.Checkpoint_offer { co_cursor = 0; co_files = 0 };
      Wire.Checkpoint_offer { co_cursor = 0x7edc_ba98_7654; co_files = 12 };
      Wire.Checkpoint_chunk { cc_name = "icdb.snapshot"; cc_data = ""; cc_last = true };
      Wire.Checkpoint_chunk
        { cc_name = "c1.vhdl"; cc_data = String.init 256 Char.chr;
          cc_last = false };
      Wire.Repl_error "";
      Wire.Repl_error "cursor left the journal window" ]
    @ List.map
        (fun code -> Wire.Error { code; message = "why: \"quoted\"\n" })
        all_error_codes
  in
  List.iter
    (fun body ->
      let f = rt_resp body in
      check Alcotest.int "id" 7 f.Wire.id;
      check Alcotest.bool "body round-trips" true (f.Wire.body = body))
    resps

let test_float_bits_roundtrip () =
  (* floats cross the wire as IEEE-754 bits, so they come back exact *)
  List.iter
    (fun v ->
      match (rt_resp (Wire.Results [ ("x", Icdb_cql.Exec.Rfloat v) ])).Wire.body with
      | Wire.Results [ ("x", Icdb_cql.Exec.Rfloat v') ] ->
          check Alcotest.bool "bit-exact" true
            (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
      | _ -> Alcotest.fail "shape changed in flight")
    [ 0.1; -0.0; Float.max_float; Float.min_float; epsilon_float; 1e300 ]

(* ------------------------------------------------------------------ *)
(* Decode-error classification                                         *)
(* ------------------------------------------------------------------ *)

let test_decode_malformed () =
  (* a too-short payload cannot even carry a header *)
  (match Wire.decode_request "\x01" with
   | Error (Wire.Malformed { id = None; _ }) -> ()
   | _ -> Alcotest.fail "short payload should be Malformed without an id");
  (* an unknown kind byte inside a well-formed header salvages the id *)
  let good = strip_header (Wire.encode_request { Wire.id = 99; body = Wire.Ping }) in
  let bad_kind = Bytes.of_string good in
  Bytes.set bad_kind 1 '\xee';
  (match Wire.decode_request (Bytes.to_string bad_kind) with
   | Error (Wire.Malformed { id = Some 99; _ }) -> ()
   | _ -> Alcotest.fail "unknown kind should be Malformed with salvaged id");
  (* a response kind byte on the request side is Malformed, not misparsed *)
  let resp = strip_header (Wire.encode_response { Wire.id = 5; body = Wire.Pong }) in
  (match Wire.decode_request resp with
   | Error (Wire.Malformed { id = Some 5; _ }) -> ()
   | _ -> Alcotest.fail "response kind on request side should be Malformed");
  (* a string length running past the payload end is caught *)
  let sql = strip_header (Wire.encode_request { Wire.id = 3; body = Wire.Sql "SELECT" }) in
  let truncated_body = String.sub sql 0 (String.length sql - 2) in
  match Wire.decode_request truncated_body with
  | Error (Wire.Malformed { id = Some 3; _ }) -> ()
  | _ -> Alcotest.fail "short string body should be Malformed"

let test_decode_bad_version () =
  (* every version byte but [Wire.protocol_version] is the recoverable
     Bad_version, with the id salvaged so the server can answer it —
     never Malformed, which would report an old peer as sending
     garbage. 3 and 4 are the stamps older builds put on most kinds. *)
  let restamp bytes v =
    let b = Bytes.of_string (strip_header bytes) in
    Bytes.set_uint8 b 0 v;
    Bytes.to_string b
  in
  let ping = Wire.encode_request { Wire.id = 21; body = Wire.Ping } in
  let pong = Wire.encode_response { Wire.id = 21; body = Wire.Pong } in
  let expect what v = function
    | Error (Wire.Bad_version { id = Some 21; got }) when got = v -> ()
    | Error e ->
        Alcotest.failf "%s stamped %d: %s" what v
          (Wire.decode_error_to_string e)
    | Ok () -> Alcotest.failf "%s stamped %d decoded" what v
  in
  List.iter
    (fun v ->
      expect "request" v
        (Result.map ignore (Wire.decode_request (restamp ping v)));
      expect "response" v
        (Result.map ignore (Wire.decode_response (restamp pong v))))
    [ 0; 1; 2; 3; 4; 6; 255 ]

let test_decode_v1_recoverable () =
  (* a pre-context (v1) frame must classify as Bad_version — with the
     id salvaged so the server can answer it — never as Malformed,
     which would misreport an old client as sending garbage *)
  let good = strip_header (Wire.encode_request { Wire.id = 11; body = Wire.Ping }) in
  let b = Bytes.of_string good in
  Bytes.set b 0 '\x01';
  match Wire.decode_request (Bytes.to_string b) with
  | Error (Wire.Bad_version { id = Some 11; got = 1 }) -> ()
  | Error e ->
      Alcotest.failf "v1 frame should be Bad_version, got %s"
        (Wire.decode_error_to_string e)
  | Ok _ -> Alcotest.fail "v1 frame should not decode as the current version"

(* ------------------------------------------------------------------ *)
(* Golden frame bytes                                                  *)
(* ------------------------------------------------------------------ *)

(* One row per frame kind: a value, whether it decodes back to itself,
   and its exact encoding as hex with a space between fields — payload
   length, version, kind, id, then (requests only) the trace id and
   deadline, then the body. A string is its u32 length and its bytes,
   a list its u32 count and its elements. Every frame is stamped 5. *)
let golden_id = 0x0102030405060708

let req ?(ctx = Wire.no_ctx) body =
  let frame = { Wire.id = golden_id; body } in
  let bytes = Wire.encode_request ~ctx frame in
  (bytes, Wire.decode_request (strip_header bytes) = Ok (frame, ctx))

let resp body =
  let frame = { Wire.id = golden_id; body } in
  let bytes = Wire.encode_response frame in
  (bytes, Wire.decode_response (strip_header bytes) = Ok frame)

let golden_frames () =
  let open Wire in
  let open Icdb_cql.Exec in
  [ ( "Ping", req ~ctx:{ trace_id = "t"; timeout_s = 1.5 } Ping,
      "00000017 05 01 0102030405060708 00000001 74 3ff8000000000000" );
    ( "Cql",
      req (Cql { text = "q";
                 args = [ Astr "s"; Aint (-1); Afloat 0.5; Astrs [ "a" ] ] }),
      "00000041 05 02 0102030405060708 00000000 0000000000000000 00000001 71 \
       00000004 00 00000001 73 01 ffffffffffffffff 02 3fe0000000000000 03 \
       00000001 00000001 61" );
    ( "Sql", req (Sql "S"),
      "0000001b 05 03 0102030405060708 00000000 0000000000000000 00000001 53" );
    ( "Stats", req Stats,
      "00000016 05 04 0102030405060708 00000000 0000000000000000" );
    ( "Trace_fetch", req (Trace_fetch "t"),
      "0000001b 05 06 0102030405060708 00000000 0000000000000000 00000001 74" );
    ( "Shutdown", req Shutdown,
      "00000016 05 05 0102030405060708 00000000 0000000000000000" );
    ( "Subscribe", req (Subscribe { cursor = -1 }),
      "0000001e 05 07 0102030405060708 00000000 0000000000000000 \
       ffffffffffffffff" );
    ( "Batch", req (Batch [ Bcql { text = "q"; args = [ Aint 2 ] }; Bsql "S" ]),
      "00000033 05 08 0102030405060708 00000000 0000000000000000 00000002 00 \
       00000001 71 00000001 01 0000000000000002 01 00000001 53" );
    ( "Pong", resp Pong, "0000000a 05 41 0102030405060708" );
    ( "Results",
      resp (Results [ ("k", Rstr "v"); ("i", Rint 1); ("f", Rfloat 2.0);
                      ("l", Rstrs [ "x" ]) ]),
      "00000044 05 42 0102030405060708 00000004 00000001 6b 00 00000001 76 \
       00000001 69 01 0000000000000001 00000001 66 02 4000000000000000 \
       00000001 6c 03 00000001 00000001 78" );
    ( "Sql_result Affected", resp (Sql_result (Affected 3)),
      "00000012 05 43 0102030405060708 0000000000000003" );
    ( "Sql_result Relation",
      resp (Sql_result (Relation { cols = [ "c" ]; rows = [ [ "1" ] ] })),
      "00000020 05 44 0102030405060708 00000001 00000001 63 00000001 00000001 \
       00000001 31" );
    ( "Stats_report",
      resp (Stats_report
              { sp_text = "x"; sp_counters = [ ("c", 1) ];
                sp_gauges = [ ("g", 0.5) ];
                sp_hists = [ { hs_name = "h"; hs_count = 1; hs_sum = 1.0;
                               hs_min = 1.0; hs_max = 1.0; hs_p50 = 1.0;
                               hs_p90 = 1.0; hs_p99 = 1.0 } ];
                sp_slow = [ { sl_cmd = "net.sql"; sl_trace = "t"; sl_conn = 9;
                              sl_seconds = 1.5; sl_cache = "-";
                              sl_phases = [ ("exec", 1.25) ];
                              sl_plan = "scan(t)" } ] }),
      "000000ba 05 45 0102030405060708 00000001 78 00000001 00000001 63 \
       0000000000000001 00000001 00000001 67 3fe0000000000000 00000001 \
       00000001 68 0000000000000001 3ff0000000000000 3ff0000000000000 \
       3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000 \
       00000001 00000007 6e65742e73716c 00000001 74 0000000000000009 \
       3ff8000000000000 00000001 2d 00000001 00000004 65786563 \
       3ff4000000000000 00000007 7363616e287429" );
    ( "Spans",
      resp (Spans [ { rs_id = 1; rs_parent = None; rs_name = "a"; rs_tag = "t";
                      rs_start_ns = 2; rs_dur_ns = 3; rs_attrs = [] };
                    { rs_id = 4; rs_parent = Some 1; rs_name = "b";
                      rs_tag = "t"; rs_start_ns = 5; rs_dur_ns = 6;
                      rs_attrs = [ ("k", "v") ] } ]),
      "0000006e 05 48 0102030405060708 00000002 0000000000000001 00 00000001 \
       61 00000001 74 0000000000000002 0000000000000003 00000000 \
       0000000000000004 01 0000000000000001 00000001 62 00000001 74 \
       0000000000000005 0000000000000006 00000001 00000001 6b 00000001 76" );
    ( "Error", resp (Error { code = Read_only; message = "m" }),
      "00000010 05 46 0102030405060708 09 00000001 6d" );
    ( "Bye", resp Bye, "0000000a 05 47 0102030405060708" );
    ( "Journal_batch",
      resp (Journal_batch { jb_first = 1; jb_next = 2; jb_records = [ "r" ];
                            jb_files = [ ("f", "d") ] }),
      "00000031 05 49 0102030405060708 0000000000000001 0000000000000002 \
       00000001 00000001 72 00000001 00000001 66 00000001 64" );
    ( "Checkpoint_offer",
      resp (Checkpoint_offer { co_cursor = 4; co_files = 1 }),
      "00000016 05 4a 0102030405060708 0000000000000004 00000001" );
    ( "Checkpoint_chunk",
      resp (Checkpoint_chunk { cc_name = "f"; cc_data = "d"; cc_last = true }),
      "00000015 05 4b 0102030405060708 00000001 66 00000001 64 01" );
    ( "Repl_error", resp (Repl_error "e"),
      "0000000f 05 4c 0102030405060708 00000001 65" );
    ( "Batch_reply",
      resp (Batch_reply
              [ Bresults [ ("k", Rstr "v") ]; Bsql_result (Affected 1);
                Bsql_result (Relation { cols = [ "c" ]; rows = [ [ "1" ] ] });
                Berror { code = Timeout; message = "m" } ]),
      "00000045 05 4d 0102030405060708 00000004 00 00000001 00000001 6b 00 \
       00000001 76 01 0000000000000001 02 00000001 00000001 63 00000001 \
       00000001 00000001 31 03 06 00000001 6d" ) ]

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let test_golden_frames () =
  let rows = golden_frames () in
  List.iter
    (fun (name, (bytes, decodes), expected) ->
      check Alcotest.string name
        (String.concat "" (String.split_on_char ' ' expected))
        (hex bytes);
      check Alcotest.bool (name ^ " decodes to its value") true decodes)
    rows;
  check Alcotest.int "a row per frame kind" 21
    (List.length
       (List.sort_uniq compare (List.map (fun (_, (b, _), _) -> b.[5]) rows)))

let test_read_framing_failures () =
  let with_pipe f =
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close r with Unix.Unix_error _ -> ());
        try Unix.close w with Unix.Unix_error _ -> ())
      (fun () -> f r w)
  in
  (* clean EOF between frames *)
  with_pipe (fun r w ->
      Unix.close w;
      match Wire.read_request r with
      | Error Wire.Closed -> ()
      | _ -> Alcotest.fail "EOF between frames should be Closed");
  (* EOF inside a frame *)
  with_pipe (fun r w ->
      let frame = Wire.encode_request { Wire.id = 1; body = Wire.Stats } in
      let partial = String.sub frame 0 (String.length frame - 3) in
      ignore (Unix.write_substring w partial 0 (String.length partial));
      Unix.close w;
      match Wire.read_request r with
      | Error (Wire.Truncated _) -> ()
      | _ -> Alcotest.fail "EOF mid-frame should be Truncated");
  (* a length header beyond max_payload *)
  with_pipe (fun r w ->
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_payload + 1));
      ignore (Unix.write w header 0 4);
      match Wire.read_request r with
      | Error (Wire.Oversized n) ->
          check Alcotest.int "declared length" (Wire.max_payload + 1) n
      | _ -> Alcotest.fail "huge declared length should be Oversized")

(* ------------------------------------------------------------------ *)
(* Service end-to-end                                                  *)
(* ------------------------------------------------------------------ *)

let quiet_events = lazy (Icdb_obs.Event.set_level Icdb_obs.Event.Error)

let with_service ?(config = Service.default_config) ?(durable = false) f =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false ~durable () in
  let ws = Server.workspace server in
  let sync = Sync.wrap server in
  let svc = Service.start ~config:{ config with port = 0 } sync in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () -> f svc (Service.port svc) ws)

let ok_exec client ?trace_id ?args text =
  match Client.exec client ?trace_id ?args text with
  | Ok results -> results
  | Error (code, msg) ->
      Alcotest.failf "%s failed: %s: %s" text (Wire.error_code_to_string code) msg

let get_str results name =
  match List.assoc_opt name results with
  | Some (Icdb_cql.Exec.Rstr s) -> s
  | _ -> Alcotest.failf "no string binding %s" name

(* the full CQL command set, §3.2 + Appendix B §7, over one connection *)
let test_service_full_cql_set () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c;
  ignore (ok_exec c "command:start_a_design; design:chip");
  ignore (ok_exec c "command:start_a_transaction; design:chip");
  let r =
    ok_exec c
      "command:request_component; component_name:counter; attribute:(size:4); \
       function:(INC); instance:?s"
  in
  let id = get_str r "instance" in
  check Alcotest.bool "instance id" true (String.length id > 0);
  ignore
    (ok_exec c
       ~args:[ Icdb_cql.Exec.Astr id ]
       "command:put_in_component_list; design:chip; instance:%s");
  let r =
    ok_exec c ~args:[ Icdb_cql.Exec.Astr id ]
      "command:instance_query; instance:%s; delay:?s; gates:?d"
  in
  check Alcotest.bool "delay text" true
    (String.length (get_str r "delay") > 0);
  let r = ok_exec c "command:component_query; component:counter; function:?s[]" in
  (match List.assoc_opt "function" r with
   | Some (Icdb_cql.Exec.Rstrs fs) ->
       check Alcotest.bool "INC listed" true (List.mem "INC" fs)
   | _ -> Alcotest.fail "component_query shape");
  let r = ok_exec c "command:function_query; function:(INC); component:?s[]" in
  (match List.assoc_opt "component" r with
   | Some (Icdb_cql.Exec.Rstrs cs) ->
       check Alcotest.bool "counter performs INC" true (List.mem "counter" cs)
   | _ -> Alcotest.fail "function_query shape");
  let r =
    ok_exec c ~args:[ Icdb_cql.Exec.Astr id ]
      "command:connect_component; instance:%s; connect:?s"
  in
  check Alcotest.bool "connect info" true
    (String.length (get_str r "connect") > 0);
  ignore (ok_exec c "command:end_a_transaction; design:chip");
  ignore (ok_exec c "command:end_a_design; design:chip");
  (* SQL against the metadata database over the same connection *)
  (match Client.sql c "SELECT name FROM components" with
   | Ok (Wire.Relation { cols; rows }) ->
       check (Alcotest.list Alcotest.string) "cols" [ "name" ] cols;
       check Alcotest.bool "catalog rows" true
         (List.mem [ "counter" ] rows)
   | Ok (Wire.Affected _) -> Alcotest.fail "SELECT answered Affected"
   | Error (_, msg) -> Alcotest.failf "sql failed: %s" msg);
  (* a syntax error, and a statement that parses but names a column the
     table does not have *)
  List.iter
    (fun stmt ->
      match Client.sql c stmt with
      | Error (Wire.Sql_error, _) -> ()
      | _ -> Alcotest.failf "%s should answer Sql_error" stmt)
    [ "SELEKT broken"; "SELECT nope FROM components" ];
  match Client.stats c with
  | Ok payload ->
      check Alcotest.bool "stats carry a summary line" true
        (String.length payload.Wire.sp_text > 0);
      (match List.assoc_opt "net.requests" payload.Wire.sp_counters with
       | Some n -> check Alcotest.bool "net.requests counted" true (n > 0)
       | None -> Alcotest.fail "stats payload should count net.requests")
  | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg

(* a CQL failure is a structured reply, not a dead connection *)
let test_service_cql_error_keeps_connection () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.exec c "command:bogus_cmd; x:?s" with
   | Error (Wire.Parse_error, msg) ->
       check Alcotest.bool "mentions the command" true
         (String.length msg > 0)
   | _ -> Alcotest.fail "unknown command should answer Parse_error");
  (match Client.exec c "command:instance_query; instance:nope_99; delay:?s" with
   | Error ((Wire.Exec_error | Wire.Parse_error), _) -> ()
   | _ -> Alcotest.fail "unknown instance should answer a structured error");
  Client.ping c (* still alive *)

let test_service_concurrent_clients () =
  with_service @@ fun _svc port _ws ->
  let clients = 8 and iters = 3 in
  let failures = Atomic.make 0 in
  let ids = Array.make clients "" in
  let run k =
    try
      let c = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for _ = 1 to iters do
        let r =
          ok_exec c
            (Printf.sprintf
               "command:request_component; component_name:counter; \
                attribute:(size:%d); instance:?s"
               (3 + k))
        in
        ids.(k) <- get_str r "instance";
        ignore
          (ok_exec c ~args:[ Icdb_cql.Exec.Astr ids.(k) ]
             "command:instance_query; instance:%s; gates:?d");
        ignore (ok_exec c "command:function_query; function:(INC); component:?s[]")
      done
    with _ -> Atomic.incr failures
  in
  let threads = List.init clients (fun k -> Thread.create run k) in
  List.iter Thread.join threads;
  check Alcotest.int "no client failed" 0 (Atomic.get failures);
  (* distinct specs produced distinct instances *)
  let sorted = List.sort_uniq String.compare (Array.to_list ids) in
  check Alcotest.int "distinct instances" clients (List.length sorted)

let raw_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_service_malformed_frame_survival () =
  with_service @@ fun _svc port _ws ->
  let fd = raw_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* garbage inside a well-delimited frame: structured error, conn lives *)
  let good = Wire.encode_request { Wire.id = 77; body = Wire.Ping } in
  let garbled = Bytes.of_string good in
  Bytes.set garbled 5 '\xee' (* kind byte, after the 4-byte length header *);
  Wire.write_frame fd (Bytes.to_string garbled);
  (match Wire.read_response fd with
   | Ok { Wire.id = 77; body = Wire.Error { code = Wire.Protocol_error; _ } } -> ()
   | _ -> Alcotest.fail "garbled kind should answer Protocol_error with the id");
  (* a wrong version byte — 99, a genuine v1 client (pre trace-context),
     or a Ping stamped 3 as older builds stamped it: a structured error
     naming both versions, and the connection lives *)
  List.iter
    (fun v ->
      let b = Bytes.of_string good in
      Bytes.set_uint8 b 4 v;
      Wire.write_frame fd (Bytes.to_string b);
      match Wire.read_response fd with
      | Ok
          { Wire.id = 77;
            body = Wire.Error { code = Wire.Version_mismatch; message } } ->
          check Alcotest.bool ("names both versions: " ^ message) true
            (contains message (Printf.sprintf "v%d," v)
            && contains message (Printf.sprintf "v%d" Wire.protocol_version))
      | _ ->
          Alcotest.failf "a frame stamped %d should answer Version_mismatch" v)
    [ 99; 1; 3 ];
  (* the same connection still serves real requests *)
  Wire.write_frame fd good;
  match Wire.read_response fd with
  | Ok { Wire.id = 77; body = Wire.Pong } -> ()
  | _ -> Alcotest.fail "connection should survive recoverable frames"

let test_service_oversized_frame_closes () =
  with_service @@ fun _svc port _ws ->
  let fd = raw_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_payload + 1));
  ignore (Unix.write fd header 0 4);
  (match Wire.read_response fd with
   | Ok { Wire.body = Wire.Error { code = Wire.Protocol_error; _ }; _ } -> ()
   | _ -> Alcotest.fail "oversized frame should answer Protocol_error");
  (* framing is unrecoverable: the server closes the connection *)
  match Wire.read_response fd with
  | Error Wire.Closed | Error (Wire.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "connection should close after an oversized frame"
  | Error _ -> ()

let test_service_refuses_over_limit () =
  let config = { Service.default_config with max_connections = 1 } in
  with_service ~config @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c (* connection 1 is registered once it answers *);
  let fd = raw_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match Wire.read_response fd with
   | Ok { Wire.id = 0; body = Wire.Error { code = Wire.Overloaded; _ } } -> ()
   | _ -> Alcotest.fail "over-limit connect should be refused with Overloaded");
  (* the admitted connection is unaffected *)
  Client.ping c

let test_service_request_timeout () =
  let config = { Service.default_config with request_timeout_s = -1.0 } in
  with_service ~config @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.exec c "command:function_query; function:(INC); component:?s[]" with
  | Error (Wire.Timeout, _) -> ()
  | _ -> Alcotest.fail "an already-expired deadline should answer Timeout"

(* a client-sent deadline in the request context is honored even when
   the server's own request_timeout_s is permissive *)
let test_service_ctx_deadline () =
  let config = { Service.default_config with workers = 1 } in
  with_service ~config @@ fun _svc port _ws ->
  let fd = raw_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* pipeline two frames at the single worker: a cold component
     generation without a deadline, then a ping whose context demands
     an impossibly tight one. The ping waits in queue behind the
     generation, so its deadline has expired by dequeue time. *)
  let busy =
    Wire.encode_request
      { Wire.id = 1;
        body =
          Wire.Cql
            { text =
                "command:request_component; component_name:counter; \
                 attribute:(size:9); instance:?s";
              args = [] } }
  in
  let hurried =
    Wire.encode_request
      ~ctx:{ Wire.trace_id = ""; timeout_s = 1e-6 }
      { Wire.id = 2; body = Wire.Ping }
  in
  Wire.write_frame fd busy;
  Wire.write_frame fd hurried;
  (match Wire.read_response fd with
   | Ok { Wire.id = 1; body = Wire.Results _ } -> ()
   | _ -> Alcotest.fail "the undeadlined request should be served");
  match Wire.read_response fd with
  | Ok { Wire.id = 2; body = Wire.Error { code = Wire.Timeout; _ } } -> ()
  | Ok { Wire.id = 2; body = Wire.Pong } ->
      Alcotest.fail "an expired client deadline should not be served"
  | _ -> Alcotest.fail "the deadlined request should answer Timeout"

(* a traced request's server-side spans come back tagged with exactly
   the trace id the client sent *)
let test_service_trace_propagation () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let tid = "t-prop-1" in
  ignore
    (ok_exec c ~trace_id:tid
       "command:request_component; component_name:counter; \
        attribute:(size:5); instance:?s");
  match Client.fetch_trace c tid with
  | Error (_, msg) -> Alcotest.failf "fetch_trace failed: %s" msg
  | Ok spans ->
      check Alcotest.bool "spans came back" true (spans <> []);
      List.iter
        (fun s ->
          check Alcotest.string "tagged with our trace id" tid s.Wire.rs_tag)
        spans;
      check Alcotest.bool "the request envelope span is present" true
        (List.exists (fun s -> s.Wire.rs_name = "net.request") spans);
      (* parent ids resolve inside the reply: the span tree is closed *)
      let ids = List.map (fun s -> s.Wire.rs_id) spans in
      List.iter
        (fun s ->
          match s.Wire.rs_parent with
          | None -> ()
          | Some p ->
              check Alcotest.bool "parent resolves in-reply" true
                (List.mem p ids))
        spans;
      (* an unknown trace id owns nothing *)
      (match Client.fetch_trace c "no-such-trace" with
       | Ok [] -> ()
       | Ok _ -> Alcotest.fail "an unknown trace id should own no spans"
       | Error (_, msg) -> Alcotest.failf "fetch_trace failed: %s" msg);
      (* and the merge produces a well-formed single-timeline span list *)
      let merged = Client.merge_remote_spans ~local:[] ~remote:spans in
      check Alcotest.int "merge keeps every server span"
        (List.length spans) (List.length merged);
      List.iter
        (fun (s : Icdb_obs.Trace.span) ->
          check Alcotest.bool "merged spans tagged server" true
            (s.Icdb_obs.Trace.stag = Some "server"))
        merged

(* eight clients tracing concurrently each see only their own spans:
   the attribution the tentpole promises under contention *)
let test_service_per_client_span_isolation () =
  with_service @@ fun _svc port _ws ->
  let clients = 8 in
  let failures = Mutex.create () in
  let failed = ref [] in
  let fail k msg =
    Mutex.lock failures;
    failed := Printf.sprintf "client %d: %s" k msg :: !failed;
    Mutex.unlock failures
  in
  let run k =
    let tid = Printf.sprintf "iso-%d" k in
    try
      let c = Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for i = 1 to 2 do
        ignore
          (ok_exec c ~trace_id:tid
             (Printf.sprintf
                "command:request_component; component_name:counter; \
                 attribute:(size:%d); instance:?s"
                (10 + (k * 2) + i)))
      done;
      match Client.fetch_trace c tid with
      | Error (_, msg) -> fail k ("fetch_trace: " ^ msg)
      | Ok [] -> fail k "no spans attributed"
      | Ok spans ->
          List.iter
            (fun s ->
              if s.Wire.rs_tag <> tid then
                fail k
                  (Printf.sprintf "foreign span %S leaked into trace %s"
                     s.Wire.rs_tag tid))
            spans
    with e -> fail k (Printexc.to_string e)
  in
  let threads = List.init clients (fun k -> Thread.create run k) in
  List.iter Thread.join threads;
  check (Alcotest.list Alcotest.string) "no isolation failures" []
    (List.sort String.compare !failed)

(* with the threshold at zero every request is "slow": the log records
   command kind, trace id and a per-phase breakdown, and the stats
   reply carries it to the client *)
let test_service_slow_log () =
  let config = { Service.default_config with slow_threshold_s = 0.0 } in
  with_service ~config @@ fun svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore
    (ok_exec c ~trace_id:"slow-1"
       "command:request_component; component_name:counter; \
        attribute:(size:7); instance:?s");
  let entries = Service.slow_log svc in
  check Alcotest.bool "server-side slow log is non-empty" true (entries <> []);
  (match
     List.find_opt (fun e -> e.Wire.sl_trace = "slow-1") entries
   with
   | None -> Alcotest.fail "the traced request should be in the slow log"
   | Some e ->
       check Alcotest.string "command kind" "net.cql.request_component"
         e.Wire.sl_cmd;
       check Alcotest.bool "latency recorded" true (e.Wire.sl_seconds >= 0.0);
       check Alcotest.bool "cache disposition recorded" true
         (e.Wire.sl_cache = "hit" || e.Wire.sl_cache = "miss");
       check Alcotest.string "CQL request has no query plan" "" e.Wire.sl_plan;
       check Alcotest.bool "per-phase breakdown present" true
         (e.Wire.sl_phases <> []));
  (* a SQL request carries the planner's decision into its entry *)
  (match Client.sql c ~trace_id:"slow-sql" "SELECT id FROM instances" with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "sql failed: %s" msg);
  (match
     List.find_opt
       (fun e -> e.Wire.sl_trace = "slow-sql")
       (Service.slow_log svc)
   with
  | None -> Alcotest.fail "the SQL request should be in the slow log"
  | Some e ->
      check Alcotest.string "plan summary recorded" "scan(instances)"
        e.Wire.sl_plan);
  (* the stats reply carries the same log across the wire *)
  match Client.stats c with
  | Error (_, msg) -> Alcotest.failf "stats failed: %s" msg
  | Ok payload ->
      check Alcotest.bool "slow log crosses the wire" true
        (List.exists
           (fun e -> e.Wire.sl_trace = "slow-1")
           payload.Wire.sp_slow);
      check Alcotest.bool "plan summary crosses the wire" true
        (List.exists
           (fun e -> e.Wire.sl_plan = "scan(instances)")
           payload.Wire.sp_slow)

(* Dispatch = wire: each row runs, in order, through [Dispatch.run] on
   one fresh server and through [Client.call] against a [Service] on a
   second, and the two replies must be equal values — the in-process
   path and the daemon differ only in transport. Stats and EXPLAIN
   ANALYZE are left out: they carry timings. *)
let test_dispatch_equals_wire () =
  let resp =
    Alcotest.testable
      (fun fmt r ->
        Format.fprintf fmt "%S" (Wire.encode_response { Wire.id = 0; body = r }))
      ( = )
  in
  let table ~read_only rows =
    let d =
      Dispatch.create ~read_only ~slow_threshold_s:(-1.0) ~on_shutdown:ignore
        (Sync.wrap (Server.create ~verify:false ()))
    in
    with_service ~config:{ Service.default_config with read_only }
    @@ fun _svc port _ws ->
    let c = Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.iter
      (fun (name, req) -> check resp name (Dispatch.run d req) (Client.call c req))
      rows
  in
  let cql text = Wire.Cql { text; args = [] } in
  let counter =
    cql
      "command:request_component; component_name:counter; \
       attribute:(size:4); instance:?s; cache:?s"
  in
  let select = Wire.Sql "SELECT id, component, gates FROM instances" in
  table ~read_only:false
    [ ("ping", Wire.Ping);
      ("cold request_component", counter);
      ("hot request_component", counter);
      ("CQL parse error", cql "command:nonsense_command;");
      ("SELECT", select);
      ("schema-error SELECT", Wire.Sql "SELECT nope FROM instances");
      ( "mixed batch",
        Wire.Batch
          [ Wire.Bcql
              { text = "command:component_query; component:counter; function:?s[]";
                args = [] };
            Wire.Bcql { text = "command:nonsense_command;"; args = [] };
            Wire.Bsql "SELECT id FROM instances";
            Wire.Bsql "SELEKT broken";
            Wire.Bsql "SELECT nope FROM instances" ] );
      ( "batch one entry over the cap",
        Wire.Batch
          (List.init (Dispatch.max_batch_entries + 1) (fun _ ->
               Wire.Bsql "SELECT id FROM instances")) ) ];
  table ~read_only:true
    [ ("read-only mutating CQL", counter); ("read-only SELECT", select) ]

(* graceful shutdown drains, says Bye, and loses no journaled writes:
   the post-shutdown reopen differential the ISSUE requires *)
let test_service_shutdown_durable_differential () =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false ~durable:true () in
  let ws = Server.workspace server in
  let sync = Sync.wrap server in
  let svc =
    Service.start ~config:{ Service.default_config with port = 0 } sync
  in
  let port = Service.port svc in
  let c = Client.connect ~port () in
  let gen size =
    get_str
      (ok_exec c
         (Printf.sprintf
            "command:request_component; component_name:counter; \
             attribute:(size:%d); instance:?s"
            size))
      "instance"
  in
  let a = gen 4 in
  let b = gen 6 in
  Client.shutdown_server c (* Shutdown frame: drain, Bye, stop *);
  Service.wait svc;
  (* reopen replays the journal: everything clients wrote is back *)
  let server2, report = Server.reopen ~verify:false ~workspace:ws () in
  check Alcotest.bool "no torn journal tail" false report.Server.rr_torn_tail;
  check (Alcotest.list Alcotest.string) "nothing dropped" []
    (List.map snd report.Server.rr_dropped);
  check
    (Alcotest.list Alcotest.string)
    "both journaled instances recovered"
    (List.sort String.compare [ a; b ])
    (Server.instance_ids server2);
  check Alcotest.bool "no torn workspace files" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".tmp"))
       (Sys.readdir ws))

let test_service_shutdown_refuses_new_requests () =
  with_service @@ fun svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c;
  Service.request_shutdown svc;
  (* a request racing the drain gets a structured answer either way:
     served if a worker grabs it, Shutting_down if admission saw the
     flag first, or a closed connection if teardown won the race *)
  match Client.exec c "command:function_query; function:(INC); component:?s[]" with
  | Ok _ | Error (Wire.Shutting_down, _) -> ()
  | Error (code, msg) ->
      Alcotest.failf "unexpected refusal: %s: %s"
        (Wire.error_code_to_string code) msg
  | exception Client.Net_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Pipelining, batching, and the event loop                            *)
(* ------------------------------------------------------------------ *)

let gen_cql size =
  Printf.sprintf
    "command:request_component; component_name:counter; attribute:(size:%d); \
     instance:?s"
    size

let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

(* Property: with many requests in flight on one connection and awaits
   in an order unrelated to either issue order or the server's
   completion order (4 workers race), every reply still matches its
   request's id and payload. *)
let test_service_pipelining_property () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let st = Random.State.make [| 42 |] in
  (* learn the size -> instance mapping sequentially first *)
  let sizes = Array.init 8 (fun i -> 3 + i) in
  let expected = Hashtbl.create 8 in
  Array.iter
    (fun size ->
      Hashtbl.replace expected size (get_str (ok_exec c (gen_cql size)) "instance"))
    sizes;
  for _round = 1 to 3 do
    (* issue a burst of interleaved pings and queries without reading *)
    let n = 40 in
    let plan =
      Array.init n (fun _ ->
          if Random.State.int st 4 = 0 then `Ping
          else `Query sizes.(Random.State.int st (Array.length sizes)))
    in
    let tickets =
      Array.map
        (fun p ->
          match p with
          | `Ping -> (p, Client.call_async c Wire.Ping)
          | `Query size ->
              (p, Client.call_async c (Wire.Cql { text = gen_cql size; args = [] })))
        plan
    in
    (* await in a shuffled order: most replies arrive while a different
       ticket is being awaited, exercising the stash *)
    shuffle st tickets;
    Array.iter
      (fun (p, ticket) ->
        match (p, Client.await c ticket) with
        | `Ping, Wire.Pong -> ()
        | `Query size, Wire.Results r ->
            check Alcotest.string "pipelined reply matches its request"
              (Hashtbl.find expected size) (get_str r "instance")
        | _, _ -> Alcotest.fail "reply shape does not match the request")
      tickets
  done

(* A batch mixing valid and invalid entries: per-entry results come
   back positionally, and an error in one entry never disturbs the
   entries around it. *)
let test_service_batch_mixed () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let entries =
    [ Wire.Bcql { text = gen_cql 4; args = [] };
      Wire.Bcql { text = "command:nonsense_command;"; args = [] };
      Wire.Bsql "SELECT name FROM components";
      Wire.Bsql "SELEKT broken";
      Wire.Bcql
        { text = "command:component_query; component:%s; function:?s[]";
          args = [ Icdb_cql.Exec.Astr "counter" ] } ]
  in
  (match Client.batch c entries with
   | Error (code, msg) ->
       Alcotest.failf "batch refused: %s: %s"
         (Wire.error_code_to_string code) msg
   | Ok [ r0; r1; r2; r3; r4 ] ->
       (match r0 with
        | Wire.Bresults r ->
            check Alcotest.bool "entry 0 generated" true
              (String.length (get_str r "instance") > 0)
        | _ -> Alcotest.fail "entry 0 should have succeeded");
       (match r1 with
        | Wire.Berror { code = Wire.Parse_error; _ } -> ()
        | _ -> Alcotest.fail "entry 1 should be an isolated Parse_error");
       (match r2 with
        | Wire.Bsql_result (Wire.Relation { cols; rows }) ->
            check (Alcotest.list Alcotest.string) "entry 2 cols" [ "name" ] cols;
            check Alcotest.bool "entry 2 rows" true (List.mem [ "counter" ] rows)
        | _ -> Alcotest.fail "entry 2 should be a relation");
       (match r3 with
        | Wire.Berror { code = Wire.Sql_error; _ } -> ()
        | _ -> Alcotest.fail "entry 3 should be an isolated Sql_error");
       (match r4 with
        | Wire.Bresults r -> (
            match List.assoc_opt "function" r with
            | Some (Icdb_cql.Exec.Rstrs _) -> ()
            | _ -> Alcotest.fail "entry 4 shape")
        | _ -> Alcotest.fail "entry 4 should have succeeded after the errors")
   | Ok rs -> Alcotest.failf "expected 5 results, got %d" (List.length rs));
  (* the degenerate batch: zero entries, zero results, still answered *)
  match Client.batch c [] with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty batch should answer zero results"
  | Error (code, msg) ->
      Alcotest.failf "empty batch refused: %s: %s"
        (Wire.error_code_to_string code) msg

(* A batch bigger than the entry cap is refused whole — it would carry
   an unbounded amount of work on one queue slot — while a batch at
   exactly the cap still answers positionally. *)
let test_service_batch_entry_cap () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let entry = Wire.Bcql { text = "command:nonsense_command;"; args = [] } in
  (match
     Client.batch c (List.init (Dispatch.max_batch_entries + 1) (fun _ -> entry))
   with
   | Error (Wire.Protocol_error, _) -> ()
   | Error (code, msg) ->
       Alcotest.failf "over-cap batch: expected Protocol_error, got %s: %s"
         (Wire.error_code_to_string code) msg
   | Ok _ -> Alcotest.fail "a batch over the entry cap must be refused");
  match Client.batch c (List.init Dispatch.max_batch_entries (fun _ -> entry)) with
  | Ok results ->
      check Alcotest.int "at-cap batch answers every entry"
        Dispatch.max_batch_entries (List.length results)
  | Error (code, msg) ->
      Alcotest.failf "at-cap batch refused: %s: %s"
        (Wire.error_code_to_string code) msg

(* The client deadline is enforced *between* batch entries, not only at
   dequeue: once it passes, every remaining entry answers a positional
   [Berror Timeout]. Timing-tolerant — the batch may also finish in
   time, or expire while still queued — but whatever happens, timeouts
   may only form a suffix and the reply stays positionally complete. *)
let test_service_batch_deadline_tail () =
  with_service @@ fun _svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 3000 in
  let entries = List.init n (fun _ -> Wire.Bsql "SELECT name FROM components") in
  match Client.batch c ~timeout_s:0.05 entries with
  | Error (Wire.Timeout, _) -> () (* expired while still queued *)
  | Error (code, msg) ->
      Alcotest.failf "batch failed: %s: %s"
        (Wire.error_code_to_string code) msg
  | Ok results ->
      check Alcotest.int "positionally complete" n (List.length results);
      let seen_timeout = ref false in
      List.iteri
        (fun i r ->
          match r with
          | Wire.Berror { code = Wire.Timeout; _ } -> seen_timeout := true
          | Wire.Bsql_result (Wire.Relation _) ->
              if !seen_timeout then
                Alcotest.failf
                  "entry %d executed after an earlier entry timed out" i
          | _ -> Alcotest.failf "entry %d: unexpected result shape" i)
        results

let thread_count () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1 (* not Linux: skip the assertion *)
  | ic ->
      let rec go () =
        match input_line ic with
        | line when String.length line >= 8 && String.sub line 0 8 = "Threads:" ->
            int_of_string (String.trim (String.sub line 8 (String.length line - 8)))
        | _ -> go ()
        | exception End_of_file -> -1
      in
      let n = go () in
      close_in ic;
      n

(* The event-loop claims: 1000+ mostly-idle connections cost no worker
   threads, and a client trickling its request one byte at a time
   cannot stall anybody else. *)
let test_service_event_loop_stress () =
  let config =
    { Service.default_config with max_connections = 1100; max_queue = 256 }
  in
  with_service ~config @@ fun _svc port _ws ->
  let idle = Array.init 1000 (fun _ -> raw_connect port) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        idle)
  @@ fun () ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Client.ping c (* all 1000 admissions are behind this reply *);
  let threads_with_idle = thread_count () in
  if threads_with_idle >= 0 then
    (* service threads: workers + event loop + publisher; clients: this
       one. 1000 idle connections must not have added any. *)
    check Alcotest.bool
      (Printf.sprintf "no thread per connection (%d threads)" threads_with_idle)
      true
      (threads_with_idle < 64);
  (* a slow sender trickles a Ping one byte at a time while the hot
     connection keeps getting answers *)
  let trickle_fd = raw_connect port in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close trickle_fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let trickle_done = Atomic.make false in
  let frame = Wire.encode_request { Wire.id = 5; body = Wire.Ping } in
  let trickler =
    Thread.create
      (fun () ->
        String.iter
          (fun ch ->
            ignore (Unix.write_substring trickle_fd (String.make 1 ch) 0 1);
            Thread.delay 0.02)
          frame;
        Atomic.set trickle_done true)
      ()
  in
  ignore (ok_exec c (gen_cql 4));
  for _ = 1 to 50 do
    ignore (ok_exec c "command:function_query; function:(INC); component:?s[]")
  done;
  check Alcotest.bool "hot work finished while the trickler still trickles"
    false (Atomic.get trickle_done);
  Thread.join trickler;
  (* the trickled frame, once complete, still gets its answer *)
  match Wire.read_response trickle_fd with
  | Ok { Wire.id = 5; body = Wire.Pong } -> ()
  | _ -> Alcotest.fail "trickled Ping should eventually answer Pong"

(* Graceful drain: every request the server has read gets a reply even
   when shutdown starts while they are still queued. *)
let test_service_drain_answers_inflight () =
  with_service @@ fun svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let tickets =
    List.init 12 (fun k ->
        Client.call_async c (Wire.Cql { text = gen_cql (3 + k); args = [] }))
  in
  (* let the event loop read and enqueue them, then start the drain *)
  Thread.delay 0.2;
  Service.request_shutdown svc;
  List.iter
    (fun ticket ->
      match Client.await c ticket with
      | Wire.Results _ | Wire.Error _ -> () (* a real reply either way *)
      | _ -> Alcotest.fail "unexpected reply shape during drain")
    tickets

(* ------------------------------------------------------------------ *)
(* Continuous telemetry: /statz, /connz, the stall watchdog            *)
(* ------------------------------------------------------------------ *)

let wait_for ?(timeout = 10.0) ~what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else (Thread.delay 0.01; go ())
  in
  go ()

(* Pull the integer after ["key": ] out of a JSON body — enough of a
   parser for the counts these tests assert on. *)
let json_int_field body key =
  let pat = Printf.sprintf "\"%s\": " key in
  let pl = String.length pat and bl = String.length body in
  let rec find i =
    if i + pl > bl then None
    else if String.sub body i pl = pat then
      let j = ref (i + pl) in
      while !j < bl && body.[!j] >= '0' && body.[!j] <= '9' do incr j done;
      if !j > i + pl then Some (int_of_string (String.sub body (i + pl) (!j - i - pl)))
      else None
    else find (i + 1)
  in
  find 0

let telemetry_config period =
  { Service.default_config with telemetry_period_s = period }

(* /statz and /connz end to end: a fast sampler accumulates 60+ points
   while a client works, the admin plane serves them as JSON, and the
   connection table shows the live connection with its request count. *)
let test_service_statz_connz () =
  Lazy.force quiet_events;
  let server = Server.create ~verify:false () in
  let sync = Sync.wrap server in
  let svc =
    Service.start ~config:{ (telemetry_config 0.02) with port = 0 } sync
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  let port = Service.port svc in
  let recorder = Icdb_obs.Recorder.create () in
  Icdb_obs.Recorder.set_sampler recorder
    (match Service.sampler svc with
     | Some s -> s
     | None -> Alcotest.fail "sampler not running with a positive period");
  Fun.protect ~finally:(fun () -> Icdb_obs.Recorder.close recorder)
  @@ fun () ->
  let admin = Admin.start ~recorder ~port:0 ~service:svc ~sync () in
  Fun.protect ~finally:(fun () -> Admin.stop admin) @@ fun () ->
  let aport = Admin.port admin in
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 10 do
    ignore (ok_exec c "command:function_query; function:(INC); component:?s[]")
  done;
  (* 60 sample periods at 20 ms: the ring must hold >= 60 points *)
  let sampler =
    match Service.sampler svc with Some s -> s | None -> assert false
  in
  wait_for ~what:"60 sampler ticks" (fun () ->
      Icdb_obs.Series.total_ticks sampler >= 60);
  let status, body = Icdb_obs.Expo.http_get ~port:aport "/statz" in
  check Alcotest.int "/statz answers 200" 200 status;
  (match json_int_field body "samples" with
   | Some n -> check Alcotest.bool "at least 60 samples retained" true (n >= 60)
   | None -> Alcotest.fail "/statz body has no samples count");
  check Alcotest.bool "request-rate series present" true
    (contains body "net.requests");
  check Alcotest.bool "event-loop series present" true
    (contains body "net.loop.poll_wait.p99");
  check Alcotest.bool "replication-lag series present" true
    (contains body "repl.lag_records");
  let status, body = Icdb_obs.Expo.http_get ~port:aport "/connz" in
  check Alcotest.int "/connz answers 200" 200 status;
  (match json_int_field body "connections" with
   | Some n -> check Alcotest.int "one live connection" 1 n
   | None -> Alcotest.fail "/connz body has no connections count");
  check Alcotest.bool "connection is active" true
    (contains body "\"state\": \"active\"");
  (match json_int_field body "reqs" with
   | Some n -> check Alcotest.bool "request count tracked" true (n >= 10)
   | None -> Alcotest.fail "/connz body has no reqs count");
  let status, body = Icdb_obs.Expo.http_get ~port:aport "/metrics" in
  check Alcotest.int "/metrics answers 200" 200 status;
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " exposed") true (contains body name))
    [ "process_uptime_seconds"; "process_open_fds"; "process_max_rss_bytes";
      "net_loop_poll_wait"; "net_loop_dispatch"; "net_watchdog_tripped";
      "net_queue_depth"; "net_wq_bytes" ];
  let status, body = Icdb_obs.Expo.http_get ~port:aport "/blackboxz" in
  check Alcotest.int "/blackboxz answers 200" 200 status;
  check Alcotest.bool "blackbox dump identifies itself" true
    (contains body "\"blackbox\": \"icdb\"")

(* The watchdog stays quiet under healthy load, trips while the event
   loop is wedged by an injected stall, and recovers once it unwedges. *)
let test_service_watchdog_stall () =
  Fun.protect ~finally:Faultinject.reset @@ fun () ->
  with_service ~config:(telemetry_config 0.05) @@ fun svc port _ws ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 20 do
    ignore (ok_exec c "command:function_query; function:(INC); component:?s[]")
  done;
  Thread.delay 0.3;
  check
    (Alcotest.pair Alcotest.bool Alcotest.string)
    "no false positive under healthy load" (false, "")
    (Service.watchdog svc);
  let trips = Icdb_obs.Metrics.counter "net.watchdog.trips" in
  let before = trips.Icdb_obs.Metrics.count in
  (* wedge the loop through the ICDB_FAULT spec syntax: the next two
     armed hits sleep 1.5 s each, past the 1 s staleness bound the
     watchdog enforces on the loop heartbeat *)
  Faultinject.arm_from_spec "loop_stall:transient:2";
  wait_for ~what:"watchdog trip" (fun () ->
      trips.Icdb_obs.Metrics.count > before);
  (* the trip is visible while the stall lasts; the second armed hit
     keeps the loop wedged long enough to observe it *)
  wait_for ~what:"watchdog reason" (fun () ->
      match Service.watchdog svc with
      | true, reason -> contains reason "stalled"
      | false, _ -> false);
  (* the fault disarms after two hits: the loop unwedges, the heartbeat
     refreshes, and the watchdog must report recovery *)
  wait_for ~what:"watchdog recovery" (fun () ->
      fst (Service.watchdog svc) = false);
  (* and the service still answers *)
  ignore (ok_exec c "command:function_query; function:(INC); component:?s[]")

let () =
  Alcotest.run "net"
    [ ( "wire",
        [ Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "trace context round-trip" `Quick test_ctx_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "float bits exact" `Quick test_float_bits_roundtrip;
          Alcotest.test_case "malformed classification" `Quick
            test_decode_malformed;
          Alcotest.test_case "bad version classification" `Quick
            test_decode_bad_version;
          Alcotest.test_case "v1 frame is recoverable" `Quick
            test_decode_v1_recoverable;
          Alcotest.test_case "golden frame bytes" `Quick test_golden_frames;
          Alcotest.test_case "framing failures" `Quick test_read_framing_failures ] );
      ( "service",
        [ Alcotest.test_case "full CQL set" `Quick test_service_full_cql_set;
          Alcotest.test_case "CQL error keeps connection" `Quick
            test_service_cql_error_keeps_connection;
          Alcotest.test_case "8 concurrent clients" `Quick
            test_service_concurrent_clients;
          Alcotest.test_case "malformed frame survival" `Quick
            test_service_malformed_frame_survival;
          Alcotest.test_case "oversized frame closes" `Quick
            test_service_oversized_frame_closes;
          Alcotest.test_case "refuses over connection limit" `Quick
            test_service_refuses_over_limit;
          Alcotest.test_case "request timeout" `Quick test_service_request_timeout;
          Alcotest.test_case "client ctx deadline" `Quick
            test_service_ctx_deadline;
          Alcotest.test_case "trace propagation" `Quick
            test_service_trace_propagation;
          Alcotest.test_case "per-client span isolation" `Quick
            test_service_per_client_span_isolation;
          Alcotest.test_case "slow-query log" `Quick test_service_slow_log;
          Alcotest.test_case "dispatch equals wire" `Quick
            test_dispatch_equals_wire;
          Alcotest.test_case "durable shutdown differential" `Quick
            test_service_shutdown_durable_differential;
          Alcotest.test_case "shutdown refuses new work" `Quick
            test_service_shutdown_refuses_new_requests ] );
      ( "pipeline",
        [ Alcotest.test_case "out-of-order awaits match ids" `Quick
            test_service_pipelining_property;
          Alcotest.test_case "mixed batch isolates errors" `Quick
            test_service_batch_mixed;
          Alcotest.test_case "batch entry cap" `Quick
            test_service_batch_entry_cap;
          Alcotest.test_case "batch deadline between entries" `Quick
            test_service_batch_deadline_tail;
          Alcotest.test_case "event loop: 1000 idle conns, slow client" `Quick
            test_service_event_loop_stress;
          Alcotest.test_case "drain answers in-flight" `Quick
            test_service_drain_answers_inflight ] );
      ( "telemetry",
        [ Alcotest.test_case "/statz, /connz, /metrics end-to-end" `Quick
            test_service_statz_connz;
          Alcotest.test_case "stall watchdog trips and recovers" `Quick
            test_service_watchdog_stall ] ) ]
