(* Seeded protocol fuzzing for the icdbd wire codec (ISSUE 7 satellite).

   Three properties, each over a deterministic PRNG so failures
   reproduce from the printed seed:

   1. Round-trip: every frame shape under random valid payloads
      (adversarial strings, extreme ints, NaN/infinity floats)
      re-encodes to byte-identical frames after a decode. Byte
      comparison, not structural equality, so NaN payloads and float
      bit patterns are covered rather than dodged.

   2. Classification: mutated, truncated, oversized, and garbage byte
      streams fed through [Wire.Dechunk] + the payload decoders always
      land in the documented taxonomy — [Ok], recoverable
      ([Bad_version]/[Malformed]), or the stream-level fatal outcomes
      ([`Oversized], held-back [`Await]) — and never escape as an
      unclassified exception.

   3. Split-at-every-offset: one frame of each kind decodes identically
      no matter where the kernel splits the read, which is the partial-
      read audit the event loop's correctness rests on. *)

module Wire = Icdb_net.Wire

let seed =
  match Sys.getenv_opt "ICDB_FUZZ_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.eprintf "ICDB_FUZZ_SEED must be an int, got %S\n" s;
          exit 2)
  | None -> 0x1cdb

let () =
  Printf.printf "wire fuzz seed: %d (set ICDB_FUZZ_SEED to reproduce)\n%!" seed

let rng = Random.State.make [| seed |]
let rint n = Random.State.int rng n
let pick l = List.nth l (rint (List.length l))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Strings with every byte value, including NULs, newlines and high
   bytes — the codec is length-prefixed and must not care. *)
let gen_string () =
  let n = rint 13 in
  String.init n (fun _ -> Char.chr (rint 256))

let gen_int () =
  pick
    [ 0; 1; -1; 42; max_int; min_int; rint 1000; -rint 1000;
      (rint 1_000_000 * 4096) + rint 4096 ]

let gen_float () =
  pick
    [ 0.0; -0.0; 1.5; -3.25; infinity; neg_infinity; nan; Float.pi;
      Random.State.float rng 1e9; -.Random.State.float rng 1.0; 1e-300 ]

let gen_list gen =
  let n = rint 4 in
  List.init n (fun _ -> gen ())

let gen_arg () : Icdb_cql.Exec.arg =
  match rint 4 with
  | 0 -> Astr (gen_string ())
  | 1 -> Aint (gen_int ())
  | 2 -> Afloat (gen_float ())
  | _ -> Astrs (gen_list gen_string)

let gen_result () : string * Icdb_cql.Exec.result =
  ( gen_string (),
    match rint 4 with
    | 0 -> Rstr (gen_string ())
    | 1 -> Rint (gen_int ())
    | 2 -> Rfloat (gen_float ())
    | _ -> Rstrs (gen_list gen_string) )

let gen_ctx () =
  { Wire.trace_id = gen_string (); timeout_s = gen_float () }

let gen_error_code () : Wire.error_code =
  pick
    [ Wire.Parse_error; Wire.Exec_error; Wire.Sql_error; Wire.Protocol_error;
      Wire.Version_mismatch; Wire.Overloaded; Wire.Timeout;
      Wire.Shutting_down; Wire.Internal; Wire.Read_only ]

let gen_batch_entry () : Wire.batch_entry =
  if rint 2 = 0 then Bcql { text = gen_string (); args = gen_list gen_arg }
  else Bsql (gen_string ())

(* Every request constructor. *)
let gen_req () : Wire.req =
  match rint 8 with
  | 0 -> Ping
  | 1 -> Cql { text = gen_string (); args = gen_list gen_arg }
  | 2 -> Sql (gen_string ())
  | 3 -> Stats
  | 4 -> Trace_fetch (gen_string ())
  | 5 -> Shutdown
  | 6 -> Subscribe { cursor = gen_int () }
  | _ -> Batch (gen_list gen_batch_entry)

let gen_sql_result () : Wire.sql_result =
  if rint 2 = 0 then Affected (gen_int ())
  else
    Relation
      { cols = gen_list gen_string;
        rows = gen_list (fun () -> gen_list gen_string) }

let gen_remote_span () : Wire.remote_span =
  { rs_id = gen_int ();
    rs_parent = (if rint 2 = 0 then None else Some (gen_int ()));
    rs_name = gen_string ();
    rs_tag = gen_string ();
    rs_start_ns = gen_int ();
    rs_dur_ns = gen_int ();
    rs_attrs = gen_list (fun () -> (gen_string (), gen_string ())) }

let gen_hist () : Wire.hist_summary =
  { hs_name = gen_string ();
    hs_count = gen_int ();
    hs_sum = gen_float ();
    hs_min = gen_float ();
    hs_max = gen_float ();
    hs_p50 = gen_float ();
    hs_p90 = gen_float ();
    hs_p99 = gen_float () }

let gen_slow () : Wire.slow_entry =
  { sl_cmd = gen_string ();
    sl_trace = gen_string ();
    sl_conn = gen_int ();
    sl_seconds = gen_float ();
    sl_cache = gen_string ();
    sl_phases = gen_list (fun () -> (gen_string (), gen_float ()));
    sl_plan = gen_string () }

let gen_stats_payload () : Wire.stats_payload =
  { sp_text = gen_string ();
    sp_counters = gen_list (fun () -> (gen_string (), gen_int ()));
    sp_gauges = gen_list (fun () -> (gen_string (), gen_float ()));
    sp_hists = gen_list gen_hist;
    sp_slow = gen_list gen_slow }

let gen_batch_result () : Wire.batch_result =
  match rint 3 with
  | 0 -> Bresults (gen_list gen_result)
  | 1 -> Bsql_result (gen_sql_result ())
  | _ -> Berror { code = gen_error_code (); message = gen_string () }

(* Every response constructor. *)
let gen_resp () : Wire.resp =
  match rint 12 with
  | 0 -> Pong
  | 1 -> Results (gen_list gen_result)
  | 2 -> Sql_result (gen_sql_result ())
  | 3 -> Stats_report (gen_stats_payload ())
  | 4 -> Spans (gen_list gen_remote_span)
  | 5 -> Error { code = gen_error_code (); message = gen_string () }
  | 6 -> Bye
  | 7 ->
      Journal_batch
        { jb_first = gen_int ();
          jb_next = gen_int ();
          jb_records = gen_list gen_string;
          jb_files = gen_list (fun () -> (gen_string (), gen_string ())) }
  | 8 ->
      (* co_files is a u32 on the wire: the encoder rejects anything
         outside [0, 2^31) by design, so generate in range *)
      Checkpoint_offer { co_cursor = gen_int (); co_files = rint 100_000 }
  | 9 ->
      Checkpoint_chunk
        { cc_name = gen_string ();
          cc_data = gen_string ();
          cc_last = rint 2 = 0 }
  | 10 -> Repl_error (gen_string ())
  | _ -> Batch_reply (gen_list gen_batch_result)

(* ------------------------------------------------------------------ *)
(* Classification harness                                              *)
(* ------------------------------------------------------------------ *)

let payload_of frame_bytes =
  String.sub frame_bytes 4 (String.length frame_bytes - 4)

(* Decode one complete payload and name the taxonomy bucket it landed
   in; anything outside the documented buckets is the bug. *)
let classify_payload decode p =
  match decode p with
  | Ok _ -> `Ok
  | Error (Wire.Bad_version _) | Error (Wire.Malformed _) -> `Recoverable
  | Error (Wire.Closed | Wire.Truncated _ | Wire.Oversized _) ->
      `Transport_error_from_complete_payload
  | exception e -> `Unclassified_exception (Printexc.to_string e)

let decode_req_u p = Result.map ignore (Wire.decode_request p)
let decode_resp_u p = Result.map ignore (Wire.decode_response p)

(* Push an arbitrary byte stream through a fresh Dechunk and classify
   everything that comes out. Returns the number of complete payloads
   seen; fails the test on any unclassified outcome. *)
let classify_stream ?(decode = decode_req_u) bytes =
  let d = Wire.Dechunk.create () in
  Wire.Dechunk.feed_string d bytes;
  let payloads = ref 0 in
  let rec go () =
    match Wire.Dechunk.next d with
    | exception e ->
        Alcotest.failf "Dechunk.next raised: %s" (Printexc.to_string e)
    | `Await -> () (* incomplete tail: the service waits or, at EOF,
                      classifies it Truncated via [buffered] *)
    | `Oversized n ->
        (* fatal, and only for genuinely out-of-range declarations *)
        if n >= 0 && n <= Wire.max_payload then
          Alcotest.failf "Oversized reported for in-range length %d" n
    | `Payload p -> (
        incr payloads;
        match classify_payload decode p with
        | `Ok | `Recoverable -> go ()
        | `Transport_error_from_complete_payload ->
            Alcotest.fail
              "decoder returned a transport-level error for a complete \
               payload"
        | `Unclassified_exception msg ->
            Alcotest.failf "unclassified decoder exception: %s" msg)
  in
  go ();
  !payloads

(* ------------------------------------------------------------------ *)
(* 1. Round-trips                                                      *)
(* ------------------------------------------------------------------ *)

let cases = 1000

let t_roundtrip_requests () =
  for _ = 1 to cases do
    let ctx = gen_ctx () in
    let frame = { Wire.id = gen_int (); body = gen_req () } in
    let bytes = Wire.encode_request ~ctx frame in
    match Wire.decode_request (payload_of bytes) with
    | Error e ->
        Alcotest.failf "valid request rejected: %s"
          (Wire.decode_error_to_string e)
    | Ok (frame', ctx') ->
        let bytes' = Wire.encode_request ~ctx:ctx' frame' in
        if not (String.equal bytes bytes') then
          Alcotest.fail "request did not round-trip to identical bytes"
  done

let t_roundtrip_responses () =
  for _ = 1 to cases do
    let frame = { Wire.id = gen_int (); body = gen_resp () } in
    let bytes = Wire.encode_response frame in
    match Wire.decode_response (payload_of bytes) with
    | Error e ->
        Alcotest.failf "valid response rejected: %s"
          (Wire.decode_error_to_string e)
    | Ok frame' ->
        let bytes' = Wire.encode_response frame' in
        if not (String.equal bytes bytes') then
          Alcotest.fail "response did not round-trip to identical bytes"
  done

(* ------------------------------------------------------------------ *)
(* 2. Mutation / truncation / garbage classification                   *)
(* ------------------------------------------------------------------ *)

let mutate bytes =
  let b = Bytes.of_string bytes in
  let len = Bytes.length b in
  match rint 6 with
  | 0 ->
      (* flip one random byte *)
      if len > 0 then begin
        let i = rint len in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + rint 255)))
      end;
      Bytes.to_string b
  | 1 ->
      (* flip several bytes *)
      for _ = 1 to 1 + rint 4 do
        if len > 0 then
          let i = rint len in
          Bytes.set b i (Char.chr (rint 256))
      done;
      Bytes.to_string b
  | 2 ->
      (* truncate at a random point *)
      Bytes.sub_string b 0 (rint (max 1 len))
  | 3 ->
      (* rewrite the length header with a random declaration *)
      if len >= 4 then
        Bytes.set_int32_be b 0 (Random.State.int32 rng Int32.max_int);
      Bytes.to_string b
  | 4 ->
      (* glue a second (possibly cut) copy on: resynchronization *)
      Bytes.to_string b ^ String.sub bytes 0 (rint (max 1 len))
  | _ ->
      (* pure garbage *)
      String.init (rint 64) (fun _ -> Char.chr (rint 256))

let t_mutation_classification () =
  for _ = 1 to cases do
    let bytes =
      if rint 2 = 0 then
        Wire.encode_request ~ctx:(gen_ctx ())
          { Wire.id = gen_int (); body = gen_req () }
      else Wire.encode_response { Wire.id = gen_int (); body = gen_resp () }
    in
    let decode =
      (* decode mutated responses as requests half the time too: a
         confused peer is exactly the case the taxonomy must absorb *)
      if rint 2 = 0 then decode_req_u else decode_resp_u
    in
    ignore (classify_stream ~decode (mutate bytes))
  done

let t_oversized_declaration () =
  (* a header declaring more than max_payload must be caught from the
     4 header bytes alone, before any body is buffered *)
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_payload + 1));
  let d = Wire.Dechunk.create () in
  Wire.Dechunk.feed_string d (Bytes.to_string b);
  (match Wire.Dechunk.next d with
   | `Oversized n -> Alcotest.(check int) "declared" (Wire.max_payload + 1) n
   | _ -> Alcotest.fail "oversized declaration not detected from header");
  (* negative declaration (high bit set) is oversized too, not a crash *)
  Bytes.set_int32_be b 0 0x80000001l;
  let d = Wire.Dechunk.create () in
  Wire.Dechunk.feed_string d (Bytes.to_string b);
  match Wire.Dechunk.next d with
  | `Oversized n -> Alcotest.(check bool) "negative declared" true (n < 0)
  | _ -> Alcotest.fail "negative declaration not detected"

let t_truncation_never_yields () =
  (* no prefix of a single valid frame ever yields a payload, and the
     partial bytes stay visible via [buffered] so EOF classifies as
     Truncated *)
  for _ = 1 to 200 do
    let bytes =
      Wire.encode_request ~ctx:(gen_ctx ())
        { Wire.id = gen_int (); body = gen_req () }
    in
    let len = String.length bytes in
    let cut = 1 + rint (len - 1) in
    let d = Wire.Dechunk.create () in
    Wire.Dechunk.feed_string d (String.sub bytes 0 cut);
    (match Wire.Dechunk.next d with
     | `Await -> ()
     | `Payload _ -> Alcotest.fail "payload produced from a truncated frame"
     | `Oversized _ -> Alcotest.fail "oversized from a valid prefix");
    Alcotest.(check int) "buffered bytes" cut (Wire.Dechunk.buffered d)
  done

(* ------------------------------------------------------------------ *)
(* 3. Split-at-every-offset + random fragmentation                     *)
(* ------------------------------------------------------------------ *)

(* One representative frame of every kind on the wire, request and
   response, with non-trivial bodies so every field boundary exists. *)
let one_of_each () : (string * string) list =
  let ctx = { Wire.trace_id = "trace-1"; timeout_s = 2.5 } in
  let reqs : (string * Wire.req) list =
    [ ("ping", Ping);
      ("cql", Cql { text = "command:request_component;"; args = [ Aint 5; Astr "x"; Afloat 2.5; Astrs [ "a"; "b" ] ] });
      ("sql", Sql "SELECT name FROM components");
      ("stats", Stats);
      ("trace_fetch", Trace_fetch "tid-1");
      ("shutdown", Shutdown);
      ("subscribe", Subscribe { cursor = 12345 });
      ( "batch",
        Batch
          [ Bcql { text = "command:x;"; args = [ Aint 1 ] };
            Bsql "SELECT a FROM b" ] ) ]
  in
  let resps : (string * Wire.resp) list =
    [ ("pong", Pong);
      ("results", Results [ ("s", Rstr "v"); ("n", Rint 7); ("f", Rfloat 1.5); ("l", Rstrs [ "x" ]) ]);
      ("sql_affected", Sql_result (Affected 3));
      ("sql_relation", Sql_result (Relation { cols = [ "a"; "b" ]; rows = [ [ "1"; "2" ] ] }));
      ( "stats_report",
        Stats_report
          { sp_text = "t";
            sp_counters = [ ("c", 1) ];
            sp_gauges = [ ("g", 2.0) ];
            sp_hists =
              [ { hs_name = "h"; hs_count = 1; hs_sum = 1.0; hs_min = 0.5;
                  hs_max = 1.5; hs_p50 = 1.0; hs_p90 = 1.2; hs_p99 = 1.4 } ];
            sp_slow =
              [ { sl_cmd = "net.cql.x"; sl_trace = "t"; sl_conn = 1;
                  sl_seconds = 2.0; sl_cache = "hit";
                  sl_phases = [ ("gen", 1.5) ];
                  sl_plan = "scan(components)" } ] } );
      ( "spans",
        Spans
          [ { rs_id = 1; rs_parent = Some 0; rs_name = "n"; rs_tag = "t";
              rs_start_ns = 10; rs_dur_ns = 20; rs_attrs = [ ("k", "v") ] } ] );
      ("error", Error { code = Wire.Overloaded; message = "m" });
      ("bye", Bye);
      ( "journal_batch",
        Journal_batch
          { jb_first = 1; jb_next = 2; jb_records = [ "r1"; "r2" ];
            jb_files = [ ("f", "data") ] } );
      ("checkpoint_offer", Checkpoint_offer { co_cursor = 9; co_files = 2 });
      ( "checkpoint_chunk",
        Checkpoint_chunk { cc_name = "f"; cc_data = "d"; cc_last = true } );
      ("repl_error", Repl_error "gone");
      ( "batch_reply",
        Batch_reply
          [ Bresults [ ("k", Rstr "v") ];
            Bsql_result (Affected 1);
            Berror { code = Wire.Sql_error; message = "e" } ] ) ]
  in
  List.map
    (fun (n, r) ->
      ("req." ^ n, Wire.encode_request ~ctx { Wire.id = 7; body = r }))
    reqs
  @ List.map
      (fun (n, r) ->
        ("resp." ^ n, Wire.encode_response { Wire.id = 7; body = r }))
      resps

let decodes_ok name bytes p =
  let ok =
    if String.length name >= 4 && String.sub name 0 4 = "req." then
      match Wire.decode_request p with
      | Ok (f, ctx) ->
          String.equal bytes (Wire.encode_request ~ctx f)
      | Error _ -> false
    else
      match Wire.decode_response p with
      | Ok f -> String.equal bytes (Wire.encode_response f)
      | Error _ -> false
  in
  if not ok then Alcotest.failf "%s: reassembled payload did not decode" name

let t_split_every_offset () =
  List.iter
    (fun (name, bytes) ->
      let len = String.length bytes in
      for cut = 0 to len do
        let d = Wire.Dechunk.create () in
        Wire.Dechunk.feed_string d (String.sub bytes 0 cut);
        (match Wire.Dechunk.next d with
         | `Payload p ->
             if cut < len then
               Alcotest.failf "%s: payload before byte %d of %d" name cut len
             else decodes_ok name bytes p
         | `Await ->
             if cut = len then
               Alcotest.failf "%s: complete frame not recognized" name
         | `Oversized _ -> Alcotest.failf "%s: bogus oversized" name);
        if cut < len then begin
          Wire.Dechunk.feed_string d (String.sub bytes cut (len - cut));
          match Wire.Dechunk.next d with
          | `Payload p -> decodes_ok name bytes p
          | `Await | `Oversized _ ->
              Alcotest.failf "%s: frame split at %d did not reassemble" name
                cut
        end
      done)
    (one_of_each ())

let t_random_fragmentation () =
  (* several frames glued, then cut into random fragments: exactly the
     original payloads come out, in order *)
  for _ = 1 to 200 do
    let frames =
      List.init (1 + rint 4) (fun _ ->
          Wire.encode_request ~ctx:(gen_ctx ())
            { Wire.id = gen_int (); body = gen_req () })
    in
    let stream = String.concat "" frames in
    let d = Wire.Dechunk.create () in
    let out = ref [] in
    let pos = ref 0 in
    let len = String.length stream in
    while !pos < len do
      let n = min (1 + rint 40) (len - !pos) in
      Wire.Dechunk.feed d (Bytes.unsafe_of_string stream) !pos n;
      pos := !pos + n;
      let rec drain () =
        match Wire.Dechunk.next d with
        | `Payload p ->
            out := p :: !out;
            drain ()
        | `Await -> ()
        | `Oversized _ -> Alcotest.fail "bogus oversized mid-stream"
      in
      drain ()
    done;
    let got = List.rev !out in
    Alcotest.(check int) "frame count" (List.length frames) (List.length got);
    List.iter2
      (fun frame p ->
        if not (String.equal (payload_of frame) p) then
          Alcotest.fail "fragmented payload differs from the original")
      frames got;
    Alcotest.(check int) "no leftover" 0 (Wire.Dechunk.buffered d)
  done

let () =
  Alcotest.run "wire_fuzz"
    [ ( "fuzz",
        [ Alcotest.test_case "request round-trips" `Quick t_roundtrip_requests;
          Alcotest.test_case "response round-trips" `Quick
            t_roundtrip_responses;
          Alcotest.test_case "mutation classification" `Quick
            t_mutation_classification;
          Alcotest.test_case "oversized declarations" `Quick
            t_oversized_declaration;
          Alcotest.test_case "truncation never yields" `Quick
            t_truncation_never_yields;
          Alcotest.test_case "split at every offset" `Quick
            t_split_every_offset;
          Alcotest.test_case "random fragmentation" `Quick
            t_random_fragmentation ] ) ]
