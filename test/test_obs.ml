(* The observability subsystem: span nesting and ordering, histogram
   percentile accuracy, event sinks, the disabled-mode no-op guarantee,
   and — end to end — that a traced [Server.request_component] yields a
   span tree covering every phase of the generation path exactly once
   and exports as well-formed Chrome trace_event JSON. *)

open Icdb
module Trace = Icdb_obs.Trace
module Metrics = Icdb_obs.Metrics
module Event = Icdb_obs.Event

let check = Alcotest.check

(* Tracing state is global; every test starts from a clean slate and
   leaves tracing off for its neighbours. *)
let with_tracing f () =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false; Trace.reset ()) f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner_a" (fun () -> ());
      Trace.with_span "inner_b" (fun () ->
          Trace.with_span "leaf" (fun () -> ())));
  let spans = Trace.all_finished () in
  check Alcotest.int "four spans" 4 (List.length spans);
  (* completion order: children before parents *)
  check (Alcotest.list Alcotest.string) "completion order"
    [ "inner_a"; "leaf"; "inner_b"; "outer" ]
    (List.map (fun s -> s.Trace.sname) spans);
  let find name = List.find (fun s -> s.Trace.sname = name) spans in
  let outer = find "outer" in
  check Alcotest.(option int) "outer is a root" None outer.Trace.sparent;
  check Alcotest.(option int) "inner_a under outer" (Some outer.Trace.sid)
    (find "inner_a").Trace.sparent;
  check Alcotest.(option int) "inner_b under outer" (Some outer.Trace.sid)
    (find "inner_b").Trace.sparent;
  check Alcotest.(option int) "leaf under inner_b"
    (Some (find "inner_b").Trace.sid)
    (find "leaf").Trace.sparent;
  (* intervals: children contained in the parent *)
  List.iter
    (fun name ->
      let c = find name in
      check Alcotest.bool (name ^ " starts after outer") true
        (c.Trace.sstart_ns >= outer.Trace.sstart_ns);
      check Alcotest.bool (name ^ " ends before outer") true
        (c.Trace.sstart_ns + c.Trace.sdur_ns
         <= outer.Trace.sstart_ns + outer.Trace.sdur_ns))
    [ "inner_a"; "inner_b"; "leaf" ]

let test_span_attrs_and_exceptions =
  with_tracing @@ fun () ->
  (try
     Trace.with_span "failing" (fun () ->
         Trace.add_attr "k" "v";
         failwith "boom")
   with Failure _ -> ());
  match Trace.all_finished () with
  | [ s ] ->
      check Alcotest.string "span closed by the exception" "failing"
        s.Trace.sname;
      check Alcotest.bool "duration recorded" true (s.Trace.sdur_ns >= 0);
      check Alcotest.(option string) "attribute survived" (Some "v")
        (List.assoc_opt "k" s.Trace.sattrs)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_ring_bounds =
  with_tracing @@ fun () ->
  let saved = Trace.capacity () in
  Trace.set_capacity 8;
  Fun.protect
    ~finally:(fun () -> Trace.set_capacity saved)
    (fun () ->
      for i = 1 to 20 do
        Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
      done;
      let spans = Trace.all_finished () in
      check Alcotest.int "ring keeps the last 8" 8 (List.length spans);
      check (Alcotest.list Alcotest.string) "most recent retained, in order"
        [ "s13"; "s14"; "s15"; "s16"; "s17"; "s18"; "s19"; "s20" ]
        (List.map (fun s -> s.Trace.sname) spans);
      check Alcotest.int "total keeps counting" 20 (Trace.finished_count ()))

let test_disabled_noop () =
  Trace.set_enabled false;
  Trace.reset ();
  let before = Trace.finished_count () in
  let ran = ref 0 in
  Trace.with_span "ghost" (fun () ->
      incr ran;
      Trace.add_attr "k" "v");
  check Alcotest.int "body ran" 1 !ran;
  check Alcotest.int "nothing recorded" before (Trace.finished_count ());
  check Alcotest.bool "disabled stays disabled" false (Trace.enabled ())

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_percentiles () =
  let h = Metrics.make_histogram "t" in
  (* 1..100 ms: percentiles are known exactly, the log-scale buckets
     carry a bounded ~13% relative error *)
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i *. 1e-3)
  done;
  let s = Metrics.summary h in
  check Alcotest.int "count" 100 s.Metrics.s_count;
  check (Alcotest.float 1e-9) "min" 1e-3 s.Metrics.s_min;
  check (Alcotest.float 1e-9) "max" 0.1 s.Metrics.s_max;
  let close name expected actual =
    check Alcotest.bool
      (Printf.sprintf "%s: %.4f within 15%% of %.4f" name actual expected)
      true
      (Float.abs (actual -. expected) /. expected < 0.15)
  in
  close "p50" 0.050 s.Metrics.s_p50;
  close "p90" 0.090 s.Metrics.s_p90;
  close "p99" 0.099 s.Metrics.s_p99;
  check (Alcotest.float 1e-6) "mean is exact (tracked outside buckets)"
    0.0505 s.Metrics.s_mean

let test_histogram_single_value () =
  let h = Metrics.make_histogram "one" in
  Metrics.observe h 0.042;
  let s = Metrics.summary h in
  (* clamping to [min, max] makes a single-valued distribution exact *)
  check (Alcotest.float 1e-9) "p50 exact" 0.042 s.Metrics.s_p50;
  check (Alcotest.float 1e-9) "p99 exact" 0.042 s.Metrics.s_p99

let test_counters () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "c" in
  Metrics.incr c;
  Metrics.incr ~by:5 c;
  check Alcotest.int "counter adds up" 6 (Metrics.counter_value c);
  check Alcotest.bool "get-or-create returns the same instrument" true
    (Metrics.counter ~registry:r "c" == c);
  Metrics.reset r;
  check Alcotest.int "reset zeroes in place" 0 (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_ring_sink () =
  let sink, read = Event.ring_sink 4 in
  let saved = Event.level () in
  Event.set_level Event.Debug;
  let id = Event.add_sink sink in
  Fun.protect
    ~finally:(fun () -> Event.remove_sink id; Event.set_level saved)
    (fun () ->
      for i = 1 to 10 do
        Event.emit Event.Info ~fields:[ ("i", string_of_int i) ] "tick"
      done;
      let events = read () in
      check Alcotest.int "ring keeps the last 4" 4 (List.length events);
      check (Alcotest.list Alcotest.string) "oldest first"
        [ "7"; "8"; "9"; "10" ]
        (List.map (fun e -> List.assoc "i" e.Event.ev_fields) events))

let test_event_threshold () =
  let sink, read = Event.ring_sink 8 in
  let saved = Event.level () in
  Event.set_level Event.Warn;
  let id = Event.add_sink sink in
  Fun.protect
    ~finally:(fun () -> Event.remove_sink id; Event.set_level saved)
    (fun () ->
      Event.emit Event.Debug "below";
      Event.emit Event.Info "below";
      Event.emit Event.Warn "kept";
      Event.emit Event.Error "kept";
      check Alcotest.int "threshold filters" 2 (List.length (read ()));
      check Alcotest.bool "no sink for debug at warn threshold" false
        (Event.enabled Event.Debug))

(* ------------------------------------------------------------------ *)
(* Chrome export: well-formedness without a JSON library               *)
(* ------------------------------------------------------------------ *)

(* A tiny structural validator: balanced braces/brackets outside
   strings, correct escaping inside them. Enough to catch a malformed
   export without pulling in a parser dependency. *)
let json_well_formed s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else if c = '\n' then ok := false
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> Stdlib.incr depth
        | '}' | ']' ->
            Stdlib.decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let test_chrome_export =
  with_tracing @@ fun () ->
  Trace.with_span "root" (fun () ->
      Trace.add_attr "quote" "say \"hi\"\nand newline";
      Trace.with_span "child" (fun () -> ()));
  let json = Trace.export_chrome () in
  check Alcotest.bool "balanced and escaped" true (json_well_formed json);
  let has needle =
    let nn = String.length needle and ns = String.length json in
    let rec at i = i + nn <= ns && (String.sub json i nn = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "complete events" true (has "\"ph\":\"X\"");
  check Alcotest.bool "both spans named" true
    (has "\"name\":\"root\"" && has "\"name\":\"child\"");
  check Alcotest.bool "parent link present" true (has "\"parent_id\"");
  check Alcotest.bool "attr escaped" true (has "say \\\"hi\\\"\\nand newline")

(* ------------------------------------------------------------------ *)
(* End to end: a traced request covers every phase exactly once        *)
(* ------------------------------------------------------------------ *)

let counter_spec =
  Spec.make ~target:Spec.Layout
    (Spec.From_component
       { component = "counter";
         attributes =
           [ ("size", 3); ("type", 2); ("load", 1); ("enable", 1);
             ("up_or_down", 3) ];
         functions = [] })

(* Requests observed so far by the process-wide histogram every
   finished "request" span feeds. *)
let request_span_count () =
  (Metrics.summary (Metrics.histogram "span.request")).Metrics.s_count

let test_request_trace =
  with_tracing @@ fun () ->
  let server = Server.create ~verify:false () in
  let before = request_span_count () in
  let mark = Trace.finished_count () in
  let inst = Server.request_component server counter_spec in
  ignore inst;
  let spans = Trace.since mark in
  let count name =
    List.length (List.filter (fun s -> s.Trace.sname = name) spans)
  in
  (* server-level phases a cold Layout-target generation runs once *)
  List.iter
    (fun phase -> check Alcotest.int (phase ^ " exactly once") 1 (count phase))
    [ "request"; "cache_lookup"; "resolve"; "expand"; "generator_select";
      "synthesize"; "sizing"; "sta"; "shape"; "persist"; "cif";
      "opt.optimize"; "techmap.map"; "sizing.size"; "shape.estimate";
      "cif.generate" ];
  (* sta.analyze runs once, for the request's report, which the
     constraint check then reads: the sizing loop re-times its
     candidates on one timing graph without it. Every span sits under
     the single request root. *)
  check Alcotest.int "sta.analyze once" 1 (count "sta.analyze");
  let root = List.find (fun s -> s.Trace.sname = "request") spans in
  check Alcotest.(option int) "request is the root" None root.Trace.sparent;
  List.iter
    (fun s ->
      if s != root then
        check Alcotest.bool (s.Trace.sname ^ " has a parent") true
          (s.Trace.sparent <> None))
    spans;
  check Alcotest.bool "export is well-formed JSON" true
    (json_well_formed (Trace.export_chrome ~spans ()));
  check Alcotest.int "span.request observed the request once" (before + 1)
    (request_span_count ())

let test_warm_hit_trace =
  with_tracing @@ fun () ->
  let server = Server.create ~verify:false () in
  let cold = Server.request_component server counter_spec in
  let mark = Trace.finished_count () in
  let warm = Server.request_component server counter_spec in
  check Alcotest.bool "hit returns the same instance" true (cold == warm);
  let spans = Trace.since mark in
  check (Alcotest.list Alcotest.string) "a hit is lookup + request only"
    [ "cache_lookup"; "request" ]
    (List.map (fun s -> s.Trace.sname) spans)

let test_disabled_request () =
  Trace.set_enabled false;
  Trace.reset ();
  let server = Server.create ~verify:false () in
  let before = request_span_count () in
  let inst = Server.request_component server counter_spec in
  check Alcotest.bool "generation works untraced" true
    (Instance.gate_count inst > 0);
  check Alcotest.int "no spans recorded" 0 (Trace.finished_count ());
  check Alcotest.int "span.request untouched untraced" before
    (request_span_count ())

(* ------------------------------------------------------------------ *)
(* Time-series rings and the flight recorder                           *)
(* ------------------------------------------------------------------ *)

module Series = Icdb_obs.Series
module Recorder = Icdb_obs.Recorder
module Json = Icdb_obs.Json

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

(* Six manual ticks into a 4-slot ring: retention caps at the ring,
   counter points are per-tick deltas, a raising poll records NaN. *)
let test_series_ring_and_deltas () =
  let s = Series.create ~cap:4 ~period_s:1.0 () in
  let c = Metrics.counter "test.series.ring" in
  let reqs = Series.add s "reqs" (Series.Counter c) in
  let boom = Series.add s "boom" (Series.Poll (fun () -> failwith "down")) in
  for i = 1 to 6 do
    Metrics.incr ~by:i c;
    Series.tick s
  done;
  check Alcotest.int "total ticks" 6 (Series.total_ticks s);
  check Alcotest.int "ring caps retention" 4 (Series.sample_count s);
  check (Alcotest.list (Alcotest.float 0.0)) "only the last four deltas survive"
    [ 3.0; 4.0; 5.0; 6.0 ]
    (List.map snd (Series.samples s reqs));
  List.iter
    (fun (_, v) ->
      check Alcotest.bool "failed poll records NaN" true (Float.is_nan v))
    (Series.samples s boom);
  let times = List.map fst (Series.samples s reqs) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check Alcotest.bool "retained timestamps are monotone" true (mono times)

(* A writer hammers the counter while the sampler ticks: deltas must
   never go negative and must sum to exactly what the writer added. *)
let test_series_concurrent_writer () =
  let s = Series.create ~cap:128 ~period_s:1.0 () in
  let c = Metrics.counter "test.series.concurrent" in
  let sr = Series.add s "ops" (Series.Counter c) in
  let total = 20_000 in
  let writer =
    Thread.create
      (fun () ->
        for i = 1 to total do
          Metrics.incr c;
          if i mod 1024 = 0 then Thread.yield ()
        done)
      ()
  in
  for _ = 1 to 60 do
    Series.tick s;
    Thread.yield ()
  done;
  Thread.join writer;
  Series.tick s;
  let deltas = List.map snd (Series.samples s sr) in
  check Alcotest.bool "no negative deltas" true
    (List.for_all (fun d -> d >= 0.0) deltas);
  check (Alcotest.float 0.0) "deltas sum to the writer's total"
    (float_of_int total)
    (List.fold_left ( +. ) 0.0 deltas)

(* The background thread ticks on its own, runs hooks, and joins. *)
let test_series_sampler_thread () =
  let s = Series.create ~cap:64 ~period_s:0.01 () in
  let g = Metrics.gauge "test.series.level" in
  Metrics.set g 42.0;
  let sr = Series.add s "level" (Series.Gauge g) in
  let hooks = ref 0 in
  Series.on_tick s (fun () -> hooks := !hooks + 1);
  check Alcotest.bool "not running before start" false (Series.running s);
  Series.start s;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Series.total_ticks s < 5 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Series.stop s;
  check Alcotest.bool "stopped after stop" false (Series.running s);
  check Alcotest.bool "at least five ticks" true (Series.total_ticks s >= 5);
  check Alcotest.bool "hooks ran with the ticks" true (!hooks >= 5);
  (match Series.last_value s sr with
   | Some (_, v) -> check (Alcotest.float 0.0) "gauge level sampled" 42.0 v
   | None -> Alcotest.fail "no samples after the thread ran")

(* The /statz body: structurally valid JSON, NaN as null, ?last bound. *)
let test_series_json () =
  let s = Series.create ~cap:8 ~period_s:0.5 () in
  let c = Metrics.counter "test.series.json" in
  ignore (Series.add s "reqs" (Series.Counter c));
  ignore (Series.add s "nan" (Series.Poll (fun () -> Float.nan)));
  for _ = 1 to 12 do
    Metrics.incr c;
    Series.tick s
  done;
  let body = Json.to_string (Series.to_json s) in
  check Alcotest.bool "statz body well-formed" true (json_well_formed body);
  check Alcotest.bool "NaN renders as null" true (contains body "null");
  check Alcotest.bool "ring bound reported" true
    (contains body "\"samples\": 8");
  let limited = Json.to_string (Series.to_json ~last:3 s) in
  check Alcotest.bool "last-limited body well-formed" true
    (json_well_formed limited);
  check Alcotest.bool "last bound reported" true
    (contains limited "\"samples\": 3")

(* The flight recorder: bounded event ring, oldest-first, and a dump
   that is well-formed JSON both in memory and on disk. *)
let test_recorder_dump () =
  let old_level = Event.level () in
  Event.set_level Event.Error;
  let r = Recorder.create ~cap:4 () in
  Fun.protect
    ~finally:(fun () ->
      Recorder.close r;
      Event.set_level old_level)
    (fun () ->
      for i = 1 to 6 do
        Event.error "recorder test event %d" i
      done;
      check Alcotest.int "event ring bounded" 4 (Recorder.event_count r);
      (match Recorder.events r with
       | first :: _ ->
           check Alcotest.bool "ring keeps the newest, oldest-first" true
             (contains first "event 3")
       | [] -> Alcotest.fail "no events retained");
      let sampler = Series.create ~cap:8 ~period_s:1.0 () in
      let c = Metrics.counter "test.recorder.ctr" in
      ignore (Series.add sampler "reqs" (Series.Counter c));
      Metrics.incr c;
      Series.tick sampler;
      Recorder.set_sampler r sampler;
      Recorder.set_meta r [ ("role", "test") ];
      Recorder.add_table r "conns" (fun () ->
          [ [ ("cid", "1"); ("state", "active") ] ]);
      let body = Json.to_string (Recorder.to_json ~reason:"unit" r) in
      check Alcotest.bool "dump well-formed" true (json_well_formed body);
      check Alcotest.bool "reason recorded" true (contains body "\"unit\"");
      check Alcotest.bool "meta recorded" true (contains body "\"role\"");
      check Alcotest.bool "conn table present" true (contains body "\"conns\"");
      check Alcotest.bool "series section present" true
        (contains body "\"series\"");
      let path = Filename.temp_file "icdb-blackbox" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Recorder.dump ~reason:"unit" r ~path;
          let ic = open_in_bin path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check Alcotest.bool "on-disk dump well-formed" true
            (json_well_formed contents)))

let () =
  Alcotest.run "obs"
    [ ( "trace",
        [ Alcotest.test_case "span nesting and ordering" `Quick
            test_span_nesting;
          Alcotest.test_case "attrs survive exceptions" `Quick
            test_span_attrs_and_exceptions;
          Alcotest.test_case "completed-span ring is bounded" `Quick
            test_ring_bounds;
          Alcotest.test_case "disabled tracing is a no-op" `Quick
            test_disabled_noop;
          Alcotest.test_case "chrome export well-formed" `Quick
            test_chrome_export ] );
      ( "metrics",
        [ Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "single-valued histogram exact" `Quick
            test_histogram_single_value;
          Alcotest.test_case "counters" `Quick test_counters ] );
      ( "events",
        [ Alcotest.test_case "ring sink bounded, oldest-first" `Quick
            test_ring_sink;
          Alcotest.test_case "threshold filtering" `Quick
            test_event_threshold ] );
      ( "telemetry",
        [ Alcotest.test_case "series ring wrap and deltas" `Quick
            test_series_ring_and_deltas;
          Alcotest.test_case "deltas exact under a concurrent writer" `Quick
            test_series_concurrent_writer;
          Alcotest.test_case "sampler thread ticks and stops" `Quick
            test_series_sampler_thread;
          Alcotest.test_case "statz JSON well-formed and bounded" `Quick
            test_series_json;
          Alcotest.test_case "flight-recorder dump" `Quick
            test_recorder_dump ] );
      ( "pipeline",
        [ Alcotest.test_case "request covers every phase once" `Quick
            test_request_trace;
          Alcotest.test_case "warm hit traces lookup only" `Quick
            test_warm_hit_trace;
          Alcotest.test_case "untraced request stays clean" `Quick
            test_disabled_request ] ) ]
