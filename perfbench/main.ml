(* perfbench: drives icdb serve children from outside and prints one
   JSON result line.

     main.exe --workload W --seed N --seconds S --trace 0|1
              --icdb PATH --root DIR

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) replay the same seeded work in process under the
   benchmark's span recorder and report the per-layer metrics. Both
   write a result record (and a traced run its span dump and
   attribution report) under DIR/.perfbench/out. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let root = ref "."

let usage = "main.exe --workload W --seed N --seconds S --trace 0|1 --icdb PATH --root DIR"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let git_commit () =
  if not (Sys.file_exists (Filename.concat !root ".git")) then "unknown (not a git checkout)"
  else
  match Unix.open_process_in (Filename.quote_command "git" [ "-C"; !root; "rev-parse"; "HEAD" ] ^ " 2>/dev/null") with
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown (not a git checkout)" else line
  | exception _ -> "unknown"

(* A fixed CPU loop, median of 20 timings in ms: how fast the host ran
   around the measurement, for reading a run's figures. *)
let host_loop_ms () =
  let times =
    List.init 20 (fun _ ->
        let t0 = Unix.gettimeofday () in
        let x = ref 0 in
        for i = 1 to 1_000_000 do
          x := !x + (i land 7)
        done;
        ignore (Sys.opaque_identity !x);
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  Stats.median times

let host_before = ref 0.0

module Json = Icdb_obs.Json

let num v = Json.float ~prec:9 v

let metric (name, v, unit) = (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ])

let record_path kind =
  Filename.concat
    (Filename.concat !root ".perfbench/out")
    (Printf.sprintf "%s-seed%d-%s" !workload !seed kind)

let context daemons =
  [ ("workload", Json.Str !workload); ("seed", Json.Int !seed); ("seconds", num !seconds);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.Str Sys.ocaml_version); ("commit", Json.Str (git_commit ()));
    ("daemon_argv", Json.List (List.map (fun s -> Json.Str s) daemons));
    ("host_loop_ms_before", num !host_before); ("host_loop_ms_after", num (host_loop_ms ())) ]

let print_checks checks =
  List.iter
    (fun (name, ok) -> Printf.eprintf "check %-70s %s\n" name (if ok then "ok" else "FAILED"))
    checks

(* The result line. A metric that is not a finite number (a timed
   operation that never completed) makes the run incorrect. *)
let print_result ~correct ~attempted ~failed metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then prerr_endline "error: a metric is not a finite number";
  print_endline
    (Spans.one_line
       (Json.Obj
          [ ("correct", Json.Bool (correct && finite)); ("attempted", Json.Int attempted);
            ("failed", Json.Int failed); ("metrics", Json.Obj (List.map metric metrics)) ]))

let untraced () =
  let r = Workloads.run !workload ~seed:!seed ~seconds:!seconds in
  let l = r.Workloads.lat in
  let correct = List.for_all snd r.Workloads.checks in
  let metrics =
    [ ("setup_s", Stats.median r.Workloads.setups, "s");
      ("ops_per_s", r.Workloads.ops_per_s, "op/s");
      ("lat_p50_ms", 1e3 *. l.Stats.p50, "ms");
      ("lat_tail_ms", 1e3 *. l.Stats.tail, "ms");
      ("rss_mb", r.Workloads.rss_mb, "MB") ]
  in
  print_checks r.Workloads.checks;
  List.iter (fun (k, v) -> Printf.eprintf "note  %s = %s\n" k v) r.Workloads.notes;
  Printf.eprintf "tail  lat_tail_ms is p%g of %d samples in %d slice(s), at least %d beyond it per slice\n"
    l.Stats.tail_p l.Stats.samples l.Stats.slices l.Stats.beyond;
  if l.Stats.beyond < 10 then
    prerr_endline "warning: fewer than 10 samples beyond the tail percentile (host too slow?)";
  Json.write ~path:(record_path "result.json")
    (Json.Obj
       (context r.Workloads.daemons
       @ [ ("correct", Json.Bool correct);
           ("attempted", Json.Int r.Workloads.attempted);
           ("failed", Json.Int r.Workloads.failed);
           ("setups_s", Json.List (List.map num r.Workloads.setups));
           ("tail_percentile", num l.Stats.tail_p);
           ("tail_samples", Json.Int l.Stats.samples);
           ("tail_slices", Json.Int l.Stats.slices);
           ("tail_beyond", Json.Int l.Stats.beyond);
           ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) r.Workloads.checks));
           ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.Workloads.notes));
           ("metrics", Json.Obj (List.map metric metrics)) ]));
  print_result ~correct ~attempted:r.Workloads.attempted ~failed:r.Workloads.failed metrics

let traced () =
  let t = Traced.run !workload ~seed:!seed ~seconds:!seconds in
  Spans.dump (record_path "spans.jsonl");
  List.iter (fun (k, v) -> Printf.eprintf "attr  %-44s %s\n" k (Spans.one_line v)) t.Traced.report;
  let correct = List.for_all snd t.Traced.checks in
  print_checks t.Traced.checks;
  Json.write ~path:(record_path "attribution.json")
    (Json.Obj
       (context t.Traced.daemons
       @ [ ("correct", Json.Bool correct);
           ("report", Json.Obj t.Traced.report);
           ("metrics", Json.Obj (List.map metric t.Traced.metrics)) ]));
  print_result ~correct ~attempted:t.Traced.attempted ~failed:t.Traced.failed t.Traced.metrics

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--icdb", Arg.Set_string Daemon.icdb, "PATH icdb executable");
      ("--root", Arg.Set_string root, "DIR checkout root") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "hot_query"; "cold_explore"; "durable_churn"; "follower_lag" ])
  then (prerr_endline ("unknown workload: " ^ !workload); exit 2);
  root := (if Filename.is_relative !root then Filename.concat (Sys.getcwd ()) !root else !root);
  let run_dir =
    Filename.concat !root (Printf.sprintf ".perfbench/run-%d" (Unix.getpid ()))
  in
  Daemon.run_dir := run_dir;
  mkdir_p (Filename.concat run_dir "tmp");
  mkdir_p (Filename.concat !root ".perfbench/out");
  Unix.putenv "TMPDIR" (Filename.concat run_dir "tmp");
  Filename.set_temp_dir_name (Filename.concat run_dir "tmp");
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle
       (fun _ ->
         Daemon.kill_all ();
         rm_rf run_dir;
         exit 143));
  (* a run must end within 180 s: past 170 s, give up and clean up *)
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf 170.0;
         prerr_endline "error: run exceeded 170 s";
         Daemon.kill_all ();
         Unix._exit 3)
       ());
  host_before := host_loop_ms ();
  let code =
    match if !trace = 1 then traced () else untraced () with
    | () -> 0
    | exception e ->
        Printf.eprintf "error: %s\n%!" (Printexc.to_string e);
        1
  in
  Daemon.kill_all ();
  rm_rf run_dir;
  exit code
