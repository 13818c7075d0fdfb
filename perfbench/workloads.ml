(* The four untraced workloads: closed loops over the wire against real
   icdb serve children, each followed by its answer check. *)

open Icdb
module Client = Icdb_net.Client
module Wire = Icdb_net.Wire
module Exec = Icdb_cql.Exec
module Sql = Icdb_reldb.Sql
module Value = Icdb_reldb.Value

let now = Unix.gettimeofday

type result = {
  setups : float list;           (* seconds, one per set-up *)
  ops_per_s : float;
  lat : Stats.summary;           (* seconds, of the timed op *)
  attempted : int;
  failed : int;
  rss_mb : float;
  checks : (string * bool) list;
  notes : (string * string) list;
  daemons : string list;
}

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type reply =
  | Cql of (string * Exec.result) list
  | Rel of string list * string list list
  | Err of string

let of_sql = function
  | Wire.Relation { cols; rows } -> Rel (cols, rows)
  | Wire.Affected n -> Rel ([ "affected" ], [ [ string_of_int n ] ])

let send c = function
  | Gen.Sql s -> (
      match Client.sql c s with
      | Ok r -> of_sql r
      | Error (code, m) -> Err (Wire.error_code_to_string code ^ ": " ^ m))
  | op -> (
      match Client.exec c (Gen.op_text op) with
      | Ok r -> Cql r
      | Error (code, m) -> Err (Wire.error_code_to_string code ^ ": " ^ m))

let exec_ok c text =
  match Client.exec c text with
  | Ok r -> r
  | Error (code, m) ->
      failwith (Printf.sprintf "%s failed: %s: %s" text (Wire.error_code_to_string code) m)

let sql_rows c stmt =
  match Client.sql c stmt with
  | Ok (Wire.Relation { rows; _ }) -> rows
  | Ok (Wire.Affected _) -> failwith (stmt ^ ": not a relation")
  | Error (code, m) -> failwith (Printf.sprintf "%s: %s: %s" stmt (Wire.error_code_to_string code) m)

let slot results key =
  match List.assoc_opt key results with Some (Exec.Rstr s) -> s | _ -> ""

(* A SQL result as the daemon renders it on the wire. *)
let wire_sql = function
  | Sql.Relation rel ->
      Wire.Relation
        { cols = List.map fst rel.Icdb_reldb.Query.rschema;
          rows =
            List.map
              (fun row -> Array.to_list (Array.map Value.to_string row))
              rel.Icdb_reldb.Query.rrows }
  | Sql.Affected n -> Wire.Affected n

(* The in-process answer to the same operation. *)
let local server = function
  | Gen.Sql s -> of_sql (wire_sql (Sql.exec (Server.db server) s))
  | op -> Cql (Exec.run server (Gen.op_text op))

(* Whether the cache answered is the server's state, not the answer. *)
let answer = function
  | Cql r -> Cql (List.remove_assoc "cache" r)
  | r -> r

(* Rows name workspace files by absolute path; compare them relative to
   the workspace that holds them. *)
let in_ws ws = function
  | Rel (cols, rows) ->
      let rel s =
        if String.starts_with ~prefix:ws s then
          "<ws>" ^ String.sub s (String.length ws) (String.length s - String.length ws)
        else s
      in
      Rel (cols, List.map (List.map rel) rows)
  | r -> r

let merge bufs =
  let b = Stats.buf () in
  List.iter (fun x -> for i = 0 to x.Stats.n - 1 do Stats.push b x.Stats.a.(i) done) bufs;
  b

let fresh_dir name =
  let d = Filename.concat !Daemon.run_dir name in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let function_probe = "command:function_query; function:(INC); component:?s"

(* Set up [k] times and keep the last; [setup] returns its seconds and
   what it built, which [discard] tears down for all but the last. *)
let repeat_setup setups k setup discard =
  let rec go k =
    let dt, x = setup () in
    setups := dt :: !setups;
    if k = 1 then x else (discard x; go (k - 1))
  in
  go k

(* A set-up that is not kept. *)
let drop (d, c) =
  Client.close c;
  Daemon.kill d

(* ------------------------------------------------------------------ *)
(* hot_query                                                           *)
(* ------------------------------------------------------------------ *)

(* Set-up: a default daemon, the catalogue generated on one connection
   in its seeded order (each id checked against the prediction), and
   one warm-up read. *)
let hot_setup (h : Gen.hot) =
  let t0 = now () in
  let d = Daemon.spawn "hot" [] in
  let c = Daemon.connect d in
  Array.iteri
    (fun i r ->
      let res = exec_ok c (Gen.request_cql r) in
      if slot res "instance" <> h.Gen.ids.(i) then
        failwith
          (Printf.sprintf "catalogue entry %d got %s, expected %s" i (slot res "instance")
             h.Gen.ids.(i)))
    h.Gen.catalogue;
  ignore (send c h.Gen.ops.(0));
  (now () -. t0, (d, c))

type conn_log = {
  lat : Stats.buf;         (* round trips of the timed operation *)
  times : Stats.buf;       (* their completion instants *)
  op_times : Stats.buf;    (* completion instants of every counted op *)
  first : reply option array;  (* first answer seen per op index *)
  mutable attempted : int;
  mutable failed : int;
  mutable done_ : int;
  mutable mismatches : int;
  mutable hits : int;
  mutable reuses : int;
  reused : (int, unit) Hashtbl.t;
}

let conn_log n =
  { lat = Stats.buf (); times = Stats.buf (); op_times = Stats.buf (); first = Array.make n None; attempted = 0; failed = 0; done_ = 0;
    mismatches = 0; hits = 0; reuses = 0; reused = Hashtbl.create 64 }

(* One closed-loop connection cycling through the op list from
   [start]; only operations that complete inside the window count. *)
let hot_drive c (ops : Gen.op array) start deadline log =
  let n = Array.length ops in
  let i = ref start in
  while now () < deadline do
    let k = !i mod n in
    let t0 = now () in
    let reply = send c ops.(k) in
    let t1 = now () in
    if t1 <= deadline then begin
      log.attempted <- log.attempted + 1;
      match reply with
      | Err _ -> log.failed <- log.failed + 1
      | r ->
          log.done_ <- log.done_ + 1;
          Stats.push log.op_times t1;
          (match (ops.(k), r) with
           | Gen.Request _, Cql res ->
               Stats.push log.lat (t1 -. t0);
               Stats.push log.times t1;
               (match slot res "cache" with
                | "hit" -> log.hits <- log.hits + 1
                | "reuse" ->
                    log.reuses <- log.reuses + 1;
                    Hashtbl.replace log.reused k ()
                | _ -> ())
           | _ -> ());
          let a = answer r in
          (match log.first.(k) with
           | None -> log.first.(k) <- Some a
           | Some f -> if f <> a then log.mismatches <- log.mismatches + 1)
    end;
    incr i
  done

let hot_query ~seed ~seconds =
  let h = Gen.hot_query ~seed in
  let ops = h.Gen.ops in
  let n = Array.length ops in
  let setups = ref [] in
  let d, c0 = repeat_setup setups 3 (fun () -> hot_setup h) drop in
  let c1 = Daemon.connect d in
  let logs = [| conn_log n; conn_log n |] in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let th = Thread.create (fun () -> hot_drive c1 ops (n / 2) deadline logs.(1)) () in
  hot_drive c0 ops 0 deadline logs.(0);
  Thread.join th;
  let rss = Daemon.peak_rss_mb d in
  Client.close c0;
  Client.close c1;
  let clean_exit = Daemon.stop d in
  (* the check: the same catalogue in process, every distinct answer
     compared with what the daemon said *)
  let server = Server.create ~workspace:(fresh_dir "hot-inproc") () in
  let ids_ok = ref true in
  Array.iteri
    (fun i r ->
      let inst = Server.request_component server (Gen.request_spec r) in
      if inst.Instance.id <> h.Gen.ids.(i) then ids_ok := false)
    h.Gen.catalogue;
  let wrong = ref 0 and compared = ref 0 in
  for k = 0 to n - 1 do
    let seen = List.filter_map (fun l -> l.first.(k)) (Array.to_list logs) in
    if seen <> [] then begin
      let expected = in_ws (Server.workspace server) (answer (local server ops.(k))) in
      List.iter
        (fun a -> incr compared; if in_ws d.Daemon.ws a <> expected then incr wrong)
        seen
    end
  done;
  (* a reuse answer must name an instance of the requested structure
     that meets the request's constraints *)
  let reuse_ok = ref true in
  Array.iter
    (fun l ->
      Hashtbl.iter
        (fun k () ->
          match (ops.(k), l.first.(k)) with
          | Gen.Request r, Some (Cql res) ->
              let spec = Spec.canonical (Gen.request_spec r) in
              let inst = Server.find_instance server (slot res "instance") in
              let c = spec.Spec.constraints in
              if
                Spec.structural_key inst.Instance.spec <> Spec.structural_key spec
                || inst.Instance.spec.Spec.constraints.Icdb_timing.Sizing.port_loads
                   <> c.Icdb_timing.Sizing.port_loads
                || not (Icdb_timing.Sizing.meets_constraints inst.Instance.netlist c)
              then reuse_ok := false
          | _ -> reuse_ok := false)
        l.reused)
    logs;
  let sum f = Array.fold_left (fun a l -> a + f l) 0 logs in
  let requests = sum (fun l -> l.lat.Stats.n) in
  let all f = merge (List.map f (Array.to_list logs)) in
  let slices = int_of_float (seconds /. 2.0) in
  let rates = Stats.slice_rates ~t0 ~width:2.0 ~n:slices (all (fun l -> l.op_times)) in
  { setups = List.rev !setups;
    ops_per_s = Stats.median rates;
    lat = Stats.sliced ~t0 ~width:2.0 ~n:slices (all (fun l -> l.times)) (all (fun l -> l.lat)) 99.0;
    attempted = sum (fun l -> l.attempted);
    failed = sum (fun l -> l.failed);
    rss_mb = rss;
    checks =
      [ ("catalogue ids as predicted in process", !ids_ok);
        ("every answer equals the in-process Exec.run", !wrong = 0 && !compared > 0);
        ("repeated answers identical", sum (fun l -> l.mismatches) = 0);
        ("reuse answers have the requested structure and meet its constraints", !reuse_ok);
        ("daemon exited cleanly", clean_exit) ];
    notes =
      [ ("slice_rates", String.concat " " (List.map (Printf.sprintf "%.0f") rates));
        ("requests", string_of_int requests);
        ("cache_hits", string_of_int (sum (fun l -> l.hits)));
        ("reuse_hits", string_of_int (sum (fun l -> l.reuses)));
        ("answers_compared", string_of_int !compared) ];
    daemons = [ Daemon.describe d ] }

(* ------------------------------------------------------------------ *)
(* cold_explore                                                        *)
(* ------------------------------------------------------------------ *)

(* Set-up: a default daemon, one read, and the off-lattice warm-up
   generations. *)
let cold_setup () =
  let t0 = now () in
  let d = Daemon.spawn "cold" [] in
  let c = Daemon.connect d in
  ignore (exec_ok c function_probe);
  Array.iter
    (fun r ->
      if slot (exec_ok c (Gen.request_cql r)) "cache" <> "miss" then
        failwith "cold warm-up write was not a miss")
    Gen.cold_warmup;
  (now () -. t0, (d, c))

(* Figures as the instances table renders them. *)
let figures area cw = (Value.to_string (Value.Float area), Value.to_string (Value.Float cw))

(* Set-ups before each pass, the last one kept: spread over the run,
   so one slow moment of the host cannot move their median. *)
let cold_setups = 3

let cold_explore ~seed ~seconds =
  let points = Gen.cold_explore ~seed in
  let setups = ref [] in
  let set_up k = repeat_setup setups k cold_setup drop in
  (* each point's round trips, one per pass, by its command text *)
  let lat = Hashtbl.create 256 in
  let passes = ref [] and rss = ref [] in
  let attempted = ref 0 and failed = ref 0 and clean = ref true in
  let described = ref [] in
  (* the lattice is the unit of fixed work: one whole pass, each on a
     fresh daemon, per 8 s of run length *)
  let passes_wanted = max 1 (int_of_float (seconds /. 8.0)) in
  let rec pass (d, c) =
    let order = Gen.cold_pass ~seed (List.length !passes) in
    let ids = Array.make (Array.length order) "" in
    Array.iteri
      (fun i r ->
        incr attempted;
        let t0 = now () in
        let text = Gen.request_cql r in
        match Client.exec c text with
        | Ok res when slot res "cache" = "miss" && slot res "degraded" = "no" ->
            Hashtbl.replace lat text
              ((now () -. t0) :: Option.value (Hashtbl.find_opt lat text) ~default:[]);
            ids.(i) <- slot res "instance"
        | Ok _ | Error _ -> incr failed)
      order;
    let rows = sql_rows c "SELECT id, area, clock_width FROM instances" in
    let table = Hashtbl.create 256 in
    List.iter
      (function [ id; a; w ] -> Hashtbl.replace table id (a, w) | _ -> ())
      rows;
    passes := (order, ids, table) :: !passes;
    rss := Daemon.peak_rss_mb d :: !rss;
    described := Daemon.describe d :: !described;
    Client.close c;
    if not (Daemon.stop d) then clean := false;
    if List.length !passes < passes_wanted then pass (set_up cold_setups)
  in
  pass (set_up cold_setups);
  (* the check: every point's figures equal the in-process request's *)
  let server = Server.create ~workspace:(fresh_dir "cold-inproc") () in
  let expected = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      let inst = Server.request_component server (Gen.request_spec r) in
      Hashtbl.replace expected (Gen.request_cql r)
        (figures (Instance.best_area inst) inst.Instance.report.Icdb_timing.Sta.clock_width))
    points;
  (* a point's latency is its best over the passes: the host's slow
     phases only ever add time, and the best of passes made in
     different orders on fresh daemons is the round trip they disturbed
     least, where a median over passes follows the host's speed from
     run to run *)
  let per_point = Stats.buf () in
  Hashtbl.iter (fun _ l -> Stats.push per_point (List.fold_left Float.min infinity l)) lat;
  let busy = Array.fold_left ( +. ) 0.0 (Array.sub per_point.Stats.a 0 per_point.Stats.n) in
  let agree =
    List.for_all
      (fun (order, ids, table) ->
        Array.for_all2
          (fun r id ->
            id <> ""
            && Hashtbl.find_opt table id = Hashtbl.find_opt expected (Gen.request_cql r))
          order ids)
      !passes
  in
  { setups = List.rev !setups;
    ops_per_s = float_of_int per_point.Stats.n /. busy;
    lat = Stats.whole per_point 90.0;
    attempted = !attempted;
    failed = !failed;
    rss_mb = List.fold_left Float.max 0.0 !rss;
    checks =
      [ ("every point's area and clock width equal the in-process figures", agree);
        ("daemons exited cleanly", !clean) ];
    notes =
      [ (* per point, by command text: its latency in each pass *)
        ( "pass_ms",
          String.concat " "
            (List.map
               (fun (_, l) ->
                 String.concat "," (List.rev_map (fun x -> Printf.sprintf "%.3f" (x *. 1e3)) l))
               (List.sort compare (List.of_seq (Hashtbl.to_seq lat)))) );
        ( "pass_rss_mb",
          String.concat " " (List.rev_map (Printf.sprintf "%.2f") !rss) );
        ("points", string_of_int (Array.length points));
        ("passes", string_of_int (List.length !passes)) ];
    daemons = List.sort_uniq compare !described }

(* ------------------------------------------------------------------ *)
(* durable_churn                                                       *)
(* ------------------------------------------------------------------ *)

(* Set-up: a --durable daemon with the standing population journaled on
   one connection, then one warm-up read. *)
let churn_setup ~name ~population extra =
  let t0 = now () in
  let d = Daemon.spawn name ([ "--durable" ] @ extra) in
  let c = Daemon.connect d in
  let ids =
    Array.map
      (fun r ->
        let res = exec_ok c (Gen.request_cql r) in
        if slot res "cache" <> "miss" then failwith "population write was not a miss";
        slot res "instance")
      population
  in
  ignore (exec_ok c function_probe);
  (now () -. t0, (d, c, ids))

let churn_drive ~seed ~conn c deadline (log : conn_log) =
  let n = ref 0 in
  while now () < deadline do
    let design = Printf.sprintf "churn_c%d_s%d" conn !n in
    ignore (exec_ok c ("command:start_a_design; design:" ^ design));
    let ids =
      Array.map
        (fun r ->
          let t0 = now () in
          let reply = Client.exec c (Gen.request_cql r) in
          let t1 = now () in
          let inside = t1 <= deadline in
          if inside then log.attempted <- log.attempted + 1;
          match reply with
          | Ok res when slot res "cache" = "miss" ->
              if inside then begin
                log.done_ <- log.done_ + 1;
                Stats.push log.lat (t1 -. t0);
                Stats.push log.times t1
              end;
              slot res "instance"
          | Ok _ | Error _ ->
              if inside then log.failed <- log.failed + 1;
              log.mismatches <- log.mismatches + 1;
              "")
        (Gen.churn_session ~seed ~conn !n)
    in
    Array.iter
      (fun id ->
        if id <> "" then
          ignore
            (exec_ok c
               (Printf.sprintf "command:put_in_component_list; design:%s; instance:%s" design id)))
      ids;
    ignore (exec_ok c ("command:end_a_design; design:" ^ design));
    incr n
  done

let durable_churn ~seed ~seconds =
  let population = Gen.population ~seed ~per:Gen.churn_population in
  let setups = ref [] in
  let d, c0, standing =
    repeat_setup setups 3
      (fun () -> churn_setup ~name:"churn" ~population [])
      (fun (d, c, _) -> drop (d, c))
  in
  let c1 = Daemon.connect d in
  let logs = [| conn_log 0; conn_log 0 |] in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let th = Thread.create (fun () -> churn_drive ~seed ~conn:1 c1 deadline logs.(1)) () in
  churn_drive ~seed ~conn:0 c0 deadline logs.(0);
  Thread.join th;
  let rss = Daemon.peak_rss_mb d in
  Client.close c0;
  Client.close c1;
  let clean_exit = Daemon.stop d in
  (* the check: recovery from the SIGTERM'd workspace holds exactly the
     standing population, nothing dropped, nothing orphaned *)
  let _, report = Server.reopen ~workspace:d.Daemon.ws () in
  let sort a = List.sort compare (Array.to_list a) in
  let sum f = Array.fold_left (fun a l -> a + f l) 0 logs in
  let all f = merge (List.map f (Array.to_list logs)) in
  let slices = int_of_float (seconds /. 2.0) in
  let rates = Stats.slice_rates ~t0 ~width:2.0 ~n:slices (all (fun l -> l.times)) in
  { setups = List.rev !setups;
    ops_per_s = Stats.median rates;
    lat = Stats.sliced ~t0 ~width:2.0 ~n:slices (all (fun l -> l.times)) (all (fun l -> l.lat)) 90.0;
    attempted = sum (fun l -> l.attempted);
    failed = sum (fun l -> l.failed);
    rss_mb = rss;
    checks =
      [ ("every session write was a fresh generation", sum (fun l -> l.mismatches) = 0);
        ("daemon exited cleanly", clean_exit);
        ( "reopened workspace holds exactly the standing population",
          List.sort compare report.Server.rr_instances = sort standing );
        ("no dropped rows", report.Server.rr_dropped = []);
        ("no orphans", report.Server.rr_orphans = []) ];
    notes =
      [ ("slice_rates", String.concat " " (List.map (Printf.sprintf "%.0f") rates));
        ("population", string_of_int (Array.length standing));
        ("journal_entries_replayed", string_of_int report.Server.rr_entries_replayed) ];
    daemons = [ Daemon.describe d ] }

(* ------------------------------------------------------------------ *)
(* follower_lag                                                        *)
(* ------------------------------------------------------------------ *)

let visible_stmt id = Printf.sprintf "SELECT id FROM instances WHERE id = '%s'" id

(* Probe the follower until [id] is visible; the instant it was seen. *)
let wait_visible cf id =
  let stmt = visible_stmt id in
  let give_up = now () +. 10.0 in
  let rec probe () =
    match Client.sql cf stmt with
    | Ok (Wire.Relation { rows = _ :: _; _ }) -> Some (now ())
    | _ when now () > give_up -> None
    | _ ->
        Unix.sleepf 0.001;
        probe ()
  in
  probe ()

let lag_setup population =
  let t0 = now () in
  let _, (p, cp, ids) = churn_setup ~name:"primary" ~population [] in
  let f =
    Daemon.spawn "follower" [ "--follow"; Printf.sprintf "127.0.0.1:%d" p.Daemon.port ]
  in
  let cf = Daemon.connect f in
  if wait_visible cf ids.(Array.length ids - 1) = None then
    failwith "follower did not catch up with the population";
  (now () -. t0, (p, cp, f, cf))

(* The window is cut into segments, each on a fresh primary and
   follower set up [lag_setups] times (the last kept), so the set-ups
   spread over the run and one slow moment of the host cannot move
   their median. *)
let lag_segments = 3
let lag_setups = 3

let follower_lag ~seed ~seconds =
  let population = Gen.population ~seed ~per:Gen.lag_population in
  let setups = ref [] in
  let lags = Stats.buf () and acks = Stats.buf () in
  let attempted = ref 0 and failed = ref 0 in
  (* time spent writing and waiting for visibility: the window less the
     benchmark's own pauses *)
  let busy = ref 0.0 in
  let rss = ref 0.0 and identical = ref true and clean = ref true and rows = ref 0 in
  let described = ref [] in
  let i = ref 0 in
  for _ = 1 to lag_segments do
    let p, cp, f, cf =
      repeat_setup setups lag_setups
        (fun () -> lag_setup population)
        (fun (p, cp, f, cf) -> drop (f, cf); drop (p, cp))
    in
    let deadline = now () +. (seconds /. float_of_int lag_segments) in
    while now () < deadline do
      let r, pause = Gen.lag_write ~seed !i in
      incr i;
      incr attempted;
      let t0 = now () in
      match Client.exec cp (Gen.request_cql r) with
      | Ok res when slot res "cache" = "miss" -> (
          let t_ack = now () in
          match wait_visible cf (slot res "instance") with
          | Some t_vis ->
              if t_vis <= deadline then begin
                Stats.push acks (t_ack -. t0);
                Stats.push lags (t_vis -. t_ack);
                busy := !busy +. (t_vis -. t0)
              end
              else decr attempted;
              Unix.sleepf pause
          | None -> incr failed)
      | Ok _ | Error _ -> incr failed
    done;
    let rows_p = sql_rows cp "SELECT id, area FROM instances ORDER BY id" in
    let rows_f = sql_rows cf "SELECT id, area FROM instances ORDER BY id" in
    if rows_p <> rows_f || rows_p = [] then identical := false;
    rows := List.length rows_p;
    rss := Float.max !rss (Daemon.peak_rss_mb p +. Daemon.peak_rss_mb f);
    described := Daemon.describe p :: Daemon.describe f :: !described;
    Client.close cf;
    Client.close cp;
    if not (Daemon.stop_all [ f; p ]) then clean := false
  done;
  let acks = Stats.to_sorted [ acks ] in
  { setups = List.rev !setups;
    ops_per_s = float_of_int lags.Stats.n /. !busy;
    lat = Stats.whole lags 90.0;
    attempted = !attempted;
    failed = !failed;
    rss_mb = !rss;
    checks =
      [ ("follower answers the instances query byte-identically", !identical);
        ("daemons exited cleanly", !clean) ];
    notes =
      [ ("ack_p50_ms", Printf.sprintf "%.4f" (1e3 *. Stats.pct acks 50.0));
        ("ack_p90_ms", Printf.sprintf "%.4f" (1e3 *. Stats.pct acks 90.0));
        ("busy_s", Printf.sprintf "%.4f" !busy);
        ("rows", string_of_int !rows) ];
    daemons = List.sort_uniq compare !described }

let run = function
  | "hot_query" -> hot_query
  | "cold_explore" -> cold_explore
  | "durable_churn" -> durable_churn
  | "follower_lag" -> follower_lag
  | w -> invalid_arg ("unknown workload " ^ w)
