(* Ratio gates: seven A/B checks, each the median of paired per-round
   time ratios B/A against a bar. Run: dune exec bench/main.exe -- gates

     batch    hot Batch frames of 25 vs hot single calls          < 1
     sampler  the 20 Hz telemetry sampler on vs off             <= 1.05
     admin    one /metrics scrape per ~0.1 s round vs none      <= 1.05
     explain  EXPLAIN ANALYZE vs the plain statement            <= 1.10
     indexed  PARETO through an index vs a scan, same rows      <= 0.2
     verify   Equiv.check vs the scalar enumeration, multiplier 6,
              both equivalent                                   <= 0.1
     shape    Shape.of_netlist vs one Area_est.estimate per strip
              count, encode 8, the same staircase               <= 0.5

   Exits non-zero when a median misses its bar, a side check fails or an arm raises. *)

open Icdb
open Icdb_net
module R = Icdb_reldb

let time f = let t0 = Unix.gettimeofday () in f (); Unix.gettimeofday () -. t0

(* Run the arms back to back [rounds] times, alternating which goes first; return the
   per-round ratios [b /. a] and their median. Drift hits both arms of a round and
   cancels in its ratio; the median ignores the odd round a stall landed in. *)
let paired ~rounds a b =
  let ratios = List.init rounds (fun i ->
    if i mod 2 = 0 then (let ta = a () in b () /. ta) else (let tb = b () in tb /. a ())) in
  let sorted = Array.of_list (List.sort compare ratios) in
  (ratios, (sorted.((rounds - 1) / 2) +. sorted.(rounds / 2)) /. 2.0)

(* [side] checks the B arm's work after the rounds and adds a note. *)
let gate ~bar ~rounds ?(side = fun () -> (true, "")) pass a b =
  let ratios, median = paired ~rounds a b in
  let side_ok, note = side () in
  let ok = pass median && side_ok in
  Printf.printf "%s\n         median %.3f (bar %s)%s -> %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") ratios))
    median bar note (if ok then "ok" else "FAILED");
  ok

let clients = 4 and slice = 400 (* hot queries per client per arm and round: ~0.1 s *)

let gen k =
  Printf.sprintf "command:request_component; component_name:counter; \
                  attribute:(size:%d); attribute:(type:2); instance:?s" (3 + k)

let hot k i =
  if i mod 3 = 1 then "command:function_query; function:(INC); component:?s" else gen k

let exec c text =
  match Client.exec c text with Ok _ -> () | Error (_, msg) -> failwith (text ^ ": " ^ msg)

let singles c k = for i = 0 to slice - 1 do exec c (hot k i) done

let batches c k =
  for f = 0 to (slice / 25) - 1 do
    let entries = List.init 25 (fun i -> Wire.Bcql { text = hot k ((f * 25) + i); args = [] }) in
    match Client.batch c entries with
    | Error (_, msg) -> failwith ("batch refused: " ^ msg)
    | Ok rs -> List.iter (function Wire.Berror e -> failwith e.message | _ -> ()) rs
  done

(* The hot load both arms of a serve gate share: a fresh service and [clients] clients
   that each generate their component and wait at a barrier. [load send] releases one
   round, in which every client runs [send], and returns its wall time. The arms share
   the service: on a 2-vCPU host two fresh services differ in speed by more than the
   5 % gated. A client that raises is counted out of the barrier, and [load] raises
   its exception. The load has hung with the event loop parked on the free runtime lock
   while every other thread blocked: a heartbeat taking the lock every 10 ms ends that. *)
let with_rig ?(telemetry_period_s = 0.0) f =
  let sync = Sync.wrap (Server.create ()) in
  let svc =
    Service.start sync ~config:{ Service.default_config with port = 0; workers = 4;
      max_connections = clients + 4; max_queue = clients * 4; telemetry_period_s } in
  let lock = Mutex.create () and moved = Condition.create () in
  let round = ref 0 and send = ref singles and arrived = ref 0 and dead = ref 0 and failure = ref None in
  let client k =
    try
      let c = Client.connect ~port:(Service.port svc) () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      exec c (gen k);
      let rec serve seen =
        let now, send =
          Mutex.protect lock (fun () ->
              incr arrived;
              Condition.broadcast moved;
              while !round = seen do Condition.wait moved lock done;
              (!round, !send))
        in
        if now > 0 then (send c k; serve now)
      in
      serve 0
    with e -> Mutex.protect lock @@ fun () ->
      incr dead; if Option.is_none !failure then failure := Some e; Condition.broadcast moved
  in
  let threads = List.init clients (Thread.create client) in
  let beating = Atomic.make true in
  let beat = Thread.create (fun () -> while Atomic.get beating do Thread.delay 0.01 done) () in
  let await () = while !arrived + !dead < clients do Condition.wait moved lock done in
  let load s () =
    Mutex.protect lock @@ fun () ->
    await ();
    let t =
      time (fun () -> arrived := 0; send := s; incr round; Condition.broadcast moved; await ()) in
    Option.iter raise !failure;
    t
  in
  Fun.protect (fun () -> f svc sync load) ~finally:(fun () ->
      Mutex.protect lock (fun () -> await (); round := -1; Condition.broadcast moved);
      List.iter Thread.join (Atomic.set beating false; beat :: threads);
      Service.shutdown svc)

let batch_gate () =
  with_rig @@ fun _ _ load ->
  gate ~bar:"< 1" ~rounds:15 (fun m -> m < 1.0) (load singles) (load batches)

(* The B arm switches [extra] on for its rounds only, so the A arm's
   rounds on the same service run without it. *)
let side_gate ~what ?telemetry_period_s extra () =
  with_rig ?telemetry_period_s @@ fun svc sync load ->
  extra svc sync @@ fun on off landed ->
  gate ~bar:"<= 1.05" ~rounds:61 (fun m -> m <= 1.05) (load singles)
    (fun () -> on (); Fun.protect (load singles) ~finally:off)
    ~side:(fun () -> (landed () >= 1, Printf.sprintf ", %d %s landed" (landed ()) what))

(* The service's own sampler, stopped outside the B arm's rounds. *)
let sampler svc _ k =
  let module S = Icdb_obs.Series in
  let s = Option.get (Service.sampler svc) in
  let before = S.stop s; S.total_ticks s in
  k (fun () -> S.start s) (fun () -> S.stop s) (fun () -> S.total_ticks s - before)

(* One /metrics scrape, over its own connection, in each B round. *)
let scraper svc sync k =
  let adm = Admin.start ~port:0 ~service:svc ~sync () in
  let scrapes = Atomic.make 0 and th = ref None in
  let scrape () =
    match Icdb_obs.Expo.http_get ~port:(Admin.port adm) "/metrics" with
    | 200, body when body <> "" -> Atomic.incr scrapes
    | _ | (exception _) -> ()
  in
  Fun.protect ~finally:(fun () -> Admin.stop adm) @@ fun () ->
  k (fun () -> th := Some (Thread.create scrape ())) (fun () -> Option.iter Thread.join !th)
    (fun () -> Atomic.get scrapes)

let rows = 10_000

let table name schema row =
  let db = R.Db.create () in
  List.iter (R.Table.insert (R.Db.create_table db name schema)) (List.init rows row);
  db

let explain_gate () =
  let row i =
    R.Value.[ Str (Printf.sprintf "k%d" (i mod 250)); Str (Printf.sprintf "g%d" (i mod 2)); Int i ] in
  let db = table "skewed" R.Value.[ ("key", Tstr); ("grp", Tstr); ("val", Tint) ] row in
  let stmt = "SELECT key, val FROM skewed WHERE grp = 'g1' LIMIT 64" in
  let reps stmt () = time (fun () -> for _ = 1 to 50 do ignore (R.Sql.exec db stmt) done) in
  gate ~bar:"<= 1.10" ~rounds:21 (fun m -> m <= 1.10) (reps stmt) (reps ("EXPLAIN ANALYZE " ^ stmt))

(* A synthetic 16-sweep exploration relation in two databases; only one indexes [sweep]. *)
let indexed_gate () =
  let module St = Icdb_explore.Store in
  let rng = Random.State.make [| 0x1CDB; rows |] in
  let data =
    Array.init rows (fun i ->
        let area = 1000.0 +. Random.State.float rng 99000.0 in
        let delay = 1.0 +. Random.State.float rng 99.0 in
        R.Value.
          [ Str (Printf.sprintf "k%d" i); Str (Printf.sprintf "sweep_%d" (i mod 16)); Str "counter";
            Str "size=5"; Str "balanced"; Float 0.0; Float 0.0; Str (Printf.sprintf "counter_%d" i);
            Float area; Float delay; Float 0.0; Int (100 + (i mod 900)); Str "miss"; Float 0.001;
            Bool false; Bool true ])
  in
  let scan_db = table St.table_name St.schema (Array.get data) in
  let index_db = table St.table_name St.schema (Array.get data) in
  ignore (R.Sql.exec index_db ("CREATE INDEX ON " ^ St.table_name ^ " (sweep)"));
  let stmt = "PARETO " ^ St.table_name ^ " ON area, delay WHERE sweep = 'sweep_7'" in
  let frontier db = match R.Sql.exec db stmt with R.Sql.Relation r -> r.R.Query.rrows | _ -> [] in
  let scanned = ref [] and probed = ref [] in
  let reps db out () = time (fun () -> for _ = 1 to 20 do out := frontier db done) in
  gate ~bar:"<= 0.2" ~rounds:8 (fun m -> m <= 0.2) (reps scan_db scanned) (reps index_db probed)
    ~side:(fun () ->
      let same = !scanned <> [] && !scanned = !probed in
      (same, Printf.sprintf ", %d frontier rows, identical %b" (List.length !scanned) same))

(* Multiplier 6 (12 inputs), through the word modes vs one vector at a time. *)
let verify_gate () =
  let module E = Icdb_sim.Equiv in
  let c = Option.get (Icdb_genus.Component.find "multiplier") in
  let flat = Icdb_iif.Builtin.expand_exn c.implementation (c.params_of [ ("size", 6) ]) in
  let nl = Generator.milo.synthesize flat and results = ref [] in
  let arm check () = time (fun () -> results := check flat nl :: !results) in
  gate ~bar:"<= 0.1" ~rounds:11 (fun m -> m <= 0.1) (arm E.check_combinational)
    (arm (fun f n -> E.check f n)) ~side:(fun () ->
      let ok = List.for_all (( = ) E.Equivalent) !results in
      (ok, Printf.sprintf ", %d checks equivalent %b" (List.length !results) ok))

(* Encode 8 (1 105 cells, 20 strip counts): the shape function, which
   prepares the netlist once, vs an estimate per count, each preparing
   it again. *)
let shape_gate () =
  let module L = Icdb_layout in
  let c = Option.get (Icdb_genus.Component.find "encode") in
  let flat = Icdb_iif.Builtin.expand_exn c.implementation (c.params_of [ ("size", 8) ]) in
  let nl = Generator.milo.synthesize flat in
  let counts = List.init (L.Shape.max_strips_for nl) (fun i -> i + 1) in
  let estimates = ref [] and shape = ref [] in
  let per_count () =
    time (fun () -> estimates := List.map (fun strips -> L.Area_est.estimate nl ~strips) counts) in
  let once () = time (fun () -> shape := L.Shape.of_netlist nl) in
  let bits t =
    List.map (fun (a : L.Shape.alternative) ->
        (a.alt_index, a.alt_strips, Int64.bits_of_float a.alt_width,
         Int64.bits_of_float a.alt_height, Int64.bits_of_float a.alt_area)) t in
  gate ~bar:"<= 0.5" ~rounds:11 (fun m -> m <= 0.5) per_count once ~side:(fun () ->
      let same = !shape <> [] && bits !shape = bits (L.Shape.of_estimates !estimates) in
      (same, Printf.sprintf ", %d alternatives of %d counts, identical %b"
         (List.length !shape) (List.length counts) same))

let run () =
  (* a wedged arm fails the step: SIGALRM's default action exits non-zero *)
  ignore (Unix.alarm 600);
  print_endline "\n=== gates: paired-median A/B time ratios, B/A per round ===";
  let failed =
    List.filter
      (fun (name, g) ->
        Printf.printf "%-8s %!" name;
        try not (g ()) with e -> Printf.printf "raised %s -> FAILED\n" (Printexc.to_string e); true)
      [ ("batch", batch_gate);
        ("sampler", side_gate ~what:"ticks" ~telemetry_period_s:0.05 sampler);
        ("admin", side_gate ~what:"scrapes" scraper);
        ("explain", explain_gate); ("indexed", indexed_gate); ("verify", verify_gate);
        ("shape", shape_gate) ]
  in
  ignore (Unix.alarm 0);
  if failed <> [] then (
    Printf.printf "GATES FAILED: %s\n" (String.concat " " (List.map fst failed));
    exit 1)
