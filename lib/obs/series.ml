(* Continuous telemetry: fixed-capacity time-series rings fed by a
   background sampler.

   Every observability surface the daemon had before this module —
   /metrics, !stats, /slowz — is a point-in-time snapshot: a 30-second
   stall or a replication-lag ramp leaves no evidence once it passes.
   A sampler closes that gap. Each registered series snapshots one
   scalar per tick into a preallocated float ring sharing the sampler's
   timestamp ring, so a tick allocates nothing and costs one clock
   read plus one array write per series; history readback ([samples],
   /statz, the flight recorder) is the cold path and may allocate.

   Sources:
   - [Counter c]        sampled delta-encoded: each point is the
                        increment since the previous tick, so a point
                        divided by the period is a rate (req/s) and a
                        ring wrap loses old points, never skews new ones;
   - [Gauge g]          sampled as the level;
   - [Percentile (h,q)] the histogram's cumulative-to-date quantile at
                        each tick (the ramp of p99 over time);
   - [Poll f]           a callback polled each tick — for values that
                        live outside the metrics registry (queue depth
                        under its own lock, /proc fd counts). A poll
                        that raises records NaN for that tick rather
                        than killing the sampler.

   The sampler ticks on its own thread at a fixed period with drift
   correction: a tick landing more than a period late counts the
   skipped deadlines in [missed_deadlines] — the signal the service's
   stall watchdog consumes. [on_tick] hooks run after each sample pass
   (also exception-isolated); the service hangs its watchdog checks
   there so a wedged event loop is detected even while nothing is
   scraping. *)

type source =
  | Counter of Metrics.counter
  | Gauge of Metrics.gauge
  | Percentile of Metrics.histogram * float
  | Poll of (unit -> float)

type series = {
  sr_name : string;
  sr_source : source;
  sr_data : float array;      (* ring, indexed by the sampler's tick count *)
  mutable sr_last : int;      (* previous counter reading, for deltas *)
}

let kind_of = function
  | Counter _ -> "delta"
  | Gauge _ | Poll _ -> "level"
  | Percentile (_, q) -> Printf.sprintf "p%g" (100.0 *. q)

type t = {
  period_s : float;
  cap : int;
  times : float array;        (* wall-clock of each retained tick *)
  lock : Mutex.t;             (* guards [series] and the tick counters *)
  mutable series : series list;  (* registration order, newest first *)
  mutable total : int;        (* ticks ever taken *)
  mutable missed : int;       (* deadlines missed by a late tick *)
  mutable last_tick : float;  (* wall-clock of the last completed tick *)
  mutable on_tick : (unit -> unit) list;
  stop_flag : bool Atomic.t;
  mutable thread : Thread.t option;
  (* The self-pipe the sampler sleeps on between ticks, open while its
     thread runs: [stop] writes it rather than waiting out a period. *)
  mutable wake : (Unix.file_descr * Unix.file_descr) option;
}

let create ?(cap = 600) ~period_s () =
  if cap <= 0 then invalid_arg "Series.create: capacity must be positive";
  if period_s <= 0.0 then invalid_arg "Series.create: period must be positive";
  { period_s;
    cap;
    times = Array.make cap 0.0;
    lock = Mutex.create ();
    series = [];
    total = 0;
    missed = 0;
    last_tick = 0.0;
    on_tick = [];
    stop_flag = Atomic.make false;
    thread = None;
    wake = None }

let period t = t.period_s
let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t name source =
  locked t @@ fun () ->
  match List.find_opt (fun s -> s.sr_name = name) t.series with
  | Some s -> s
  | None ->
      let s =
        { sr_name = name;
          sr_source = source;
          sr_data = Array.make t.cap Float.nan;
          sr_last =
            (match source with Counter c -> c.Metrics.count | _ -> 0) }
      in
      t.series <- s :: t.series;
      s

let on_tick t f = locked t (fun () -> t.on_tick <- f :: t.on_tick)

let sample_of s =
  match s.sr_source with
  | Counter c ->
      let v = c.Metrics.count in
      let d = v - s.sr_last in
      s.sr_last <- v;
      float_of_int d
  | Gauge g -> g.Metrics.gvalue
  | Percentile (h, q) -> Metrics.percentile h q
  | Poll f -> ( match f () with v -> v | exception _ -> Float.nan)

(* One sample pass: every series records one point against one shared
   timestamp. Public so tests (and embedders without the thread) can
   drive the clock by hand. *)
let tick t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  let slot = t.total mod t.cap in
  t.times.(slot) <- now;
  List.iter (fun s -> s.sr_data.(slot) <- sample_of s) t.series;
  t.total <- t.total + 1;
  t.last_tick <- now;
  let hooks = t.on_tick in
  Mutex.unlock t.lock;
  List.iter (fun f -> try f () with _ -> ()) hooks

let sample_count t = locked t (fun () -> min t.total t.cap)
let total_ticks t = locked t (fun () -> t.total)
let missed_deadlines t = locked t (fun () -> t.missed)
let last_tick t = locked t (fun () -> t.last_tick)

let list t = locked t (fun () -> List.rev t.series)

(* Retained points of one series, oldest first, paired with their tick
   timestamps. Cold path; allocates. *)
let samples t s =
  locked t @@ fun () ->
  let n = min t.total t.cap in
  let lo = t.total - n in
  List.init n (fun i ->
      let slot = (lo + i) mod t.cap in
      (t.times.(slot), s.sr_data.(slot)))

(* The most recent point, when any tick has run. *)
let last_value t s =
  locked t @@ fun () ->
  if t.total = 0 then None
  else
    let slot = (t.total - 1) mod t.cap in
    Some (t.times.(slot), s.sr_data.(slot))

let running t = t.thread <> None

(* Sleep [dt] seconds, or until [stop] writes the wake pipe. select(2)
   cannot watch an fd numbered past FD_SETSIZE; the sampler then sleeps
   the period out. *)
let sleep t dt =
  match t.wake with
  | Some (r, _) -> (
      match Unix.select [ r ] [] [] dt with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> Thread.delay dt)
  | None -> Thread.delay dt

let loop t =
  let start = Unix.gettimeofday () in
  let k = ref 0 in
  while not (Atomic.get t.stop_flag) do
    tick t;
    incr k;
    let next = start +. (float_of_int !k *. t.period_s) in
    let now = Unix.gettimeofday () in
    if now > next +. t.period_s then begin
      (* we are at least one whole period late: count every deadline
         blown past and jump the schedule forward rather than burst *)
      let skipped = int_of_float ((now -. next) /. t.period_s) in
      Mutex.lock t.lock;
      t.missed <- t.missed + skipped;
      Mutex.unlock t.lock;
      k := !k + skipped
    end
    else if now < next then sleep t (next -. now)
  done

let start t =
  match t.thread with
  | Some _ -> ()
  | None ->
      Atomic.set t.stop_flag false;
      t.wake <- Some (Unix.pipe ~cloexec:true ());
      t.thread <- Some (Thread.create loop t)

let stop t =
  Atomic.set t.stop_flag true;
  (match t.wake with
   | Some (_, w) -> (
       try ignore (Unix.write_substring w "x" 0 1) with Unix.Unix_error _ -> ())
   | None -> ());
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  (match t.wake with
   | Some (r, w) ->
       List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ]
   | None -> ());
  t.wake <- None

(* ------------------------------------------------------------------ *)
(* JSON rendering (the /statz body and the recorder's series section)  *)
(* ------------------------------------------------------------------ *)

(* [last] bounds the history per series (the flight recorder wants the
   last K samples, /statz the whole ring). Points are [t, v] pairs;
   NaN (a failed poll) renders as null. *)
let to_json ?last t =
  let n = sample_count t in
  let keep = match last with Some k -> min k n | None -> n in
  let series_json s =
    let pts = samples t s in
    let pts =
      if keep >= List.length pts then pts
      else List.filteri (fun i _ -> i >= List.length pts - keep) pts
    in
    Json.Obj
      [ ("name", Json.Str s.sr_name);
        ("kind", Json.Str (kind_of s.sr_source));
        ( "points",
          Json.List
            (List.map
               (fun (ts, v) ->
                 Json.List [ Json.float ~prec:3 ts; Json.float ~prec:6 v ])
               pts) ) ]
  in
  Json.Obj
    [ ("period_s", Json.float ~prec:3 t.period_s);
      ("samples", Json.Int keep);
      ("total_ticks", Json.Int (total_ticks t));
      ("missed_deadlines", Json.Int (missed_deadlines t));
      ("series", Json.List (List.map series_json (list t))) ]
