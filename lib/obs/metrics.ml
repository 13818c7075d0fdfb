(* Metrics registry: counters, gauges, and log-scale latency histograms.

   Zero-dependency and cheap: a counter bump is one mutable-field
   update, a histogram observation is one array increment. Instruments
   get-or-create by name, so call sites can be sprinkled anywhere
   without wiring a registry through every layer; the process-wide
   [default] registry is what a Stats request reports.

   Histograms are log-scale: buckets grow geometrically by a factor of
   10^(1/10) (~26% per bucket, ten buckets per decade) from 1 ns to
   ~10^5 s, so a single 140-slot array spans every latency the pipeline
   can produce and percentile estimates carry a bounded ~13% relative
   error. Reported percentiles are additionally clamped to the observed
   [min, max], which makes single-valued distributions exact. *)

type counter = { cname : string; mutable count : int }
type gauge = { gname : string; mutable gvalue : float }

let n_buckets = 140
let buckets_per_decade = 10.0
let floor_value = 1e-9

type histogram = {
  hname : string;
  buckets : int array;
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
}

type registry = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16 }

let default = create ()

(* One process-wide lock serializes registry *structure* — instrument
   get-or-create and whole-registry snapshots (reset, the
   sorted views) — so a scrape taken while worker threads are minting
   new instruments never folds over a resizing hashtable. Instrument
   *updates* (incr/observe/set) stay lock-free: they are plain mutable
   field writes on already-created instruments, which is safe under the
   threads library's interleaving and keeps the hot path at one or two
   field updates. *)
let reg_lock = Mutex.create ()

let locked f =
  Mutex.lock reg_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_lock) f

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let counter ?(registry = default) name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry.counters name with
  | Some c -> c
  | None ->
      let c = { cname = name; count = 0 } in
      Hashtbl.replace registry.counters name c;
      c

let incr ?(by = 1) c = c.count <- c.count + by
let counter_value c = c.count

let gauge ?(registry = default) name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry.gauges name with
  | Some g -> g
  | None ->
      let g = { gname = name; gvalue = 0.0 } in
      Hashtbl.replace registry.gauges name g;
      g

let set g v = g.gvalue <- v
let gauge_value g = g.gvalue

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let make_histogram name =
  { hname = name;
    buckets = Array.make n_buckets 0;
    hcount = 0;
    hsum = 0.0;
    hmin = infinity;
    hmax = neg_infinity }

let histogram ?(registry = default) name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry.histograms name with
  | Some h -> h
  | None ->
      let h = make_histogram name in
      Hashtbl.replace registry.histograms name h;
      h

let bucket_of v =
  if v <= floor_value then 0
  else
    let i =
      int_of_float (Float.floor (buckets_per_decade *. log10 (v /. floor_value)))
    in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let observe h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

(* Geometric midpoint of bucket [i]: the representative value reported
   for any observation that landed there. *)
let bucket_mid i =
  floor_value *. (10.0 ** ((float_of_int i +. 0.5) /. buckets_per_decade))

(* Upper bound of bucket [i] — the [le] boundary Prometheus exposition
   reports. Strictly increasing in [i] because the ratio between
   consecutive bounds is the constant 10^(1/10) > 1. *)
let bucket_upper i =
  floor_value *. (10.0 ** (float_of_int (i + 1) /. buckets_per_decade))

let percentile h q =
  if h.hcount = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.hcount)) in
      if r < 1 then 1 else if r > h.hcount then h.hcount else r
    in
    let rec go i acc =
      if i >= n_buckets then h.hmax
      else
        let acc = acc + h.buckets.(i) in
        if acc >= rank then bucket_mid i else go (i + 1) acc
    in
    Float.min h.hmax (Float.max h.hmin (go 0 0))
  end

type summary = {
  s_name : string;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
  s_mean : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
}

let summary h =
  { s_name = h.hname;
    s_count = h.hcount;
    s_sum = h.hsum;
    s_min = (if h.hcount = 0 then 0.0 else h.hmin);
    s_max = (if h.hcount = 0 then 0.0 else h.hmax);
    s_mean = (if h.hcount = 0 then 0.0 else h.hsum /. float_of_int h.hcount);
    s_p50 = percentile h 0.50;
    s_p90 = percentile h 0.90;
    s_p99 = percentile h 0.99 }

(* ------------------------------------------------------------------ *)
(* Registry views                                                      *)
(* ------------------------------------------------------------------ *)

let sorted_by_name key tbl =
  locked (fun () -> Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  |> List.sort (fun a b -> String.compare (key a) (key b))

let counters r = sorted_by_name (fun c -> c.cname) r.counters
let gauges r = sorted_by_name (fun g -> g.gname) r.gauges
let histograms r = sorted_by_name (fun h -> h.hname) r.histograms

(* Zero every instrument in place; references held by call sites stay
   valid (and keep being bumped), only the accumulated values drop. *)
let reset r =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> c.count <- 0) r.counters;
  Hashtbl.iter (fun _ g -> g.gvalue <- 0.0) r.gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 n_buckets 0;
      h.hcount <- 0;
      h.hsum <- 0.0;
      h.hmin <- infinity;
      h.hmax <- neg_infinity)
    r.histograms

let pretty_s v =
  if v >= 1.0 then Printf.sprintf "%.2f s" v
  else if v >= 1e-3 then Printf.sprintf "%.2f ms" (v *. 1e3)
  else if v >= 1e-6 then Printf.sprintf "%.2f us" (v *. 1e6)
  else Printf.sprintf "%.0f ns" (v *. 1e9)
