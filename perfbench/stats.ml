(* Sample buffers and order statistics. *)

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let to_sorted bufs =
  let a = Array.concat (List.map (fun b -> Array.sub b.a 0 b.n) bufs) in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [p]th percentile's rank. *)
let beyond sorted p =
  let n = Array.length sorted in
  n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentile [p] of a timed loop's samples, read two ways. Whole: over
   every sample. Sliced: the window [t0, t0 + n * width) is cut into
   [n] slices by each sample's completion instant, and each figure is
   the median over slices of that slice's own figure, so a host
   slowdown that covers fewer than half the slices cannot move it. *)
type summary = {
  p50 : float;
  tail : float;
  tail_p : float;
  samples : int;
  beyond : int;   (* fewest samples beyond [tail_p] in any slice *)
  slices : int;
}

let whole lats tail_p =
  let s = to_sorted [ lats ] in
  { p50 = pct s 50.0; tail = pct s tail_p; tail_p; samples = Array.length s;
    beyond = beyond s tail_p; slices = 1 }

let slice ~t0 ~width ~n times values =
  let buckets = Array.init n (fun _ -> buf ()) in
  for i = 0 to times.n - 1 do
    let k = truncate ((times.a.(i) -. t0) /. width) in
    if times.a.(i) >= t0 && k < n then push buckets.(k) values.a.(i)
  done;
  Array.map (fun b -> to_sorted [ b ]) buckets

let sliced ~t0 ~width ~n times lats tail_p =
  let s = slice ~t0 ~width ~n times lats in
  let over f = median (Array.to_list (Array.map f s)) in
  { p50 = over (fun a -> pct a 50.0); tail = over (fun a -> pct a tail_p); tail_p;
    samples = Array.fold_left (fun acc a -> acc + Array.length a) 0 s;
    beyond = Array.fold_left (fun acc a -> min acc (beyond a tail_p)) max_int s;
    slices = n }

(* Operations completed per second in each slice. *)
let slice_rates ~t0 ~width ~n times =
  Array.to_list
    (Array.map (fun a -> float_of_int (Array.length a) /. width) (slice ~t0 ~width ~n times times))
