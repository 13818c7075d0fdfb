(* The benchmark's own span recorder, for traced runs.

   A span is one call into a layer: name, start, end, parent span, the
   id of the benchmark operation it belongs to, and the minor words
   allocated while it was open. Spans stay in memory until the run ends.
   Self time (and self allocation) is the span's own minus what its
   children account for. *)

module Json = Icdb_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  op : int;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
  mutable child_s : float;
  mutable child_w : float;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

let set_op n = current_op := n

let with_span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; op = !current_op;
      t0 = Unix.gettimeofday (); t1 = 0.0; w0 = Gc.minor_words (); w1 = 0.0;
      child_s = 0.0; child_w = 0.0 }
  in
  incr next_id;
  stack := s :: !stack;
  let finish () =
    s.w1 <- Gc.minor_words ();
    s.t1 <- Unix.gettimeofday ();
    stack := List.tl !stack;
    (match !stack with
     | p :: _ ->
         p.child_s <- p.child_s +. (s.t1 -. s.t0);
         p.child_w <- p.child_w +. (s.w1 -. s.w0)
     | [] -> ());
    spans := s :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let self_s s = s.t1 -. s.t0 -. s.child_s
let self_w s = s.w1 -. s.w0 -. s.child_w
let dur_s s = s.t1 -. s.t0

(* Per name: calls, total self seconds, total self minor words. *)
let totals () =
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c, t, w = Option.value (Hashtbl.find_opt h s.name) ~default:(0, 0.0, 0.0) in
      Hashtbl.replace h s.name (c + 1, t +. self_s s, w +. self_w s))
    !spans;
  h

(* Total self seconds and self minor words of the spans nested, at any
   depth, inside a span named [root]; [root]'s own are not counted. *)
let self_below root =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let rec inside s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> p.name = root || inside p
    | None -> false
  in
  List.fold_left
    (fun (t, w) s -> if inside s then (t +. self_s s, w +. self_w s) else (t, w))
    (0.0, 0.0) !spans

let all () = List.rev !spans

(* [Json.to_string] on one line. Every newline it writes is layout
   (strings escape theirs), and so is the indentation after it. *)
let one_line v =
  String.concat ""
    (List.map String.trim (String.split_on_char '\n' (Json.to_string v)))

let dump path =
  let num v = Json.float ~prec:9 v in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (one_line
               (Json.Obj
                  [ ("id", Json.Int s.id); ("name", Json.Str s.name);
                    ("parent", Json.Int s.parent); ("op", Json.Int s.op);
                    ("start_s", num s.t0); ("dur_s", num (dur_s s));
                    ("self_s", num (self_s s)); ("self_words", Json.float ~prec:0 (self_w s)) ]));
          output_char oc '\n')
        (all ()))
