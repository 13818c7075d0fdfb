(* Hierarchical tracing: nestable spans over a monotonic clock.

   A span is an interval with a name, key/value attributes, and a
   parent — the innermost span open at the time it started. Completed
   spans land in a bounded ring (oldest evicted first) and are
   exportable as Chrome trace_event JSON, loadable in chrome://tracing
   or https://ui.perfetto.dev.

   Disabled tracing is the default and costs one branch per
   [with_span] — no clock read, no allocation, no ring traffic — so
   instrumentation can stay in the hot paths permanently. Every span
   that completes also feeds the process-wide latency histogram
   [Metrics.default] under "span.<name>", which is where per-phase
   p50/p90/p99 figures come from. *)

type span = {
  sid : int;
  sparent : int option;
  sname : string;
  stag : string option;   (* owner: the request/connection this span served *)
  mutable sattrs : (string * string) list;
  sstart_ns : int;
  mutable sdur_ns : int;  (* -1 while the span is open *)
}

let on = ref false
let enabled () = !on
let set_enabled b = on := b

let next_id = ref 0
let stack : span list ref = ref []

(* The owner tag for spans started now. Scoped, not assigned: handlers
   wrap request execution in [with_tag], so the tag always comes from
   the request being served, never from stale global state. The caller
   discipline that makes one ref sound is the same one that makes the
   span stack sound — all span traffic happens under the server lock. *)
let tag_ctx : string option ref = ref None

let current_tag () = !tag_ctx

let with_tag tag f =
  let saved = !tag_ctx in
  tag_ctx := Some tag;
  Fun.protect ~finally:(fun () -> tag_ctx := saved) f

(* Completed-span ring. [total] counts every span ever finished; the
   ring retains the last [cap] of them. *)
let cap = ref 65536
let ring : span option array ref = ref [||]
let total = ref 0

let capacity () = !cap

let reset () =
  stack := [];
  ring := [||];
  total := 0

let set_capacity n =
  if n <= 0 then invalid_arg "Trace.set_capacity: capacity must be positive";
  cap := n;
  reset ()

let record s =
  if Array.length !ring <> !cap then ring := Array.make !cap None;
  !ring.(!total mod !cap) <- Some s;
  incr total

let finished_count () = !total

(* Finished spans number [mark], in completion order, for
   [mark] taken from [finished_count]. Spans evicted from the ring are
   silently absent. *)
let since mark =
  let lo = max mark (!total - !cap) in
  let lo = max lo 0 in
  List.init (!total - lo) (fun i ->
      match !ring.((lo + i) mod !cap) with
      | Some s -> s
      | None -> assert false)

let all_finished () = since 0

(* Retained completed spans owned by [tag], oldest first. This is what
   [TraceFetch] serves: a client asking for its own request's spans
   must never see another connection's. *)
let tagged tag =
  List.filter (fun s -> s.stag = Some tag) (all_finished ())

(* ------------------------------------------------------------------ *)
(* Starting and stopping                                               *)
(* ------------------------------------------------------------------ *)

let start ?(attrs = []) name =
  incr next_id;
  let s =
    { sid = !next_id;
      sparent = (match !stack with [] -> None | p :: _ -> Some p.sid);
      sname = name;
      stag = !tag_ctx;
      sattrs = attrs;
      sstart_ns = Clock.now_ns ();
      sdur_ns = -1 }
  in
  stack := s :: !stack;
  s

let stop s =
  if s.sdur_ns < 0 then begin
    s.sdur_ns <- max 0 (Clock.now_ns () - s.sstart_ns);
    (* pop to this span; tolerate out-of-order stops from exotic
       control flow by dropping it wherever it is *)
    (match !stack with
     | x :: rest when x == s -> stack := rest
     | l -> stack := List.filter (fun x -> x != s) l);
    record s;
    Metrics.observe
      (Metrics.histogram ("span." ^ s.sname))
      (Clock.ns_to_s s.sdur_ns)
  end

let with_span ?attrs name f =
  if not !on then f ()
  else begin
    let s = start ?attrs name in
    Fun.protect ~finally:(fun () -> stop s) f
  end

(* Attach an attribute to the innermost open span; a no-op when
   disabled or outside any span, so call sites need no guards. *)
let add_attr k v =
  if !on then
    match !stack with [] -> () | s :: _ -> s.sattrs <- (k, v) :: s.sattrs

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Total seconds per span name, sorted by name. Nested spans of the
   same name both count — this is "time in spans named X", not
   exclusive self-time. *)
let phase_totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = try Hashtbl.find tbl s.sname with Not_found -> 0.0 in
      Hashtbl.replace tbl s.sname (prev +. Clock.ns_to_s s.sdur_ns))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

(* Complete ("ph":"X") events, one tid per owner tag: nesting within a
   row is recovered by the viewer from the containment of
   [ts, ts+dur] intervals, which holds per request because each
   request's spans form one contiguous single-threaded stack.
   Untagged spans share tid 1 ("main"); each distinct tag gets its own
   tid (in order of first appearance) plus a thread_name metadata event
   so chrome://tracing labels the row with the tag. Timestamps are
   microseconds relative to the earliest span in the export. *)
let export_chrome ?spans () =
  let spans = match spans with Some s -> s | None -> all_finished () in
  let t0 =
    List.fold_left (fun acc s -> min acc s.sstart_ns) max_int spans
  in
  let tids = Hashtbl.create 8 in
  let next_tid = ref 1 in
  let tid_of tag =
    let key = match tag with None -> "main" | Some t -> t in
    match Hashtbl.find_opt tids key with
    | Some n -> n
    | None ->
        let n = !next_tid in
        incr next_tid;
        Hashtbl.replace tids key n;
        n
  in
  (* assign tids in span order so the output is deterministic *)
  List.iter (fun s -> ignore (tid_of s.stag)) spans;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char buf ',' in
  Hashtbl.fold (fun name tid acc -> (tid, name) :: acc) tids []
  |> List.sort compare
  |> List.iter (fun (tid, name) ->
         sep ();
         Buffer.add_string buf
           (Printf.sprintf
              "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\
               \"tid\":%d,\"args\":{\"name\":\"%s\"}}"
              tid (Json.escape name)));
  List.iter
    (fun s ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"cat\":\"icdb\",\"ph\":\"X\",\"ts\":%.3f,\
            \"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{"
           (Json.escape s.sname)
           (Clock.ns_to_us (s.sstart_ns - t0))
           (Clock.ns_to_us (max 0 s.sdur_ns))
           (tid_of s.stag));
      Buffer.add_string buf (Printf.sprintf "\"span_id\":%d" s.sid);
      (match s.sparent with
       | Some p -> Buffer.add_string buf (Printf.sprintf ",\"parent_id\":%d" p)
       | None -> ());
      (match s.stag with
       | Some t ->
           Buffer.add_string buf
             (Printf.sprintf ",\"tag\":\"%s\"" (Json.escape t))
       | None -> ());
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf ",\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        s.sattrs;
      Buffer.add_string buf "}}")
    spans;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_chrome ?spans path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (export_chrome ?spans ()));
  Sys.rename tmp path
