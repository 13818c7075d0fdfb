(* Sweep execution: walk a lattice of request points against a local
   server or a remote daemon, persisting every completed point into the
   exploration store as it lands. Resume-safe by construction: points
   whose spec key is already persisted are skipped, so kill-and-rerun
   only pays for unfinished work. *)

module Event = Icdb_obs.Event
module Metrics = Icdb_obs.Metrics

exception Driver_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Driver_error s)) fmt

type backend =
  | Local of Icdb.Server.t
  | Remote of { client : Icdb_net.Client.t; batch : int; inflight : int }

type progress = {
  pr_total : int;     (* points in the sweep *)
  pr_done : int;      (* executed or failed, this run *)
  pr_skipped : int;   (* already persisted (or duplicate key) *)
  pr_failed : int;
  pr_eta_s : float option;
}

type failure = { f_point : Axis.point; f_reason : string }

type summary = {
  s_total : int;
  s_executed : int;
  s_skipped : int;
  s_failures : failure list;
}

let c_executed = lazy (Metrics.counter "explore.points.executed")
let c_skipped = lazy (Metrics.counter "explore.points.skipped")
let c_failed = lazy (Metrics.counter "explore.points.failed")

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Shared bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

type run_state = {
  store : Store.t;
  sweep : string;
  total : int;
  to_run : int;              (* points this run will execute *)
  started : float;
  mutable done_ : int;
  mutable skipped : int;
  mutable failures : failure list;
  on_progress : (progress -> unit) option;
}

let report st =
  match st.on_progress with
  | None -> ()
  | Some f ->
      let eta =
        if st.done_ = 0 then None
        else
          let elapsed = now () -. st.started in
          let remaining = st.to_run - st.done_ in
          Some (elapsed /. float_of_int st.done_ *. float_of_int remaining)
      in
      f
        { pr_total = st.total;
          pr_done = st.done_;
          pr_skipped = st.skipped;
          pr_failed = List.length st.failures;
          pr_eta_s = eta }

let record_result st r =
  Store.add st.store ~sweep:st.sweep r;
  st.done_ <- st.done_ + 1;
  Metrics.incr (Lazy.force c_executed);
  report st

let record_failure st p reason =
  st.failures <- { f_point = p; f_reason = reason } :: st.failures;
  st.done_ <- st.done_ + 1;
  Metrics.incr (Lazy.force c_failed);
  Event.warn "explore: point failed: %s: %s" (Axis.point_to_string p) reason;
  report st

(* ------------------------------------------------------------------ *)
(* The pipeline: two-stage batches through a transport                 *)
(* ------------------------------------------------------------------ *)

(* Each chunk of points takes two batch round trips: one Batch of
   request_component entries, then one Batch of instance_query entries
   fetching the figures of the instances stage one produced. [send]
   sends a request and returns how to collect its reply. Remotely, up
   to [inflight] batch frames ride the connection at once
   (Client.call_async), so the server's worker pool stays busy while
   replies stream back; in process, [send] runs the request through
   Dispatch before returning, one point per frame, so every point
   persists before the next one starts. Per-point latency is the
   chunk's wall time divided by its size — amortized, as batching
   intends. *)

let instance_query_cql ~power =
  "command:instance_query; instance:%s; area_value:?r; delay_value:?r; \
   gates:?d; constraints_met:?s; degraded:?s"
  ^ (if power then "; power_value:?r" else "")

type stage_b_meta = {
  m_point : Axis.point;
  m_instance : string;
  m_cache : string;
  m_degraded : bool;
}

type reply = unit -> Icdb_net.Wire.resp

type outstanding =
  | Stage_a of reply * Axis.point list * float
  | Stage_b of reply * stage_b_meta list * float * int
      (* sent time of stage A, original chunk size (for amortization) *)

let get_result results key =
  match List.assoc_opt key results with
  | Some r -> r
  | None -> fail "reply is missing %s" key

let get_str results key =
  match get_result results key with
  | Icdb_cql.Exec.Rstr s -> s
  | _ -> fail "reply: %s is not a string" key

let get_num results key =
  match get_result results key with
  | Icdb_cql.Exec.Rfloat f -> f
  | Icdb_cql.Exec.Rint i -> float_of_int i
  | _ -> fail "reply: %s is not numeric" key

(* Deep pipelining has a failure mode a synchronous send doesn't: the
   service deadlines every request at enqueue (min of the client's
   timeout and the server's request_timeout_s), so a frame of expensive
   cold points — or a frame queued behind several inflight ones — can
   blow its deadline before some entries even run. Those per-entry
   Timeout errors are retryable by construction (finished work is
   cached server-side), so the driver collects them and reruns each in
   its own single-entry frame with a fresh deadline; only a point that
   times out alone is a real failure. *)
let rec pipeline st send ~power ~batch ~inflight ~retrying pending =
  let chunks = Queue.create () in
  let rec chop = function
    | [] -> ()
    | l ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (k - 1) (x :: acc) rest
        in
        let chunk, rest = take batch [] l in
        Queue.push chunk chunks;
        chop rest
  in
  chop pending;
  let outstanding = Queue.create () in
  let send_stage_a chunk =
    let entries =
      List.map
        (fun p -> Icdb_net.Wire.Bcql { text = Axis.point_cql p; args = [] })
        chunk
    in
    let t0 = now () in
    Queue.push (Stage_a (send (Icdb_net.Wire.Batch entries), chunk, t0))
      outstanding
  in
  let send_stage_b metas t0 chunk_size =
    let entries =
      List.map
        (fun m ->
          Icdb_net.Wire.Bcql
            { text = instance_query_cql ~power;
              args = [ Icdb_cql.Exec.Astr m.m_instance ] })
        metas
    in
    Queue.push
      (Stage_b (send (Icdb_net.Wire.Batch entries), metas, t0, chunk_size))
      outstanding
  in
  let batch_reply reply =
    match reply () with
    | Icdb_net.Wire.Batch_reply results -> Ok results
    | Icdb_net.Wire.Error { code; message } ->
        Error
          ( code,
            Printf.sprintf "batch refused: %s: %s"
              (Icdb_net.Wire.error_code_to_string code) message )
    | _ -> fail "unexpected reply to a batch"
  in
  let retry = ref [] in
  let retryable code = (not retrying) && code = Icdb_net.Wire.Timeout in
  let entry_failed p code message =
    if retryable code then retry := p :: !retry
    else
      record_failure st p
        (Printf.sprintf "%s: %s"
           (Icdb_net.Wire.error_code_to_string code) message)
  in
  let fill_window () =
    while
      Queue.length outstanding < inflight && not (Queue.is_empty chunks)
    do
      send_stage_a (Queue.pop chunks)
    done
  in
  fill_window ();
  while not (Queue.is_empty outstanding) do
    (match Queue.pop outstanding with
    | Stage_a (reply, chunk, t0) -> (
        match batch_reply reply with
        | Error (code, reason) ->
            List.iter (fun p -> entry_failed p code reason) chunk
        | Ok results ->
            if List.length results <> List.length chunk then
              fail "batch reply arity mismatch";
            let metas =
              List.filter_map
                (fun (p, res) ->
                  match res with
                  | Icdb_net.Wire.Berror { code; message } ->
                      entry_failed p code message;
                      None
                  | Icdb_net.Wire.Bresults r ->
                      Some
                        { m_point = p;
                          m_instance = get_str r "instance";
                          m_cache = get_str r "cache";
                          m_degraded = get_str r "degraded" = "yes" }
                  | Icdb_net.Wire.Bsql_result _ ->
                      fail "CQL answered with a SQL result")
                (List.combine chunk results)
            in
            if metas <> [] then send_stage_b metas t0 (List.length chunk))
    | Stage_b (reply, metas, t0, chunk_size) -> (
        match batch_reply reply with
        | Error (code, reason) ->
            List.iter (fun m -> entry_failed m.m_point code reason) metas
        | Ok results ->
            if List.length results <> List.length metas then
              fail "batch reply arity mismatch";
            let latency = (now () -. t0) /. float_of_int (max 1 chunk_size) in
            List.iter2
              (fun m res ->
                match res with
                | Icdb_net.Wire.Berror { code; message } ->
                    entry_failed m.m_point code message
                | Icdb_net.Wire.Bresults r ->
                    record_result st
                      { Store.r_point = m.m_point;
                        r_instance = m.m_instance;
                        r_area = get_num r "area_value";
                        r_delay = get_num r "delay_value";
                        r_power = (if power then get_num r "power_value" else 0.0);
                        r_gates = int_of_float (get_num r "gates");
                        r_cache = m.m_cache;
                        r_latency_s = latency;
                        r_degraded = m.m_degraded;
                        r_constraints_met =
                          get_str r "constraints_met" = "yes" }
                | Icdb_net.Wire.Bsql_result _ ->
                    fail "CQL answered with a SQL result")
              metas results));
    fill_window ()
  done;
  if !retry <> [] then begin
    let pts = List.rev !retry in
    Event.info
      "explore: retrying %d timed-out points in single-entry frames"
      (List.length pts);
    pipeline st send ~power ~batch:1 ~inflight:1 ~retrying:true pts
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(power = false) ?limit ?on_progress ~sweep backend store points =
  let total = List.length points in
  let persisted = Store.persisted_keys store ~sweep in
  (* In-run dedup on top of the resume set: distinct lattice points can
     canonicalize to the same spec. *)
  let seen = Hashtbl.copy persisted in
  let skipped = ref 0 in
  let pending =
    List.filter
      (fun p ->
        let key = Axis.point_key p in
        if Hashtbl.mem seen key then begin
          incr skipped;
          false
        end
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      points
  in
  let pending =
    match limit with
    | None -> pending
    | Some n ->
        let rec take k = function
          | [] -> []
          | _ when k <= 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        take n pending
  in
  let st =
    { store;
      sweep;
      total;
      to_run = List.length pending;
      started = now ();
      done_ = 0;
      skipped = !skipped;
      failures = [];
      on_progress }
  in
  Metrics.incr ~by:!skipped (Lazy.force c_skipped);
  Event.info "explore: sweep %s: %d points, %d already persisted, running %d"
    sweep total !skipped st.to_run;
  report st;
  (match backend with
  | Local server ->
      let d =
        Icdb_net.Dispatch.create ~read_only:false ~slow_threshold_s:(-1.0)
          ~on_shutdown:ignore (Icdb_net.Sync.wrap server)
      in
      let send req =
        let resp = Icdb_net.Dispatch.run d req in
        fun () -> resp
      in
      pipeline st send ~power ~batch:1 ~inflight:1 ~retrying:false pending
  | Remote { client; batch; inflight } ->
      if batch <= 0 then fail "batch size must be positive";
      if inflight <= 0 then fail "inflight window must be positive";
      let send req =
        let ticket = Icdb_net.Client.call_async client req in
        fun () -> Icdb_net.Client.await client ticket
      in
      pipeline st send ~power ~batch ~inflight ~retrying:false pending);
  Event.info "explore: sweep %s done: %d executed, %d skipped, %d failed"
    sweep
    (st.done_ - List.length st.failures)
    st.skipped (List.length st.failures);
  { s_total = total;
    s_executed = st.done_ - List.length st.failures;
    s_skipped = st.skipped;
    s_failures = List.rev st.failures }
