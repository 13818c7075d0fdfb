(* The icdbd wire protocol codec.

   Layout (everything big-endian):

     u32  payload length
     u8   protocol version
     u8   frame kind
     i64  request id
     ...  body

   The codec is deliberately total in both directions: every value the
   CQL layer can return has exactly one encoding, and every byte string
   decodes to either a frame or a classified [decode_error] that tells
   the caller whether the stream is still framable. Malformed bodies
   inside a well-delimited payload never lose stream sync, so the
   server can answer them with a structured error frame and keep the
   connection. *)

(* Per-request context, carried by every request immediately after
   the id: a client-generated trace id (empty = none) and a deadline in
   seconds (0 = none). Putting it in a fixed position rather than per
   kind means a future request kind inherits propagation for free. *)
type ctx = { trace_id : string; timeout_s : float }

let no_ctx = { trace_id = ""; timeout_s = 0.0 }

(* One element of a [Batch] request: the two query shapes a client
   can vectorize. Each entry succeeds or fails on its own. *)
type batch_entry =
  | Bcql of { text : string; args : Icdb_cql.Exec.arg list }
  | Bsql of string

type req =
  | Ping
  | Cql of { text : string; args : Icdb_cql.Exec.arg list }
  | Sql of string
  | Stats
  | Trace_fetch of string
  | Shutdown
  | Subscribe of { cursor : int }
  | Batch of batch_entry list

type sql_result =
  | Affected of int
  | Relation of { cols : string list; rows : string list list }

(* A completed server-side span, flattened for the wire. [rs_parent]
   refers to another span's [rs_id] within the same reply. *)
type remote_span = {
  rs_id : int;
  rs_parent : int option;
  rs_name : string;
  rs_tag : string;
  rs_start_ns : int;
  rs_dur_ns : int;
  rs_attrs : (string * string) list;
}

type hist_summary = {
  hs_name : string;
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type slow_entry = {
  sl_cmd : string;
  sl_trace : string;
  sl_conn : int;
  sl_seconds : float;
  sl_cache : string;
  sl_phases : (string * float) list;
  sl_plan : string;  (* query-plan summary, "" when none *)
}

(* The full metrics registry plus the slow-query log: everything the
   server knows about itself, so `icdb stats --connect` renders the
   same detail a local `icdb stats` would. [sp_text] keeps the
   pre-rendered cache summary for humans. *)
type stats_payload = {
  sp_text : string;
  sp_counters : (string * int) list;
  sp_gauges : (string * float) list;
  sp_hists : hist_summary list;
  sp_slow : slow_entry list;
}

type error_code =
  | Parse_error
  | Exec_error
  | Sql_error
  | Protocol_error
  | Version_mismatch
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal
  | Read_only

(* The per-entry outcome inside a [Batch_reply]: one [batch_result]
   per [batch_entry], in request order, errors isolated to their
   entry. *)
type batch_result =
  | Bresults of (string * Icdb_cql.Exec.result) list
  | Bsql_result of sql_result
  | Berror of { code : error_code; message : string }

and resp =
  | Pong
  | Results of (string * Icdb_cql.Exec.result) list
  | Sql_result of sql_result
  | Stats_report of stats_payload
  | Spans of remote_span list
  | Error of { code : error_code; message : string }
  | Bye
  (* Replication stream frames. After a [Subscribe] the connection
     becomes a push stream: the publisher sends [Journal_batch] frames
     as the journal grows (empty batches double as heartbeats carrying
     the primary's cursor), or a [Checkpoint_offer] followed by
     [Checkpoint_chunk]s when the follower's cursor predates the
     primary's last truncation. [Repl_error] is terminal for the
     subscription (the follower reconnects). *)
  | Journal_batch of {
      jb_first : int;                  (* seq of the first record *)
      jb_next : int;                   (* primary's next_seq at send time *)
      jb_records : string list;        (* exact journal line encodings *)
      jb_files : (string * string) list;  (* basename -> contents *)
    }
  | Checkpoint_offer of { co_cursor : int; co_files : int }
  | Checkpoint_chunk of { cc_name : string; cc_data : string; cc_last : bool }
  | Repl_error of string
  | Batch_reply of batch_result list  (* vectorized Batch answer *)

type 'a frame = { id : int; body : 'a }

(* Every frame is stamped [protocol_version], and the decoder accepts
   exactly that version: any other version byte is the recoverable
   [Bad_version], answered with a structured version-mismatch error on
   a connection that stays open. *)
let protocol_version = 5
let max_payload = 16 * 1024 * 1024

(* Header bytes inside the payload before the body starts. *)
let header_bytes = 1 + 1 + 8

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Exec_error -> "exec_error"
  | Sql_error -> "sql_error"
  | Protocol_error -> "protocol_error"
  | Version_mismatch -> "version_mismatch"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"
  | Read_only -> "read_only"

(* ------------------------------------------------------------------ *)
(* Frame kinds                                                         *)
(* ------------------------------------------------------------------ *)

let kind_ping = 0x01
let kind_cql = 0x02
let kind_sql = 0x03
let kind_stats = 0x04
let kind_shutdown = 0x05
let kind_trace_fetch = 0x06
let kind_subscribe = 0x07
let kind_batch = 0x08

let kind_pong = 0x41
let kind_results = 0x42
let kind_sql_affected = 0x43
let kind_sql_relation = 0x44
let kind_stats_report = 0x45
let kind_error = 0x46
let kind_bye = 0x47
let kind_spans = 0x48
let kind_journal_batch = 0x49
let kind_ckpt_offer = 0x4a
let kind_ckpt_chunk = 0x4b
let kind_repl_error = 0x4c
let kind_batch_reply = 0x4d

let code_to_byte = function
  | Parse_error -> 0
  | Exec_error -> 1
  | Sql_error -> 2
  | Protocol_error -> 3
  | Version_mismatch -> 4
  | Overloaded -> 5
  | Timeout -> 6
  | Shutting_down -> 7
  | Internal -> 8
  | Read_only -> 9

let code_of_byte = function
  | 0 -> Some Parse_error
  | 1 -> Some Exec_error
  | 2 -> Some Sql_error
  | 3 -> Some Protocol_error
  | 4 -> Some Version_mismatch
  | 5 -> Some Overloaded
  | 6 -> Some Timeout
  | 7 -> Some Shutting_down
  | 8 -> Some Internal
  | 9 -> Some Read_only
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let put_u8 buf v = Buffer.add_uint8 buf (v land 0xff)

let put_u32 buf v =
  (* the decoder reads this back as a signed i32 and rejects negatives,
     so values past 2^31-1 would silently truncate into frames the
     peer must refuse — fail loudly at the encoder instead (found by
     the wire fuzzer: Checkpoint_offer.co_files is caller-supplied) *)
  if v < 0 || v > 0x7fffffff then invalid_arg "Wire.put_u32: out of range";
  Buffer.add_int32_be buf (Int32.of_int v)

let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)
let put_float buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_list buf put l =
  put_u32 buf (List.length l);
  List.iter (put buf) l

let put_arg buf (a : Icdb_cql.Exec.arg) =
  match a with
  | Icdb_cql.Exec.Astr s ->
      put_u8 buf 0;
      put_string buf s
  | Icdb_cql.Exec.Aint i ->
      put_u8 buf 1;
      put_i64 buf i
  | Icdb_cql.Exec.Afloat f ->
      put_u8 buf 2;
      put_float buf f
  | Icdb_cql.Exec.Astrs l ->
      put_u8 buf 3;
      put_list buf put_string l

let put_result buf (key, (r : Icdb_cql.Exec.result)) =
  put_string buf key;
  match r with
  | Icdb_cql.Exec.Rstr s ->
      put_u8 buf 0;
      put_string buf s
  | Icdb_cql.Exec.Rint i ->
      put_u8 buf 1;
      put_i64 buf i
  | Icdb_cql.Exec.Rfloat f ->
      put_u8 buf 2;
      put_float buf f
  | Icdb_cql.Exec.Rstrs l ->
      put_u8 buf 3;
      put_list buf put_string l

let put_opt buf put = function
  | None -> put_u8 buf 0
  | Some v ->
      put_u8 buf 1;
      put buf v

let put_remote_span buf s =
  put_i64 buf s.rs_id;
  put_opt buf put_i64 s.rs_parent;
  put_string buf s.rs_name;
  put_string buf s.rs_tag;
  put_i64 buf s.rs_start_ns;
  put_i64 buf s.rs_dur_ns;
  put_list buf
    (fun b (k, v) ->
      put_string b k;
      put_string b v)
    s.rs_attrs

let put_hist_summary buf h =
  put_string buf h.hs_name;
  put_i64 buf h.hs_count;
  put_float buf h.hs_sum;
  put_float buf h.hs_min;
  put_float buf h.hs_max;
  put_float buf h.hs_p50;
  put_float buf h.hs_p90;
  put_float buf h.hs_p99

let put_slow_entry buf e =
  put_string buf e.sl_cmd;
  put_string buf e.sl_trace;
  put_i64 buf e.sl_conn;
  put_float buf e.sl_seconds;
  put_string buf e.sl_cache;
  put_list buf
    (fun b (k, v) ->
      put_string b k;
      put_float b v)
    e.sl_phases;
  put_string buf e.sl_plan

let put_stats_payload buf p =
  put_string buf p.sp_text;
  put_list buf
    (fun b (k, v) ->
      put_string b k;
      put_i64 b v)
    p.sp_counters;
  put_list buf
    (fun b (k, v) ->
      put_string b k;
      put_float b v)
    p.sp_gauges;
  put_list buf put_hist_summary p.sp_hists;
  put_list buf put_slow_entry p.sp_slow

let put_batch_entry buf = function
  | Bcql { text; args } ->
      put_u8 buf 0;
      put_string buf text;
      put_list buf put_arg args
  | Bsql stmt ->
      put_u8 buf 1;
      put_string buf stmt

let put_batch_result buf = function
  | Bresults rs ->
      put_u8 buf 0;
      put_list buf put_result rs
  | Bsql_result (Affected n) ->
      put_u8 buf 1;
      put_i64 buf n
  | Bsql_result (Relation { cols; rows }) ->
      put_u8 buf 2;
      put_list buf put_string cols;
      put_list buf (fun b row -> put_list b put_string row) rows
  | Berror { code; message } ->
      put_u8 buf 3;
      put_u8 buf (code_to_byte code);
      put_string buf message

let frame_bytes kind id body_writer =
  let payload = Buffer.create 64 in
  put_u8 payload protocol_version;
  put_u8 payload kind;
  put_i64 payload id;
  body_writer payload;
  let n = Buffer.length payload in
  if n > max_payload then invalid_arg "Wire: frame exceeds max_payload";
  let out = Buffer.create (n + 4) in
  put_u32 out n;
  Buffer.add_buffer out payload;
  Buffer.contents out

let encode_request ?(ctx = no_ctx) { id; body } =
  let with_ctx body_writer buf =
    put_string buf ctx.trace_id;
    put_float buf ctx.timeout_s;
    body_writer buf
  in
  match body with
  | Ping -> frame_bytes kind_ping id (with_ctx (fun _ -> ()))
  | Cql { text; args } ->
      frame_bytes kind_cql id
        (with_ctx (fun buf ->
             put_string buf text;
             put_list buf put_arg args))
  | Sql stmt ->
      frame_bytes kind_sql id (with_ctx (fun buf -> put_string buf stmt))
  | Stats -> frame_bytes kind_stats id (with_ctx (fun _ -> ()))
  | Trace_fetch tag ->
      frame_bytes kind_trace_fetch id
        (with_ctx (fun buf -> put_string buf tag))
  | Shutdown -> frame_bytes kind_shutdown id (with_ctx (fun _ -> ()))
  | Subscribe { cursor } ->
      frame_bytes kind_subscribe id
        (with_ctx (fun buf -> put_i64 buf cursor))
  | Batch entries ->
      frame_bytes kind_batch id
        (with_ctx (fun buf -> put_list buf put_batch_entry entries))

let encode_response { id; body } =
  match body with
  | Pong -> frame_bytes kind_pong id (fun _ -> ())
  | Results rs ->
      frame_bytes kind_results id (fun buf -> put_list buf put_result rs)
  | Sql_result (Affected n) ->
      frame_bytes kind_sql_affected id (fun buf -> put_i64 buf n)
  | Sql_result (Relation { cols; rows }) ->
      frame_bytes kind_sql_relation id (fun buf ->
          put_list buf put_string cols;
          put_list buf (fun b row -> put_list b put_string row) rows)
  | Stats_report payload ->
      frame_bytes kind_stats_report id (fun buf -> put_stats_payload buf payload)
  | Spans spans ->
      frame_bytes kind_spans id (fun buf -> put_list buf put_remote_span spans)
  | Error { code; message } ->
      frame_bytes kind_error id (fun buf ->
          put_u8 buf (code_to_byte code);
          put_string buf message)
  | Bye -> frame_bytes kind_bye id (fun _ -> ())
  | Journal_batch { jb_first; jb_next; jb_records; jb_files } ->
      frame_bytes kind_journal_batch id (fun buf ->
          put_i64 buf jb_first;
          put_i64 buf jb_next;
          put_list buf put_string jb_records;
          put_list buf
            (fun b (name, data) ->
              put_string b name;
              put_string b data)
            jb_files)
  | Checkpoint_offer { co_cursor; co_files } ->
      frame_bytes kind_ckpt_offer id (fun buf ->
          put_i64 buf co_cursor;
          put_u32 buf co_files)
  | Checkpoint_chunk { cc_name; cc_data; cc_last } ->
      frame_bytes kind_ckpt_chunk id (fun buf ->
          put_string buf cc_name;
          put_string buf cc_data;
          put_u8 buf (if cc_last then 1 else 0))
  | Repl_error message ->
      frame_bytes kind_repl_error id (fun buf -> put_string buf message)
  | Batch_reply results ->
      frame_bytes kind_batch_reply id (fun buf ->
          put_list buf put_batch_result results)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type decode_error =
  | Closed
  | Truncated of string
  | Oversized of int
  | Bad_version of { id : int option; got : int }
  | Malformed of { id : int option; reason : string }

let decode_error_to_string = function
  | Closed -> "connection closed"
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Bad_version { got; _ } ->
      Printf.sprintf "protocol version mismatch (peer speaks v%d, this is v%d)"
        got protocol_version
  | Malformed { reason; _ } -> Printf.sprintf "malformed frame: %s" reason

exception Bad of string

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then raise (Bad "body ends early")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Bad "negative length");
  v

let get_i64 c =
  need c 8;
  let v = String.get_int64_be c.data c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int v

let get_float c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_be c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_list c get =
  let n = get_u32 c in
  (* an element costs at least one byte; reject counts the payload
     cannot possibly hold so hostile frames cannot force huge allocs *)
  if n > String.length c.data - c.pos then raise (Bad "list count too large");
  List.init n (fun _ -> get c)

let get_arg c : Icdb_cql.Exec.arg =
  match get_u8 c with
  | 0 -> Icdb_cql.Exec.Astr (get_string c)
  | 1 -> Icdb_cql.Exec.Aint (get_i64 c)
  | 2 -> Icdb_cql.Exec.Afloat (get_float c)
  | 3 -> Icdb_cql.Exec.Astrs (get_list c get_string)
  | t -> raise (Bad (Printf.sprintf "unknown argument tag %d" t))

let get_opt c get = match get_u8 c with
  | 0 -> None
  | 1 -> Some (get c)
  | t -> raise (Bad (Printf.sprintf "unknown option tag %d" t))

let get_pair c get_v =
  let k = get_string c in
  let v = get_v c in
  (k, v)

let get_remote_span c =
  let rs_id = get_i64 c in
  let rs_parent = get_opt c get_i64 in
  let rs_name = get_string c in
  let rs_tag = get_string c in
  let rs_start_ns = get_i64 c in
  let rs_dur_ns = get_i64 c in
  let rs_attrs = get_list c (fun c -> get_pair c get_string) in
  { rs_id; rs_parent; rs_name; rs_tag; rs_start_ns; rs_dur_ns; rs_attrs }

let get_hist_summary c =
  let hs_name = get_string c in
  let hs_count = get_i64 c in
  let hs_sum = get_float c in
  let hs_min = get_float c in
  let hs_max = get_float c in
  let hs_p50 = get_float c in
  let hs_p90 = get_float c in
  let hs_p99 = get_float c in
  { hs_name; hs_count; hs_sum; hs_min; hs_max; hs_p50; hs_p90; hs_p99 }

let get_slow_entry c =
  let sl_cmd = get_string c in
  let sl_trace = get_string c in
  let sl_conn = get_i64 c in
  let sl_seconds = get_float c in
  let sl_cache = get_string c in
  let sl_phases = get_list c (fun c -> get_pair c get_float) in
  let sl_plan = get_string c in
  { sl_cmd; sl_trace; sl_conn; sl_seconds; sl_cache; sl_phases; sl_plan }

let get_stats_payload c =
  let sp_text = get_string c in
  let sp_counters = get_list c (fun c -> get_pair c get_i64) in
  let sp_gauges = get_list c (fun c -> get_pair c get_float) in
  let sp_hists = get_list c get_hist_summary in
  let sp_slow = get_list c get_slow_entry in
  { sp_text; sp_counters; sp_gauges; sp_hists; sp_slow }

let get_result c =
  let key = get_string c in
  let r : Icdb_cql.Exec.result =
    match get_u8 c with
    | 0 -> Icdb_cql.Exec.Rstr (get_string c)
    | 1 -> Icdb_cql.Exec.Rint (get_i64 c)
    | 2 -> Icdb_cql.Exec.Rfloat (get_float c)
    | 3 -> Icdb_cql.Exec.Rstrs (get_list c get_string)
    | t -> raise (Bad (Printf.sprintf "unknown result tag %d" t))
  in
  (key, r)

let get_batch_entry c =
  match get_u8 c with
  | 0 ->
      let text = get_string c in
      let args = get_list c get_arg in
      Bcql { text; args }
  | 1 -> Bsql (get_string c)
  | t -> raise (Bad (Printf.sprintf "unknown batch entry tag %d" t))

let get_batch_result c =
  match get_u8 c with
  | 0 -> Bresults (get_list c get_result)
  | 1 -> Bsql_result (Affected (get_i64 c))
  | 2 ->
      let cols = get_list c get_string in
      let rows = get_list c (fun c -> get_list c get_string) in
      Bsql_result (Relation { cols; rows })
  | 3 -> (
      let code_byte = get_u8 c in
      let message = get_string c in
      match code_of_byte code_byte with
      | Some code -> Berror { code; message }
      | None -> raise (Bad (Printf.sprintf "unknown error code %d" code_byte)))
  | t -> raise (Bad (Printf.sprintf "unknown batch result tag %d" t))

(* The request id sits at a fixed offset, so even a frame whose body is
   garbage usually yields the id to address the error response to. *)
let salvage_id payload =
  if String.length payload >= header_bytes then
    Some (Int64.to_int (String.get_int64_be payload 2))
  else None

let decode_payload ~decode_body payload =
  let id = salvage_id payload in
  if String.length payload < header_bytes then
    Stdlib.Error (Malformed { id = None; reason = "payload shorter than header" })
  else
    let c = { data = payload; pos = 0 } in
    let version = get_u8 c in
    if version <> protocol_version then
      Stdlib.Error (Bad_version { id; got = version })
    else
      let kind = get_u8 c in
      let fid = get_i64 c in
      match decode_body c kind with
      | Some _ when c.pos <> String.length payload ->
          Stdlib.Error (Malformed { id; reason = "trailing bytes after body" })
      | Some b -> Stdlib.Ok { id = fid; body = b }
      | None ->
          Stdlib.Error
            (Malformed
               { id; reason = Printf.sprintf "unknown frame kind 0x%02x" kind })
      | exception Bad reason -> Stdlib.Error (Malformed { id; reason })

let decode_request payload =
  let decoded =
    decode_payload payload ~decode_body:(fun c kind ->
        let trace_id = get_string c in
        let timeout_s = get_float c in
        let ctx = { trace_id; timeout_s } in
        let body =
          if kind = kind_ping then Some Ping
          else if kind = kind_cql then begin
            let text = get_string c in
            let args = get_list c get_arg in
            Some (Cql { text; args })
          end
          else if kind = kind_sql then Some (Sql (get_string c))
          else if kind = kind_stats then Some Stats
          else if kind = kind_trace_fetch then Some (Trace_fetch (get_string c))
          else if kind = kind_shutdown then Some Shutdown
          else if kind = kind_subscribe then
            Some (Subscribe { cursor = get_i64 c })
          else if kind = kind_batch then
            Some (Batch (get_list c get_batch_entry))
          else None
        in
        Option.map (fun b -> (b, ctx)) body)
  in
  match decoded with
  | Stdlib.Ok { id; body = (body, ctx) } -> Stdlib.Ok ({ id; body }, ctx)
  | Stdlib.Error e -> Stdlib.Error e

let decode_response payload =
  decode_payload payload ~decode_body:(fun c kind ->
      if kind = kind_pong then Some Pong
      else if kind = kind_results then Some (Results (get_list c get_result))
      else if kind = kind_sql_affected then
        Some (Sql_result (Affected (get_i64 c)))
      else if kind = kind_sql_relation then begin
        let cols = get_list c get_string in
        let rows = get_list c (fun c -> get_list c get_string) in
        Some (Sql_result (Relation { cols; rows }))
      end
      else if kind = kind_stats_report then
        Some (Stats_report (get_stats_payload c))
      else if kind = kind_spans then Some (Spans (get_list c get_remote_span))
      else if kind = kind_error then begin
        let code_byte = get_u8 c in
        let message = get_string c in
        match code_of_byte code_byte with
        | Some code -> Some (Error { code; message })
        | None -> raise (Bad (Printf.sprintf "unknown error code %d" code_byte))
      end
      else if kind = kind_bye then Some Bye
      else if kind = kind_journal_batch then begin
        let jb_first = get_i64 c in
        let jb_next = get_i64 c in
        let jb_records = get_list c get_string in
        let jb_files = get_list c (fun c -> get_pair c get_string) in
        Some (Journal_batch { jb_first; jb_next; jb_records; jb_files })
      end
      else if kind = kind_ckpt_offer then begin
        let co_cursor = get_i64 c in
        let co_files = get_u32 c in
        Some (Checkpoint_offer { co_cursor; co_files })
      end
      else if kind = kind_ckpt_chunk then begin
        let cc_name = get_string c in
        let cc_data = get_string c in
        let cc_last =
          match get_u8 c with
          | 0 -> false
          | 1 -> true
          | t -> raise (Bad (Printf.sprintf "unknown chunk-last tag %d" t))
        in
        Some (Checkpoint_chunk { cc_name; cc_data; cc_last })
      end
      else if kind = kind_repl_error then Some (Repl_error (get_string c))
      else if kind = kind_batch_reply then
        Some (Batch_reply (get_list c get_batch_result))
      else None)

(* ------------------------------------------------------------------ *)
(* Incremental framing                                                 *)
(* ------------------------------------------------------------------ *)

(* The event loop reads whatever the kernel has — a frame can arrive
   split at any byte boundary, or many frames can arrive glued into one
   read. [Dechunk] reassembles the length-prefixed stream: feed it raw
   fragments, pull out complete payloads. All field-level decoding
   ([decode_request]/[decode_response]) happens only on complete
   payloads, so no [get_*] accessor ever sees a partial field — the
   partial-read problem is solved once, here, instead of at every field
   boundary. An oversized (or negative) declared length is detected
   from the 4 header bytes alone, before buffering the body, so a
   hostile client cannot make the server allocate [max_payload] first.

   Single-owner by design (the event loop thread); not thread-safe. *)
module Dechunk = struct
  type t = {
    mutable buf : Bytes.t;   (* ring-less scratch: valid bytes are
                                [start, start+len) *)
    mutable start : int;
    mutable len : int;
  }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0 }
  let buffered t = t.len

  let feed t src off n =
    if off < 0 || n < 0 || off + n > Bytes.length src then
      invalid_arg "Wire.Dechunk.feed";
    if n > 0 then begin
      (if t.start + t.len + n > Bytes.length t.buf then begin
         (* slide to offset 0; grow if the pending bytes still don't fit *)
         if t.len > 0 then Bytes.blit t.buf t.start t.buf 0 t.len;
         t.start <- 0;
         if t.len + n > Bytes.length t.buf then begin
           let cap = ref (Bytes.length t.buf) in
           while !cap < t.len + n do cap := !cap * 2 done;
           let grown = Bytes.create !cap in
           Bytes.blit t.buf 0 grown 0 t.len;
           t.buf <- grown
         end
       end);
      Bytes.blit src off t.buf (t.start + t.len) n;
      t.len <- t.len + n
    end

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  let next t =
    if t.len < 4 then `Await
    else begin
      let declared = Int32.to_int (Bytes.get_int32_be t.buf t.start) in
      if declared < 0 || declared > max_payload then `Oversized declared
      else if t.len < 4 + declared then `Await
      else begin
        let payload = Bytes.sub_string t.buf (t.start + 4) declared in
        t.start <- t.start + 4 + declared;
        t.len <- t.len - 4 - declared;
        if t.len = 0 then t.start <- 0;
        `Payload payload
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Blocking transport                                                  *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd s = write_all fd s 0 (String.length s)

(* [`Eof n] = clean EOF after [n] of the wanted bytes. *)
let read_exact fd want =
  let buf = Bytes.create want in
  let rec go off =
    if off = want then `Bytes (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (want - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_payload fd =
  match read_exact fd 4 with
  | `Eof 0 -> Stdlib.Error Closed
  | `Eof _ -> Stdlib.Error (Truncated "length header")
  | `Bytes hdr -> (
      let len = Int32.to_int (String.get_int32_be hdr 0) in
      if len < 0 || len > max_payload then Stdlib.Error (Oversized len)
      else
        match read_exact fd len with
        | `Eof _ -> Stdlib.Error (Truncated "payload")
        | `Bytes payload -> Stdlib.Ok payload)

let read_request fd =
  match read_payload fd with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok payload -> decode_request payload

let read_response fd =
  match read_payload fd with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok payload -> decode_response payload
