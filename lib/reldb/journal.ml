(* Write-ahead journal for the relational engine (the durability the
   paper gets for free from INGRES, §2.3).

   Every mutating operation on a journaled [Db.t] is appended here as a
   typed, checksummed record *before* the caller regains control, so a
   crash at any point loses at most the operation in flight. Recovery
   ([Db.replay_journal] / [Db.recover]) replays the longest valid prefix
   over the last snapshot and truncates torn or corrupt tails.

   Record format, one line per record:

     <crc32-hex-of-payload> TAB <payload> NL

   where the payload is tab-separated fields, the first being a one-byte
   tag:

     C <table> <col>=<ty> ...     create table
     X <table>                    drop table
     I <table> <value> ...        insert row    (Value.encode, so tabs
     D <table> <value> ...        delete row     and newlines are escaped)
     B <tag>                      transaction begin   (App B §7)
     T <tag>                      transaction commit

   A record whose checksum does not match, or that does not parse, marks
   the beginning of a torn tail: everything from it on is discarded. *)

type entry =
  | Create of string * (string * Value.ty) list
  | Drop of string
  | Insert of string * Value.t list
  | Delete of string * Value.t list
  | Tx_begin of string
  | Tx_commit of string

exception Journal_error of string

let journal_err fmt = Printf.ksprintf (fun s -> raise (Journal_error s)) fmt

(* Hook fired before each append; the fault-injection harness
   (lib/core/faultinject.ml) points this at its journal-append site. *)
let append_hook : (unit -> unit) ref = ref (fun () -> ())

(* Hook fired at the top of each [stream_from]; wired to the
   journal_stream fault-injection site the same way. *)
let stream_hook : (unit -> unit) ref = ref (fun () -> ())

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3 polynomial, table-driven)                        *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)
(* ------------------------------------------------------------------ *)

let ty_name = Value.ty_name

let ty_of_name = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" -> Value.Tstr
  | "bool" -> Value.Tbool
  | s -> journal_err "unknown column type %s" s

let check_field what s =
  if String.contains s '\t' || String.contains s '\n' then
    journal_err "%s %S may not contain tabs or newlines" what s

let encode_entry e =
  let fields =
    match e with
    | Create (name, schema) ->
        check_field "table name" name;
        "C" :: name
        :: List.map
             (fun (col, ty) ->
               check_field "column name" col;
               col ^ "=" ^ ty_name ty)
             schema
    | Drop name ->
        check_field "table name" name;
        [ "X"; name ]
    | Insert (name, values) ->
        check_field "table name" name;
        "I" :: name :: List.map Value.encode values
    | Delete (name, values) ->
        check_field "table name" name;
        "D" :: name :: List.map Value.encode values
    | Tx_begin tag ->
        check_field "transaction tag" tag;
        [ "B"; tag ]
    | Tx_commit tag ->
        check_field "transaction tag" tag;
        [ "T"; tag ]
  in
  String.concat "\t" fields

let decode_entry payload =
  match String.split_on_char '\t' payload with
  | "C" :: name :: cols ->
      let schema =
        List.map
          (fun col ->
            match String.rindex_opt col '=' with
            | Some i ->
                ( String.sub col 0 i,
                  ty_of_name (String.sub col (i + 1) (String.length col - i - 1)) )
            | None -> journal_err "malformed column field %S" col)
          cols
      in
      Create (name, schema)
  | [ "X"; name ] -> Drop name
  | "I" :: name :: values -> Insert (name, List.map Value.decode values)
  | "D" :: name :: values -> Delete (name, List.map Value.decode values)
  | [ "B"; tag ] -> Tx_begin tag
  | [ "T"; tag ] -> Tx_commit tag
  | _ -> journal_err "unknown record %S" payload

let encode_line e =
  let payload = encode_entry e in
  Printf.sprintf "%08lx\t%s\n" (crc32 payload) payload

(* Returns None for a torn or corrupt line. *)
let decode_line line =
  match String.index_opt line '\t' with
  | None -> None
  | Some i ->
      let crc_field = String.sub line 0 i in
      let payload = String.sub line (i + 1) (String.length line - i - 1) in
      (match Int32.of_string_opt ("0x" ^ crc_field) with
       | Some crc when crc = crc32 payload -> (
           match decode_entry payload with
           | e -> Some e
           | exception Journal_error _ -> None
           | exception Failure _ -> None)
       | _ -> None)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

type t = {
  jpath : string;
  mutable oc : out_channel;
  (* Replication cursor. Record sequence numbers are monotonic across
     the journal's whole life, surviving checkpoint truncations: [base]
     is the sequence number of the first record currently in the file
     (persisted in the "<jpath>.seq" sidecar), [next] the number the
     next append will get. A follower whose cursor is below [base] has
     fallen behind the last truncation and must re-sync from a full
     checkpoint. *)
  mutable base : int;
  mutable next : int;
  (* Byte offset of every record since [base]: record [base + k] starts
     at [offs.(k)], and [offs.(next - base)] is the end of the last one,
     so a tail read seeks straight to its cursor. *)
  mutable offs : int array;
  (* The file is exactly the indexed records: no torn tail was found at
     open. Together with a length check at read time (a foreign append
     changes the length) this decides whether [offs] describes the file
     or a tail read must scan it from the start. *)
  mutable indexed : bool;
  (* Records below this cursor are committed: published after each
     append's flush, and readable from any thread without the lock that
     serializes appends. *)
  committed : int Atomic.t;
}

let path t = t.jpath
let base_seq t = t.base
let next_seq t = t.next
let committed t = Atomic.get t.committed

let index_end t = t.offs.(t.next - t.base)

(* Record that the next record starts at [pos], growing the index. *)
let index_push t pos =
  let k = t.next - t.base in
  if k >= Array.length t.offs then begin
    let grown = Array.make (2 * Array.length t.offs) 0 in
    Array.blit t.offs 0 grown 0 (Array.length t.offs);
    t.offs <- grown
  end;
  t.offs.(k) <- pos

let seq_path jpath = jpath ^ ".seq"

let read_base jpath =
  match open_in (seq_path jpath) with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match int_of_string_opt (String.trim (input_line ic)) with
          | Some n when n >= 0 -> n
          | Some _ | None -> 0
          | exception End_of_file -> 0)
  | exception Sys_error _ -> 0

(* Atomic (write-to-temp + rename) so a torn sidecar can never make the
   cursor go backwards silently. *)
let write_base jpath base =
  let tmp = seq_path jpath ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Printf.fprintf oc "%d\n" base);
  Sys.rename tmp (seq_path jpath)

(* Offsets of the valid records currently in the file — the same
   longest-valid-prefix rule replay uses, so the cursor agrees with what
   recovery keeps — plus the end of the last one, and whether those
   records are the whole file, newline-terminated (a later append would
   otherwise land behind a torn tail, or glue onto an unterminated last
   record). *)
let scan_records jpath =
  if not (Sys.file_exists jpath) then ([ 0 ], true)
  else begin
    let ic = open_in_bin jpath in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let offs = ref [ 0 ] in
        (try
           let stop = ref false in
           while not !stop do
             match decode_line (input_line ic) with
             | Some _ -> offs := pos_in ic :: !offs
             | None -> stop := true
           done
         with End_of_file -> ());
        let last = List.hd !offs in
        let whole =
          last = in_channel_length ic
          && (last = 0 || (seek_in ic (last - 1); input_char ic = '\n'))
        in
        (List.rev !offs, whole))
  end

let open_append jpath =
  let base = read_base jpath in
  let offs, indexed = scan_records jpath in
  let offs = Array.of_list offs in
  let next = base + Array.length offs - 1 in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 jpath
  in
  { jpath; oc; base; next; offs; indexed; committed = Atomic.make next }

(* Seed a journal's cursor before it exists: a follower installing a
   checkpoint fetched at sequence [seq] writes the sidecar and an empty
   journal so the next [open_append] continues numbering from [seq]. *)
let install_base jpath seq =
  write_base jpath seq;
  if not (Sys.file_exists jpath) then
    close_out (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 jpath)

let m_appends = Icdb_obs.Metrics.counter "journal.appends"

let append t e =
  Icdb_obs.Trace.with_span "journal.append" @@ fun () ->
  Icdb_obs.Metrics.incr m_appends;
  !append_hook ();
  let line = encode_line e in
  output_string t.oc line;
  flush t.oc;
  let pos = index_end t + String.length line in
  t.next <- t.next + 1;
  index_push t pos;
  Atomic.set t.committed t.next

let close t = close_out t.oc

(* Truncate the journal after a snapshot checkpoint has absorbed every
   journaled operation. The sequence base advances to [next] and is
   persisted first: a crash between the sidecar write and the
   truncation re-numbers the stale records, which the checkpoint
   contract already tolerates (recovery loads the snapshot and replays
   idempotently; see Db.checkpoint). *)
let reset t =
  t.base <- t.next;
  write_base t.jpath t.base;
  close_out t.oc;
  t.oc <- open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 t.jpath;
  t.offs <- Array.make 64 0;
  t.indexed <- true

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* The longest valid record prefix of the journal at [jpath], plus
   whether a torn/corrupt tail was found after it. A missing journal
   reads as empty. *)
let m_replayed = Icdb_obs.Metrics.counter "journal.replayed_entries"

let replay jpath =
  Icdb_obs.Trace.with_span "journal.replay" @@ fun () ->
  if not (Sys.file_exists jpath) then ([], false)
  else begin
    let ic = open_in_bin jpath in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let entries = ref [] in
        let torn = ref false in
        (try
           while not !torn do
             let line = input_line ic in
             match decode_line line with
             | Some e -> entries := e :: !entries
             | None -> torn := true
           done
         with End_of_file -> ());
        (* a final line without a newline that still decodes is fine;
           input_line already handled it above *)
        let entries = List.rev !entries in
        Icdb_obs.Metrics.incr ~by:(List.length entries) m_replayed;
        (entries, !torn))
  end

(* Rewrite the journal to contain exactly [entries] (used by recovery to
   drop torn tails and uncommitted transactions). Write-to-temp + rename
   so a crash during recovery cannot make things worse. *)
let rewrite jpath entries =
  let tmp = jpath ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun e -> output_string oc (encode_line e)) entries);
  Sys.rename tmp jpath

(* ------------------------------------------------------------------ *)
(* Replication tail reads                                              *)
(* ------------------------------------------------------------------ *)

type stream = {
  st_first : int;
  st_entries : entry list;
  st_torn : bool;
}

let m_streamed = Icdb_obs.Metrics.counter "journal.streamed_entries"

let empty_stream seq = { st_first = seq; st_entries = []; st_torn = false }

(* The records from [seq] on, found by scanning the live file from
   [base] — the longest-valid-prefix rule itself. Only a file the index
   does not describe is read this way. *)
let scan_from t ~seq ~max_records =
  if not (Sys.file_exists t.jpath) then empty_stream seq
  else begin
    let ic = open_in_bin t.jpath in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let idx = ref t.base in
        let out = ref [] in
        let torn = ref false in
        let count = ref 0 in
        (try
           while (not !torn) && !count < max_records do
             let line = input_line ic in
             match decode_line line with
             | Some e ->
                 if !idx >= seq then begin
                   out := e :: !out;
                   incr count
                 end;
                 incr idx
             | None -> torn := true
           done
         with End_of_file -> ());
        { st_first = seq; st_entries = List.rev !out; st_torn = !torn })
  end

(* The [count] records from [seq] on, read in one seek and one read
   through the offset index. A record that no longer decodes (the file
   was overwritten in place) ends the stream as a torn tail. *)
let read_indexed t ~seq ~count =
  match open_in_bin t.jpath with
  | exception Sys_error _ -> empty_stream seq
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let k = seq - t.base in
          let first = t.offs.(k) in
          seek_in ic first;
          let data = really_input_string ic (t.offs.(k + count) - first) in
          let rec decode i pos acc =
            if i = count then (List.rev acc, false)
            else
              let stop = t.offs.(k + i + 1) - first in
              match decode_line (String.sub data pos (stop - pos - 1)) with
              | Some e -> decode (i + 1) stop (e :: acc)
              | None -> (List.rev acc, true)
          in
          let entries, torn = decode 0 0 [] in
          { st_first = seq; st_entries = entries; st_torn = torn })

(* Tail-read from a global sequence number, in time proportional to the
   records returned: the index gives the cursor's byte offset, and a
   caught-up cursor opens no file at all. The publisher reads under the
   lock that serializes appends, so no append races it; a file that
   holds bytes this handle did not write (a torn tail found at open, a
   foreign append) is scanned from [base] instead, so the stream still
   stops at the longest valid prefix and reports the torn tail. *)
let stream_from t ~seq ?(max_records = max_int) () =
  Icdb_obs.Trace.with_span "journal.stream" @@ fun () ->
  !stream_hook ();
  if seq < t.base || seq > t.next then
    journal_err "stream_from: seq %d outside journal window [%d, %d)" seq
      t.base t.next;
  flush t.oc;
  let s =
    if t.indexed && out_channel_length t.oc = index_end t then begin
      let count = min max_records (t.next - seq) in
      if count <= 0 then empty_stream seq else read_indexed t ~seq ~count
    end
    else scan_from t ~seq ~max_records
  in
  Icdb_obs.Metrics.incr ~by:(List.length s.st_entries) m_streamed;
  s
