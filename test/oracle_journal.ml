(* Reference oracle: the full-scan journal tail read that
   Icdb_reldb.Journal.stream_from replaced with an offset index, kept
   verbatim (minus the hook, span and metric) so the differential test
   in test_recovery.ml can check the indexed read at every cursor. It
   decodes the file from the first record on every call. *)

open Icdb_reldb

let stream_from j ~seq ?(max_records = max_int) () =
  let path = Journal.path j and base = Journal.base_seq j in
  if seq < base || seq > Journal.next_seq j then
    raise (Journal.Journal_error "stream_from: seq outside journal window");
  if not (Sys.file_exists path) then
    { Journal.st_first = seq; st_entries = []; st_torn = false }
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let idx = ref base in
        let out = ref [] in
        let torn = ref false in
        let count = ref 0 in
        (try
           while (not !torn) && !count < max_records do
             let line = input_line ic in
             match Journal.decode_line line with
             | Some e ->
                 if !idx >= seq then begin
                   out := e :: !out;
                   incr count
                 end;
                 incr idx
             | None -> torn := true
           done
         with End_of_file -> ());
        { Journal.st_first = seq; st_entries = List.rev !out; st_torn = !torn })
  end
