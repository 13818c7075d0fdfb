(* icdb serve child processes: spawn and wait for the listening line,
   stop with SIGTERM, read their peak resident set. Every live child is killed if
   the benchmark exits early. *)

type t = {
  pid : int;
  port : int;
  ws : string;
  argv : string list;
  out : in_channel;  (* the daemon's stdout, read until it exits *)
}

let icdb = ref "icdb"
let run_dir = ref "."
let live : int list ref = ref []
let counter = ref 0

let now = Unix.gettimeofday

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Children get TMPDIR inside the run directory, so nothing they write
   lands outside the checkout. *)
let env () =
  let keep =
    List.filter
      (fun s -> not (String.starts_with ~prefix:"TMPDIR=" s))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (("TMPDIR=" ^ Filename.concat !run_dir "tmp") :: keep)

let rec waitpid_nohang pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

let forget pid = live := List.filter (( <> ) pid) !live

(* Start [icdb serve] with [extra] arguments; returns once it prints
   "icdbd listening on HOST:PORT", i.e. once it accepts connections.
   Waiting on its stdout, not polling a file, keeps a sleep's wake-up
   out of the set-up time. *)
let spawn name extra =
  incr counter;
  let tag = Printf.sprintf "%s%d" name !counter in
  let path suffix = Filename.concat !run_dir (tag ^ suffix) in
  let ws = path "-ws" in
  let argv = [ !icdb; "serve"; "--port"; "0"; "--workspace"; ws ] @ extra in
  let log = Unix.openfile (path ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close w)
      (fun () -> Unix.create_process_env !icdb (Array.of_list argv) (env ()) Unix.stdin w log)
  in
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let fail what =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    forget pid;
    close_in_noerr out;
    failwith (Printf.sprintf "%s %s; see %s" tag what (path ".log"))
  in
  let port =
    match Unix.select [ r ] [] [] 60.0 with
    | [], _, _ -> fail "did not start within 60 s"
    | _ -> (
        match input_line out with
        | line -> (
            try Scanf.sscanf line "icdbd listening on %s@:%d" (fun _ port -> port)
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail ("printed an unexpected line: " ^ line))
        | exception End_of_file -> fail "exited during start-up")
  in
  { pid; port; ws; argv; out }

(* Wait up to 30 s for [d] to exit, then kill it. True when it exited
   with status 0. *)
let wait_exit d =
  let deadline = now () +. 30.0 in
  let rec loop () =
    match waitpid_nohang d.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          false
        end
        else (Unix.sleepf 0.002; loop ())
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = loop () in
  forget d.pid;
  close_in_noerr d.out;
  clean

(* SIGTERM every daemon, then wait for each: a durable daemon
   checkpoints on the way out. True when all exited with status 0. *)
let stop_all ds =
  List.iter (fun d -> try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()) ds;
  List.fold_left (fun clean d -> wait_exit d && clean) true ds

let stop d = stop_all [ d ]

(* SIGKILL and reap, for a daemon whose state no longer matters. *)
let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  forget d.pid;
  close_in_noerr d.out

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb d =
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" d.pid)))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* The daemon's command line with the run directory elided, for the
   result record. *)
let describe d =
  String.concat " "
    (List.map
       (fun a ->
         if String.starts_with ~prefix:!run_dir a then
           "<run>" ^ String.sub a (String.length !run_dir)
             (String.length a - String.length !run_dir)
         else if a = !icdb then "icdb"
         else a)
       d.argv)

let connect d = Icdb_net.Client.connect ~port:d.port ()
