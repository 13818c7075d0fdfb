(* Coarse-grained locking around Server.t — see sync.mli for why one
   lock is the right grain. *)

type t = {
  mutable server : Icdb.Server.t;
  lock : Mutex.t;
  mutable workspace : string;
  mutable on_release : unit -> unit;
}

let wrap server =
  { server;
    lock = Mutex.create ();
    workspace = Icdb.Server.workspace server;
    on_release = ignore }

let with_server ?(notify = true) t f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () ->
      Mutex.unlock t.lock;
      if notify then t.on_release ())
    (fun () -> f t.server)

let set_on_release t f = t.on_release <- f

(* Swap the server out under the same lock every request holds: a
   replication follower re-syncing from a fresh checkpoint rebuilds a
   whole new Server.t and installs it here, while queries keep
   serializing against whichever server is current. *)
let replace t f =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let server = f t.server in
      t.server <- server;
      t.workspace <- Icdb.Server.workspace server)

let peek_workspace t = t.workspace
