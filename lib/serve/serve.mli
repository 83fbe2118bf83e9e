(** Transport loops: one thread-safe scheduler behind stdio framing or a
    worker-pool unix-socket server. *)

exception Socket_busy of { path : string; reason : string }
(** Raised instead of clobbering a live server's socket (or any
    non-socket file) when binding. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide so writes to dropped clients surface as
    per-connection errors. Both serve entry points call this. *)

val serve_channels : Sched.t -> in_channel -> out_channel -> [ `Eof | `Shutdown ]
(** Serve frames until clean EOF or a shutdown request. *)

val serve_stdio :
  ?capacity:int ->
  ?domains:int ->
  ?store_dir:string ->
  ?max_frame:int ->
  unit ->
  unit
(** Serve on stdin/stdout (binary mode) until EOF or shutdown.
    [store_dir] backs the scheduler's instance store with an artifact
    directory. *)

val serve_socket :
  ?capacity:int ->
  ?domains:int ->
  ?store_dir:string ->
  ?workers:int ->
  ?max_frame:int ->
  path:string ->
  unit ->
  unit
(** Bind a unix socket at [path] and serve until a shutdown request:
    accepted connections are fanned out over [workers] OCaml 5 domains
    (default 1) through a bounded queue, each connection owned end to
    end by one worker against the shared scheduler. A provably stale
    socket file at [path] is replaced; a live server or a non-socket
    file raises {!Socket_busy}. A client dropping mid-response, a
    hostile length header, or a malformed batch ends only that
    connection. On shutdown the queue drains, in-flight connections
    finish, and the socket file is removed.
    @raise Socket_busy when [path] cannot be claimed. *)
