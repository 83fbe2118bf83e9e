(* Transport loops of the solve service.

   One scheduler (cache + domain pool defaults) serves length-framed
   requests. Two transports share the per-connection loop:

   - stdio: frames on stdin/stdout — the child-process transport
     ([lll_cli client --spawn] talks to it), also handy under socat.
   - unix socket: bind, listen, and fan accepted connections out over a
     pool of worker domains (one OCaml 5 domain per worker, fed by a
     bounded queue). Each connection is served to completion by one
     worker, so per-connection frame ordering is untouched; distinct
     connections proceed concurrently against the shared thread-safe
     scheduler. A dropped or hostile connection costs only that
     connection; a shutdown request stops accepting, drains, and
     unlinks the socket path.

   Hardening, because clients misbehave:

   - SIGPIPE is ignored on both transports: a client that disconnects
     mid-response turns the write into an EPIPE error on that
     connection instead of a signal that kills the whole server.
   - [Unix.accept] retries on EINTR/ECONNABORTED.
   - Binding refuses to clobber a live server (or any non-socket file)
     at the requested path: the path is probed with a connect first and
     only a genuinely stale socket file is removed.
   - Frame length and batch count are bounded (see {!Protocol}); a
     frame or batch past the bound poisons only its own connection.

   Requests arrive either bare (a batch of one) or as an explicit
   [op=batch count=K] frame followed by K request frames. *)

exception Socket_busy of { path : string; reason : string }

let () =
  Printexc.register_printer (function
    | Socket_busy { path; reason } ->
      Some (Printf.sprintf "Socket_busy(%s: %s)" path reason)
    | _ -> None)

(* A server must never die of SIGPIPE: writes to dropped clients have
   to surface as per-connection EPIPE errors. Idempotent; no-op where
   the signal does not exist. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let read_batch ic first =
  match Protocol.get first "op" with
  | Some "batch" ->
    let count =
      match Protocol.get_int first "count" with
      | Some c when c >= 0 && c <= Protocol.max_batch -> c
      | Some c when c >= 0 ->
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "batch count %d exceeds the limit of %d" c Protocol.max_batch))
      | _ -> raise (Protocol.Protocol_error "batch frame needs count>=0")
    in
    let rec collect k acc =
      if k = 0 then List.rev acc
      else
        match Protocol.read_frame ic with
        | Some frame -> collect (k - 1) (frame :: acc)
        | None -> raise (Protocol.Protocol_error "EOF inside a batch")
    in
    collect count []
  | _ -> [ first ]

let serve_channels sched ic oc =
  let emit frame = Protocol.write_frame oc frame in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> `Eof
    | Some first -> (
      match Sched.handle_batch sched (read_batch ic first) ~emit with
      | `Continue -> loop ()
      | `Shutdown -> `Shutdown)
  in
  loop ()

let serve_stdio ?capacity ?domains ?store_dir ?max_frame () =
  ignore_sigpipe ();
  Option.iter Protocol.set_max_frame max_frame;
  let sched = Sched.create ?capacity ?domains ?store_dir () in
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  ignore (serve_channels sched stdin stdout)

(* ---- the worker pool ----

   A bounded queue of accepted connections between the accept loop and
   the worker domains. Determinism inside a connection is untouched
   (one worker owns a connection end to end); the queue only decides
   which worker picks up which connection. *)

module Pool = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    nonfull : Condition.t;
    queue : Unix.file_descr Queue.t;
    limit : int;
    mutable stopping : bool;
  }

  let create ~limit =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      nonfull = Condition.create ();
      queue = Queue.create ();
      limit = max 1 limit;
      stopping = false;
    }

  (* Enqueue an accepted connection, blocking while the queue is full
     (back-pressure: the listen backlog absorbs the burst). A push after
     stop closes the connection instead. *)
  let push t fd =
    Mutex.lock t.mutex;
    while Queue.length t.queue >= t.limit && not t.stopping do
      Condition.wait t.nonfull t.mutex
    done;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      Queue.push fd t.queue;
      Condition.signal t.nonempty;
      Mutex.unlock t.mutex
    end

  (* Next connection to serve; [None] once stopped and drained. *)
  let pop t =
    Mutex.lock t.mutex;
    let rec go () =
      if not (Queue.is_empty t.queue) then begin
        let fd = Queue.pop t.queue in
        Condition.signal t.nonfull;
        Mutex.unlock t.mutex;
        Some fd
      end
      else if t.stopping then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.nonempty t.mutex;
        go ()
      end
    in
    go ()

  let stop t =
    Mutex.lock t.mutex;
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    Condition.broadcast t.nonfull;
    Mutex.unlock t.mutex
end

(* Serve one accepted connection to completion. Every transport-level
   failure — a client gone mid-frame, a hostile length header, a write
   into a closed peer — is absorbed here: it ends this connection and
   nothing else. *)
let serve_connection sched fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let outcome = match serve_channels sched ic oc with v -> v | exception _ -> `Eof in
  (* Both channels share the descriptor: close it exactly once, through
     [oc]. Between two closes the accept loop (or a store load on
     another worker) can be handed the same descriptor number, and the
     second close would then cut that connection or file instead. *)
  close_out_noerr oc;
  outcome

(* Refuse to remove anything at [path] except a provably stale unix
   socket: a live server answers a connect probe, and a non-socket file
   was never ours to delete. *)
let claim_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> `Live
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
          | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Stale
          | exception Unix.Unix_error (e, _, _) -> `Unknown (Unix.error_message e))
    in
    match verdict with
    | `Stale -> ( try Sys.remove path with Sys_error _ -> ())
    | `Live ->
      raise (Socket_busy { path; reason = "a server is already answering on this socket" })
    | `Unknown reason ->
      raise
        (Socket_busy { path; reason = Printf.sprintf "cannot probe the socket (%s)" reason }))
  | { Unix.st_kind = _; _ } ->
    raise (Socket_busy { path; reason = "the path exists and is not a unix socket" })

let rec accept_retry sock =
  match Unix.accept sock with
  | conn -> conn
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> accept_retry sock

let serve_socket ?capacity ?domains ?store_dir ?(workers = 1) ?max_frame ~path () =
  ignore_sigpipe ();
  Option.iter Protocol.set_max_frame max_frame;
  let workers = max 1 workers in
  let sched = Sched.create ?capacity ?domains ?store_dir () in
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Sys.remove path with Sys_error _ -> ())
    | _ | (exception Unix.Unix_error _) -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      let pool = Pool.create ~limit:(max 8 (2 * workers)) in
      let stop = Atomic.make false in
      (* A worker that sees a shutdown request flips [stop], then nudges
         the accept loop awake with a throwaway self-connection — the
         portable way to interrupt a blocking [accept]. *)
      let request_stop () =
        if not (Atomic.exchange stop true) then begin
          let nudge = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try Unix.connect nudge (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
          try Unix.close nudge with Unix.Unix_error _ -> ()
        end
      in
      let worker () =
        let rec loop () =
          match Pool.pop pool with
          | None -> ()
          | Some fd ->
            (match serve_connection sched fd with
            | `Eof -> ()
            | `Shutdown -> request_stop ());
            loop ()
        in
        loop ()
      in
      let staff = List.init workers (fun _ -> Domain.spawn worker) in
      let rec accept_loop () =
        match accept_retry sock with
        | exception Unix.Unix_error _ when Atomic.get stop -> ()
        | conn, _ ->
          if Atomic.get stop then (try Unix.close conn with Unix.Unix_error _ -> ())
          else begin
            Pool.push pool conn;
            accept_loop ()
          end
      in
      accept_loop ();
      Pool.stop pool;
      List.iter Domain.join staff)
