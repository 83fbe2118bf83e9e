(* Client side of the solve service: connect (unix socket) or spawn a
   child server over stdio, send batches, demultiplex the response
   stream, and the smoke routine behind [lll_cli client --smoke] and
   the @serve-quick runtest alias. *)

type conn = {
  ic : in_channel;
  oc : out_channel;
  close : unit -> unit;
}

let connect_socket path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  {
    ic;
    oc;
    (* one close for the shared descriptor: a second one could hit a
       descriptor another domain has just been given the same number *)
    close = (fun () -> close_out_noerr oc);
  }

let spawn ?exe ?(args = [ "serve"; "--stdio" ]) () =
  let exe = match exe with Some e -> e | None -> Sys.executable_name in
  let ic, oc = Unix.open_process_args exe (Array.of_list (exe :: args)) in
  {
    ic;
    oc;
    close = (fun () -> ignore (Unix.close_process (ic, oc)));
  }

(* ---- socket-server children ---- *)

(* A socket path no concurrent process can collide with:
   [Filename.temp_file] creates (O_EXCL, retrying on collision) a lock
   file whose unique name we then own, and the socket lives next to it.
   This replaces pid/time-derived names, which two processes starting
   in the same millisecond can share. *)
let fresh_socket_path ?(prefix = "lll-serve") () =
  let lock = Filename.temp_file prefix ".lock" in
  (lock, lock ^ ".sock")

let wait_for_socket ?(timeout = 10.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let probe () =
    Sys.file_exists path
    &&
    let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect s (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rec go delay =
    if probe () then ()
    else if Unix.gettimeofday () > deadline then
      failwith (Printf.sprintf "server at %s did not come up within %gs" path timeout)
    else begin
      Unix.sleepf delay;
      go (min 0.2 (delay *. 2.))
    end
  in
  go 0.005

type server = { srv_path : string; srv_lock : string; srv_pid : int }

let server_path srv = srv.srv_path

let spawn_server ?exe ?(workers = 1) ?(args = []) () =
  let exe = match exe with Some e -> e | None -> Sys.executable_name in
  let lock, path = fresh_socket_path () in
  let argv =
    [ exe; "serve"; "--socket"; path; "--workers"; string_of_int workers ] @ args
  in
  let pid =
    Unix.create_process exe (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr
  in
  (match wait_for_socket path with
  | () -> ()
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
    (try Sys.remove lock with Sys_error _ -> ());
    raise e);
  { srv_path = path; srv_lock = lock; srv_pid = pid }

type response = {
  metrics : Protocol.frame list;  (** streamed metrics frames, oldest first *)
  result : Protocol.frame;
}

(* read response frames until every id in [0, count) has a result *)
let read_responses conn count =
  let metrics = Array.make count [] in
  let results = Array.make count None in
  let remaining = ref count in
  while !remaining > 0 do
    match Protocol.read_frame conn.ic with
    | None -> raise (Protocol.Protocol_error "connection closed mid-response")
    | Some frame -> (
      let id =
        match Protocol.get_int frame "id" with
        | Some id when id >= 0 && id < count -> id
        | _ -> raise (Protocol.Protocol_error "response frame with bad id")
      in
      match Protocol.get frame "frame" with
      | Some "metrics" -> metrics.(id) <- frame :: metrics.(id)
      | Some "result" ->
        if results.(id) = None then decr remaining;
        results.(id) <- Some frame
      | _ -> raise (Protocol.Protocol_error "response frame with bad kind"))
  done;
  Array.to_list
    (Array.mapi
       (fun id r ->
         match r with
         | Some result -> { metrics = List.rev metrics.(id); result }
         | None -> assert false)
       results)

let batch conn frames =
  let count = List.length frames in
  Protocol.write_frame conn.oc
    { Protocol.header = [ ("op", "batch"); ("count", string_of_int count) ]; body = "" };
  List.iter (Protocol.write_frame conn.oc) frames;
  read_responses conn count

let request conn frame =
  match batch conn [ frame ] with [ r ] -> r | _ -> assert false

let close conn = conn.close ()

let shutdown conn =
  (try
     ignore
       (request conn { Protocol.header = [ ("op", "shutdown") ]; body = "" })
   with Protocol.Protocol_error _ | Sys_error _ -> ());
  conn.close ()

let stop_server srv =
  (match connect_socket srv.srv_path with
  | conn -> shutdown conn
  | exception (Unix.Unix_error _ | Sys_error _) -> ());
  (* the server removes its socket on the way out; reap the child so a
     fleet of short-lived test servers leaves no zombies behind *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.srv_pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill srv.srv_pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.srv_pid)
      end
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  (try Sys.remove srv.srv_lock with Sys_error _ -> ());
  if Sys.file_exists srv.srv_path then try Sys.remove srv.srv_path with Sys_error _ -> ()

(* ---- the smoke routine ----

   Mixed batch through a live server: two distinct solves (both cache
   misses), an identical repeat solve (must hit the LRU with a
   byte-identical assignment), a verify of the returned assignment, and
   a stats check — then a clean shutdown. Returns [Error reason] at the
   first discrepancy. *)

(* Salt for generator seeds so a smoke's cache keys are fresh even
   against a long-lived server whose cache has seen earlier runs. Drawn
   from /dev/urandom — pid-xor-time salts collide for two clients
   starting in the same millisecond, which is exactly the fleet case. *)
let fresh_nonce () =
  let bytes =
    try
      let ic = open_in_bin "/dev/urandom" in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic 3)
    with Sys_error _ | End_of_file ->
      let t = int_of_float (Unix.gettimeofday () *. 1e6) in
      let x = Unix.getpid () lxor t lxor (t lsr 24) in
      String.init 3 (fun i -> Char.chr ((x lsr (8 * i)) land 0xff))
  in
  string_of_int
    (1 + (Char.code bytes.[0] lor (Char.code bytes.[1] lsl 8) lor (Char.code bytes.[2] lsl 16)))

let smoke conn =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  (* the repeat request below reuses the exact same frame, so the
     cache-hit assertion holds whatever the nonce *)
  let nonce = fresh_nonce () in
  let solve_ring =
    {
      Protocol.header =
        [ ("op", "solve"); ("family", "ring"); ("n", "30"); ("gen-seed", nonce); ("solver", "fix3") ];
      body = "";
    }
  in
  (* mp2 is runtime-backed and pushes per-round records, so this
     request also exercises the streamed metrics path *)
  let solve_mp2 =
    {
      Protocol.header =
        [
          ("op", "solve");
          ("family", "ring");
          ("n", "24");
          ("gen-seed", nonce);
          ("solver", "mp2");
          ("stream", "1");
        ];
      body = "";
    }
  in
  let check_ok label r =
    match (Protocol.get r.result "status", Protocol.get r.result "ok") with
    | Some "ok", Some "1" -> Ok r
    | Some "ok", _ -> Error (label ^ ": solver reported not ok")
    | _ -> Error (Printf.sprintf "%s: %s" label (Option.value (Protocol.get r.result "error") ~default:"error"))
  in
  let check_cache label want r =
    if Protocol.get r.result "cache" = Some want then Ok r
    else
      Error
        (Printf.sprintf "%s: expected cache=%s, got %s" label want
           (Option.value (Protocol.get r.result "cache") ~default:"<none>"))
  in
  match batch conn [ solve_ring; solve_mp2 ] with
  | exception e -> Error ("batch failed: " ^ Printexc.to_string e)
  | [ ring1; mp1 ] ->
    let* ring1 = check_ok "ring solve" ring1 in
    let* ring1 = check_cache "ring solve" "miss" ring1 in
    let* mp1 = check_ok "mp2 solve" mp1 in
    let* _ = check_cache "mp2 solve" "miss" mp1 in
    let* _ =
      if mp1.metrics = [] then Error "mp2 solve: no streamed metrics frames" else Ok ()
    in
    let* ring2 = check_ok "repeat ring solve" (request conn solve_ring) in
    let* ring2 = check_cache "repeat ring solve" "hit" ring2 in
    let* _ =
      if ring2.result.Protocol.body = ring1.result.Protocol.body then Ok ()
      else Error "repeat ring solve: assignment differs from first run"
    in
    let verify =
      {
        Protocol.header =
          [ ("op", "verify"); ("family", "ring"); ("n", "30"); ("gen-seed", nonce) ];
        body = ring1.result.Protocol.body;
      }
    in
    let v = request conn verify in
    let* v = check_ok "verify" v in
    let* _ = check_cache "verify" "hit" v in
    let s = request conn { Protocol.header = [ ("op", "stats") ]; body = "" } in
    (* the verify reuses the cached instance; the repeat solve replays
       out of the response memo *)
    let* _ =
      match (Protocol.get_int s.result "hits", Protocol.get_int s.result "memo-hits") with
      | Some h, Some m when h + m >= 2 -> Ok ()
      | h, m ->
        Error
          (Printf.sprintf "stats: expected >=2 hits across caches, got hits=%s memo-hits=%s"
             (match h with Some h -> string_of_int h | None -> "<none>")
             (match m with Some m -> string_of_int m | None -> "<none>"))
    in
    Ok ()
  | _ -> Error "batch returned wrong number of responses"

(* ---- the fleet smoke ----

   [clients] concurrent connections hammer one socket server with
   [requests] identical solve requests each. Asserts every response is
   ok with a byte-identical assignment, the server stays up for a
   final stats connection, and the instance was built exactly once
   (one instance-cache miss, one memo miss) however the requests
   interleaved. Run it against a freshly spawned server — the
   build-once assertion reads the server-wide counters. *)

let smoke_fleet ?(clients = 4) ?(requests = 8) path =
  let nonce = fresh_nonce () in
  let frame =
    {
      Protocol.header =
        [ ("op", "solve"); ("family", "ring"); ("n", "30"); ("gen-seed", nonce); ("solver", "fix3") ];
      body = "";
    }
  in
  let hammer () =
    match connect_socket path with
    | exception e -> Error ("connect: " ^ Printexc.to_string e)
    | conn ->
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let rec go k bodies =
            if k = 0 then Ok (List.rev bodies)
            else
              match request conn frame with
              | exception e -> Error ("request: " ^ Printexc.to_string e)
              | r -> (
                match (Protocol.get r.result "status", Protocol.get r.result "ok") with
                | Some "ok", Some "1" -> go (k - 1) (r.result.Protocol.body :: bodies)
                | _ ->
                  Error
                    (Option.value (Protocol.get r.result "error") ~default:"solver not ok"))
          in
          go requests [])
  in
  let outcomes =
    List.init clients (fun _ -> Domain.spawn hammer) |> List.map Domain.join
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* bodies =
    List.fold_left
      (fun acc o ->
        match (acc, o) with
        | (Error _ as e), _ -> e
        | _, Error e -> Error ("client failed: " ^ e)
        | Ok acc, Ok bs -> Ok (acc @ bs))
      (Ok []) outcomes
  in
  let* first =
    match bodies with [] -> Error "no responses" | b :: _ -> Ok b
  in
  let* _ =
    if List.for_all (String.equal first) bodies then Ok ()
    else Error "assignments differ across concurrent clients"
  in
  (* the server must still accept a fresh connection after the storm *)
  match connect_socket path with
  | exception e -> Error ("post-storm connect: " ^ Printexc.to_string e)
  | conn ->
    Fun.protect
      ~finally:(fun () -> close conn)
      (fun () ->
        let s = request conn { Protocol.header = [ ("op", "stats") ]; body = "" } in
        match (Protocol.get_int s.result "misses", Protocol.get_int s.result "memo-misses") with
        | Some 1, Some 1 -> Ok ()
        | m, mm ->
          Error
            (Printf.sprintf "expected the instance to build once, got misses=%s memo-misses=%s"
               (match m with Some m -> string_of_int m | None -> "<none>")
               (match mm with Some m -> string_of_int m | None -> "<none>")))
