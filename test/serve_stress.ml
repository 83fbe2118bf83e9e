(* The child process of test_serve's "worker-pool stress" case, run
   there under a watchdog (a forked child is not an option once the
   suite has spawned domains).

   Each round starts an in-process socket server with 4 worker domains,
   warms it from one client, then storms it from 4 client domains, each
   sending memoized spec solves, [memo=0] solves and solves of a
   server-local container file. Every response must be ok and
   byte-identical to the first response of its kind. The round ends
   with a shutdown request and [Domain.join] of the server, which is
   where a lost shutdown would hang. Exits non-zero on any bad
   response. *)

module Protocol = Lll_serve.Protocol
module Serve = Lll_serve.Serve
module Client = Lll_serve.Client

let rounds = 30
let clients = 4

let storm frames =
  let path = Filename.temp_file "lll_stress" ".sock" in
  Sys.remove path;
  let server = Domain.spawn (fun () -> Serve.serve_socket ~capacity:4 ~workers:4 ~path ()) in
  let rec wait tries =
    match Client.connect_socket path with
    | conn -> Client.close conn
    | exception _ ->
      if tries = 0 then failwith "server did not come up";
      Unix.sleepf 0.02;
      wait (tries - 1)
  in
  wait 500;
  let reference = Array.make (Array.length frames) None in
  let hammer () =
    let conn = Client.connect_socket path in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        for i = 0 to (4 * Array.length frames) - 1 do
          let k = i mod Array.length frames in
          let r = (Client.request conn frames.(k)).Client.result in
          if Protocol.get r "status" <> Some "ok" || Protocol.get r "ok" <> Some "1" then
            failwith ("bad response: " ^ Protocol.encode r);
          match reference.(k) with
          | None -> reference.(k) <- Some r.Protocol.body
          | Some body when body = r.Protocol.body -> ()
          | Some _ -> failwith "response differs from the first of its kind"
        done)
  in
  (* the warm-up fills [reference] before any concurrent reader *)
  hammer ();
  List.iter Domain.join (List.init clients (fun _ -> Domain.spawn hammer));
  Client.shutdown (Client.connect_socket path);
  Domain.join server

let () =
  let container = Filename.temp_file "lll_stress" ".lllbin" in
  Out_channel.with_open_bin container (fun oc ->
      output_string oc
        (Lll_core.Serial.to_binary_string
           (Lll_apps.Sinkless.instance (Lll_graph.Generators.random_regular ~seed:8 200 3))));
  let solve extra =
    { Protocol.header = [ ("op", "solve"); ("solver", "fix3") ] @ extra; body = "" }
  in
  let frames =
    [|
      solve [ ("family", "ring"); ("n", "24") ];
      solve [ ("family", "ring"); ("n", "24"); ("memo", "0") ];
      {
        Protocol.header = [ ("op", "solve"); ("solver", "sinkless-orient"); ("file", container) ];
        body = "";
      };
    |]
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove container)
    (fun () ->
      for _ = 1 to rounds do
        storm frames
      done)
