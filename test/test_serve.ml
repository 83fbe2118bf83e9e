(* Tests for the solve service: the LRU instance cache (including its
   concurrent build-once contract), the frame protocol (including the
   hostile length-header bound), the batching scheduler (grouping,
   cache hits, bit-identical repeat output, per-request error
   isolation, response memoization across domain counts), and the
   socket server's fault paths (dropped clients, busy sockets) and
   behaviour under a repeated worker-pool storm. *)

module Memcache = Lll_store.Memcache
module Protocol = Lll_serve.Protocol
module Sched = Lll_serve.Sched
module Serve = Lll_serve.Serve
module Client = Lll_serve.Client
module Workload = Lll_serve.Workload
module Store = Lll_store.Store
module Syn = Lll_core.Synthetic
module Serial = Lll_core.Serial

(* ------------------------------------------------------------------ *)
(* Cache                                                                *)
(* ------------------------------------------------------------------ *)

let tiny n () = Syn.ring ~seed:1 ~n ~arity:4 ()

let test_cache_hit_miss () =
  let c = Memcache.create ~capacity:4 in
  let builds = ref 0 in
  let build n () =
    incr builds;
    tiny n ()
  in
  let _, s1 = Memcache.find_or_build c ~key:"a" ~build:(build 10) in
  let _, s2 = Memcache.find_or_build c ~key:"a" ~build:(build 10) in
  Alcotest.(check bool) "first is miss" true (s1 = `Miss);
  Alcotest.(check bool) "second is hit" true (s2 = `Hit);
  Alcotest.(check int) "built once" 1 !builds;
  let st = Memcache.stats c in
  Alcotest.(check int) "hits" 1 st.Memcache.s_hits;
  Alcotest.(check int) "misses" 1 st.Memcache.s_misses;
  Alcotest.(check int) "size" 1 st.Memcache.s_size

let test_cache_hit_returns_same_instance () =
  (* a hit is the cached instance itself — zero rebuild work *)
  let c = Memcache.create ~capacity:2 in
  let i1, _ = Memcache.find_or_build c ~key:"k" ~build:(tiny 12) in
  let i2, _ = Memcache.find_or_build c ~key:"k" ~build:(tiny 12) in
  Alcotest.(check bool) "physically equal" true (i1 == i2)

let test_cache_lru_eviction () =
  let c = Memcache.create ~capacity:2 in
  let touch key = ignore (Memcache.find_or_build c ~key ~build:(tiny 10)) in
  touch "a";
  touch "b";
  touch "a";
  (* "b" is now least recently used; inserting "c" must evict it *)
  touch "c";
  let _, sa = Memcache.find_or_build c ~key:"a" ~build:(tiny 10) in
  Alcotest.(check bool) "a survived" true (sa = `Hit);
  let _, sb = Memcache.find_or_build c ~key:"b" ~build:(tiny 10) in
  Alcotest.(check bool) "b evicted" true (sb = `Miss);
  let st = Memcache.stats c in
  Alcotest.(check int) "evictions" 2 st.Memcache.s_evictions;
  Alcotest.(check int) "size bounded" 2 st.Memcache.s_size

let test_cache_rejects_bad_capacity () =
  try
    ignore (Memcache.create ~capacity:0);
    Alcotest.fail "capacity 0 accepted"
  with Invalid_argument _ -> ()

let test_content_key_distinguishes () =
  Alcotest.(check bool) "same blob same key" true
    (Memcache.content_key "hello" = Memcache.content_key "hello");
  Alcotest.(check bool) "distinct blobs distinct keys" false
    (Memcache.content_key "hello" = Memcache.content_key "hellp")

let test_cache_concurrent_build_once () =
  (* four domains race for the same uncached key; the per-key build
     lock must run the builder exactly once, with everyone else waiting
     for (and sharing) that one value *)
  let c = Memcache.create ~capacity:4 in
  let builds = Atomic.make 0 in
  let build () =
    Atomic.incr builds;
    Unix.sleepf 0.05;
    (* long enough that the other domains arrive mid-build *)
    tiny 10 ()
  in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> fst (Memcache.find_or_build c ~key:"k" ~build)))
  in
  let values = List.map Domain.join doms in
  Alcotest.(check int) "built once" 1 (Atomic.get builds);
  (match values with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check bool) "shared value" true (v == v')) rest
  | [] -> assert false);
  let st = Memcache.stats c in
  Alcotest.(check int) "one miss" 1 st.Memcache.s_misses;
  Alcotest.(check int) "three hits" 3 st.Memcache.s_hits

let test_cache_failed_build_not_cached () =
  (* waiters on a failing build see the failure; the key is then free
     for a later successful build *)
  let c = Memcache.create ~capacity:4 in
  (try
     ignore (Memcache.find_or_build c ~key:"k" ~build:(fun () -> failwith "boom"));
     Alcotest.fail "failure swallowed"
   with Failure m -> Alcotest.(check string) "builder's exception" "boom" m);
  let _, s = Memcache.find_or_build c ~key:"k" ~build:(tiny 10) in
  Alcotest.(check bool) "rebuilds after failure" true (s = `Miss)

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let f =
    {
      Protocol.header = [ ("op", "solve"); ("family", "ring"); ("n", "30") ];
      body = "raw \x00 bytes\nsecond line";
    }
  in
  let f' = Protocol.decode (Protocol.encode f) in
  Alcotest.(check bool) "header" true (f.Protocol.header = f'.Protocol.header);
  Alcotest.(check string) "body" f.Protocol.body f'.Protocol.body

let test_protocol_escaping () =
  (* every reserved character survives a header value round trip *)
  let hostile = "a b=c%d\ne\rf%%20" in
  let f = { Protocol.header = [ ("k", hostile); ("plain", "v") ]; body = "" } in
  let f' = Protocol.decode (Protocol.encode f) in
  Alcotest.(check (option string)) "hostile value" (Some hostile) (Protocol.get f' "k");
  Alcotest.(check (option string)) "plain value" (Some "v") (Protocol.get f' "plain")

let test_protocol_channel_framing () =
  let path = Filename.temp_file "lll_serve" ".frames" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let frames =
        [
          { Protocol.header = [ ("op", "stats") ]; body = "" };
          { Protocol.header = [ ("op", "solve"); ("n", "8") ]; body = String.make 1000 '\x7f' };
        ]
      in
      let oc = open_out_bin path in
      List.iter (Protocol.write_frame oc) frames;
      close_out oc;
      let ic = open_in_bin path in
      let got =
        List.map
          (fun _ ->
            match Protocol.read_frame ic with
            | Some f -> f
            | None -> Alcotest.fail "premature EOF")
          frames
      in
      Alcotest.(check bool) "frames roundtrip" true (got = frames);
      Alcotest.(check bool) "clean EOF" true (Protocol.read_frame ic = None);
      close_in ic)

let test_protocol_truncation () =
  let path = Filename.temp_file "lll_serve" ".trunc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      (* a length header promising 100 bytes, then only 3 *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 100l;
      output_bytes oc hdr;
      output_string oc "abc";
      close_out oc;
      let ic = open_in_bin path in
      (try
         ignore (Protocol.read_frame ic);
         Alcotest.fail "truncated frame accepted"
       with Protocol.Protocol_error _ -> ());
      close_in ic)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_protocol_oversized_header () =
  (* a hostile length header is rejected before any body allocation;
     the 4-byte length is decoded unsigned so a high bit cannot smuggle
     through as a negative length *)
  let with_limit limit f =
    let old = Protocol.max_frame () in
    Protocol.set_max_frame limit;
    Fun.protect ~finally:(fun () -> Protocol.set_max_frame old) f
  in
  with_limit 4096 (fun () ->
      let path = Filename.temp_file "lll_serve" ".hostile" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          List.iter
            (fun len ->
              let oc = open_out_bin path in
              let hdr = Bytes.create 4 in
              Bytes.set_int32_le hdr 0 len;
              output_bytes oc hdr;
              close_out oc;
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in ic)
                (fun () ->
                  match Protocol.read_frame ic with
                  | _ -> Alcotest.fail "oversized length accepted"
                  | exception Protocol.Protocol_error m ->
                    Alcotest.(check bool) "names the limit" true (contains_sub m "limit")))
            [ 5000l; 0x7FFF_FFFFl; -1l (* = u32 0xFFFFFFFF *) ];
          (* writes past the bound are refused too *)
          let oc = open_out_bin path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              match
                Protocol.write_frame oc
                  { Protocol.header = []; body = String.make 8192 'x' }
              with
              | () -> Alcotest.fail "oversized write accepted"
              | exception Protocol.Protocol_error _ -> ())))

let test_protocol_limit_accessors () =
  let old = Protocol.max_frame () in
  (try
     Protocol.set_max_frame 16;
     Alcotest.fail "sub-minimum max_frame accepted"
   with Invalid_argument _ -> ());
  (try
     Protocol.set_max_batch 0;
     Alcotest.fail "zero max_batch accepted"
   with Invalid_argument _ -> ());
  Protocol.set_max_frame 8192;
  Alcotest.(check int) "max_frame updates" 8192 (Protocol.max_frame ());
  Protocol.set_max_frame old;
  Alcotest.(check bool) "max_batch positive" true (Protocol.max_batch () >= 1)

let test_protocol_accessors () =
  let f = { Protocol.header = [ ("n", "42"); ("bad", "x"); ("flag", "1"); ("off", "0") ]; body = "" } in
  Alcotest.(check (option int)) "int" (Some 42) (Protocol.get_int f "n");
  Alcotest.(check (option int)) "absent int" None (Protocol.get_int f "missing");
  (try
     ignore (Protocol.get_int f "bad");
     Alcotest.fail "non-integer accepted"
   with Protocol.Protocol_error _ -> ());
  Alcotest.(check bool) "flag set" true (Protocol.get_bool f "flag");
  Alcotest.(check bool) "flag 0" false (Protocol.get_bool f "off");
  Alcotest.(check bool) "flag absent" false (Protocol.get_bool f "nope")

(* ------------------------------------------------------------------ *)
(* Workload                                                             *)
(* ------------------------------------------------------------------ *)

let test_workload_spec_keys () =
  let frame n =
    { Protocol.header = [ ("op", "solve"); ("family", "ring"); ("n", string_of_int n) ]; body = "" }
  in
  let key n = (Store.keyed (Workload.of_frame (frame n))).Store.key in
  let k1 = key 30 in
  let k2 = key 30 in
  let k3 = key 31 in
  Alcotest.(check string) "same spec same key" k1 k2;
  Alcotest.(check bool) "different n different key" false (k1 = k3);
  Alcotest.(check bool) "spec-schema key" true
    (String.length k1 > 5 && String.sub k1 0 5 = "spec:")

let test_workload_blob_key () =
  let store = Store.create () in
  let inst = Syn.ring ~seed:2 ~n:10 ~arity:4 () in
  let blob = Lll_core.Serial.to_binary_string inst in
  let frame = { Protocol.header = [ ("op", "solve") ]; body = blob } in
  let descr = Workload.of_frame frame in
  Alcotest.(check string) "digest key" (Memcache.content_key blob)
    (Store.keyed descr).Store.key;
  let built, _ = Store.fetch_descr store (Store.keyed descr) in
  Alcotest.(check int) "builds the blob" (Lll_core.Instance.num_events inst)
    (Lll_core.Instance.num_events built)

let test_workload_rejects_unknown_family () =
  let frame = { Protocol.header = [ ("family", "moebius") ]; body = "" } in
  try
    ignore (Workload.of_frame frame);
    Alcotest.fail "unknown family accepted"
  with Protocol.Protocol_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Scheduler                                                            *)
(* ------------------------------------------------------------------ *)

let run_batch sched frames =
  let all = ref [] in
  let _ = Sched.handle_batch sched frames ~emit:(fun f -> all := f :: !all) in
  let all = List.rev !all in
  let results =
    List.filter (fun f -> Protocol.get f "frame" = Some "result") all
  in
  (all, results)

let solve_frame ?(solver = "fix3") ?(extra = []) n =
  {
    Protocol.header =
      [ ("op", "solve"); ("family", "ring"); ("n", string_of_int n); ("solver", solver) ] @ extra;
    body = "";
  }

let test_sched_repeat_hits_cache () =
  let sched = Sched.create ~capacity:8 () in
  let _, r1 = run_batch sched [ solve_frame 20 ] in
  let _, r2 = run_batch sched [ solve_frame 20 ] in
  match (r1, r2) with
  | [ a ], [ b ] ->
    Alcotest.(check (option string)) "first miss" (Some "miss") (Protocol.get a "cache");
    Alcotest.(check (option string)) "repeat hit" (Some "hit") (Protocol.get b "cache");
    Alcotest.(check string) "byte-identical assignment" a.Protocol.body b.Protocol.body;
    Alcotest.(check (option string)) "ok" (Some "1") (Protocol.get b "ok")
  | _ -> Alcotest.fail "expected one result per batch"

let test_sched_batch_grouping () =
  (* same-key requests inside one batch share one cache fetch: the
     first is the miss, the rest are hits; ids map back to arrival
     order *)
  let sched = Sched.create ~capacity:8 () in
  let _, results = run_batch sched [ solve_frame 20; solve_frame 24; solve_frame 20 ] in
  Alcotest.(check int) "three results" 3 (List.length results);
  List.iteri
    (fun i f ->
      Alcotest.(check (option int)) "id in arrival order" (Some i) (Protocol.get_int f "id"))
    results;
  let cache_of i = Protocol.get (List.nth results i) "cache" in
  Alcotest.(check (option string)) "first of group misses" (Some "miss") (cache_of 0);
  Alcotest.(check (option string)) "other key misses" (Some "miss") (cache_of 1);
  Alcotest.(check (option string)) "repeat in batch hits" (Some "hit") (cache_of 2);
  Alcotest.(check string) "group output identical" (List.nth results 0).Protocol.body
    (List.nth results 2).Protocol.body

(* unknown ops, including the fuzz and scenario sweeps the serve tier
   does not run, fail their own request only *)
let test_sched_error_isolation () =
  List.iter
    (fun op ->
      let sched = Sched.create ~capacity:4 () in
      let bad = { Protocol.header = [ ("op", op) ]; body = "" } in
      let _, results = run_batch sched [ bad; solve_frame 20 ] in
      match results with
      | [ e; ok ] ->
        Alcotest.(check (option string)) (op ^ " errors") (Some "error") (Protocol.get e "status");
        Alcotest.(check (option string))
          (op ^ " reason") (Some (Printf.sprintf "unknown op %S" op)) (Protocol.get e "error");
        Alcotest.(check (option string)) "good request unaffected" (Some "ok")
          (Protocol.get ok "status")
      | _ -> Alcotest.fail "expected two results")
    [ "transmogrify"; "fuzz"; "scenario" ]

let test_sched_unknown_solver_errors () =
  let sched = Sched.create ~capacity:4 () in
  let _, results = run_batch sched [ solve_frame ~solver:"no-such-engine" 20 ] in
  (match results with
  | [ r ] ->
    Alcotest.(check (option string)) "status" (Some "error") (Protocol.get r "status");
    Alcotest.(check (option string)) "names the solver" (Some "unknown solver \"no-such-engine\"")
      (Protocol.get r "error")
  | _ -> Alcotest.fail "expected one result");
  (* the name is rejected before the instance is fetched or built *)
  let ss = Sched.store_stats sched in
  Alcotest.(check int) "nothing built" 0 ss.Store.st_built;
  Alcotest.(check int) "no memory-tier miss" 0 ss.Store.st_mem.Memcache.s_misses

let test_sched_metrics_stream () =
  let sched = Sched.create ~capacity:4 () in
  let all, results =
    run_batch sched [ solve_frame ~solver:"mp2" ~extra:[ ("stream", "1") ] 24 ]
  in
  let metrics = List.filter (fun f -> Protocol.get f "frame" = Some "metrics") all in
  Alcotest.(check bool) "streamed records" true (metrics <> []);
  List.iter
    (fun m ->
      Alcotest.(check (option int)) "tagged id" (Some 0) (Protocol.get_int m "id");
      Alcotest.(check bool) "json body" true
        (String.length m.Protocol.body > 0 && m.Protocol.body.[0] = '{'))
    metrics;
  (* metrics precede the result frame *)
  (match all with
  | first :: _ ->
    Alcotest.(check (option string)) "metrics first" (Some "metrics") (Protocol.get first "frame")
  | [] -> Alcotest.fail "no frames");
  match results with
  | [ r ] -> Alcotest.(check (option string)) "ok" (Some "1") (Protocol.get r "ok")
  | _ -> Alcotest.fail "expected one result"

let test_sched_solve_verify_flow () =
  (* verify the assignment a solve returned, against the same cached
     instance *)
  let sched = Sched.create ~capacity:4 () in
  let _, r1 = run_batch sched [ solve_frame 20 ] in
  let body = (List.hd r1).Protocol.body in
  let verify =
    { Protocol.header = [ ("op", "verify"); ("family", "ring"); ("n", "20") ]; body }
  in
  let _, r2 = run_batch sched [ verify ] in
  match r2 with
  | [ r ] ->
    Alcotest.(check (option string)) "verified" (Some "1") (Protocol.get r "ok");
    Alcotest.(check (option string)) "cache hit" (Some "hit") (Protocol.get r "cache");
    Alcotest.(check (option string)) "no violations" (Some "") (Protocol.get r "violated")
  | _ -> Alcotest.fail "expected one result"

let test_sched_blob_solve () =
  (* an uploaded binary v3 blob solves identically to the spec-described
     run of the same instance *)
  let sched = Sched.create ~capacity:4 () in
  let inst = Syn.ring ~seed:1 ~n:20 ~arity:4 () in
  let blob = Lll_core.Serial.to_binary_string inst in
  let by_blob = { Protocol.header = [ ("op", "solve"); ("solver", "fix3") ]; body = blob } in
  let _, r1 = run_batch sched [ by_blob ] in
  let _, r2 = run_batch sched [ solve_frame 20 ] in
  let _, r3 = run_batch sched [ by_blob ] in
  match (r1, r2, r3) with
  | [ a ], [ b ], [ c ] ->
    Alcotest.(check string) "blob solves like spec" a.Protocol.body b.Protocol.body;
    Alcotest.(check (option string)) "blob repeat hits" (Some "hit") (Protocol.get c "cache")
  | _ -> Alcotest.fail "expected one result per batch"

let test_sched_stats_op () =
  let sched = Sched.create ~capacity:4 () in
  let _ = run_batch sched [ solve_frame 20 ] in
  let _, results =
    run_batch sched [ { Protocol.header = [ ("op", "stats") ]; body = "" } ]
  in
  match results with
  | [ r ] ->
    Alcotest.(check (option int)) "size" (Some 1) (Protocol.get_int r "size");
    Alcotest.(check (option int)) "misses" (Some 1) (Protocol.get_int r "misses")
  | _ -> Alcotest.fail "expected one result"

let test_sched_memo_ignores_domains () =
  (* results do not depend on the domain count, so neither does the
     memo key: a solve at domains=2 answers the same request at
     domains=1 *)
  let sched = Sched.create ~capacity:4 () in
  let at domains = solve_frame ~solver:"mp2" ~extra:[ ("domains", domains) ] 24 in
  let _, r1 = run_batch sched [ at "2" ] in
  let _, r2 = run_batch sched [ at "1" ] in
  match (r1, r2) with
  | [ a ], [ b ] ->
    Alcotest.(check (option string)) "first run fresh" None (Protocol.get a "memo");
    Alcotest.(check (option string)) "other domain count replays" (Some "1")
      (Protocol.get b "memo");
    Alcotest.(check string) "byte-identical body" a.Protocol.body b.Protocol.body;
    Alcotest.(check (option string)) "ok" (Some "1") (Protocol.get b "ok")
  | _ -> Alcotest.fail "expected one result per batch"

let test_sched_shutdown_signal () =
  let sched = Sched.create ~capacity:4 () in
  let outcome =
    Sched.handle_batch sched
      [ { Protocol.header = [ ("op", "shutdown") ]; body = "" } ]
      ~emit:(fun _ -> ())
  in
  Alcotest.(check bool) "signals shutdown" true (outcome = `Shutdown)

(* ------------------------------------------------------------------ *)
(* Socket server fault paths                                            *)
(* ------------------------------------------------------------------ *)

let fresh_sock_path () =
  let p = Filename.temp_file "lll_test" ".sock" in
  Sys.remove p;
  p

(* Run an in-process socket server in its own domain, wait until it
   accepts, hand the path to [f], then request shutdown and join. *)
let with_socket_server ?(workers = 2) f =
  let path = fresh_sock_path () in
  let server = Domain.spawn (fun () -> Serve.serve_socket ~capacity:4 ~workers ~path ()) in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Client.connect_socket path with
    | conn -> Client.close conn
    | exception _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "server did not come up";
      Unix.sleepf 0.02;
      wait ()
  in
  wait ();
  Fun.protect
    ~finally:(fun () ->
      (try Client.shutdown (Client.connect_socket path) with _ -> ());
      Domain.join server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let solve_frame =
  {
    Protocol.header = [ ("op", "solve"); ("family", "ring"); ("n", "24"); ("solver", "fix3") ];
    body = "";
  }

let check_serves path =
  let conn = Client.connect_socket path in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      let r = Client.request conn solve_frame in
      Alcotest.(check (option string)) "served" (Some "ok") (Protocol.get r.Client.result "status"))

let test_socket_client_drop () =
  with_socket_server (fun path ->
      (* a client that fires a request and vanishes without reading the
         response: the write lands on a closed peer, and with SIGPIPE
         ignored that must end only this connection *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr fd in
      Protocol.write_frame oc solve_frame;
      flush oc;
      Unix.close fd;
      check_serves path)

let test_socket_hostile_header () =
  with_socket_server (fun path ->
      (* a raw length header far past max_frame: the connection must be
         dropped without the allocation, and the server must go on
         accepting *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 0x7FFF_FFFFl;
      let _ = Unix.write fd hdr 0 4 in
      let closed =
        let b = Bytes.create 1 in
        match Unix.read fd b 0 1 with 0 -> true | _ -> false | exception Unix.Unix_error _ -> true
      in
      Unix.close fd;
      Alcotest.(check bool) "hostile connection dropped" true closed;
      check_serves path)

let test_socket_busy () =
  (* a regular file at the socket path must not be clobbered *)
  let file = Filename.temp_file "lll_test" ".notsock" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      try
        Serve.serve_socket ~path:file ();
        Alcotest.fail "bound over a regular file"
      with Serve.Socket_busy _ -> ());
  (* ... and neither must a live server's socket *)
  with_socket_server (fun path ->
      (try
         Serve.serve_socket ~path ();
         Alcotest.fail "bound over a live server"
       with Serve.Socket_busy _ -> ());
      check_serves path)

let test_socket_fleet () =
  with_socket_server (fun path ->
      match Client.smoke_fleet ~clients:4 ~requests:3 path with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

(* The worker-pool storm of serve_stress.exe (4 workers, 4 client
   domains, memoized, [memo=0] and container-file solves, shutdown and
   [Domain.join], several rounds) in a child process under a wall-clock
   watchdog: a child still running after the deadline is killed and the
   case fails, so a hang is a failure instead of a stalled suite. *)
let test_socket_stress () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "serve_stress.exe" in
  let pid = Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr in
  let seconds = 60. in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "hung: killed after %.0f s" seconds
      end;
      Unix.sleepf 0.02;
      wait ()
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> Alcotest.fail "stress child failed (see its stderr)"
  in
  wait ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lll_serve"
    [
      ( "cache",
        [
          Alcotest.test_case "hit and miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "hit is the cached instance" `Quick
            test_cache_hit_returns_same_instance;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "rejects bad capacity" `Quick test_cache_rejects_bad_capacity;
          Alcotest.test_case "content keys" `Quick test_content_key_distinguishes;
          Alcotest.test_case "concurrent build once" `Quick test_cache_concurrent_build_once;
          Alcotest.test_case "failed build not cached" `Quick test_cache_failed_build_not_cached;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "header escaping" `Quick test_protocol_escaping;
          Alcotest.test_case "channel framing" `Quick test_protocol_channel_framing;
          Alcotest.test_case "truncation" `Quick test_protocol_truncation;
          Alcotest.test_case "oversized header" `Quick test_protocol_oversized_header;
          Alcotest.test_case "limit accessors" `Quick test_protocol_limit_accessors;
          Alcotest.test_case "accessors" `Quick test_protocol_accessors;
        ] );
      ( "workload",
        [
          Alcotest.test_case "spec keys canonical" `Quick test_workload_spec_keys;
          Alcotest.test_case "blob keyed by digest" `Quick test_workload_blob_key;
          Alcotest.test_case "rejects unknown family" `Quick test_workload_rejects_unknown_family;
        ] );
      ( "sched",
        [
          Alcotest.test_case "repeat request hits cache" `Quick test_sched_repeat_hits_cache;
          Alcotest.test_case "batch grouping" `Quick test_sched_batch_grouping;
          Alcotest.test_case "error isolation" `Quick test_sched_error_isolation;
          Alcotest.test_case "unknown solver" `Quick test_sched_unknown_solver_errors;
          Alcotest.test_case "metrics streaming" `Quick test_sched_metrics_stream;
          Alcotest.test_case "solve then verify" `Quick test_sched_solve_verify_flow;
          Alcotest.test_case "blob solve" `Quick test_sched_blob_solve;
          Alcotest.test_case "stats op" `Quick test_sched_stats_op;
          Alcotest.test_case "memo ignores domains" `Quick test_sched_memo_ignores_domains;
          Alcotest.test_case "shutdown signal" `Quick test_sched_shutdown_signal;
        ] );
      ( "socket",
        [
          Alcotest.test_case "client drop mid-response" `Quick test_socket_client_drop;
          Alcotest.test_case "hostile length header" `Quick test_socket_hostile_header;
          Alcotest.test_case "busy socket refused" `Quick test_socket_busy;
          Alcotest.test_case "4-client fleet" `Quick test_socket_fleet;
          Alcotest.test_case "worker-pool stress" `Quick test_socket_stress;
        ] );
    ]
