(* The batching scheduler behind the solve service.

   A batch of request frames comes in; response frames go out through
   the caller-supplied [emit]. Requests are grouped by the cache key of
   the instance they describe (first-occurrence order), so one cache
   fetch serves every compatible request in the batch — the first
   request of a fresh group pays the build, the rest report [cache=hit]
   with zero rebuild work. Within a group requests run in arrival
   order on the shared domain pool (the runtime itself spreads a run
   across domains; requests are not interleaved, keeping every solve
   bit-identical to a direct run).

   Metrics frames ([frame=metrics id=N] + one JSON round record) stream
   the moment the runtime produces them. Result frames are buffered and
   emitted in request order once the whole batch has executed, each
   tagged with its request's position [id]. A raising request yields a
   [status=error] result for that id only; the rest of the batch is
   unaffected.

   Concurrency: one scheduler is shared by every connection of a
   worker-pool server, so [handle_batch] must be safe to call from
   several domains at once. The two caches below are internally
   synchronized ({!Memcache}); everything else here is per-call state.
   Concurrent solves may share one cached instance — that is safe
   because an instance is immutable after construction (solver-side
   trackers are allocated per run) — but each [emit] callback writes
   only to its own connection.

   Repeat solves are memoized: a run is fully determined by the
   instance key, solver name and seed (solver runs are bit-identical
   for identical inputs at any domain count — the determinism contract
   the scenario corpus pins — and a memoable response carries no
   per-round data), so non-streaming solve responses land in a second
   result cache and repeat requests replay the stored response with
   [cache=hit memo=1] instead of re-running the solver, whatever
   [domains] they ask for. Streaming requests and requests carrying
   [memo=0] always run fresh. *)

module Solver = Lll_core.Solver
module Verify = Lll_core.Verify
module Serial = Lll_core.Serial
module Instance = Lll_core.Instance
module Assignment = Lll_prob.Assignment
module Metrics = Lll_local.Metrics
module Corpus = Lll_scenario.Corpus
module Run = Lll_scenario.Run
module Store = Lll_store.Store
module Memcache = Lll_store.Memcache

type solved = {
  sv_fields : (string * string) list; (* result fields minus cache/memo tags *)
  sv_body : string;
  sv_built : Store.source; (* store tier that satisfied the original run *)
}

type t = {
  store : Store.t; (* memory tier over optional artifact directory *)
  results : solved Memcache.t;
  default_domains : int option;
}

let create ?(capacity = 32) ?(memo_capacity = 256) ?domains ?store_dir () =
  {
    store = Store.create ?dir:store_dir ~capacity ();
    results = Memcache.create ~capacity:memo_capacity;
    default_domains = domains;
  }

let store t = t.store
let store_stats t = Store.stats t.store
let memo_stats t = Memcache.stats t.results

(* ---- assignment transport: CSV of values in variable-id order ---- *)

let assignment_to_string (a : Assignment.t) =
  String.concat ","
    (Array.to_list (Array.map (function Some v -> string_of_int v | None -> "") a))

let assignment_of_string nvars s =
  let cells = if s = "" then [||] else Array.of_list (String.split_on_char ',' s) in
  if Array.length cells <> nvars then
    raise
      (Protocol.Protocol_error
         (Printf.sprintf "assignment has %d cells, instance has %d variables"
            (Array.length cells) nvars));
  Array.map
    (fun c ->
      if c = "" then None
      else
        match int_of_string_opt c with
        | Some v -> Some v
        | None -> raise (Protocol.Protocol_error (Printf.sprintf "bad assignment cell %S" c)))
    cells

let int_list_field frame key =
  match Protocol.get frame key with
  | None -> None
  | Some s ->
    Some
      (String.split_on_char ',' s
      |> List.filter (fun c -> c <> "")
      |> List.map (fun c ->
             match int_of_string_opt c with
             | Some v -> v
             | None ->
               raise
                 (Protocol.Protocol_error
                    (Printf.sprintf "field %S: bad integer %S" key c))))

(* ---- per-op handlers; each returns the result frame's extra header
   fields and body ---- *)

let run_params t frame ~sink =
  let domains =
    match Protocol.get_int frame "domains" with
    | Some d -> Some d
    | None -> t.default_domains
  in
  {
    Solver.default_params with
    seed = Option.value (Protocol.get_int frame "seed") ~default:1;
    domains;
    metrics = sink;
  }

(* [hit]: served from the memory tier (or another thread's in-flight
   build); [disk]: loaded from a store artifact; [miss]: built fresh. *)
let cache_field (source : Store.source) =
  ("cache", match source with `Mem -> "hit" | `Disk -> "disk" | `Built -> "miss")

(* Run the solver now; returns the response minus its cache/memo tags
   (the caller knows whether this run was fresh or replayed). *)
let solve_now t frame ~keyed ~solver ~id ~emit =
  let inst, source = Store.fetch_descr t.store keyed in
  let sink =
    if Protocol.get_bool frame "stream" then
      Metrics.callback (fun r ->
          emit
            {
              Protocol.header = [ ("frame", "metrics"); ("id", string_of_int id) ];
              body = Metrics.record_to_json r;
            })
    else Metrics.disabled
  in
  let params = run_params t frame ~sink in
  let report = Solver.solve ~params solver inst in
  let rounds =
    match report.Solver.outcome.Solver.rounds with
    | Some r -> [ ("rounds", string_of_int r) ]
    | None -> []
  in
  {
    sv_fields =
      [
        ("key", keyed.Store.key);
        ("solver", Solver.name solver);
        ("ok", if report.Solver.ok then "1" else "0");
        ("verified", if report.Solver.verify.Verify.ok then "1" else "0");
      ]
      @ rounds;
    sv_body = assignment_to_string report.Solver.outcome.Solver.assignment;
    sv_built = source;
  }

let handle_solve t frame ~keyed ~id ~emit =
  (* resolve the engine before any fetch, so a bad name builds nothing *)
  let name = Option.value (Protocol.get frame "solver") ~default:"fix3" in
  let solver =
    match Solver.find name with
    | Some s -> s
    | None -> raise (Protocol.Protocol_error (Printf.sprintf "unknown solver %S" name))
  in
  let memoable =
    (not (Protocol.get_bool frame "stream")) && Protocol.get frame "memo" <> Some "0"
  in
  if not memoable then begin
    let sv = solve_now t frame ~keyed ~solver ~id ~emit in
    (("op", "solve") :: cache_field sv.sv_built :: sv.sv_fields, sv.sv_body)
  end
  else begin
    (* the run is a function of (instance, solver, seed) — see the
       header; everything else in the frame, [domains] included, is
       transport *)
    let seed = Option.value (Protocol.get_int frame "seed") ~default:1 in
    let mkey = Printf.sprintf "%s|solver=%s|seed=%d" keyed.Store.key name seed in
    let sv, memo_status =
      Memcache.find_or_build t.results ~key:mkey ~build:(fun () ->
          solve_now t frame ~keyed ~solver ~id ~emit)
    in
    match memo_status with
    | `Miss -> (("op", "solve") :: cache_field sv.sv_built :: sv.sv_fields, sv.sv_body)
    | `Hit ->
      (("op", "solve") :: ("cache", "hit") :: ("memo", "1") :: sv.sv_fields, sv.sv_body)
  end

let handle_verify t frame ~keyed =
  let inst, source = Store.fetch_descr t.store keyed in
  let a = assignment_of_string (Instance.num_vars inst) frame.Protocol.body in
  let result = Verify.check inst a in
  ( [
      ("op", "verify");
      cache_field source;
      ("key", keyed.Store.key);
      ("ok", if result.Verify.ok then "1" else "0");
      ("violated", String.concat "," (List.map string_of_int result.Verify.violated));
    ],
    "" )

let handle_fuzz frame =
  let seed = Option.value (Protocol.get_int frame "seed") ~default:1 in
  let budget = Option.value (Protocol.get_int frame "budget") ~default:10 in
  let outcome = Lll_fuzz.Fuzz.run ~seed ~budget () in
  let found, label, body =
    match outcome.Lll_fuzz.Fuzz.finding with
    | None -> ("0", [], "")
    | Some f ->
      ("1", [ ("label", f.Lll_fuzz.Fuzz.label) ], Serial.to_string f.Lll_fuzz.Fuzz.shrunk)
  in
  ( [ ("op", "fuzz"); ("tested", string_of_int outcome.Lll_fuzz.Fuzz.tested); ("found", found) ]
    @ label,
    body )

let handle_scenario t frame =
  let grid = int_list_field frame "grid" in
  let seeds = int_list_field frame "seeds" in
  let families =
    match Protocol.get frame "families" with
    | None -> None
    | Some s ->
      Some
        (String.split_on_char ',' s
        |> List.filter (fun f -> f <> "")
        |> List.map (fun name ->
               match Corpus.find name with
               | Some f -> f
               | None ->
                 raise
                   (Protocol.Protocol_error (Printf.sprintf "unknown scenario family %S" name))))
  in
  let domains =
    match Protocol.get_int frame "domains" with
    | Some d -> Some (Some d)
    | None -> (match t.default_domains with None -> None | Some d -> Some (Some d))
  in
  let measurements = Run.measure ?grid ?seeds ?families ?domains ~store:t.store () in
  let fits = Run.fit_growth measurements in
  ( [ ("op", "scenario"); ("measurements", string_of_int (List.length measurements)) ],
    Format.asprintf "%a@.%a" Run.pp_measurements measurements Run.pp_fits fits )

let handle_stats t =
  let ss = store_stats t in
  let s = ss.Store.st_mem in
  let m = memo_stats t in
  ( [
      ("op", "stats");
      ("size", string_of_int s.Memcache.s_size);
      ("capacity", string_of_int s.Memcache.s_capacity);
      ("hits", string_of_int s.Memcache.s_hits);
      ("misses", string_of_int s.Memcache.s_misses);
      ("evictions", string_of_int s.Memcache.s_evictions);
      ("waits", string_of_int s.Memcache.s_waits);
      ("store-dir", Option.value (Store.dir t.store) ~default:"-");
      ("store-built", string_of_int ss.Store.st_built);
      ("store-disk-hits", string_of_int ss.Store.st_disk_hits);
      ("store-quarantined", string_of_int ss.Store.st_quarantined);
      ("memo-size", string_of_int m.Memcache.s_size);
      ("memo-hits", string_of_int m.Memcache.s_hits);
      ("memo-misses", string_of_int m.Memcache.s_misses);
    ],
    "" )

(* ---- batch execution ---- *)

(* The keyed description of the instance a solve or verify names —
   parsed and digested once per request, then shared by the batch
   grouping, the store fetch and the response's [key] field. A verify
   takes its instance from the headers alone; its body carries the
   assignment CSV (blob-described instances go through solve). *)
let describe frame =
  match Protocol.get frame "op" with
  | Some "solve" -> Some (Store.keyed (Workload.of_frame frame))
  | Some "verify" -> Some (Store.keyed (Workload.of_frame { frame with Protocol.body = "" }))
  | _ -> None

let handle_one t frame ~keyed ~id ~emit =
  match (Protocol.get_exn frame "op", keyed) with
  | "solve", Some keyed -> handle_solve t frame ~keyed ~id ~emit
  | "verify", Some keyed -> handle_verify t frame ~keyed
  | "fuzz", _ -> handle_fuzz frame
  | "scenario", _ -> handle_scenario t frame
  | "stats", _ -> handle_stats t
  | "shutdown", _ -> ([ ("op", "shutdown") ], "")
  | op, _ -> raise (Protocol.Protocol_error (Printf.sprintf "unknown op %S" op))

let handle_batch t frames ~emit =
  let frames = Array.of_list frames in
  let n = Array.length frames in
  let results = Array.make n None in
  (* a request whose description does not parse keeps its exception
     and fails when it runs *)
  let described =
    Array.map (fun frame -> match describe frame with d -> Ok d | exception e -> Error e) frames
  in
  (* group request ids by instance key, first-occurrence order; keyless
     ops form singleton groups in place *)
  let seen : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun id described ->
      match described with
      | Ok (Some { Store.key; _ }) -> (
        match Hashtbl.find_opt seen key with
        | Some ids -> ids := id :: !ids
        | None ->
          let ids = ref [ id ] in
          Hashtbl.add seen key ids;
          order := `Group ids :: !order)
      | Ok None | Error _ -> order := `Single id :: !order)
    described;
  let run id =
    let frame = frames.(id) in
    let result =
      match
        match described.(id) with
        | Ok keyed -> handle_one t frame ~keyed ~id ~emit
        | Error e -> raise e
      with
      | fields, body ->
        {
          Protocol.header =
            [ ("frame", "result"); ("id", string_of_int id); ("status", "ok") ] @ fields;
          body;
        }
      | exception e ->
        let msg =
          match e with
          | Protocol.Protocol_error m -> m
          | Serial.Parse_error { line; message } ->
            Printf.sprintf "parse error (line %d): %s" line message
          | Lll_graph.Serialize.Bin.Corrupt m -> "corrupt binary: " ^ m
          | Invalid_argument m -> m
          | e -> Printexc.to_string e
        in
        {
          Protocol.header =
            [ ("frame", "result"); ("id", string_of_int id); ("status", "error"); ("error", msg) ];
          body = "";
        }
    in
    results.(id) <- Some result
  in
  List.iter
    (function
      | `Single id -> run id
      | `Group ids -> List.iter run (List.rev !ids))
    (List.rev !order);
  (* result frames in request order *)
  Array.iteri
    (fun id r -> match r with Some f -> emit f | None -> assert (id < 0))
    results;
  let shutdown =
    Array.exists (fun f -> Protocol.get f "op" = Some "shutdown") frames
  in
  if shutdown then `Shutdown else `Continue
