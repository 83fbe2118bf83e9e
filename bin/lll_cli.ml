(* Command-line interface to the library.

   Subcommands:
     criteria  — build an instance family and print its criteria report
     solve     — solve an instance with any registered solver and verify
     solvers   — list the solver registry with capability envelopes
     surface   — dump the Figure-1 surface f(a,b) as TSV
     triple    — check/decompose a representable triple
     fuzz      — adversarial fuzz-and-shrink over the solver registry
     scenario  — threshold corpus round-count measurement / regression
     convert   — rewrite a serialized instance between text v2 and binary v3
     serve     — persistent solve service (unix socket or stdio framing)
     client    — talk to a running server (or spawn one) over the frame protocol

   Every engine lives behind the Solver registry: `--solver NAME` picks
   one, `solvers` enumerates them, and every run goes through the
   shared post-condition (exact Verify.check plus the engine's P* claim).

   Examples:
     lll_cli criteria --family sinkless --n 30 --degree 3
     lll_cli solve --family weak-splitting --n 16 --solver fix3
     lll_cli solve --family ring --n 64 --solver dist2 --seed 7
     lll_cli solvers
     lll_cli surface --steps 64 > surface.tsv
     lll_cli triple 0.25 1.5 0.1                                   *)

module Rat = Lll_num.Rat
module Gen = Lll_graph.Generators
module I = Lll_core.Instance
module Crit = Lll_core.Criteria
module Srep = Lll_core.Srep
module Syn = Lll_core.Synthetic
module Solver = Lll_core.Solver
module Sink = Lll_apps.Sinkless
module Spec = Lll_store.Spec
module Store = Lll_store.Store

(* the application engines (sinkless-orient, weak-split-greedy) register
   themselves on first use; pull them in before any registry lookup *)
let () = Lll_apps.App_engines.ensure_registered ()
module HO = Lll_apps.Hyper_orientation
module WS = Lll_apps.Weak_splitting
open Cmdliner

(* ---- instance families ---- *)

type family = Ring | Rank3 | Sinkless | Sinkless_relaxed | Hyper | Weak_splitting

let family_to_string = function
  | Ring -> "ring"
  | Rank3 -> "rank3"
  | Sinkless -> "sinkless"
  | Sinkless_relaxed -> "sinkless-relaxed"
  | Hyper -> "hyper"
  | Weak_splitting -> "weak-splitting"

let family_conv =
  let parse = function
    | "ring" -> Ok Ring
    | "rank3" -> Ok Rank3
    | "sinkless" -> Ok Sinkless
    | "sinkless-relaxed" -> Ok Sinkless_relaxed
    | "hyper" -> Ok Hyper
    | "weak-splitting" -> Ok Weak_splitting
    | s -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  let print fmt f = Format.pp_print_string fmt (family_to_string f) in
  Arg.conv (parse, print)

(* every CLI generation goes through the spec codec and a store: with
   --store DIR the instance is materialized as (or loaded from) a
   content-addressed artifact, without it the store is memory-only *)
let spec_of_family family ~n ~degree ~seed ~at_threshold =
  Spec.of_family_params ~family:(family_to_string family) ~n ~degree ~seed ~at_threshold

let make_store store_dir = Store.create ?dir:store_dir ()

let build_instance ?store_dir family ~n ~degree ~seed ~at_threshold =
  let store = make_store store_dir in
  fst (Store.fetch store (spec_of_family family ~n ~degree ~seed ~at_threshold))

(* ---- shared args ---- *)

let family_arg =
  Arg.(value & opt family_conv Ring & info [ "family"; "f" ] ~docv:"FAMILY"
         ~doc:"Instance family: ring, rank3, sinkless, sinkless-relaxed, hyper, weak-splitting.")

let n_arg =
  Arg.(value & opt int 30 & info [ "size"; "n" ] ~docv:"N" ~doc:"Instance size (events/nodes).")
let degree_arg = Arg.(value & opt int 3 & info [ "degree"; "d" ] ~docv:"D" ~doc:"Structure degree.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Random seed.")

let at_threshold_arg =
  Arg.(value & flag & info [ "at-threshold" ] ~doc:"Place synthetic instances exactly at p = 2^-d.")

let file_arg =
  Arg.(value & opt (some string) None
       & info [ "file"; "load-instance" ] ~docv:"PATH"
           ~doc:"Load the instance from a serialized file (text v2 or binary v3, \
                 auto-detected) instead of generating one.")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Artifact store directory: generated instances are materialized as \
                 content-addressed binary v3 artifacts and reloaded via mmap on repeat runs.")

let get_instance ?store_dir file family ~n ~degree ~seed ~at_threshold =
  let store = make_store store_dir in
  match file with
  | Some path -> fst (Store.fetch_descr store (Store.keyed (Store.Of_file path)))
  | None -> fst (Store.fetch store (spec_of_family family ~n ~degree ~seed ~at_threshold))

(* ---- gen ---- *)

let gen_cmd =
  let run family n degree seed at_threshold output binary store_dir =
    let spec = spec_of_family family ~n ~degree ~seed ~at_threshold in
    (match store_dir with
    | Some _ ->
      let store = make_store store_dir in
      let path = Store.materialize store spec in
      Format.printf "store artifact %s@.  spec %s@.  key  %s@." path (Spec.to_string spec)
        (Spec.key spec)
    | None -> ());
    let inst = build_instance ?store_dir family ~n ~degree ~seed ~at_threshold in
    match output with
    | Some path ->
      if binary then Lll_core.Serial.save_binary path inst
      else Lll_core.Serial.save path inst;
      Format.printf "wrote %a to %s (%s)@." I.pp inst path (if binary then "binary v3" else "text v2")
    | None ->
      if binary then begin
        set_binary_mode_out stdout true;
        print_string (Lll_core.Serial.to_binary_string inst)
      end
      else if store_dir = None then print_string (Lll_core.Serial.to_string inst)
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "output"; "o" ] ~docv:"PATH" ~doc:"Write to a file instead of stdout.")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ] ~doc:"Emit the binary v3 container instead of the text v2 format.")
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate an instance family and serialize it.")
    Term.(const run $ family_arg $ n_arg $ degree_arg $ seed_arg $ at_threshold_arg $ output
          $ binary $ store_arg)

(* ---- convert: lossless text v2 <-> binary v3 ---- *)

let convert_cmd =
  let run input output to_format =
    let inst =
      try Lll_core.Serial.load_any input
      with
      | Lll_core.Serial.Parse_error { line; message } ->
        Format.eprintf "convert: %s:%d: %s@." input line message;
        exit 2
      | Lll_graph.Serialize.Bin.Corrupt msg ->
        Format.eprintf "convert: %s: corrupt binary: %s@." input msg;
        exit 2
    in
    let binary =
      match to_format with
      | Some "binary" -> true
      | Some "text" -> false
      | Some other ->
        Format.eprintf "convert: unknown target format %S (binary|text)@." other;
        exit 2
      | None ->
        (* default: flip whatever the input was *)
        let ic = open_in_bin input in
        let probe = really_input_string ic (min 4 (in_channel_length ic)) in
        close_in ic;
        not (Lll_core.Serial.is_binary probe)
    in
    if binary then Lll_core.Serial.save_binary output inst
    else Lll_core.Serial.save output inst;
    Format.printf "converted %a: %s -> %s (%s)@." I.pp inst input output
      (if binary then "binary v3" else "text v2")
  in
  let input = Arg.(required & pos 0 (some string) None & info [] ~docv:"INPUT") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT") in
  let to_format =
    Arg.(value & opt (some string) None
         & info [ "to" ] ~docv:"FORMAT"
             ~doc:"Target format: binary or text (default: the opposite of the input).")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Rewrite a serialized instance between the text v2 interchange format and the \
             binary v3 container; the conversion is lossless in both directions.")
    Term.(const run $ input $ output $ to_format)

(* ---- criteria ---- *)

let criteria_cmd =
  let run family n degree seed at_threshold file store_dir =
    let inst = get_instance ?store_dir file family ~n ~degree ~seed ~at_threshold in
    let rep = Crit.evaluate inst in
    Format.printf "%a@.%a" I.pp inst Crit.pp_report rep;
    Format.printf "recommended: %s@." (Crit.best_algorithm rep)
  in
  Cmd.v (Cmd.info "criteria" ~doc:"Print the criteria report of an instance family.")
    Term.(const run $ family_arg $ n_arg $ degree_arg $ seed_arg $ at_threshold_arg $ file_arg
          $ store_arg)

(* ---- solve: one registry-driven loop for every engine ---- *)

let solver_conv =
  let parse s =
    match Solver.find s with
    | Some _ -> Ok s
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown solver %S; registered: %s" s
              (String.concat ", " (Solver.names ()))))
  in
  Arg.conv (parse, Format.pp_print_string)

let solver_arg =
  Arg.(value & opt solver_conv "fix3" & info [ "solver"; "algo"; "a" ] ~docv:"NAME"
         ~doc:"Registered solver engine (see $(b,lll_cli solvers)).")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the uniform fixing trace (engines that record one).")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"K"
           ~doc:"Number of OCaml domains for the LOCAL runtime (default: the machine's \
                 recommended domain count; 1 forces the sequential engine).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"PATH"
           ~doc:"Write per-round runtime metrics (wall time, nodes stepped, halted fraction, \
                 state-size proxy) as JSON to PATH. Distributed algorithms only.")

let solve_cmd =
  let run family n degree seed at_threshold file store_dir solver_name trace domains
      metrics_path =
    let inst = get_instance ?store_dir file family ~n ~degree ~seed ~at_threshold in
    let solver = Solver.find_exn solver_name in
    if not (Solver.applicable solver inst) then begin
      Format.eprintf "solver %s does not accept %a (capabilities: %a)@." solver_name I.pp
        inst Solver.pp_caps (Solver.caps solver);
      exit 2
    end;
    let metrics =
      match metrics_path with
      | Some _ -> Lll_local.Metrics.buffer ()
      | None -> Lll_local.Metrics.disabled
    in
    let params = { Solver.default_params with seed; domains; metrics } in
    Format.printf "%a@." I.pp inst;
    if not (Solver.guarantees solver inst) then
      Format.printf "note: %s's criterion does not hold here; run is best-effort@."
        solver_name;
    let report = Solver.solve ~params solver inst in
    if trace then begin
      let sp = I.space inst in
      match report.Solver.outcome.Solver.trace with
      | [] -> Format.printf "  (no step trace recorded by %s)@." solver_name
      | steps ->
        List.iter
          (fun (s : Solver.step) ->
            Format.printf "  fix %s := %d%s%s@."
              (Lll_prob.Var.name (Lll_prob.Space.var sp s.Solver.var))
              s.Solver.value
              (match s.Solver.srep_violation with
              | Some v -> Printf.sprintf "  (S_rep violation %.2e)" v
              | None -> "")
              (match s.Solver.incs with
              | [] -> ""
              | incs ->
                "  [" ^ String.concat ", "
                  (List.map (fun (e, r) -> Printf.sprintf "Inc(%d)=%s" e (Rat.to_string r)) incs)
                ^ "]"))
          steps
    end;
    (match metrics_path with
    | None -> ()
    | Some path ->
      let recs = Lll_local.Metrics.records metrics in
      Lll_local.Metrics.write_json path recs;
      Format.printf "metrics: %d round records (%.2f ms) -> %s@."
        (List.length recs)
        (float_of_int (Lll_local.Metrics.total_wall_ns recs) /. 1e6)
        path);
    Format.printf "%a@." Solver.pp_report report;
    if not report.Solver.ok then exit 1
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve an instance with any registered engine; every run ends in the shared \
             post-condition (exact verification plus the engine's P* claim).")
    Term.(
      const run $ family_arg $ n_arg $ degree_arg $ seed_arg $ at_threshold_arg $ file_arg
      $ store_arg $ solver_arg $ trace_arg $ domains_arg $ metrics_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let run seed budget engines out self_test geometry_samples store_dir =
    let module Fuzz = Lll_fuzz.Fuzz in
    let dump_to_store f =
      match store_dir with
      | None -> ()
      | Some _ ->
        let digest, path = Fuzz.dump_reproducer_store (make_store store_dir) f in
        Format.printf "  reproducer artifact %s (key blob:%s)@." path digest
    in
    let log line = Format.eprintf "%s@." line in
    let resolve_engines () =
      match engines with
      | None -> Ok (Solver.all ())
      | Some spec -> (
        let names = String.split_on_char ',' spec |> List.map String.trim in
        match List.find_opt (fun n -> Solver.find n = None) names with
        | Some bad ->
          Error
            (Printf.sprintf "unknown engine %S; registered: %s" bad
               (String.concat ", " (Solver.names ())))
        | None -> Ok (List.map Solver.find_exn names))
    in
    if self_test then begin
      (* the fuzzer fuzzing itself: inject the perturbed-phi mutant and
         demand the harness catches it and shrinks the reproducer *)
      let outcome = Fuzz.self_test ~seed ~budget ~log () in
      match outcome.Fuzz.finding with
      | None ->
        Format.eprintf
          "self-test FAILED: the harness did not catch the injected phi mutation in %d \
           instances@."
        outcome.Fuzz.tested;
        exit 1
      | Some f ->
        let events = I.num_events f.Fuzz.shrunk in
        Format.printf "self-test: caught the injected mutation on instance %d (%s)@."
          outcome.Fuzz.tested f.Fuzz.label;
        Format.printf "  %a@." Fuzz.pp_violation f.Fuzz.violation;
        Format.printf "  shrunk reproducer: %a@." I.pp f.Fuzz.shrunk;
        ignore (Fuzz.dump_reproducer out f);
        Format.printf "  reproducer written to %s@." out;
        dump_to_store f;
        if events > 4 then begin
          Format.eprintf "self-test FAILED: reproducer has %d events (want <= 4)@." events;
          exit 1
        end
    end
    else begin
      match resolve_engines () with
      | Error msg ->
        Format.eprintf "%s@." msg;
        exit 2
      | Ok engines -> (
        (match Fuzz.fuzz_geometry ~seed ~samples:geometry_samples () with
        | None -> Format.printf "geometry oracle: %d boundary triples clean@." geometry_samples
        | Some ((a, b, c), reason) ->
          Format.printf "geometry oracle VIOLATION on (%.17g, %.17g, %.17g): %s@." a b c reason;
          exit 1);
        let outcome = Fuzz.run ~engines ~log ~seed ~budget () in
        match outcome.Fuzz.finding with
        | None ->
          Format.printf "fuzz: %d instances x %d engines x 2 backends clean@." outcome.Fuzz.tested
            (List.length engines)
        | Some f ->
          Format.printf "fuzz VIOLATION on instance %d (%s):@." outcome.Fuzz.tested f.Fuzz.label;
          Format.printf "  %a@." Fuzz.pp_violation f.Fuzz.violation;
          Format.printf "  shrunk reproducer: %a@." I.pp f.Fuzz.shrunk;
          ignore (Fuzz.dump_reproducer out f);
          Format.printf "  reproducer written to %s (reload: lll_cli solve --file %s)@." out out;
          dump_to_store f;
          exit 1)
    end
  in
  let budget_arg =
    Arg.(value & opt int 100
         & info [ "budget" ] ~docv:"N" ~doc:"Number of hostile instances to generate.")
  in
  let engines_arg =
    Arg.(value & opt (some string) None
         & info [ "engines" ] ~docv:"NAMES"
             ~doc:"Comma-separated engine filter (default: every registered engine).")
  in
  let out_arg =
    Arg.(value & opt string "fuzz-repro.lll"
         & info [ "out"; "o" ] ~docv:"PATH"
             ~doc:"Where to dump the shrunk reproducer (Serialize v2) on a violation.")
  in
  let self_test_arg =
    Arg.(value & flag
         & info [ "self-test" ]
             ~doc:"Fuzz the fault-injected fix3 clone (perturbed phi update) instead of the \
                   honest engines; exits non-zero unless the harness catches it and shrinks \
                   the reproducer to at most 4 events.")
  in
  let geometry_arg =
    Arg.(value & opt int 10_000
         & info [ "geometry-samples" ] ~docv:"N"
             ~doc:"Boundary triples to feed the S_rep geometry oracle before instance fuzzing.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Adversarial fuzz-and-shrink: threshold-hugging instances, every applicable \
             engine under both probability backends, backend-identical assignments, the \
             guarantee predicate vs exact verification, and an independent P* replay of \
             every trace. Violations are shrunk greedily and dumped as v2 reproducers.")
    Term.(
      const run $ seed_arg $ budget_arg $ engines_arg $ out_arg $ self_test_arg $ geometry_arg
      $ store_arg)

(* ---- scenario ---- *)

let scenario_cmd =
  let module Corpus = Lll_scenario.Corpus in
  let module Run = Lll_scenario.Run in
  let module Baseline = Lll_scenario.Baseline in
  (* the --record dirty-tree guard: uncommitted changes must not leak
     into a checked-in regression artifact. Outside a git checkout (or
     with git unavailable) the guard is moot and records proceed. *)
  let dirty_tree () =
    try
      let ic = Unix.open_process_in "git status --porcelain 2>/dev/null" in
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let out = lines [] in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when out <> [] -> Some (String.concat "\n" out)
      | _ -> None
    with _ -> None
  in
  let parse_int_list what v =
    match v with
    | None -> None
    | Some spec ->
      Some
        (String.split_on_char ',' spec
        |> List.filter (fun c -> c <> "")
        |> List.map (fun c ->
               match int_of_string_opt (String.trim c) with
               | Some v -> v
               | None ->
                 Format.eprintf "scenario: bad %s entry %S@." what c;
                 exit 2))
  in
  let run check record force baselines domains store_dir grid seeds families =
    (* --domains only overrides the fan-out width; the determinism
       contract keeps every round count identical to the pinned
       [Some 1] default, so checks stay valid at any width. *)
    let domains = match domains with None -> None | Some k -> Some (Some k) in
    let grid = parse_int_list "--grid" grid in
    let seeds = parse_int_list "--seeds" seeds in
    let families =
      match families with
      | None -> None
      | Some spec ->
        Some
          (String.split_on_char ',' spec
          |> List.filter (fun c -> c <> "")
          |> List.map (fun name ->
                 match Corpus.find (String.trim name) with
                 | Some f -> f
                 | None ->
                   Format.eprintf "scenario: unknown family %S@." name;
                   exit 2))
    in
    if (check || record) && (grid <> None || seeds <> None || families <> None) then begin
      Format.eprintf
        "--grid/--seeds/--families apply to the plain measurement report only (checks use \
         the baseline's grid, records use the default)@.";
      exit 2
    end;
    let store = make_store store_dir in
    if check && record then begin
      Format.eprintf "--check and --record are mutually exclusive@.";
      exit 2
    end;
    if check then begin
      let b =
        try Baseline.load baselines
        with
        | Sys_error msg ->
          Format.eprintf "scenario: cannot read baselines: %s@." msg;
          exit 2
        | Failure msg ->
          Format.eprintf "scenario: %s@." msg;
          exit 2
      in
      let ms = Run.measure ~grid:b.Baseline.grid ~seeds:b.Baseline.seeds ?domains ~store () in
      match Baseline.check b ms with
      | [] ->
        Format.printf "scenario check: %d measurements within %d bands, %d O(1) witnesses hold@."
          (List.length ms)
          (List.length b.Baseline.entries)
          (List.length b.Baseline.witnesses)
      | fails ->
        List.iter (fun f -> Format.printf "scenario DRIFT: %s@." f) fails;
        Format.printf "scenario check: %d failure(s) against %s@." (List.length fails) baselines;
        exit 1
    end
    else if record then begin
      (if Sys.file_exists baselines && not force then
         match dirty_tree () with
         | Some status ->
           Format.eprintf
             "scenario: refusing to overwrite %s from a dirty working tree (commit first or \
              pass --force):@.%s@."
             baselines status;
           exit 2
         | None -> ());
      let ms = Run.measure ?domains ~store () in
      let fits = Run.fit_growth ms in
      let b =
        Baseline.of_measurements ~grid:Corpus.default_grid ~seeds:Corpus.default_seeds ms fits
      in
      Baseline.save baselines b;
      Format.printf "scenario: recorded %d bands, %d O(1) witnesses to %s@."
        (List.length b.Baseline.entries)
        (List.length b.Baseline.witnesses)
        baselines
    end
    else begin
      let ms = Run.measure ?grid ?seeds ?families ?domains ~store () in
      Format.printf "%a@." Run.pp_measurements ms;
      Format.printf "%a@." Run.pp_fits (Run.fit_growth ms)
    end
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Re-measure on the baseline's grid and exit non-zero on any round count \
                   outside its tolerance band or any lost sub-threshold O(1) witness.")
  in
  let record_arg =
    Arg.(value & flag
         & info [ "record" ]
             ~doc:"Measure the default grid and (re)write the baseline artifact. Refuses to \
                   overwrite an existing artifact from a dirty git tree.")
  in
  let force_arg =
    Arg.(value & flag
         & info [ "force" ] ~doc:"Override the dirty-working-tree guard of $(b,--record).")
  in
  let baselines_arg =
    Arg.(value & opt string "scenario_baselines.json"
         & info [ "baselines" ] ~docv:"PATH" ~doc:"Baseline artifact location.")
  in
  let grid_arg =
    Arg.(value & opt (some string) None
         & info [ "grid" ] ~docv:"N,N,..."
             ~doc:"Comma-separated sizes for the plain measurement report (default: the \
                   corpus grid).")
  in
  let seeds_arg =
    Arg.(value & opt (some string) None
         & info [ "seeds" ] ~docv:"S,S,..."
             ~doc:"Comma-separated seeds for the plain measurement report.")
  in
  let families_arg =
    Arg.(value & opt (some string) None
         & info [ "families" ] ~docv:"NAMES"
             ~doc:"Comma-separated corpus family filter for the plain measurement report.")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Threshold-sharpness corpus: run every round-accounted engine over the \
             threshold-straddling workload families, fit round counts against log log n / \
             log n envelopes, and check or record the regression baselines.")
    Term.(const run $ check_arg $ record_arg $ force_arg $ baselines_arg $ domains_arg
          $ store_arg $ grid_arg $ seeds_arg $ families_arg)

(* ---- serve / client ---- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let run socket stdio cache domains workers max_frame store_dir =
    match (socket, stdio) with
    | Some _, true ->
      Format.eprintf "serve: --socket and --stdio are mutually exclusive@.";
      exit 2
    | None, false ->
      Format.eprintf "serve: pick a transport: --socket PATH or --stdio@.";
      exit 2
    | Some path, false -> (
      Format.eprintf "serving on %s (cache %d, %d worker%s)@." path cache workers
        (if workers = 1 then "" else "s");
      try
        Lll_serve.Serve.serve_socket ~capacity:cache ?domains ?store_dir:store_dir ~workers
          ?max_frame ~path ()
      with Lll_serve.Serve.Socket_busy { path; reason } ->
        Format.eprintf "serve: refusing to claim %s: %s@." path reason;
        exit 1)
    | None, true ->
      Lll_serve.Serve.serve_stdio ~capacity:cache ?domains ?store_dir:store_dir ?max_frame ()
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ] ~doc:"Serve length-framed requests on stdin/stdout (the \
                                  child-process transport of $(b,client --spawn)).")
  in
  let cache =
    Arg.(value & opt int 32
         & info [ "cache" ] ~docv:"N" ~doc:"LRU instance-cache capacity.")
  in
  let workers =
    Arg.(value & opt int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains serving accepted connections concurrently \
                   (socket transport only).")
  in
  let max_frame =
    Arg.(value & opt (some int) None
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Reject request frames longer than this before reading their body \
                   (default 2^30; minimum 4096).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Persistent solve service: an LRU instance cache plus a batching scheduler \
             behind a length-framed request protocol, optionally fanned out over a pool \
             of worker domains. Requests describe instances by generator spec, \
             serialized blob, or server-local file; repeat requests hit the cache with \
             zero rebuild work and bit-identical solver output.")
    Term.(const run $ socket_arg $ stdio $ cache $ domains_arg $ workers $ max_frame
          $ store_arg)

let client_cmd =
  let run socket spawn smoke op family n degree seed solver stream concurrency workers =
    if concurrency > 1 then begin
      (* the fleet smoke: a private socket-server child on a
         collision-free temp path, hammered by concurrent clients *)
      if not smoke then begin
        Format.eprintf "client: --concurrency pairs with --smoke@.";
        exit 2
      end;
      let srv = Lll_serve.Client.spawn_server ~workers () in
      Fun.protect
        ~finally:(fun () -> Lll_serve.Client.stop_server srv)
        (fun () ->
          match
            Lll_serve.Client.smoke_fleet ~clients:concurrency
              (Lll_serve.Client.server_path srv)
          with
          | Ok () ->
            Format.printf
              "serve fleet smoke: %d clients on %d worker%s, build-once + identical \
               output OK@."
              concurrency workers
              (if workers = 1 then "" else "s")
          | Error reason ->
            Format.eprintf "serve fleet smoke FAILED: %s@." reason;
            exit 1)
    end
    else begin
    let conn =
      match (socket, spawn) with
      | Some path, false -> Lll_serve.Client.connect_socket path
      | None, true -> Lll_serve.Client.spawn ()
      | Some _, true ->
        Format.eprintf "client: --socket and --spawn are mutually exclusive@.";
        exit 2
      | None, false ->
        Format.eprintf "client: pick a server: --socket PATH or --spawn@.";
        exit 2
    in
    (* a spawned child is ours to stop; a shared socket server stays up *)
    let finally () =
      if spawn then Lll_serve.Client.shutdown conn else Lll_serve.Client.close conn
    in
    Fun.protect ~finally (fun () ->
        if smoke then begin
          match Lll_serve.Client.smoke conn with
          | Ok () -> Format.printf "serve smoke: solve/verify batch, cache hit, stats OK@."
          | Error reason ->
            Format.eprintf "serve smoke FAILED: %s@." reason;
            exit 1
        end
        else begin
          let family_name = family_to_string family in
          let header =
            [
              ("op", op);
              ("family", family_name);
              ("n", string_of_int n);
              ("degree", string_of_int degree);
              ("seed", string_of_int seed);
              ("solver", solver);
            ]
            @ (if stream then [ ("stream", "1") ] else [])
          in
          let resp =
            Lll_serve.Client.request conn { Lll_serve.Protocol.header; body = "" }
          in
          List.iter
            (fun m -> Format.printf "metrics: %s@." m.Lll_serve.Protocol.body)
            resp.Lll_serve.Client.metrics;
          let r = resp.Lll_serve.Client.result in
          Format.printf "result:";
          List.iter
            (fun (k, v) -> if k <> "frame" then Format.printf " %s=%s" k v)
            r.Lll_serve.Protocol.header;
          Format.printf "@.";
          if r.Lll_serve.Protocol.body <> "" then
            Format.printf "body: %s@." r.Lll_serve.Protocol.body;
          if Lll_serve.Protocol.get r "status" <> Some "ok" then exit 1
        end)
    end
  in
  let spawn =
    Arg.(value & flag
         & info [ "spawn" ]
             ~doc:"Launch a private server child over stdio instead of connecting to a \
                   socket.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Run the end-to-end smoke: mixed solve batch, identical repeat request \
                   asserting a cache hit with byte-identical output, verify, stats.")
  in
  let op =
    Arg.(value & opt string "solve"
         & info [ "op" ] ~docv:"OP" ~doc:"Request operation: solve, verify, stats.")
  in
  let stream =
    Arg.(value & flag
         & info [ "stream" ] ~doc:"Stream per-round metrics frames for solve requests.")
  in
  let concurrency =
    Arg.(value & opt int 1
         & info [ "concurrency" ] ~docv:"K"
             ~doc:"With $(b,--smoke) and K>1: spawn a private socket server and hammer \
                   it with K concurrent client connections (the fleet smoke).")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains for the fleet smoke's private server.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a solve server over the frame protocol — connect to a socket or spawn \
             a private child — and print the demultiplexed response.")
    Term.(
      const run $ socket_arg $ spawn $ smoke $ op $ family_arg $ n_arg $ degree_arg
      $ seed_arg $ solver_arg $ stream $ concurrency $ workers)

(* ---- store: artifact-store maintenance ---- *)

let store_cmd =
  let module Corpus = Lll_scenario.Corpus in
  let require_dir dir =
    match dir with
    | Some d -> d
    | None ->
      Format.eprintf "store: pass --dir DIR@.";
      exit 2
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir"; "store" ] ~docv:"DIR" ~doc:"Artifact store directory.")
  in
  let ls_cmd =
    let run dir =
      let store = Store.create ~dir:(require_dir dir) () in
      let entries = Store.ls store in
      List.iter
        (fun (e : Store.entry) ->
          Format.printf "%s %8d %s@." e.Store.e_digest e.Store.e_bytes
            (Option.value e.Store.e_spec ~default:"(blob artifact)"))
        entries;
      Format.printf "%d artifact(s)@." (List.length entries)
    in
    Cmd.v (Cmd.info "ls" ~doc:"List artifacts (digest, bytes, canonical spec).")
      Term.(const run $ dir_arg)
  in
  let verify_cmd =
    let run dir =
      let store = Store.create ~dir:(require_dir dir) () in
      let results = Store.verify store in
      let bad =
        List.filter_map
          (function
            | _, `Ok -> None
            | digest, `Corrupt msg ->
              Format.printf "CORRUPT %s: %s@." digest msg;
              Some digest)
          results
      in
      Format.printf "verified %d artifact(s): %d ok, %d corrupt@." (List.length results)
        (List.length results - List.length bad)
        (List.length bad);
      if bad <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Decode every artifact through the checksummed load path; non-zero exit on \
               any corruption.")
      Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let run dir all =
      let store = Store.create ~dir:(require_dir dir) () in
      let r = Store.gc ~all store in
      Format.printf "gc: removed %d file(s) (%d bytes), kept %d artifact file(s)@."
        r.Store.gc_removed r.Store.gc_bytes r.Store.gc_kept
    in
    let all_arg =
      Arg.(value & flag
           & info [ "all" ]
               ~doc:"Also remove every artifact and sidecar, not just quarantined and \
                     temporary files.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Remove quarantined (.bad) and stray temporary files; --all empties the \
               store. Artifacts mmapped by live readers stay readable until they close.")
      Term.(const run $ dir_arg $ all_arg)
  in
  let warm_cmd =
    let run dir families grid seeds =
      let dir = require_dir dir in
      let store = Store.create ~dir () in
      let families =
        match families with
        | None -> Corpus.all
        | Some spec ->
          String.split_on_char ',' spec
          |> List.filter (fun c -> c <> "")
          |> List.map (fun name ->
                 match Corpus.find (String.trim name) with
                 | Some f -> f
                 | None ->
                   Format.eprintf "store warm: unknown family %S@." name;
                   exit 2)
      in
      let ints what v default =
        match v with
        | None -> default
        | Some spec ->
          String.split_on_char ',' spec
          |> List.filter (fun c -> c <> "")
          |> List.map (fun c ->
                 match int_of_string_opt (String.trim c) with
                 | Some v -> v
                 | None ->
                   Format.eprintf "store warm: bad %s entry %S@." what c;
                   exit 2)
      in
      let grid = ints "--grid" grid Corpus.default_grid in
      let seeds = ints "--seeds" seeds Corpus.default_seeds in
      List.iter
        (fun (f : Corpus.family) ->
          List.iter
            (fun n ->
              List.iter
                (fun seed ->
                  let spec = f.Corpus.spec ~seed n in
                  let before = (Store.stats store).Store.st_girth in
                  let t0 = Lll_local.Metrics.now_ns () in
                  let _, source = Store.fetch store spec in
                  let ms = float_of_int (Lll_local.Metrics.now_ns () - t0) /. 1e6 in
                  Format.printf "%-18s n=%-6d seed=%d %-5s %7.1f ms  %s@." f.Corpus.name n
                    seed
                    (match source with `Mem -> "mem" | `Disk -> "disk" | `Built -> "built")
                    ms (Spec.digest spec);
                  (* girth-sampler work of this fetch: the store's
                     running totals before and after *)
                  let after = (Store.stats store).Store.st_girth in
                  let delta field = field after - field before in
                  if delta (fun g -> g.Gen.gs_attempts) > 0 then
                    Format.printf
                      "girth-sample: n=%d girth=%d restarts=%d swaps=%d reverts=%d \
                       rejects=%d@."
                      (Spec.size spec)
                      (match spec with Spec.Sinkless { girth; _ } -> girth | _ -> 0)
                      (delta (fun g -> g.Gen.gs_attempts))
                      (delta (fun g -> g.Gen.gs_swaps))
                      (delta (fun g -> g.Gen.gs_reverts))
                      (delta (fun g -> g.Gen.gs_rejects)))
                seeds)
            grid)
        families;
      let st = Store.stats store in
      Format.printf "warm: %d built, %d disk hit(s), %d quarantined@." st.Store.st_built
        st.Store.st_disk_hits st.Store.st_quarantined
    in
    let families_arg =
      Arg.(value & opt (some string) None
           & info [ "families" ] ~docv:"NAMES" ~doc:"Comma-separated corpus family filter.")
    in
    let grid_arg =
      Arg.(value & opt (some string) None
           & info [ "grid" ] ~docv:"N,N,..." ~doc:"Sizes to materialize (default: corpus grid).")
    in
    let seeds_arg =
      Arg.(value & opt (some string) None
           & info [ "seeds" ] ~docv:"S,S,..." ~doc:"Seeds to materialize (default: corpus seeds).")
    in
    Cmd.v
      (Cmd.info "warm"
         ~doc:"Materialize scenario-corpus artifacts ahead of time, reporting per-instance \
               acquisition source/latency and girth-sampler work.")
      Term.(const run $ dir_arg $ families_arg $ grid_arg $ seeds_arg)
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Content-addressed instance artifact store maintenance: ls, verify, gc, warm.")
    [ ls_cmd; verify_cmd; gc_cmd; warm_cmd ]

(* ---- solvers ---- *)

let print_solver_list () =
  Format.printf "%-14s %-32s %s@." "name" "capabilities" "description";
  Format.printf "%s@." (String.make 78 '-');
  List.iter
    (fun s ->
      Format.printf "%-14s %-32s %s@." (Solver.name s)
        (Format.asprintf "%a" Solver.pp_caps (Solver.caps s))
        (Solver.doc s))
    (Solver.all ())

let solvers_cmd =
  Cmd.v
    (Cmd.info "solvers" ~doc:"List the solver registry with capability envelopes.")
    Term.(const print_solver_list $ const ())

(* ---- surface ---- *)

let surface_cmd =
  let run steps =
    Format.printf "a\tb\tf@.";
    List.iter (fun (a, b, c) -> Format.printf "%.6f\t%.6f\t%.6f@." a b c)
      (Srep.surface_grid ~steps)
  in
  let steps = Arg.(value & opt int 32 & info [ "steps" ] ~docv:"K" ~doc:"Grid resolution.") in
  Cmd.v (Cmd.info "surface" ~doc:"Dump the Figure-1 surface f(a,b) as TSV.")
    Term.(const run $ steps)

(* ---- triple ---- *)

let triple_cmd =
  let run a b c =
    let t = (a, b, c) in
    Format.printf "triple (%g, %g, %g)@." a b c;
    Format.printf "representable: %b (violation %.3e)@." (Srep.mem t) (Srep.violation t);
    if Srep.mem t then begin
      let d = Srep.decompose t in
      Format.printf "witness: a1=%.6f a2=%.6f b1=%.6f b3=%.6f c2=%.6f c3=%.6f@." d.a1 d.a2 d.b1
        d.b3 d.c2 d.c3
    end
  in
  let pos i name = Arg.(required & pos i (some float) None & info [] ~docv:name) in
  Cmd.v
    (Cmd.info "triple" ~doc:"Check and decompose a triple against S_rep (Definition 3.3).")
    Term.(const run $ pos 0 "A" $ pos 1 "B" $ pos 2 "C")

let () =
  let doc = "Distributed Lovász Local Lemma at the sharp threshold (Brandt–Maus–Uitto, PODC'19)" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default (Cmd.info "lll_cli" ~doc)
          [
            gen_cmd;
            convert_cmd;
            criteria_cmd;
            solve_cmd;
            solvers_cmd;
            surface_cmd;
            triple_cmd;
            fuzz_cmd;
            scenario_cmd;
            serve_cmd;
            store_cmd;
            client_cmd;
          ]))
