(* The fuzz harness's own test suite: the harness must catch an
   injected fault (and shrink it to a tiny reproducer), and must NOT
   cry wolf on the honest engines or the honest geometry. *)

module Rat = Lll_num.Rat
module I = Lll_core.Instance
module Solver = Lll_core.Solver
module Serial = Lll_core.Serial
module Syn = Lll_core.Synthetic
module Gen = Lll_fuzz.Gen
module Replay = Lll_fuzz.Replay
module Shrink = Lll_fuzz.Shrink
module Fuzz = Lll_fuzz.Fuzz

let engines names = List.map Solver.find_exn names

(* ------------------------------------------------------------------ *)
(* Self-test: the injected perturbed-phi mutant is caught and shrunk   *)
(* ------------------------------------------------------------------ *)

let test_self_test_catches_mutant () =
  let registered = Solver.names () in
  let outcome = Fuzz.self_test () in
  (* the mutant exists for the self-test only: the global registry
     (which later sweeps run in full) must come out unchanged *)
  Alcotest.(check bool) "mutant not registered" true (Solver.find Fuzz.mutant_name = None);
  Alcotest.(check (list string)) "registry unchanged" registered (Solver.names ());
  match outcome.Fuzz.finding with
  | None -> Alcotest.fail "harness did not catch the injected phi mutation"
  | Some f ->
    Alcotest.(check string)
      "violation names the mutant" Fuzz.mutant_name
      (Fuzz.violation_engine f.Fuzz.violation);
    let shrunk_events = I.num_events f.Fuzz.shrunk in
    if shrunk_events > 4 then
      Alcotest.failf "reproducer not minimal: %d events (want <= 4)" shrunk_events;
    (* the shrunk reproducer must still trip the same engine *)
    (match Fuzz.check ~engines:[ Fuzz.mutant_engine ] f.Fuzz.shrunk with
    | Some _ -> ()
    | None -> Alcotest.fail "shrunk reproducer no longer reproduces the violation");
    (* ... and must survive a Serialize v2 round trip still violating *)
    let reloaded = Serial.of_string (Serial.to_string f.Fuzz.shrunk) in
    (match Fuzz.check ~engines:[ Fuzz.mutant_engine ] reloaded with
    | Some _ -> ()
    | None -> Alcotest.fail "serialized reproducer no longer reproduces the violation")

(* ------------------------------------------------------------------ *)
(* No false positives on honest engines                                *)
(* ------------------------------------------------------------------ *)

let honest_sequential =
  [ "fix2"; "fix3"; "fix3-exact"; "fixr"; "union-bound"; "mt-seq" ]

let test_honest_engines_clean () =
  let outcome = Fuzz.run ~engines:(engines honest_sequential) ~seed:11 ~budget:12 () in
  match outcome.Fuzz.finding with
  | None -> Alcotest.(check int) "all instances tested" 12 outcome.Fuzz.tested
  | Some f ->
    Alcotest.failf "false positive on honest engines (%s): %s" f.Fuzz.label
      (Format.asprintf "%a" Fuzz.pp_violation f.Fuzz.violation)

let test_geometry_oracle_clean () =
  match Fuzz.fuzz_geometry ~seed:3 ~samples:20_000 () with
  | None -> ()
  | Some ((a, b, c), reason) ->
    Alcotest.failf "geometry oracle tripped on (%g, %g, %g): %s" a b c reason

(* ------------------------------------------------------------------ *)
(* Replay checker unit behaviour                                       *)
(* ------------------------------------------------------------------ *)

let test_replay_accepts_honest_trace () =
  let inst = Syn.random ~seed:5 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  let report = Solver.solve (Solver.find_exn "fix3") inst in
  let steps =
    List.map
      (fun (s : Solver.step) -> (s.Solver.var, s.Solver.value))
      report.Solver.outcome.Solver.trace
  in
  match Replay.check_trace inst steps with
  | None -> ()
  | Some f -> Alcotest.failf "honest fix3 trace rejected: %s" (Format.asprintf "%a" Replay.pp_failure f)

let test_replay_rejects_double_fix () =
  let inst = Syn.ring ~seed:2 ~n:6 ~arity:2 () in
  match Replay.check_trace inst [ (0, 0); (0, 1) ] with
  | Some { step_index = 1; var = 0; _ } -> ()
  | Some f -> Alcotest.failf "wrong failure: %s" (Format.asprintf "%a" Replay.pp_failure f)
  | None -> Alcotest.fail "trace fixing a variable twice was accepted"

(* ------------------------------------------------------------------ *)
(* Generator and shrinker invariants                                   *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let gen seed =
    let rng = Random.State.make [| seed |] in
    let h = Gen.generate rng in
    (h.Gen.label, Serial.to_string h.Gen.instance)
  in
  let l1, s1 = gen 42 and l2, s2 = gen 42 in
  Alcotest.(check string) "same label" l1 l2;
  Alcotest.(check string) "same instance" s1 s2

let test_generator_valid_instances () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 25 do
    let h = Gen.generate rng in
    let inst = h.Gen.instance in
    Alcotest.(check bool) "rank between 1 and 3" true (I.rank inst >= 1 && I.rank inst <= 3);
    (* probabilities stay probabilities; a [Just_above] overflow tuple
       can legitimately push an event all the way to p = 1 (degenerate
       heavy value on a rank-1 event) — that hostility is intended *)
    Alcotest.(check bool) "probabilities are genuine" true
      (Array.for_all (fun p -> Rat.leq Rat.zero p && Rat.leq p Rat.one) (I.initial_probs inst))
  done

(* ------------------------------------------------------------------ *)
(* Threshold-pinned sinkless sweep: generator, oracle, shrinker        *)
(* ------------------------------------------------------------------ *)

(* The whole registry (including the application engines) stays clean
   on threshold-pinned sinkless-orientation instances. *)
let test_sinkless_sweep_clean () =
  Lll_apps.App_engines.ensure_registered ();
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 10 do
    let h = Gen.sinkless rng in
    match Fuzz.check ~engines:(Solver.all ()) h.Gen.instance with
    | None -> ()
    | Some v ->
      Alcotest.failf "sinkless sweep violation on %s: %s" h.Gen.label
        (Format.asprintf "%a" Fuzz.pp_violation v)
  done

(* The trace-replay oracle accepts an honest fixer trace on an
   at-threshold sinkless instance (rank 2, p exactly 2^-d). *)
let test_replay_on_sinkless_trace () =
  let g = Lll_graph.Generators.cycle 8 in
  let inst = Lll_apps.Sinkless.instance g in
  let report = Solver.solve (Solver.find_exn "fix2") inst in
  let steps =
    List.map
      (fun (s : Solver.step) -> (s.Solver.var, s.Solver.value))
      report.Solver.outcome.Solver.trace
  in
  match Replay.check_trace inst steps with
  | None -> ()
  | Some f ->
    Alcotest.failf "honest fix2 trace on sinkless rejected: %s"
      (Format.asprintf "%a" Replay.pp_failure f)

(* The shrinker terminates on sinkless instances and preserves the
   reproducing property (here: staying rank 2). *)
let test_shrink_sinkless () =
  let rng = Random.State.make [| 31 |] in
  let h = Gen.sinkless rng in
  let shrunk = Shrink.minimize ~reproduces:(fun i -> I.rank i = 2) h.Gen.instance in
  Alcotest.(check int) "still rank 2" 2 (I.rank shrunk);
  Alcotest.(check bool) "strictly smaller" true
    (I.num_events shrunk < I.num_events h.Gen.instance)

let test_shrink_reaches_fixpoint () =
  (* with an always-true predicate the shrinker must drive the instance
     to its smallest well-formed shape rather than loop forever *)
  let inst = (Gen.generate (Random.State.make [| 4 |])).Gen.instance in
  let shrunk = Shrink.minimize ~reproduces:(fun _ -> true) inst in
  Alcotest.(check int) "one event left" 1 (I.num_events shrunk);
  Alcotest.(check bool) "at most rank vars left" true (I.num_vars shrunk <= I.rank inst)

let () =
  Alcotest.run "lll_fuzz"
    [
      ( "harness",
        [
          Alcotest.test_case "self-test catches and shrinks the phi mutant" `Quick
            test_self_test_catches_mutant;
          Alcotest.test_case "honest engines produce no findings" `Quick
            test_honest_engines_clean;
          Alcotest.test_case "geometry oracle clean on honest Srep" `Quick
            test_geometry_oracle_clean;
        ] );
      ( "replay",
        [
          Alcotest.test_case "accepts an honest fix3 trace" `Quick test_replay_accepts_honest_trace;
          Alcotest.test_case "rejects a double fix" `Quick test_replay_rejects_double_fix;
        ] );
      ( "gen-shrink",
        [
          Alcotest.test_case "generator is deterministic in the seed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "generated instances are valid and near-threshold" `Quick
            test_generator_valid_instances;
          Alcotest.test_case "shrinker reaches a fixpoint" `Quick test_shrink_reaches_fixpoint;
        ] );
      ( "threshold-sweep",
        [
          Alcotest.test_case "registry clean on threshold-pinned sinkless" `Quick
            test_sinkless_sweep_clean;
          Alcotest.test_case "replay oracle accepts sinkless fixer trace" `Quick
            test_replay_on_sinkless_trace;
          Alcotest.test_case "shrinker preserves rank on sinkless" `Quick test_shrink_sinkless;
        ] );
    ]
