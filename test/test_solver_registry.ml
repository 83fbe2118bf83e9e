(* Differential tests over the unified solver registry: every registered
   engine, run through the one shared post-condition on random synthetic
   instances below the sharp threshold.

   The qcheck properties are the registry-level restatement of the
   paper's guarantees: wherever an engine's criterion holds, its report
   must verify exactly; sequential engines with a float potential must
   stay within Srep.default_eps of the boundary. *)

module Rat = Lll_num.Rat
module I = Lll_core.Instance
module Srep = Lll_core.Srep
module Syn = Lll_core.Synthetic
module Solver = Lll_core.Solver
module V = Lll_core.Verify
module Metrics = Lll_local.Metrics
module Gen = Lll_graph.Generators
module Sink = Lll_apps.Sinkless
module WS = Lll_apps.Weak_splitting

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* ------------------------------------------------------------------ *)
(* random below-threshold instances                                     *)
(* ------------------------------------------------------------------ *)

(* rank 2: rings with arity 4 or 8 *)
let gen_rank2 =
  QCheck.Gen.(
    triple (int_range 0 1000) (int_range 8 32) (oneofl [ 4; 8 ])
    >|= fun (seed, n, arity) -> Syn.ring ~seed ~n ~arity ())

(* rank 3: random delta-2 hypergraph structures (n*delta divisible by 3) *)
let gen_rank3 =
  QCheck.Gen.(
    pair (int_range 0 1000) (int_range 3 8)
    >|= fun (seed, k) -> Syn.random ~seed ~n:(3 * k) ~rank:3 ~delta:2 ~arity:8 ())

let arb_inst gen =
  QCheck.make ~print:(fun inst -> Format.asprintf "%a" I.pp inst) gen

(* ------------------------------------------------------------------ *)
(* the differential laws                                                *)
(* ------------------------------------------------------------------ *)

(* Every applicable engine whose criterion holds must produce a report
   that passes exact verification (and its P* claim, via report.ok). *)
let law_guaranteed_engines_verify inst =
  List.for_all
    (fun s ->
      (not (Solver.guarantees s inst))
      ||
      let report = Solver.solve s inst in
      if not report.Solver.ok then
        QCheck.Test.fail_reportf "engine %s: ok=false on %a (violated %s)" (Solver.name s)
          I.pp inst
          (String.concat ","
             (List.map string_of_int report.Solver.verify.V.violated));
      true)
    (Solver.applicable_to inst)

(* Sequential engines with a float potential must stay within the one
   shared tolerance of the S_rep boundary. *)
let law_violations_within_eps inst =
  List.for_all
    (fun s ->
      let caps = Solver.caps s in
      (not (Solver.guarantees s inst)) || caps.Solver.distributed
      ||
      let report = Solver.solve s inst in
      match report.Solver.outcome.Solver.max_violation with
      | None -> true
      | Some v ->
        if v > Srep.default_eps then
          QCheck.Test.fail_reportf "engine %s: max violation %.3e > eps %.1e" (Solver.name s)
            v Srep.default_eps;
        true)
    (Solver.applicable_to inst)

(* Deterministic engines must be deterministic: identical params give
   identical assignments. *)
let law_deterministic_engines_repeat inst =
  List.for_all
    (fun s ->
      (Solver.caps s).Solver.randomized
      || (not (Solver.guarantees s inst))
      ||
      let a1 = (Solver.solve s inst).Solver.outcome.Solver.assignment in
      let a2 = (Solver.solve s inst).Solver.outcome.Solver.assignment in
      let n = I.num_vars inst in
      let same = ref true in
      for v = 0 to n - 1 do
        if Lll_prob.Assignment.value_exn a1 v <> Lll_prob.Assignment.value_exn a2 v then same := false
      done;
      if not !same then
        QCheck.Test.fail_reportf "engine %s: two identical runs disagree" (Solver.name s);
      true)
    (Solver.applicable_to inst)

(* ------------------------------------------------------------------ *)
(* registry unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry_enumerates () =
  let names = Solver.names () in
  Alcotest.(check bool) "at least 8 engines" true (List.length names >= 8);
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Solver.find n with
      | Some s -> Alcotest.(check string) "find returns the named engine" n (Solver.name s)
      | None -> Alcotest.fail ("find failed on listed name " ^ n))
    names

let test_registry_rejects_duplicates () =
  let caps =
    {
      Solver.max_rank = Some 0; (* never applicable *)
      exact = false;
      distributed = false;
      randomized = false;
      claims_pstar = false;
    }
  in
  let impl _ _ : Solver.driver = failwith "never run" in
  let _ = Solver.register ~name:"test-dup" ~doc:"test stub" ~caps impl in
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Solver.register: duplicate engine test-dup") (fun () ->
      ignore (Solver.register ~name:"test-dup" ~doc:"test stub" ~caps impl))

let test_inapplicable_rejected () =
  let inst = Syn.random ~seed:1 ~n:9 ~rank:3 ~delta:2 ~arity:8 () in
  let fix2 = Solver.find_exn "fix2" in
  Alcotest.(check bool) "fix2 not applicable to rank 3" false (Solver.applicable fix2 inst);
  (try
     ignore (Solver.solve fix2 inst);
     Alcotest.fail "solve on inapplicable engine must raise"
   with Invalid_argument _ -> ());
  try
    ignore (Solver.create fix2 inst);
    Alcotest.fail "create on inapplicable engine must raise"
  with Invalid_argument _ -> ()

let test_session_stepping () =
  let inst = Syn.ring ~seed:7 ~n:12 ~arity:4 () in
  let session = Solver.create (Solver.find_exn "fix2") inst in
  let steps = ref 0 in
  while Solver.step session do
    incr steps
  done;
  Alcotest.(check bool) "finished" true (Solver.finished session);
  Alcotest.(check int) "one step per variable" (I.num_vars inst) (List.length (Solver.trace session));
  let outcome = Solver.outcome session in
  Alcotest.(check bool) "stepped assignment verifies" true
    (V.avoids_all inst outcome.Solver.assignment);
  (* the incremental run must land on the one-shot run's assignment *)
  let oneshot = Solver.solve_by_name "fix2" inst in
  for v = 0 to I.num_vars inst - 1 do
    Alcotest.(check int)
      (Printf.sprintf "var %d agrees with one-shot" v)
      (Lll_prob.Assignment.value_exn oneshot.Solver.outcome.Solver.assignment v)
      (Lll_prob.Assignment.value_exn outcome.Solver.assignment v)
  done

let test_metrics_threaded () =
  let inst = Syn.ring ~seed:3 ~n:10 ~arity:4 () in
  let sink = Metrics.buffer () in
  let params = { Solver.default_params with Solver.metrics = sink } in
  let report = Solver.solve ~params (Solver.find_exn "fix3") inst in
  Alcotest.(check bool) "solved" true report.Solver.ok;
  let recs = Metrics.records sink in
  Alcotest.(check int) "one record per fixing step" (I.num_vars inst) (List.length recs);
  List.iter
    (fun r ->
      Alcotest.(check string) "phase tagged" "fix-rank3" r.Metrics.phase;
      Alcotest.(check int) "sequential steps touch one variable" 1 r.Metrics.stepped)
    recs

let test_trace_incs_exact () =
  (* the uniform trace must carry the exact Inc ratios: on a strictly
     below-threshold ring every chosen value has Inc <= 2 per event *)
  let inst = Syn.ring ~seed:5 ~n:10 ~arity:4 () in
  let report = Solver.solve_by_name "fix2" inst in
  let two = Rat.of_ints 2 1 in
  List.iter
    (fun (s : Solver.step) ->
      Alcotest.(check bool) "incs recorded" true (s.Solver.incs <> []);
      List.iter
        (fun (_, inc) ->
          Alcotest.(check bool) "Inc <= 2 (the proof's discipline)" true
            (Rat.leq inc two))
        s.Solver.incs)
    report.Solver.outcome.Solver.trace

let test_shared_postcondition_catches_failure () =
  (* union-bound outside its criterion may fail: the report must say so
     instead of silently claiming success *)
  let inst = Syn.ring ~seed:2 ~n:40 ~arity:4 () in
  let ub = Solver.find_exn "union-bound" in
  Alcotest.(check bool) "criterion fails on a long ring" false (Solver.guarantees ub inst);
  let report = Solver.solve ub inst in
  Alcotest.(check bool) "report.ok mirrors exact verification" report.Solver.verify.V.ok
    report.Solver.ok

(* Engines outside the random rank-2/3 instances above: the rank-r
   fixer past rank 3, the threshold-straddling sinkless pair, and the
   application engines on their own problems. Each case must either be
   off its guarantee or verify, and none may raise. *)
let test_envelope_cases () =
  Lll_apps.App_engines.ensure_registered ();
  let sink_graph = Gen.random_regular ~seed:1 32 3 in
  let sink_at = Sink.instance sink_graph and sink_below = Sink.relaxed_instance sink_graph in
  let ws_inst =
    WS.instance ~nv:16
      (Gen.random_biregular_bipartite ~seed:1 ~nv:16 ~nu:16 ~deg_u:3 ~deg_v:3)
  in
  List.iter
    (fun (label, engine, inst) ->
      let s = Solver.find_exn engine in
      match Solver.solve s inst with
      | report ->
        if Solver.guarantees s inst && not report.Solver.ok then
          Alcotest.failf "%s: guaranteed run not ok (violated %s)" label
            (String.concat "," (List.map string_of_int report.Solver.verify.V.violated))
      | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e))
    [
      ("fixr-rank4", "fixr", Syn.random ~seed:1 ~n:16 ~rank:4 ~delta:2 ~arity:16 ());
      ("fix2-sinkless-below", "fix2", sink_below);
      ("mt-par-sinkless-at", "mt-par", sink_at);
      ("sinkless-orient-at", "sinkless-orient", sink_at);
      ("sinkless-orient-below", "sinkless-orient", sink_below);
      ("weak-split-greedy-ws", "weak-split-greedy", ws_inst);
    ]

(* A dumped instance, reloaded, must be solved identically by every
   deterministic engine — the serialized form carries the exact
   distributions and bad sets, so the fixing processes cannot diverge. *)
let law_roundtrip_solves_identically inst =
  let inst' = Lll_core.Serial.of_string (Lll_core.Serial.to_string inst) in
  List.for_all
    (fun s ->
      (Solver.caps s).Solver.randomized
      || (Solver.caps s).Solver.distributed
      || (not (Solver.guarantees s inst))
      ||
      let a1 = (Solver.solve s inst).Solver.outcome.Solver.assignment in
      let a2 = (Solver.solve s inst').Solver.outcome.Solver.assignment in
      for v = 0 to I.num_vars inst - 1 do
        if Lll_prob.Assignment.value_exn a1 v <> Lll_prob.Assignment.value_exn a2 v then
          QCheck.Test.fail_reportf "engine %s: reloaded instance solved differently at var %d"
            (Solver.name s) v
      done;
      true)
    (Solver.applicable_to inst)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "solver_registry"
    [
      ( "registry",
        [
          Alcotest.test_case "enumerates engines" `Quick test_registry_enumerates;
          Alcotest.test_case "rejects duplicates" `Quick test_registry_rejects_duplicates;
          Alcotest.test_case "rejects inapplicable instances" `Quick test_inapplicable_rejected;
          Alcotest.test_case "session stepping" `Quick test_session_stepping;
          Alcotest.test_case "metrics threaded through sequential fixers" `Quick
            test_metrics_threaded;
          Alcotest.test_case "trace carries exact Inc ratios" `Quick test_trace_incs_exact;
          Alcotest.test_case "post-condition catches failures" `Quick
            test_shared_postcondition_catches_failure;
          Alcotest.test_case "envelope-stretching cases" `Quick test_envelope_cases;
        ] );
      ( "differential",
        [
          prop "guaranteed engines verify (rank 2)" 10 (arb_inst gen_rank2)
            law_guaranteed_engines_verify;
          prop "guaranteed engines verify (rank 3)" 8 (arb_inst gen_rank3)
            law_guaranteed_engines_verify;
          prop "float violations within eps (rank 2)" 10 (arb_inst gen_rank2)
            law_violations_within_eps;
          prop "float violations within eps (rank 3)" 8 (arb_inst gen_rank3)
            law_violations_within_eps;
          prop "deterministic engines repeat (rank 2)" 6 (arb_inst gen_rank2)
            law_deterministic_engines_repeat;
          prop "deterministic engines repeat (rank 3)" 5 (arb_inst gen_rank3)
            law_deterministic_engines_repeat;
          prop "serialize round-trip solves identically (rank 2)" 6 (arb_inst gen_rank2)
            law_roundtrip_solves_identically;
          prop "serialize round-trip solves identically (rank 3)" 5 (arb_inst gen_rank3)
            law_roundtrip_solves_identically;
        ] );
    ]
