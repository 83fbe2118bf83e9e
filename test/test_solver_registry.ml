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
  let impl _ _ : Solver.outcome = failwith "never run" in
  let _ = Solver.register ~name:"test-dup" ~doc:"test stub" ~caps impl in
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Solver.register: duplicate engine test-dup") (fun () ->
      ignore (Solver.register ~name:"test-dup" ~doc:"test stub" ~caps impl))

let test_inapplicable_rejected () =
  let inst = Syn.random ~seed:1 ~n:9 ~rank:3 ~delta:2 ~arity:8 () in
  let fix2 = Solver.find_exn "fix2" in
  Alcotest.(check bool) "fix2 not applicable to rank 3" false (Solver.applicable fix2 inst);
  try
    ignore (Solver.solve fix2 inst);
    Alcotest.fail "solve on inapplicable engine must raise"
  with Invalid_argument _ -> ()

(* [Solver.make] builds an engine outside the registry: it runs through
   the shared post-condition like any registered one, but [names],
   [find] and [applicable_to] never see it. *)
let test_make_unregistered () =
  let inst = Syn.ring ~seed:7 ~n:12 ~arity:4 () in
  let fix2 = Solver.find_exn "fix2" in
  let before = Solver.names () in
  let clone =
    Solver.make ~name:"test-unregistered" ~doc:"fix2 behind a fresh name" ~caps:(Solver.caps fix2)
      (fun params inst -> (Solver.solve ~params fix2 inst).Solver.outcome)
  in
  Alcotest.(check (list string)) "registry unchanged" before (Solver.names ());
  Alcotest.(check bool) "find misses it" true (Solver.find "test-unregistered" = None);
  Alcotest.(check bool) "not offered for the instance" false
    (List.exists (fun s -> Solver.name s = "test-unregistered") (Solver.applicable_to inst));
  let report = Solver.solve clone inst in
  Alcotest.(check string) "report names the made engine" "test-unregistered" report.Solver.solver;
  Alcotest.(check bool) "verified" true report.Solver.ok;
  let direct = Solver.solve fix2 inst in
  for v = 0 to I.num_vars inst - 1 do
    Alcotest.(check int)
      (Printf.sprintf "var %d agrees with fix2" v)
      (Lll_prob.Assignment.value_exn direct.Solver.outcome.Solver.assignment v)
      (Lll_prob.Assignment.value_exn report.Solver.outcome.Solver.assignment v)
  done

(* Every sequential fixer streams one record per variable through the
   fixing loop: tagged with its phase, numbered in fixing order, and
   [halted_fraction] counting fixed variables out of all of them. *)
let test_metrics_threaded () =
  let inst = Syn.ring ~seed:3 ~n:10 ~arity:4 () in
  let n = I.num_vars inst in
  let order = Array.init n (fun i -> n - 1 - i) in
  List.iter
    (fun (name, phase) ->
      let sink = Metrics.buffer () in
      let params = { Solver.default_params with Solver.order = Some order; metrics = sink } in
      let report = Solver.solve ~params (Solver.find_exn name) inst in
      Alcotest.(check bool) (name ^ " solved") true report.Solver.ok;
      let recs = Metrics.records sink in
      Alcotest.(check int) (name ^ ": one record per variable") n (List.length recs);
      List.iteri
        (fun i r ->
          Alcotest.(check string) (name ^ ": phase tagged") phase r.Metrics.phase;
          Alcotest.(check int) (name ^ ": step index") i r.Metrics.round;
          Alcotest.(check int) (name ^ ": one variable per step") 1 r.Metrics.stepped;
          Alcotest.(check (float 0.))
            (name ^ ": fixed out of total")
            (float_of_int (i + 1) /. float_of_int n)
            r.Metrics.halted_fraction)
        recs)
    [ ("fix2", "fix-rank2"); ("fix3", "fix-rank3"); ("fixr", "fix-rankr") ]

let test_trace_incs_exact () =
  (* the uniform trace must carry the exact Inc ratios: on a strictly
     below-threshold ring every chosen value has Inc <= 2 per event *)
  let inst = Syn.ring ~seed:5 ~n:10 ~arity:4 () in
  let report = Solver.solve (Solver.find_exn "fix2") inst in
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
(* golden outputs                                                       *)
(* ------------------------------------------------------------------ *)

(* Every registry engine on every corpus family it applies to, at
   n = 48 and seeds 1-2, with the instances fetched through an
   in-memory store. Each (engine, family) cell pins the first 16 hex
   digits of an md5 over both seeds' rendered reports: the assignment,
   rounds, ok, P*, the full trace (exact Inc ratios as rationals, S_rep
   violations as hex floats), max_violation and detail. The same
   digests must come out at 1 and at 2 domains. Change a cell only for
   a deliberate output change. *)

module Store = Lll_store.Store
module Corpus = Lll_scenario.Corpus
module Assignment = Lll_prob.Assignment

let golden_n = 48
let golden_seeds = [ 1; 2 ]
let md5 s = Digest.to_hex (Digest.string s)

let golden_render (o : Solver.outcome) ok =
  let opt f = function Some x -> f x | None -> "-" in
  let concat sep f l = String.concat sep (List.map f l) in
  let step (s : Solver.step) =
    Printf.sprintf "%d:%d:%s:%s" s.Solver.var s.Solver.value
      (concat "/" (fun (e, r) -> Printf.sprintf "%d@%s" e (Rat.to_string r)) s.Solver.incs)
      (opt (Printf.sprintf "%h") s.Solver.srep_violation)
  in
  Printf.sprintf "asg=%s rounds=%s ok=%b pstar=%s trace=%s maxv=%s detail=%s"
    (md5 (concat "," (fun (v, x) -> Printf.sprintf "%d=%d" v x) (Assignment.to_list o.Solver.assignment)))
    (opt string_of_int o.Solver.rounds) ok (opt string_of_bool o.Solver.pstar)
    (md5 (concat ";" step o.Solver.trace))
    (opt (Printf.sprintf "%h") o.Solver.max_violation)
    (concat "," (fun (k, v) -> k ^ "=" ^ v) o.Solver.detail)

(* (engine, family, digest of the seed-ordered renderings) *)
let golden_digests ~domains =
  Lll_apps.App_engines.ensure_registered ();
  let store = Store.create () in
  List.concat_map
    (fun (f : Corpus.family) ->
      let insts =
        List.map (fun seed -> (seed, fst (Store.fetch store (f.Corpus.spec ~seed golden_n)))) golden_seeds
      in
      List.filter_map
        (fun s ->
          if not (List.for_all (fun (_, inst) -> Solver.applicable s inst) insts) then None
          else
            let lines =
              List.map
                (fun (seed, inst) ->
                  let params = { Solver.default_params with Solver.seed; domains } in
                  match Solver.solve ~params s inst with
                  | r -> golden_render r.Solver.outcome r.Solver.ok
                  | exception e -> "raised " ^ Printexc.to_string e)
                insts
            in
            Some (Solver.name s, f.Corpus.name, String.sub (md5 (String.concat "\n" lines)) 0 16))
        (Solver.all ()))
    Corpus.all

let golden_table =
  [
    ("fix2", "sinkless-at", "0d0bd0858cf75b91"); ("fix3", "sinkless-at", "74f3a4c44661e096");
    ("fixr", "sinkless-at", "2d1f321515a9dffa");
    ("union-bound", "sinkless-at", "079a9cbd528b3530"); ("mt-seq", "sinkless-at", "28723542ceba8e85");
    ("mt-par", "sinkless-at", "11185ea85d8cdf03"); ("mt-par-rand", "sinkless-at", "367ff7588c7f9470");
    ("dist2", "sinkless-at", "81b017b5395887c7"); ("dist3", "sinkless-at", "e96343d7e9d7e0c5");
    ("distr", "sinkless-at", "e96343d7e9d7e0c5"); ("mp2", "sinkless-at", "0bdea6eec67f4a0d");
    ("mp3", "sinkless-at", "75556264aa8e85b7"); ("sinkless-orient", "sinkless-at", "5e98128ce16c7fa3");
    ("weak-split-greedy", "sinkless-at", "546c4c35181a3188"); ("fix2", "sinkless-below", "0b857ea7f5f1d2b0");
    ("fix3", "sinkless-below", "09d24d9513247dd4");
    ("fixr", "sinkless-below", "888834025b8e9258"); ("union-bound", "sinkless-below", "795b92d252e181a3");
    ("mt-seq", "sinkless-below", "ab226bf09a0a5da5"); ("mt-par", "sinkless-below", "4f936604f92a123c");
    ("mt-par-rand", "sinkless-below", "f660d2899b255bf7"); ("dist2", "sinkless-below", "eb07d7bbd3456047");
    ("dist3", "sinkless-below", "964fa0c159e620a5"); ("distr", "sinkless-below", "964fa0c159e620a5");
    ("mp2", "sinkless-below", "22f8249a3c8f6315"); ("mp3", "sinkless-below", "3e58ff0c2aaca71a");
    ("sinkless-orient", "sinkless-below", "67e8fb9c9b7fa7de"); ("weak-split-greedy", "sinkless-below", "546c4c35181a3188");
    ("fix2", "ring-at", "d737e4aabc8bac92"); ("fix3", "ring-at", "0e403c22b3116a2a");
    ("fixr", "ring-at", "1aceb58f8263ad52");
    ("union-bound", "ring-at", "6ab33880b56faa00"); ("mt-seq", "ring-at", "c0c53e74ca83b967");
    ("mt-par", "ring-at", "24b04d0acfed359c"); ("mt-par-rand", "ring-at", "a4aff3a5c0f8c805");
    ("dist2", "ring-at", "9d503484c80af3b6"); ("dist3", "ring-at", "24f379a3d519f09a");
    ("distr", "ring-at", "24f379a3d519f09a"); ("mp2", "ring-at", "81f35005077c9358");
    ("mp3", "ring-at", "6959e3f094551422"); ("sinkless-orient", "ring-at", "f18725fbf9855e2e");
    ("weak-split-greedy", "ring-at", "f18725fbf9855e2e"); ("fix2", "ring-below", "83e327882217bb5a");
    ("fix3", "ring-below", "62272045e5a81c6f");
    ("fixr", "ring-below", "ae5857c6735a2651"); ("union-bound", "ring-below", "d65f8372daca66a2");
    ("mt-seq", "ring-below", "c72b120bb0f4d4e3"); ("mt-par", "ring-below", "6ea0d9cedaf5137a");
    ("mt-par-rand", "ring-below", "28114c60504b9396"); ("dist2", "ring-below", "ee175f82c12edfff");
    ("dist3", "ring-below", "5a82212d3822c310"); ("distr", "ring-below", "5a82212d3822c310");
    ("mp2", "ring-below", "fbc00d443c52cfff"); ("mp3", "ring-below", "d363ccff60e2389f");
    ("sinkless-orient", "ring-below", "f18725fbf9855e2e"); ("weak-split-greedy", "ring-below", "f18725fbf9855e2e");
    ("fix3", "rank3-at", "785a45ad159d1f4d");
    ("fixr", "rank3-at", "46f976ba12dbceb5"); ("union-bound", "rank3-at", "6fac25d6e0eb7dc0");
    ("mt-seq", "rank3-at", "a737416d0084000e"); ("mt-par", "rank3-at", "eb55534a1bcfb7c9");
    ("mt-par-rand", "rank3-at", "54efd277decf073e"); ("dist3", "rank3-at", "8a4a18253d829844");
    ("distr", "rank3-at", "a7e4a5ee90972710"); ("mp3", "rank3-at", "4797b99aa5a77222");
    ("weak-split-greedy", "rank3-at", "40db325db659cafd"); ("fix3", "rank3-below", "f44385a8122d71a2");
    ("fixr", "rank3-below", "d44c923074114ad8");
    ("union-bound", "rank3-below", "f6be081731f2c2fa"); ("mt-seq", "rank3-below", "72963a4f976ec58f");
    ("mt-par", "rank3-below", "01895d70747e9bdd"); ("mt-par-rand", "rank3-below", "04f0458ae922bd51");
    ("dist3", "rank3-below", "ec539ca95bd0af67"); ("distr", "rank3-below", "2a4867a16a92c823");
    ("mp3", "rank3-below", "b000ef1758fd2677"); ("weak-split-greedy", "rank3-below", "40db325db659cafd");
    ("fixr", "rank4-at", "0e04d79bfc73bf1e"); ("union-bound", "rank4-at", "f6fcfe58627a6fd3");
    ("mt-seq", "rank4-at", "c58fa638f2ab05be"); ("mt-par", "rank4-at", "ab0042a960a6d3d1");
    ("mt-par-rand", "rank4-at", "ab0042a960a6d3d1"); ("distr", "rank4-at", "c369b587006d6b6f");
    ("weak-split-greedy", "rank4-at", "26bbd58ee6404da6"); ("fixr", "rank4-below", "87f58afc976da0fd");
    ("union-bound", "rank4-below", "dbc0a592f0e4352d"); ("mt-seq", "rank4-below", "c58fa638f2ab05be");
    ("mt-par", "rank4-below", "ab0042a960a6d3d1"); ("mt-par-rand", "rank4-below", "ab0042a960a6d3d1");
    ("distr", "rank4-below", "f9edb65beec618d8"); ("weak-split-greedy", "rank4-below", "26bbd58ee6404da6");
    ("fix3", "weak-split-below", "e4be8ffcc6ff8134");
    ("fixr", "weak-split-below", "5871e611518e4517"); ("union-bound", "weak-split-below", "b2be4aef5e6f4619");
    ("mt-seq", "weak-split-below", "08e79f10c50cde80"); ("mt-par", "weak-split-below", "3995b5ddfce80fbe");
    ("mt-par-rand", "weak-split-below", "c00d59e92fa37da8"); ("dist3", "weak-split-below", "cb44155d47160b11");
    ("distr", "weak-split-below", "cb44155d47160b11"); ("mp3", "weak-split-below", "56a967d34ccd969e");
    ("weak-split-greedy", "weak-split-below", "0cb40610ce026e54");
  ]

let test_golden_outputs () =
  List.iter
    (fun d ->
      Alcotest.(check (list (triple string string string)))
        (Printf.sprintf "(engine, family, digest) at %d domain(s)" d)
        (List.sort compare golden_table)
        (List.sort compare (golden_digests ~domains:(Some d))))
    [ 1; 2 ]

(* The rank-3 fixer's potential is exact: on every corpus family of
   rank <= 3 (n = 48, the golden seeds) each step's write-back found an
   exact split, and P* holds with no tolerance. At the threshold
   (sinkless-at) P* still holds; only the final probability bound is
   not below 1 there. *)
let test_fix3_exact_on_corpus () =
  let fix3 = Solver.find_exn "fix3" in
  let store = Store.create () in
  List.iter
    (fun (f : Corpus.family) ->
      List.iter
        (fun seed ->
          let inst = fst (Store.fetch store (f.Corpus.spec ~seed golden_n)) in
          if I.rank inst <= 3 then begin
            let o = (Solver.solve fix3 inst).Solver.outcome in
            let label = Printf.sprintf "%s seed %d" f.Corpus.name seed in
            Alcotest.(check (option bool)) (label ^ ": exact P*") (Some true) o.Solver.pstar;
            Alcotest.(check (option string)) (label ^ ": fallbacks") (Some "0")
              (List.assoc_opt "fallbacks" o.Solver.detail)
          end)
        golden_seeds)
    Corpus.all

(* The .lllbin bytes of one fixed spec per corpus family (n = 48,
   seed 1), pinned by md5, plus the decode/re-encode round trip. The
   container format writes every rational through [Serialize.add_rat],
   so a change to how [Rat] stores or exposes its values shows up here
   as changed bytes. Change a cell only for a deliberate format
   change. *)

module Serial = Lll_core.Serial
module Spec = Lll_store.Spec

let artifact_digests () =
  List.map
    (fun (f : Corpus.family) ->
      let blob = Serial.to_binary_string (Spec.build (f.Corpus.spec ~seed:1 golden_n)) in
      let again = Serial.to_binary_string (Serial.of_binary_string blob) in
      (f.Corpus.name, md5 blob, String.length blob, String.equal blob again))
    Corpus.all

let artifact_table =
  [
    ("sinkless-at", "f2f4fca2576c917cb1a06a33b3105695", 7518);
    ("sinkless-below", "bb4be975ad71d3578cf39b4f231a8616", 7518);
    ("ring-at", "93fa18055fa944fac5633ffa5ddb47bc", 6102);
    ("ring-below", "dbf287774ff2d9852c7cde65c5b84869", 6054);
    ("rank3-at", "d18b59b765c80a06c2a8a8fdd1642050", 5686);
    ("rank3-below", "95e8757047bc7f29accabdfeddd39387", 5638);
    ("rank4-at", "cc4a69efceb8d8f47ef4a489dc099431", 5635);
    ("rank4-below", "417efc0aaaa283de0adb123838334fe0", 5587);
    ("weak-split-below", "d2298cf4646a4c0adfb8470de5e8d635", 8485);
  ]

let test_artifact_bytes () =
  List.iter2
    (fun (name, digest, len) (name', digest', len', roundtrip) ->
      Alcotest.(check string) "family" name name';
      Alcotest.(check string) (name ^ " md5") digest digest';
      Alcotest.(check int) (name ^ " bytes") len len';
      Alcotest.(check bool) (name ^ " decode/re-encode identical") true roundtrip)
    artifact_table (artifact_digests ())

(* Decoding a container and writing it again gives the same bytes, for
   every corpus family at two sizes and two seeds: the loader keeps
   every field the writer reads. *)
let test_decode_reencode_identical () =
  List.iter
    (fun (f : Corpus.family) ->
      List.iter
        (fun (n, seed) ->
          let blob = Serial.to_binary_string (Spec.build (f.Corpus.spec ~seed n)) in
          let again = Serial.to_binary_string (Serial.of_binary_string blob) in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d seed %d" f.Corpus.name n seed)
            true (String.equal blob again))
        [ (48, 1); (48, 2); (480, 1); (480, 2) ])
    Corpus.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "solver_registry"
    [
      ( "registry",
        [
          Alcotest.test_case "enumerates engines" `Quick test_registry_enumerates;
          Alcotest.test_case "rejects duplicates" `Quick test_registry_rejects_duplicates;
          Alcotest.test_case "rejects inapplicable instances" `Quick test_inapplicable_rejected;
          Alcotest.test_case "make leaves the registry alone" `Quick test_make_unregistered;
          Alcotest.test_case "metrics threaded through sequential fixers" `Quick
            test_metrics_threaded;
          Alcotest.test_case "trace carries exact Inc ratios" `Quick test_trace_incs_exact;
          Alcotest.test_case "post-condition catches failures" `Quick
            test_shared_postcondition_catches_failure;
          Alcotest.test_case "envelope-stretching cases" `Quick test_envelope_cases;
          Alcotest.test_case "golden outputs at 1 and 2 domains" `Quick test_golden_outputs;
          Alcotest.test_case "fix3 exact P* with no fallback on the corpus" `Quick
            test_fix3_exact_on_corpus;
          Alcotest.test_case "artifact bytes pinned per corpus family" `Quick test_artifact_bytes;
          Alcotest.test_case "decode/re-encode identical at n = 48 and 480" `Quick
            test_decode_reencode_identical;
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
