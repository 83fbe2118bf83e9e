(* Tests for the scenario subsystem: the committed baselines must pass
   against a fresh measurement sweep, a deliberately tightened band
   must FAIL the same sweep (the acceptance criterion that the
   regression check has teeth), the JSON artifact must round-trip, and
   losing an O(1) witness must be detected. *)

module Corpus = Lll_scenario.Corpus
module Run = Lll_scenario.Run
module Baseline = Lll_scenario.Baseline

let () = Lll_apps.App_engines.ensure_registered ()

(* One sweep shared by all tests: the committed artifact pins the grid
   and seeds, and everything downstream is deterministic in them.
   `dune runtest` runs the test from test/, `dune exec` from the
   workspace root — accept either. *)
let baseline =
  lazy
    (Baseline.load
       (if Sys.file_exists "../scenario_baselines.json" then "../scenario_baselines.json"
        else "scenario_baselines.json"))

let measurements =
  lazy
    (let b = Lazy.force baseline in
     Run.measure ~grid:b.Baseline.grid ~seeds:b.Baseline.seeds ())

let test_committed_baselines_pass () =
  let b = Lazy.force baseline in
  let ms = Lazy.force measurements in
  match Baseline.check b ms with
  | [] -> ()
  | failures ->
    Alcotest.failf "committed baselines drifted:\n%s" (String.concat "\n" failures)

let test_tightened_band_fails () =
  (* shift every band above its own ceiling: every measured round count
     (previously in [lo, hi]) is now out of band, so the check MUST
     report drift — a check that still passes has no teeth *)
  let b = Lazy.force baseline in
  let tightened =
    {
      b with
      Baseline.entries =
        List.map
          (fun (e : Baseline.entry) ->
            let hi = e.Baseline.band.Baseline.hi in
            { e with Baseline.band = { Baseline.lo = hi + 1; hi = hi + 1 } })
          b.Baseline.entries;
    }
  in
  let failures = Baseline.check tightened (Lazy.force measurements) in
  if failures = [] then Alcotest.fail "tightened bands did not fail the check";
  (* every failure is an out-of-band report, not a missing measurement *)
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "failure mentions a band: %s" f)
        true
        (contains ~sub:"outside band" f))
    failures

let test_single_band_tightening_detected () =
  (* the minimal perturbation: tighten exactly one entry's band *)
  let b = Lazy.force baseline in
  let tightened =
    {
      b with
      Baseline.entries =
        (match b.Baseline.entries with
        | e :: rest ->
          let hi = e.Baseline.band.Baseline.hi in
          { e with Baseline.band = { Baseline.lo = hi + 1; hi = hi + 1 } } :: rest
        | [] -> Alcotest.fail "baseline has no entries");
    }
  in
  let failures = Baseline.check tightened (Lazy.force measurements) in
  Alcotest.(check bool) "exactly the perturbed entry drifts" true (List.length failures >= 1)

let test_witness_loss_detected () =
  let b = Lazy.force baseline in
  Alcotest.(check bool) "baseline carries witnesses" true (List.length b.Baseline.witnesses >= 1);
  (* an engine that never reports rounds on that family: the witness
     check must flag it rather than silently passing *)
  let broken =
    {
      b with
      Baseline.witnesses =
        [ { Baseline.w_family = "sinkless-below"; w_engine = "no-such-engine" } ];
    }
  in
  let failures = Baseline.check broken (Lazy.force measurements) in
  Alcotest.(check bool) "lost witness reported" true (failures <> [])

let test_crash_detected () =
  (* an engine that raised must fail the check even with no band to
     miss: a crash is not an engine declining the instance *)
  let b = { (Lazy.force baseline) with Baseline.entries = []; witnesses = [] } in
  let crashed =
    {
      Run.family = "ring-below";
      engine = "dist2";
      n = 24;
      seed = 1;
      rounds = None;
      ok = false;
      guaranteed = true;
      round_records = 0;
      max_sweep_width = 0;
      crashed = Some "Failure(\"boom\")";
    }
  in
  Alcotest.(check (list string)) "crash reported"
    [ "ring-below/dist2 n=24 seed=1: engine crashed: Failure(\"boom\")" ]
    (Baseline.check b [ crashed ]);
  Alcotest.(check (list string)) "declined cell passes" []
    (Baseline.check b [ { crashed with Run.crashed = None } ])

let test_json_roundtrip () =
  let b = Lazy.force baseline in
  let b' = Baseline.of_json (Baseline.to_json b) in
  Alcotest.(check bool) "roundtrip is the identity" true (b = b')

let test_sub_threshold_families_have_o1_witness () =
  (* the sharp-threshold story: every Below-side family keeps an engine
     within the O(1) cap across the whole grid *)
  let b = Lazy.force baseline in
  let below =
    List.filter_map
      (fun (f : Corpus.family) ->
        if f.Corpus.side = Corpus.Below then Some f.Corpus.name else None)
      Corpus.all
  in
  List.iter
    (fun fam ->
      Alcotest.(check bool)
        (Printf.sprintf "witness for %s" fam)
        true
        (List.exists (fun w -> w.Baseline.w_family = fam) b.Baseline.witnesses))
    below

let test_domains_override_is_invisible () =
  (* the determinism contract at the scenario layer: re-measuring one
     small slice with domains:4 must reproduce the pinned domains:1
     measurements field for field (rounds, ok, record counts, widths) *)
  let b = Lazy.force baseline in
  let grid = [ List.fold_left min max_int b.Baseline.grid ] in
  let seeds = [ List.hd b.Baseline.seeds ] in
  let m1 = Run.measure ~grid ~seeds ~domains:(Some 1) ()
  and m4 = Run.measure ~grid ~seeds ~domains:(Some 4) () in
  Alcotest.(check bool) "domains:4 slice == domains:1 slice" true (m1 = m4)

let test_above_threshold_growth_recorded () =
  (* at-threshold families carry non-constant fitted envelopes for at
     least one randomized distributed engine *)
  let b = Lazy.force baseline in
  let growing =
    List.exists
      (fun g ->
        g.Baseline.g_growth <> "O(1)"
        && List.exists
             (fun (f : Corpus.family) ->
               f.Corpus.name = g.Baseline.g_family && f.Corpus.side = Corpus.At)
             Corpus.all)
      b.Baseline.growth
  in
  Alcotest.(check bool) "some at-threshold series grows" true growing

let () =
  Alcotest.run "lll_scenario"
    [
      ( "baselines",
        [
          Alcotest.test_case "committed baselines pass" `Quick test_committed_baselines_pass;
          Alcotest.test_case "tightened bands fail the check" `Quick test_tightened_band_fails;
          Alcotest.test_case "single tightened band detected" `Quick
            test_single_band_tightening_detected;
          Alcotest.test_case "witness loss detected" `Quick test_witness_loss_detected;
          Alcotest.test_case "crashed cell fails the check" `Quick test_crash_detected;
          Alcotest.test_case "JSON round-trips" `Quick test_json_roundtrip;
        ] );
      ( "threshold-story",
        [
          Alcotest.test_case "below families keep O(1) witnesses" `Quick
            test_sub_threshold_families_have_o1_witness;
          Alcotest.test_case "at-threshold growth recorded" `Quick
            test_above_threshold_growth_recorded;
          Alcotest.test_case "domains override leaves measurements intact" `Quick
            test_domains_override_is_invisible;
        ] );
    ]
