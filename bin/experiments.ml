(* Experiment harness: regenerates every figure and theorem-level claim of
   the paper (see DESIGN.md section 3 for the index and EXPERIMENTS.md for
   recorded outputs).

     F1  Figure 1: the S_rep boundary surface + convexity/incurvedness
     F2  Figure 2: the representable triple (1/4, 3/2, 1/10)
     T1  Theorem 1.1: rank-2 fixing below the threshold, adversarial orders
     T2  Theorem 1.3: rank-3 fixing below the threshold
     T3  Corollary 1.2: LOCAL rounds vs n (rank 2) vs Moser-Tardos
     T4  Corollary 1.4: LOCAL rounds vs n (rank 3)
     T5  Sharpness at p = 2^-d (sinkless orientation)
     T6  Application: hypergraph multi-orientation
     T7  Application: weak splitting
     T8  Criteria landscape
     T9  Moser-Tardos baseline statistics + witness trees
     T10 Conjecture 1.5: experimental rank-r fixing
     T11 Existence vs distributed complexity (Shearer's exact region)
     T13 The Omega(log* n) lower bound on shift graphs
     T14 Domain-parallel runtime + round metrics
     T15 The solver registry: every engine, one shared post-condition
     T16 Threshold-sharpness scenario corpus (round-count growth fits)

   Every solver run goes through the Solver registry (one shared
   [sweep] loop below); no experiment hand-wires an engine API.

   (T12, the retired ablations, survives as history in EXPERIMENTS.md.)

   Usage: experiments [f1 f2 t1 ... t16]   (default: all)         *)

module Rat = Lll_num.Rat
module G = Lll_graph.Graph
module Gen = Lll_graph.Generators
module I = Lll_core.Instance
module Crit = Lll_core.Criteria
module Srep = Lll_core.Srep
module Syn = Lll_core.Synthetic
module Solver = Lll_core.Solver
module V = Lll_core.Verify
module MT = Lll_core.Moser_tardos (* witness-tree log analysis only (t9) *)
module Sink = Lll_apps.Sinkless
module HO = Lll_apps.Hyper_orientation
module WS = Lll_apps.Weak_splitting

let section id title =
  Format.printf "@.============================================================@.";
  Format.printf "%s  %s@." (String.uppercase_ascii id) title;
  Format.printf "============================================================@."

let shuffled ~seed m =
  let rng = Random.State.make [| seed |] in
  let o = Array.init m (fun i -> i) in
  Gen.shuffle rng o;
  o

(* The one registry loop every solver experiment goes through: [count]
   seeded instances of a family, solved by the named engine under a
   shuffled (adversarial) variable order, statistics read off the
   uniform report. *)
type sweep_stats = {
  succ : int;  (* runs whose assignment passed exact verification *)
  pstar_held : int;  (* runs whose engine-side P* check passed *)
  max_viol : float;  (* worst float-boundary violation; -inf if none *)
  rounds_avg : float;  (* mean LOCAL rounds; nan if not round-accounted *)
  detail_min : string -> float;  (* min over runs of a float detail key *)
  detail_sum : string -> int;  (* sum over runs of an int detail key *)
  d : int;
  r : int;
  ratio : Rat.t;  (* p * 2^d of the last instance *)
}

let sweep ?(order_mult = 17) ~solver ~count mk =
  let s = Solver.find_exn solver in
  let succ = ref 0 and pstar = ref 0 and viol = ref neg_infinity in
  let rounds = ref 0 and nrounds = ref 0 in
  let details = ref [] in
  let ratio = ref Rat.zero and d = ref 0 and r = ref 0 in
  for seed = 0 to count - 1 do
    let inst = mk seed in
    let rep = Crit.evaluate inst in
    ratio := Crit.threshold_ratio ~p:rep.Crit.p ~d:rep.Crit.d;
    d := rep.Crit.d;
    r := rep.Crit.r;
    let order = shuffled ~seed:(seed * order_mult) (I.num_vars inst) in
    let params = { Solver.default_params with seed; order = Some order } in
    let report = Solver.solve ~params s inst in
    if report.Solver.verify.V.ok then incr succ;
    (match report.Solver.outcome.Solver.pstar with Some true -> incr pstar | _ -> ());
    (match report.Solver.outcome.Solver.max_violation with
    | Some v when v > !viol -> viol := v
    | _ -> ());
    (match report.Solver.outcome.Solver.rounds with
    | Some k ->
      rounds := !rounds + k;
      incr nrounds
    | None -> ());
    details := report.Solver.outcome.Solver.detail :: !details
  done;
  let fold f init key =
    List.fold_left
      (fun acc kvs -> match List.assoc_opt key kvs with Some v -> f acc v | None -> acc)
      init !details
  in
  {
    succ = !succ;
    pstar_held = !pstar;
    max_viol = !viol;
    rounds_avg =
      (if !nrounds = 0 then nan else float_of_int !rounds /. float_of_int !nrounds);
    detail_min = (fun k -> fold (fun acc v -> Float.min acc (float_of_string v)) infinity k);
    detail_sum = (fun k -> fold (fun acc v -> acc + int_of_string v) 0 k);
    d = !d;
    r = !r;
    ratio = !ratio;
  }

(* single run through the registry, report + detail accessors *)
let solve1 ?params solver inst =
  let report = Solver.solve ?params (Solver.find_exn solver) inst in
  let det k = List.assoc k report.Solver.outcome.Solver.detail in
  (report, fun k -> int_of_string (det k))

(* ------------------------------------------------------------------ *)
(* F1: the S_rep surface (Figure 1)                                     *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "f1" "Figure 1: the boundary surface f(a,b) of S_rep";
  Format.printf "f(a,b) = 4 + (ab - 2a - 2b - sqrt(ab(4-a)(4-b)))/2 on a+b <= 4@.@.";
  let steps = 8 in
  Format.printf "%6s" "b\\a";
  for i = 0 to steps do
    Format.printf "%7.2f" (4. *. float_of_int i /. float_of_int steps)
  done;
  Format.printf "@.";
  for j = 0 to steps do
    let b = 4. *. float_of_int j /. float_of_int steps in
    Format.printf "%6.2f" b;
    for i = 0 to steps do
      let a = 4. *. float_of_int i /. float_of_int steps in
      if a +. b <= 4. +. 1e-9 then Format.printf "%7.3f" (Srep.f a (Float.min b (4. -. a)))
      else Format.printf "%7s" "-"
    done;
    Format.printf "@."
  done;
  (* convexity (Lemma 3.6): Hessian positive definite on a fine grid *)
  let grid = 200 in
  let checked = ref 0 and positive = ref 0 in
  for i = 1 to grid - 1 do
    for j = 1 to grid - 1 do
      let a = 4. *. float_of_int i /. float_of_int grid in
      let b = 4. *. float_of_int j /. float_of_int grid in
      if a +. b < 4. -. 1e-9 then begin
        incr checked;
        let faa, _, _ = Srep.hessian a b in
        if faa > 0. && Srep.hessian_determinant a b > 0. then incr positive
      end
    done
  done;
  Format.printf "@.convexity (Lemma 3.6): Hessian positive definite at %d/%d grid points@."
    !positive !checked;
  (* incurvedness (Lemma 3.7): random segments with both endpoints outside *)
  let rng = Random.State.make [| 2019 |] in
  let segments = 20_000 and bad = ref 0 in
  for _ = 1 to segments do
    let p () = (Random.State.float rng 4., Random.State.float rng 4., Random.State.float rng 4.) in
    let s = p () and s' = p () in
    if (not (Srep.mem ~eps:0. s)) && not (Srep.mem ~eps:0. s') then
      for i = 1 to 9 do
        let q = float_of_int i /. 10. in
        let (xa, ya, za) = s and (xb, yb, zb) = s' in
        let m =
          ( (q *. xa) +. ((1. -. q) *. xb),
            (q *. ya) +. ((1. -. q) *. yb),
            (q *. za) +. ((1. -. q) *. zb) )
        in
        if Srep.mem ~eps:(-1e-9) m then incr bad
      done
  done;
  Format.printf
    "incurvedness (Lemma 3.7): %d interior points of outside-outside segments fell into S_rep \
     (expected 0) over %d segments@."
    !bad segments

(* ------------------------------------------------------------------ *)
(* F2: Figure 2                                                         *)
(* ------------------------------------------------------------------ *)

let f2 () =
  section "f2" "Figure 2: the triple (1/4, 3/2, 1/10) is representable";
  let t = (0.25, 1.5, 0.1) in
  Format.printf "exact membership (rational, sqrt-free): %b@."
    (Srep.mem_rat (Rat.of_ints 1 4, Rat.of_ints 3 2, Rat.of_ints 1 10));
  let d = Srep.decompose t in
  Format.printf "witness: a1=%.6f a2=%.6f b1=%.6f b3=%.6f c2=%.6f c3=%.6f@." d.a1 d.a2 d.b1
    d.b3 d.c2 d.c3;
  let a, b, c = Srep.products d in
  Format.printf "products: a1*a2=%.6f (=1/4)  b1*b3=%.6f (=3/2)  c2*c3=%.6f (=1/10)@." a b c;
  Format.printf "edge constraints: a1+b1=%.6f  a2+c2=%.6f  b3+c3=%.6f (all <= 2): %b@."
    (d.a1 +. d.b1) (d.a2 +. d.c2) (d.b3 +. d.c3)
    (Srep.is_valid_decomposition d)

(* ------------------------------------------------------------------ *)
(* T1 / T2: the fixers below the threshold                              *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "t1" "Theorem 1.1: rank-2 deterministic fixing below p = 2^-d";
  Format.printf "%-28s %-8s %-10s %-12s %s@." "family" "d" "p*2^d" "success" "P* held";
  let run_family name mk count =
    let st = sweep ~solver:"fix2" ~count mk in
    Format.printf "%-28s %-8d %-10s %d/%-10d %d/%d@." name st.d (Rat.to_string st.ratio)
      st.succ count st.pstar_held count
  in
  run_family "ring n=40 arity=4" (fun seed -> Syn.ring ~seed ~n:40 ~arity:4 ()) 20;
  run_family "ring n=40 arity=8" (fun seed -> Syn.ring ~seed ~n:40 ~arity:8 ()) 10;
  run_family "relaxed sinkless rr3 n=20"
    (fun seed -> Sink.relaxed_instance (Gen.random_regular ~seed 20 3))
    10;
  run_family "relaxed sinkless rr4 n=20"
    (fun seed -> Sink.relaxed_instance (Gen.random_regular ~seed 20 4))
    10;
  run_family "property B ternary 4-unif"
    (fun seed -> Lll_apps.Property_b.relaxed_instance (Gen.random_regular_hypergraph ~seed 16 4 2))
    10;
  (* beyond random orders: an ACTIVE adversary hill-climbing on the
     fixer's certificate bound *)
  let module Adv = Lll_core.Adversary in
  let worst = ref Rat.zero and all_ok = ref true in
  for seed = 0 to 4 do
    let inst = Syn.ring ~seed ~n:20 ~arity:4 () in
    let attack = Adv.worst_order_rank2 ~seed ~steps:120 inst in
    if Rat.gt attack.Adv.bound !worst then worst := attack.Adv.bound;
    if not attack.Adv.succeeded then all_ok := false
  done;
  Format.printf
    "@.active adversary (hill climbing on the certificate, 5 instances x 120 steps):@.";
  Format.printf "  worst peak certificate reached: %s ~ %.3f (< 1), fixer always succeeded: %b@."
    (Rat.to_string !worst) (Rat.to_float !worst) !all_ok;
  Format.printf "@.expected: 100%% success, P* maintained throughout (paper: Theorem 1.1).@."

let t2 () =
  section "t2" "Theorem 1.3: rank-3 deterministic fixing below p = 2^-d";
  Format.printf "%-30s %-6s %-10s %-12s %-10s %s@." "family" "d" "p*2^d" "success" "P* held"
    "max S_rep violation";
  let run_family name mk count =
    let st = sweep ~order_mult:23 ~solver:"fix3" ~count mk in
    Format.printf "%-30s %-6d %-10s %d/%-10d %d/%-8d %.2e@." name st.d (Rat.to_string st.ratio)
      st.succ count st.pstar_held count st.max_viol
  in
  run_family "random rank3 delta2 n=18"
    (fun seed -> Syn.random ~seed ~n:18 ~rank:3 ~delta:2 ~arity:8 ())
    15;
  run_family "hyper-orientation delta3 n=15"
    (fun seed -> HO.instance (Gen.random_regular_hypergraph ~seed 15 3 3))
    8;
  run_family "weak splitting 16c n=16"
    (fun seed ->
      WS.instance ~nv:16 (Gen.random_biregular_bipartite ~seed ~nv:16 ~nu:16 ~deg_u:3 ~deg_v:3))
    8;
  Format.printf
    "@.expected: 100%% success, P* maintained, violations <= 0 up to float noise (Lemma 3.2).@."

(* ------------------------------------------------------------------ *)
(* T3 / T4: LOCAL round scaling                                         *)
(* ------------------------------------------------------------------ *)

let t3 () =
  section "t3" "Corollary 1.2: LOCAL rounds vs n at fixed d (rank 2)";
  Format.printf "%-8s %-10s %-10s %-10s %-14s %s@." "n" "coloring" "sweep" "total"
    "MT rounds(avg3)" "solved";
  List.iter
    (fun n ->
      let inst = Syn.ring ~seed:1 ~n ~arity:4 () in
      let report, det = solve1 "dist2" inst in
      let mt = sweep ~solver:"mt-par" ~count:3 (fun _ -> inst) in
      Format.printf "%-8d %-10d %-10d %-10d %-14.1f %b@." n (det "coloring_rounds")
        (det "sweep_rounds")
        (Option.value ~default:0 report.Solver.outcome.Solver.rounds)
        mt.rounds_avg report.Solver.ok)
    [ 32; 64; 128; 256; 512; 1024; 2048 ];
  Format.printf
    "@.expected: deterministic rounds flat in n past the Linial fixpoint (O(d + log* n));@.";
  Format.printf "MT rounds drift upward with log n.@."

let t4 () =
  section "t4" "Corollary 1.4: LOCAL rounds vs n at fixed d (rank 3)";
  Format.printf "%-8s %-6s %-10s %-10s %-10s %s@." "n" "d" "coloring" "sweep" "total" "solved";
  List.iter
    (fun n ->
      let h = Gen.random_regular_hypergraph ~seed:3 n 3 2 in
      let inst = HO.instance h in
      let report, det = solve1 "dist3" inst in
      Format.printf "%-8d %-6d %-10d %-10d %-10d %b@." n (I.dependency_degree inst)
        (det "coloring_rounds") (det "sweep_rounds")
        (Option.value ~default:0 report.Solver.outcome.Solver.rounds)
        report.Solver.ok)
    [ 30; 60; 120; 240; 480; 960; 1920 ];
  Format.printf
    "@.expected: reduction rounds grow only logarithmically below the Linial fixpoint of the@.";
  Format.printf
    "square graph and plateau past it — O(d^2 + log* n) overall, versus Theta(n) for a@.";
  Format.printf "naive class-by-class reduction.@."

(* ------------------------------------------------------------------ *)
(* T5: sharpness                                                        *)
(* ------------------------------------------------------------------ *)

let t5 () =
  section "t5" "Sharpness at p = 2^-d: sinkless orientation";
  let g = Gen.random_regular ~seed:5 24 3 in
  let at = Sink.instance g in
  let rep = Crit.evaluate at in
  Format.printf "classic sinkless orientation on a 3-regular graph:@.";
  Format.printf "  p = %s, d = %d, p*2^d = %s@." (Rat.to_string rep.Crit.p) rep.Crit.d
    (Rat.to_string (Crit.threshold_ratio ~p:rep.Crit.p ~d:rep.Crit.d));
  Format.printf "  exponential criterion p < 2^-d: %s@."
    (if List.assoc Crit.Exponential rep.Crit.satisfied then "holds" else "FAILS (exactly at)");
  let victim = 7 in
  let adv = Sink.adversarial_path_assignment g ~victim in
  Format.printf "  adversarial fixing run: node %d becomes a sink: %b@." victim
    (List.mem victim (V.occurring_events at adv));
  let below = Sink.relaxed_instance g in
  let rep_b = Crit.evaluate below in
  Format.printf "@.ternary relaxation (edges may stay unoriented):@.";
  Format.printf "  p = %s, p*2^d = %s, criterion: %s@." (Rat.to_string rep_b.Crit.p)
    (Rat.to_string (Crit.threshold_ratio ~p:rep_b.Crit.p ~d:rep_b.Crit.d))
    (if List.assoc Crit.Exponential rep_b.Crit.satisfied then "holds" else "fails");
  let ok = ref 0 in
  let orders = 20 in
  let fix2 = Solver.find_exn "fix2" in
  for seed = 0 to orders - 1 do
    let order = shuffled ~seed (I.num_vars below) in
    let params = { Solver.default_params with order = Some order } in
    let report = Solver.solve ~params fix2 below in
    if report.Solver.ok && Sink.is_sinkless g report.Solver.outcome.Solver.assignment then
      incr ok
  done;
  Format.printf "  deterministic fixing under %d adversarial orders: %d/%d sinkless@." orders !ok
    orders;
  Format.printf
    "@.expected: the phase shift of the paper — guarantee breaks exactly AT the threshold,@.";
  Format.printf "holds strictly below it.@."

(* ------------------------------------------------------------------ *)
(* T6 / T7: applications                                                *)
(* ------------------------------------------------------------------ *)

let t6 () =
  section "t6" "Application: rank-3 hypergraph multi-orientation";
  Format.printf "%-8s %-8s %-6s %-12s %-10s %-10s %-8s %s@." "nodes" "delta" "d" "p*2^d"
    "seq ok" "dist ok" "rounds" "valid";
  List.iter
    (fun (n, delta) ->
      let h = Gen.random_regular_hypergraph ~seed:11 n 3 delta in
      let inst = HO.instance h in
      let rep = Crit.evaluate inst in
      let seq, _ = solve1 "fix3" inst in
      let dist, _ = solve1 "dist3" inst in
      Format.printf "%-8d %-8d %-6d %-12.4f %-10b %-10b %-8d %b@." n delta rep.Crit.d
        (Rat.to_float (Crit.threshold_ratio ~p:rep.Crit.p ~d:rep.Crit.d))
        seq.Solver.ok dist.Solver.ok
        (Option.value ~default:0 dist.Solver.outcome.Solver.rounds)
        (HO.is_valid h dist.Solver.outcome.Solver.assignment))
    [ (12, 2); (24, 2); (15, 3); (30, 3) ];
  Format.printf "@.expected: all instances below threshold and solved deterministically.@."

let t7 () =
  section "t7" "Application: relaxed weak splitting (see >= 2 colors)";
  Format.printf "%-10s %-8s %-6s %-14s %-12s %s@." "colors" "deg_v" "d" "p*2^d" "criterion"
    "solved+valid";
  List.iter
    (fun colors ->
      let nv = 16 and nu = 16 in
      let adj = Gen.random_biregular_bipartite ~seed:13 ~nv ~nu ~deg_u:3 ~deg_v:3 in
      let params = { WS.colors; min_seen = 2 } in
      let inst = WS.instance ~params ~nv adj in
      let rep = Crit.evaluate inst in
      let below = List.assoc Crit.Exponential rep.Crit.satisfied in
      let solved =
        if below then begin
          let report, _ = solve1 "fix3" inst in
          report.Solver.ok
          && WS.is_valid ~params ~nv adj report.Solver.outcome.Solver.assignment
        end
        else false
      in
      Format.printf "%-10d %-8d %-6d %-14s %-12s %s@." colors 3 rep.Crit.d
        (Rat.to_string (Crit.threshold_ratio ~p:rep.Crit.p ~d:rep.Crit.d))
        (if below then "holds" else "FAILS")
        (if below then string_of_bool solved else "n/a (not attempted)"))
    [ 4; 8; 16; 32 ];
  Format.printf
    "@.expected: 16 colors (the paper's parameters) is comfortably below the threshold;@.";
  Format.printf "8 colors sits exactly AT it (p*2^d = 1) and is out of scope.@."

(* ------------------------------------------------------------------ *)
(* T8: criteria landscape                                               *)
(* ------------------------------------------------------------------ *)

let t8 () =
  section "t8" "Criteria landscape: which algorithm applies at p just below 2^-d";
  Format.printf "%-6s %-14s %-12s %-12s %-12s %-12s@." "d" "p" "ep(d+1)<1" "epd^2<1" "pd^8<=1"
    "p<2^-d";
  for d = 2 to 10 do
    (* p one notch below the threshold *)
    let p = Rat.sub (Rat.pow2 (-d)) (Rat.pow2 (-(d + 10))) in
    let h c = if Crit.holds c ~p ~d then "holds" else "-" in
    Format.printf "%-6d %-14s %-12s %-12s %-12s %-12s@." d (Rat.to_string p)
      (h Crit.Shattering) (h Crit.Polynomial_epd2) (h Crit.Polynomial_d8) (h Crit.Exponential)
  done;
  Format.printf
    "@.expected: the exponential criterion implies the polynomial ones for all large d —@.";
  Format.printf
    "the paper's regime is the strong end of the spectrum, yet its algorithm is the@.";
  Format.printf "only deterministic O(poly d + log* n) one.@."

(* ------------------------------------------------------------------ *)
(* T9: Moser-Tardos baseline                                            *)
(* ------------------------------------------------------------------ *)

let t9 () =
  section "t9" "Moser-Tardos baseline statistics";
  Format.printf "sequential resamplings on below-threshold rings (avg over 5 seeds):@.";
  Format.printf "%-8s %-14s %-14s@." "n" "resamplings" "variables";
  List.iter
    (fun n ->
      let inst = Syn.ring ~seed:2 ~n ~arity:4 () in
      let st = sweep ~solver:"mt-seq" ~count:5 (fun _ -> inst) in
      (* [MT10]: expected total resamplings is O(m) under ep(d+1) < 1 *)
      Format.printf "%-8d %-14.1f %-14d@." n
        (float_of_int (st.detail_sum "resamplings") /. 5.)
        (I.num_vars inst))
    [ 32; 64; 128; 256 ];
  Format.printf "@.parallel MT rounds on AT-threshold sinkless orientation (avg over 5 seeds):@.";
  Format.printf "%-8s %-12s@." "n" "rounds";
  List.iter
    (fun n ->
      let g = Gen.random_regular ~seed:3 n 3 in
      let inst = Sink.instance g in
      let st = sweep ~solver:"mt-par" ~count:5 (fun _ -> inst) in
      Format.printf "%-8d %-12.1f@." n st.rounds_avg)
    [ 16; 32; 64; 128; 256; 512 ];
  Format.printf
    "@.expected: parallel rounds grow (slowly) with n at the threshold, in contrast to the@.";
  Format.printf "flat deterministic rounds of T3/T4 below it.@.";
  (* witness tree size distribution: the MT analysis made visible *)
  Format.printf "@.witness tree sizes over an at-threshold run (the [MT10] accounting):@.";
  let inst = Syn.ring ~position:Syn.At_threshold ~seed:12 ~n:64 ~arity:4 () in
  let module W = Lll_core.Witness in
  let _, _, log = MT.solve_sequential_log ~seed:4 inst in
  let hist = W.size_histogram inst log in
  Format.printf "%-8s %s@." "size" "count";
  List.iter (fun (sz, c) -> Format.printf "%-8d %d@." sz c) hist;
  Format.printf
    "expected: geometrically decaying counts — the empirical face of the MT convergence@.";
  Format.printf "bound (each resampling is charged to a distinct witness tree).@."

(* ------------------------------------------------------------------ *)
(* T10: Conjecture 1.5 — experimental rank-r fixing                     *)
(* ------------------------------------------------------------------ *)

let t10 () =
  section "t10" "Conjecture 1.5: experimental rank-r fixing (r >= 4, NO proven guarantee)";
  Format.printf "%-28s %-4s %-4s %-12s %-10s %-12s %-12s %s@." "family" "r" "d" "p*2^d" "success"
    "min slack" "infeasible" "P* held";
  let run_family name mk count =
    let st = sweep ~order_mult:29 ~solver:"fixr" ~count mk in
    Format.printf "%-28s %-4d %-4d %-12s %d/%-8d %-12.2e %-12d %d/%d@." name st.r st.d
      (Rat.to_string st.ratio) st.succ count
      (st.detail_min "min_slack")
      (st.detail_sum "infeasible_steps")
      st.pstar_held count
  in
  run_family "rank3 delta2 arity8 n=18"
    (fun seed -> Syn.random ~seed ~n:18 ~rank:3 ~delta:2 ~arity:8 ())
    10;
  run_family "rank4 delta2 arity16 n=16"
    (fun seed -> Syn.random ~seed ~n:16 ~rank:4 ~delta:2 ~arity:16 ())
    10;
  run_family "rank5 delta2 arity32 n=20"
    (fun seed -> Syn.random ~seed ~n:20 ~rank:5 ~delta:2 ~arity:32 ())
    6;
  Format.printf
    "@.expected if Conjecture 1.5 holds: every step finds a representable value (min slack@.";
  Format.printf
    ">= 0 up to solver tolerance, zero infeasible steps) and all instances are solved,@.";
  Format.printf "as the paper proves for r <= 3 and conjectures for all r.@."

(* ------------------------------------------------------------------ *)
(* T11: Shearer's exact region vs the distributed criteria              *)
(* ------------------------------------------------------------------ *)

let t11 () =
  section "t11" "Existence vs distributed complexity: Shearer's exact region";
  Format.printf
    "Shearer's criterion characterises exactly when the LLL guarantees a solution EXISTS;@.";
  Format.printf
    "the paper shows that finding one FAST (deterministically, locally) needs p < 2^-d.@.@.";
  Format.printf "%-34s %-10s %-12s %-14s %s@." "instance" "p*2^d" "in Shearer" "p < 2^-d"
    "meaning";
  let row name inst meaning =
    let rep = Crit.evaluate inst in
    Format.printf "%-34s %-10s %-12b %-14b %s@." name
      (Rat.to_string (Crit.threshold_ratio ~p:rep.Crit.p ~d:rep.Crit.d))
      (Crit.shearer_holds inst)
      (List.assoc Crit.Exponential rep.Crit.satisfied)
      meaning
  in
  row "ring n=12 (below)" (Syn.ring ~seed:1 ~n:12 ~arity:4 ()) "solvable + fast";
  row "ring n=12 (at threshold)"
    (Syn.ring ~position:Syn.At_threshold ~seed:1 ~n:12 ~arity:4 ())
    "no fast guarantee";
  row "sinkless orientation C5" (Sink.instance (Gen.cycle 5)) "exists, yet hard";
  row "sinkless orientation C12" (Sink.instance (Gen.cycle 12)) "exists, yet hard";
  row "relaxed sinkless C12" (Sink.relaxed_instance (Gen.cycle 12)) "solvable + fast";
  let pb = Gen.random_regular_hypergraph ~seed:2 16 4 2 in
  row "property B (binary, 4-unif)" (Lll_apps.Property_b.instance pb) "exists, yet hard";
  row "property B (abstain color)" (Lll_apps.Property_b.relaxed_instance pb) "solvable + fast";
  Format.printf
    "@.expected: at-threshold sinkless orientation lies strictly INSIDE Shearer's region@.";
  Format.printf
    "(solutions exist — orient the cycle consistently) while failing the paper's@.";
  Format.printf
    "criterion: the threshold is about distributed COMPLEXITY, not existence.@."

(* ------------------------------------------------------------------ *)
(* T13: the Omega(log* n) side, concretely                              *)
(* ------------------------------------------------------------------ *)

let t13 () =
  section "t13" "The Omega(log* n) lower bound, machine-checked on shift graphs";
  Format.printf
    "A t-round deterministic coloring algorithm on directed paths with ids from [m] is@.";
  Format.printf
    "exactly a proper coloring of the shift graph S(m, k) on k-id windows; its chromatic@.";
  Format.printf
    "number grows like an iterated logarithm of m — so o(log* n) rounds cannot color,@.";
  Format.printf "making the paper's O(poly d + log* n) upper bounds optimal in n.@.@.";
  let module SG = Lll_graph.Shift_graph in
  Format.printf "%-8s %-10s %-14s@." "m" "window k" "chi(S(m,k)) (exact)";
  List.iter
    (fun (m, k) ->
      match SG.chromatic_number ~budget:5_000_000 ~m ~k () with
      | Some chi -> Format.printf "%-8d %-10d %d@." m k chi
      | None -> Format.printf "%-8d %-10d (search budget exhausted)@." m k)
    [ (3, 2); (4, 2); (5, 2); (6, 2); (4, 3); (5, 3) ];
  (match SG.threshold_universe ~k:2 ~colors:3 ~max_m:8 () with
  | Some m ->
    Format.printf
      "@.certified: with ids from a universe of size >= %d, NO single-window algorithm@." m;
    Format.printf "3-colors directed paths — the concrete base case of the log* argument.@."
  | None -> Format.printf "@.threshold search undecided within budget.@.");
  Format.printf
    "@.matching upper bound: Cole-Vishkin 3-colors rings in O(log* n) rounds (see the@.";
  Format.printf "local_algorithms example: 8 rounds at n=10, 10 rounds at n=100000).@."

(* ------------------------------------------------------------------ *)
(* T14: the domain-parallel runtime and its round-level metrics         *)
(* ------------------------------------------------------------------ *)

let t14 () =
  section "t14" "Domain-parallel LOCAL runtime + round-level metrics";
  let module Net = Lll_local.Network in
  let module RT = Lll_local.Runtime in
  let module Par = Lll_local.Par in
  let module M = Lll_local.Metrics in
  let module FS = Lll_local.Flat_state in
  Format.printf "machine: %d recommended domain(s); runtime default %d@.@." (Par.recommended ())
    (Par.default_domains ());
  (* per-round metrics of a full message-passing rank-3 solve *)
  let inst = HO.instance (Gen.random_regular_hypergraph ~seed:3 30 3 2) in
  let sink = M.buffer () in
  let report, _ =
    solve1 ~params:{ Solver.default_params with metrics = sink } "mp3" inst
  in
  let recs = M.records sink in
  Format.printf "message-passing rank-3 solve: ok=%b, %d LOCAL rounds, %d round records@.@."
    report.Solver.ok
    (Option.value ~default:0 report.Solver.outcome.Solver.rounds)
    (List.length recs);
  let phases = List.sort_uniq compare (List.map (fun rc -> rc.M.phase) recs) in
  Format.printf "%-18s %-8s %-12s %-14s %s@." "phase" "rounds" "wall_ms" "mean stepped" "final halted";
  List.iter
    (fun p ->
      let of_p = List.filter (fun rc -> rc.M.phase = p) recs in
      let k = List.length of_p in
      let stepped = List.fold_left (fun acc rc -> acc + rc.M.stepped) 0 of_p in
      let last = List.nth of_p (k - 1) in
      Format.printf "%-18s %-8d %-12.2f %-14.1f %.3f@." p k
        (float_of_int (M.total_wall_ns of_p) /. 1e6)
        (float_of_int stepped /. float_of_int k)
        last.M.halted_fraction)
    phases;
  Format.printf "@.JSON dump (the lll_cli --metrics format), first rounds of each phase:@.";
  let first_of p = List.find (fun rc -> rc.M.phase = p) recs in
  print_string (M.to_json (List.map first_of phases));
  (* 1-domain vs N-domain round throughput on a large flood workload *)
  let n = 60_000 in
  let net = Net.create (Gen.random_regular ~seed:7 n 4) in
  let flood domains =
    let t0 = M.now_ns () in
    let state = FS.create ~n ~int_fields:1 () in
    for v = 0 to n - 1 do
      FS.set_int state 0 v v
    done;
    let _, stats =
      RT.run_flat ~domains net ~state ~step:(fun ~round ~me ~prev ~cur ~nbrs ->
          let xs = FS.int_column prev 0 in
          FS.set_int cur 0 me (Array.fold_left (fun acc u -> max acc xs.(u)) xs.(me) nbrs);
          round + 1 >= 4)
    in
    (stats.RT.rounds, float_of_int (M.now_ns () - t0) /. 1e6)
  in
  let domains_n = max 2 (Par.recommended ()) in
  let r1, ms1 = flood 1 in
  let rn, msn = flood domains_n in
  Format.printf "@.flood on a %d-node 4-regular graph (%d rounds):@." n r1;
  Format.printf "  1 domain : %8.2f ms@." ms1;
  Format.printf "  %d domains: %8.2f ms  (speedup %.2fx; > 1 requires a multicore host)@."
    domains_n msn (ms1 /. msn);
  ignore rn;
  Format.printf
    "@.expected: identical results for any domain count (asserted by the differential@.";
  Format.printf "suite in test/test_runtime_par.ml); speedup tracks the physical core count.@."

(* ------------------------------------------------------------------ *)
(* T15: the solver registry itself                                      *)
(* ------------------------------------------------------------------ *)

let t15 () =
  section "t15" "The solver registry: every applicable engine, one shared post-condition";
  let instances =
    [
      ("ring n=24 arity=4 (rank 2)", Syn.ring ~seed:1 ~n:24 ~arity:4 ());
      ("random rank3 delta2 n=18", Syn.random ~seed:1 ~n:18 ~rank:3 ~delta:2 ~arity:8 ());
      ("random rank4 delta2 n=16", Syn.random ~seed:1 ~n:16 ~rank:4 ~delta:2 ~arity:16 ());
    ]
  in
  List.iter
    (fun (name, inst) ->
      Format.printf "@.%s — %a@." name I.pp inst;
      Format.printf "%-14s %-32s %-6s %s@." "solver" "capabilities" "ok" "guaranteed";
      List.iter
        (fun s ->
          match Solver.solve s inst with
          | report ->
            Format.printf "%-14s %-32s %-6b %b@." (Solver.name s)
              (Format.asprintf "%a" Solver.pp_caps (Solver.caps s))
              report.Solver.ok (Solver.guarantees s inst)
          | exception e ->
            Format.printf "%-14s %-32s %-6s %b  (%s)@." (Solver.name s)
              (Format.asprintf "%a" Solver.pp_caps (Solver.caps s))
              "raise" (Solver.guarantees s inst) (Printexc.to_string e))
        (Solver.applicable_to inst))
    instances;
  Format.printf
    "@.expected: ok = true for every engine whose guarantee predicate holds on the@.";
  Format.printf
    "instance; engines run outside their criterion (e.g. union-bound on a large ring)@.";
  Format.printf "are best-effort and may legitimately report false.@."

(* ------------------------------------------------------------------ *)
(* T16: the threshold-sharpness scenario corpus                         *)
(* ------------------------------------------------------------------ *)

let t16 () =
  section "t16"
    "Threshold sharpness as an experiment: round counts across the scenario corpus";
  Lll_apps.App_engines.ensure_registered ();
  (* a larger grid than the CI baselines: the growth separation gets
     clearer with every doubling *)
  let grid = [ 24; 48; 96; 192 ] in
  let ms = Lll_scenario.Run.measure ~grid () in
  let fits = Lll_scenario.Run.fit_growth ms in
  Format.printf "grid n = %s, seeds = %s@."
    (String.concat ", " (List.map string_of_int grid))
    (String.concat ", " (List.map string_of_int Lll_scenario.Corpus.default_seeds));
  Format.printf "%a@." Lll_scenario.Run.pp_fits fits;
  (* parallel efficiency of the color-class fixer sweeps: the widest
     same-color class each engine fanned out at the largest size. The
     width bounds the useful domain count for that sweep (efficiency =
     width / domains once domains exceed the class size), and it is
     recorded identically at any --domains by the determinism
     contract. *)
  let nmax = List.fold_left max 0 grid in
  let widths = Hashtbl.create 16 in
  List.iter
    (fun (m : Lll_scenario.Run.measurement) ->
      if m.Lll_scenario.Run.n = nmax && m.Lll_scenario.Run.max_sweep_width > 0 then begin
        let key = (m.Lll_scenario.Run.family, m.Lll_scenario.Run.engine) in
        let cur = try Hashtbl.find widths key with Not_found -> 0 in
        Hashtbl.replace widths key (max cur m.Lll_scenario.Run.max_sweep_width)
      end)
    ms;
  let rows =
    Hashtbl.fold (fun (fam, eng) w acc -> (fam, eng, w) :: acc) widths []
    |> List.sort compare
  in
  if rows <> [] then begin
    Format.printf "@.fixer-sweep parallelism at n = %d (max color-class width; a domain@."
      nmax;
    Format.printf "pool up to that size stays fully busy during the widest sweep):@.";
    Format.printf "%-18s %-18s %11s@." "family" "engine" "max width";
    List.iter
      (fun (fam, eng, w) -> Format.printf "%-18s %-18s %11d@." fam eng w)
      rows
  end;
  Format.printf
    "@.expected: every *-below family keeps an O(1)/flat series (the relaxed problem is@.";
  Format.printf
    "constant-round solvable), while the *-at families' engines track the log log n /@.";
  Format.printf
    "log n envelopes — the sharp threshold of the paper as a measured table. CI pins@.";
  Format.printf "these numbers via `lll_cli scenario --check` (see DESIGN.md section 10).@."

(* ------------------------------------------------------------------ *)
(* driver                                                               *)
(* ------------------------------------------------------------------ *)

let all : (string * (unit -> unit)) list =
  [
    ("f1", f1); ("f2", f2); ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5);
    ("t6", t6); ("t7", t7); ("t8", t8); ("t9", t9); ("t10", t10); ("t11", t11);
    ("t13", t13); ("t14", t14); ("t15", t15); ("t16", t16);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> List.map String.lowercase_ascii ids
    | _ -> List.map fst all
  in
  List.iter
    (fun id ->
      match List.assoc_opt id all with
      | Some f -> f ()
      | None ->
        Format.printf "unknown experiment %S; available: %s@." id
          (String.concat " " (List.map fst all));
        exit 1)
    requested
