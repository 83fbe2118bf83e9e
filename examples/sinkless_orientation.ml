(* Sinkless orientation: the problem that sits exactly AT the sharp
   threshold p = 2^-d.

   - The classic binary formulation has p * 2^d = 1: the criterion checker
     rejects it, matching the paper's lower bounds.
   - The ternary relaxation (edges may stay unoriented) has p = 3^-d:
     strictly below the threshold, so Corollary 1.2's distributed
     algorithm solves it in O(d + log* n)-style rounds.

   Run with: dune exec examples/sinkless_orientation.exe *)

module Gen = Lll_graph.Generators
module Graph = Lll_graph.Graph
module Criteria = Lll_core.Criteria
module Distributed = Lll_core.Distributed
module Verify = Lll_core.Verify
module Solver = Lll_core.Solver
module Sinkless = Lll_apps.Sinkless

let () =
  let g = Gen.random_regular ~seed:2026 60 3 in
  Format.printf "graph: 3-regular, n=%d, m=%d@.@." (Graph.n g) (Graph.m g);

  (* at the threshold *)
  let at = Sinkless.instance g in
  Format.printf "== classic sinkless orientation (AT the threshold) ==@.";
  Format.printf "%a" Criteria.pp_report (Criteria.evaluate at);
  Format.printf "-> the deterministic theorems do not apply; randomized it goes:@.";
  let params = { Solver.default_params with Solver.seed = 7 } in
  let mt = Solver.solve ~params (Solver.find_exn "mt-par") at in
  Format.printf "   parallel Moser-Tardos: solved=%b in %d resampling rounds@.@." mt.Solver.ok
    (Option.value mt.Solver.outcome.Solver.rounds ~default:0);

  (* strictly below *)
  let below = Sinkless.relaxed_instance g in
  Format.printf "== relaxed sinkless orientation (strictly BELOW) ==@.";
  Format.printf "%a" Criteria.pp_report (Criteria.evaluate below);
  let r = Distributed.solve_rank2 below in
  Format.printf "-> Corollary 1.2: solved=%b in %d LOCAL rounds@."
    (Verify.avoids_all below r.assignment) r.rounds;
  Format.printf "   (edge coloring: %d rounds, %d color-class sweeps)@." r.coloring_rounds
    r.sweep_rounds;
  Format.printf "   orientation is sinkless: %b@."
    (Sinkless.is_sinkless g r.assignment);
  let unoriented =
    Array.fold_left
      (fun acc -> function Sinkless.Unoriented -> acc + 1 | _ -> acc)
      0
      (Sinkless.orientations g r.assignment)
  in
  Format.printf "   edges left unoriented by the relaxation: %d/%d@." unoriented (Graph.m g)
