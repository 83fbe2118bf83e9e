(* The paper's rank-3 application: compute THREE orientations of a rank-3
   hypergraph such that every node is a non-sink in at least two of them.

   Each hyperedge carries one 27-valued variable (a head per orientation);
   a variable affects exactly the <= 3 nodes of its hyperedge, so r = 3
   and Theorem 1.3 / Corollary 1.4 apply once p < 2^-d — which the harness
   checks exactly.

   Run with: dune exec examples/hypergraph_orientation.exe *)

module Gen = Lll_graph.Generators
module H = Lll_graph.Hypergraph
module Criteria = Lll_core.Criteria
module Fix = Lll_core.Fix_rank3
module Distributed = Lll_core.Distributed
module Verify = Lll_core.Verify
module HO = Lll_apps.Hyper_orientation

let () =
  let h = Gen.random_regular_hypergraph ~seed:99 24 3 3 in
  Format.printf "hypergraph: rank %d, n=%d nodes, m=%d hyperedges, 3-regular@.@."
    (H.rank h) (H.n h) (H.m h);

  let instance = HO.instance h in
  Format.printf "== criteria ==@.%a@." Criteria.pp_report (Criteria.evaluate instance);

  let assignment, fixer = Fix.solve instance in
  Format.printf "== sequential fixing (Theorem 1.3) ==@.";
  Format.printf "all bad events avoided: %b@." (Verify.avoids_all instance assignment);
  Format.printf "P* maintained: %b, max S_rep violation: %.2e@." (Fix.pstar_holds fixer)
    (Fix.max_violation fixer);
  Format.printf "orientations valid (every node non-sink in >= 2): %b@.@."
    (HO.is_valid h assignment);

  let r = Distributed.solve_rank3 instance in
  Format.printf "== distributed (Corollary 1.4) ==@.";
  Format.printf "solved=%b in %d LOCAL rounds (2-hop coloring %d + %d sweeps of %d classes)@.@."
    (Verify.avoids_all instance r.assignment) r.rounds r.coloring_rounds r.sweep_rounds r.colors;

  Format.printf "== first few hyperedges: heads per orientation ==@.";
  let decoded = HO.decode h r.assignment in
  Array.iteri
    (fun he heads ->
      if he < 6 then begin
        let members = H.edge h he in
        Format.printf "  edge {%s} -> heads (%d, %d, %d)@."
          (String.concat "," (List.map string_of_int (Array.to_list members)))
          heads.(0) heads.(1) heads.(2)
      end)
    decoded
