(* The paper's relaxed weak splitting application: color the U-side of a
   bipartite graph with 16 colors so that every V-node sees at least two
   distinct colors among its U-neighbors (U-degree <= 3, so r <= 3).

   Run with: dune exec examples/weak_splitting.exe *)

module Gen = Lll_graph.Generators
module Criteria = Lll_core.Criteria
module Fix = Lll_core.Fix_rank3
module Distributed = Lll_core.Distributed
module Verify = Lll_core.Verify
module WS = Lll_apps.Weak_splitting

let () =
  let nv = 24 and nu = 24 in
  let adj = Gen.random_biregular_bipartite ~seed:4242 ~nv ~nu ~deg_u:3 ~deg_v:3 in
  Format.printf "bipartite: |V|=%d constraints, |U|=%d variables, degrees 3/3@.@." nv nu;

  let instance = WS.instance ~nv adj in
  Format.printf "== criteria (16 colors, see >= 2) ==@.%a@." Criteria.pp_report
    (Criteria.evaluate instance);

  let assignment, fixer = Fix.solve instance in
  Format.printf "== sequential fixing ==@.";
  Format.printf "all V-nodes see >= 2 colors: %b (P*: %b)@.@."
    (WS.is_valid ~nv adj assignment)
    (Fix.pstar_holds fixer);

  let r = Distributed.solve_rank3 instance in
  Format.printf "== distributed (Corollary 1.4) ==@.";
  Format.printf "solved=%b in %d LOCAL rounds@.@."
    (Verify.avoids_all instance r.assignment) r.rounds;

  let colors = WS.coloring r.assignment nu in
  Format.printf "U-side colors: %s@."
    (String.concat " " (Array.to_list (Array.map string_of_int colors)));

  (* a tighter palette also works as long as the criterion holds *)
  let params = { WS.colors = 8; min_seen = 2 } in
  let inst8 = WS.instance ~params ~nv adj in
  let rep = Criteria.evaluate inst8 in
  Format.printf "@.with 8 colors: p=%s, p*2^d=%s, below threshold: %b@."
    (Lll_num.Rat.to_string rep.p)
    (Lll_num.Rat.to_string (Criteria.threshold_ratio ~p:rep.p ~d:rep.d))
    (List.assoc Criteria.Exponential rep.satisfied);
  if List.assoc Criteria.Exponential rep.satisfied then begin
    let a, _ = Fix.solve inst8 in
    Format.printf "8-color solution valid: %b@." (WS.is_valid ~params ~nv adj a)
  end
