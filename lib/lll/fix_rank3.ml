(* The sequential deterministic fixing process of Theorem 1.3: variables
   may affect up to three events, the criterion is [p * 2^d < 1].

   The process maintains property P* (Definition 3.1): a potential
   [phi_e^v in [0,2]] for every edge-endpoint of the dependency graph with
   [phi_e^u + phi_e^v <= 2] on each edge, such that every event's
   conditional probability is bounded by its initial probability times the
   product of its incident phi values.

   To fix a rank-3 variable on events {u, v, w} (pairwise adjacent via
   edges e = {u,v}, e' = {u,w}, e'' = {v,w}), form the representable
   triple (a, b, c) = (phi_e^u phi_e'^u, phi_e^v phi_e''^v,
   phi_e'^w phi_e''^w); the Variable Fixing Lemma (Lemma 3.2) — powered
   by the incurvedness of S_rep (Lemma 3.7) and the impossibility of all
   values being "evil" (Lemma 3.9) — guarantees a value y whose scaled
   triple (Inc(u,y)*a, Inc(v,y)*b, Inc(w,y)*c) is again in S_rep. We pick
   the value minimising the S_rep violation and write a decomposition
   (proof of Lemma 3.5) back into phi.

   Everything is exact: Inc ratios and phi are rationals. The optimal
   split of Lemma 3.5 is irrational, so the write-back is a dyadic split
   near it that satisfies Definition 3.3 exactly (Srep.decompose_rat),
   and P* is checked with no tolerance. Every triple of S_rep has such a
   split; a chosen triple outside it (the float ranking can pick one a
   rounding error past the surface) takes the rounded-down float split
   instead, and such steps are counted ([fallbacks]). The rules live in {!Fixing}; this module keeps
   the phi plumbing of the rank-3 step and the step log. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  violation : float; (* float S_rep violation of the chosen scaled triple *)
  fallback : bool; (* the chosen triple was outside S_rep *)
}

type t = {
  core : Rat.t Fixing.t;
  mutable steps : step list;
  mutable max_violation : float;
  mutable fallbacks : int;
}

let name = "Fix_rank3"

let create instance =
  {
    core = Fixing.create ~name ~max_rank:3 Rat.one instance;
    steps = [];
    max_violation = neg_infinity;
    fallbacks = 0;
  }

let assignment t = Fixing.assignment t.core
let steps t = List.rev t.steps
let max_violation t = t.max_violation
let fallbacks t = t.fallbacks
let phi t e v = t.core.phi.(Fixing.slot t.core.graph e v)

let record t step =
  t.steps <- step :: t.steps;
  if step.violation > t.max_violation then t.max_violation <- step.violation;
  if step.fallback then t.fallbacks <- t.fallbacks + 1

(* Fix a rank-3 variable via the Variable Fixing Lemma: the triple's
   phi products in, the split's six sides back out. *)
let fix_rank3_var t vid u v w =
  let c0 = t.core in
  let g = c0.graph and phi = c0.phi in
  let e = Lll_graph.Graph.find_edge_exn g u v in
  let e' = Lll_graph.Graph.find_edge_exn g u w in
  let e'' = Lll_graph.Graph.find_edge_exn g v w in
  let eu = Fixing.slot g e u and e'u = Fixing.slot g e' u in
  let ev = Fixing.slot g e v and e''v = Fixing.slot g e'' v in
  let e'w = Fixing.slot g e' w and e''w = Fixing.slot g e'' w in
  let a = Rat.mul phi.(eu) phi.(e'u) in
  let b = Rat.mul phi.(ev) phi.(e''v) in
  let c = Rat.mul phi.(e'w) phi.(e''w) in
  let incs_u = Fixing.inc_vector c0 u ~var:vid in
  let incs_v = Fixing.inc_vector c0 v ~var:vid in
  let incs_w = Fixing.inc_vector c0 w ~var:vid in
  let ch = Fixing.choose_rank3 incs_u incs_v incs_w ~a ~b ~c in
  let y = ch.value and d = ch.split in
  Lll_prob.Space.Cond_tracker.fix c0.tracker ~var:vid ~value:y;
  phi.(eu) <- d.a1;
  phi.(e'u) <- d.a2;
  phi.(ev) <- d.b1;
  phi.(e''v) <- d.b3;
  phi.(e'w) <- d.c2;
  phi.(e''w) <- d.c3;
  { var = vid; value = y; incs = [ (u, incs_u.(y)); (v, incs_v.(y)); (w, incs_w.(y)) ];
    violation = ch.violation; fallback = not ch.exact }

(* All the work of a fixing step without touching the shared step log:
   the unit [fix_class] fans out across domains. *)
let fix_var_quiet t vid =
  Fixing.check_unfixed ~name t.core vid;
  match Instance.events_of_var t.core.instance vid with
  | [||] ->
    Fixing.fix_free t.core vid;
    { var = vid; value = 0; incs = []; violation = neg_infinity; fallback = false }
  | [| u |] ->
    let c = Fixing.fix_rank1 t.core vid u in
    { var = vid; value = c.value; incs = c.incs; violation = Rat.to_float c.score -. 1.0;
      fallback = false }
  | [| u; v |] ->
    let c = Fixing.fix_rank2_exact t.core vid u v in
    { var = vid; value = c.value; incs = c.incs;
      violation = Rat.to_float (Rat.sub c.score c.budget); fallback = false }
  | [| u; v; w |] -> fix_rank3_var t vid u v w
  | _ -> assert false

let fix_var t vid = record t (fix_var_quiet t vid)

let fix_class ?domains t duties =
  Fixing.fix_class ?domains ~fix:(fix_var_quiet t) ~record:(record t) duties

(* Property P* (Definition 3.1), exactly: phi sides non-negative with
   edge sums at most 2 (so each side is at most 2). *)
let pstar_holds t =
  Fixing.pstar_exact t.core ~edge_ok:(fun p0 p1 ->
      Rat.sign p0 >= 0 && Rat.sign p1 >= 0 && Rat.leq (Rat.add p0 p1) Rat.two)

let solve ?order ?metrics instance =
  let t = create instance in
  Fixing.run t.core ~phase:"fix-rank3" ~fix:(fix_var t) ?order ?metrics ();
  (assignment t, t)
