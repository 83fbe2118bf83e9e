(* EXPERIMENTAL rank-r fixing — a computational exploration of
   Conjecture 1.5.

   The paper proves the threshold criterion [p < 2^-d] suffices for
   deterministic fixing when variables affect at most 2 (Theorem 1.1) or
   3 (Theorem 1.3) events, and conjectures the same for every rank r.
   This module runs the natural generalisation of the rank-3 process:

   - the potential phi lives on dependency-graph edge-endpoints exactly
     as in Definition 3.1;
   - to fix a rank-k variable (k >= 3) on events C = {v_1, ..., v_k}
     (pairwise adjacent), we form, for each candidate value y, the
     target tuple  t_i = Inc(v_i, y) * prod_{e in K_C, e ∋ v_i} phi_e^{v_i}
     and ask the numeric clique solver ({!Srep_r}) whether it is
     representable; the first feasible value is chosen (falling back to
     the largest-slack value) and the solver's witness potential is
     written back into phi.

   For k <= 2 the exact weighted rank-2 argument applies and a good
   value provably exists. For k = 3, Lemma 3.2 guarantees feasibility
   (up to solver tolerance); for k >= 4 there is NO proven guarantee —
   the experiment harness (T10) measures how often feasibility holds in
   practice, as evidence for/against Conjecture 1.5. Regardless of the
   bookkeeping, produced assignments are only ever accepted after exact
   verification. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  slack : float; (* achieved min slack; >= 0 means the step kept P* *)
}

type t = {
  core : float Fixing.t;
  mutable steps : step list;
  mutable min_slack : float; (* worst slack over all clique steps *)
  mutable infeasible_steps : int;
}

let name = "Fix_rankr"

let create instance =
  { core = Fixing.create ~name 1.0 instance; steps = []; min_slack = infinity; infeasible_steps = 0 }

let assignment t = Fixing.assignment t.core
let steps t = List.rev t.steps
let min_slack t = t.min_slack
let infeasible_steps t = t.infeasible_steps

let record t step =
  t.steps <- step :: t.steps;
  if step.slack < t.min_slack then t.min_slack <- step.slack;
  if step.slack < -1e-7 then t.infeasible_steps <- t.infeasible_steps + 1

(* rank >= 3: clique targets + numeric representability *)
let fix_clique t vid c =
  let c0 = t.core in
  let g = c0.graph in
  let k = Array.length c in
  let phi = c0.phi in
  let clique = Srep_r.clique_edges k in
  (* the two phi slots of each clique edge *)
  let slots =
    Array.map
      (fun (i, j) ->
        let e = Lll_graph.Graph.find_edge_exn g c.(i) c.(j) in
        (Fixing.slot g e c.(i), Fixing.slot g e c.(j)))
      clique
  in
  (* current clique-product of phi at each event *)
  let base = Array.make k 1.0 in
  Array.iteri
    (fun idx (i, j) ->
      let si, sj = slots.(idx) in
      base.(i) <- base.(i) *. phi.(si);
      base.(j) <- base.(j) *. phi.(sj))
    clique;
  let vectors = Array.map (fun v -> Fixing.inc_vector c0 v ~var:vid) c in
  let arity = Array.length vectors.(0) in
  let targets_of y = Array.mapi (fun i incs -> Rat.to_float incs.(y) *. base.(i)) vectors in
  (* first feasible value, else the largest-slack one *)
  let best = ref None in
  (try
     for y = 0 to arity - 1 do
       let sol = Srep_r.solve ~targets:(targets_of y) () in
       (match !best with
       | Some (_, _, slack') when slack' >= sol.Srep_r.min_slack -> ()
       | _ -> best := Some (y, sol, sol.Srep_r.min_slack));
       if sol.Srep_r.min_slack >= 0. then raise Exit
     done
   with Exit -> ());
  let y, sol, slack = Option.get !best in
  Lll_prob.Space.Cond_tracker.fix c0.tracker ~var:vid ~value:y;
  Array.iteri
    (fun idx (_, _, pi, pj) ->
      let si, sj = slots.(idx) in
      phi.(si) <- pi;
      phi.(sj) <- pj)
    sol.Srep_r.psi;
  { var = vid; value = y;
    incs = Array.to_list (Array.mapi (fun i v -> (v, vectors.(i).(y))) c);
    slack }

(* The work of a fixing step without the shared-log append: the unit
   [fix_class] fans out across domains. *)
let fix_var_quiet t vid =
  Fixing.check_unfixed ~name t.core vid;
  match Instance.events_of_var t.core.instance vid with
  | [||] ->
    Fixing.fix_free t.core vid;
    { var = vid; value = 0; incs = []; slack = infinity }
  | [| u |] ->
    let c = Fixing.fix_rank1 t.core vid u in
    { var = vid; value = c.value; incs = c.incs; slack = -.(Rat.to_float c.score -. 1.0) }
  | [| u; v |] ->
    let c = Fixing.fix_rank2_float t.core vid u v in
    { var = vid; value = c.value; incs = c.incs; slack = c.budget -. c.score }
  | evs -> fix_clique t vid evs

let fix_var t vid = record t (fix_var_quiet t vid)

let fix_class ?domains t duties =
  Fixing.fix_class ?domains ~fix:(fix_var_quiet t) ~record:(record t) duties

(* Unlike Fix_rank3's, the edge test does not cap each side at 2. *)
let pstar_holds ?(eps = Srep.default_eps) t =
  Fixing.pstar_float ~eps t.core ~edge_ok:(fun p0 p1 ->
      p0 >= -.eps && p1 >= -.eps && p0 +. p1 <= 2. +. eps)

let solve ?order ?metrics instance =
  let t = create instance in
  Fixing.run t.core ~phase:"fix-rankr" ~fix:(fix_var t) ?order ?metrics ();
  (assignment t, t)
