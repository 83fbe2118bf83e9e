(* The sequential deterministic fixing process of Theorem 1.1 (and its
   weighted generalisation from Section 3.1), for instances where every
   variable affects at most two events.

   All bookkeeping is exact: probabilities, [Inc] ratios and the potential
   [phi] on edge-endpoints are rationals. The process fixes variables in
   an arbitrary (adversary-chosen) order; for each variable on a
   dependency edge [e = {u, v}] it picks a value [y] minimising

     Inc(u, y) * phi_e^u + Inc(v, y) * phi_e^v ,

   which by linearity of expectation is at most [phi_e^u + phi_e^v <= 2]
   for some value. After all variables are fixed, every bad event has
   conditional probability at most [p * 2^d < 1], hence 0. Both rules
   live in {!Fixing}; this module keeps the step log. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list; (* (event id, Inc) for the chosen value *)
  score : Rat.t; (* weighted inc sum for the chosen value *)
  budget : Rat.t; (* phi_e^u + phi_e^v before the step (the score bound) *)
}

type t = { core : Rat.t Fixing.t; mutable steps : step list }

let name = "Fix_rank2"
let create instance = { core = Fixing.create ~name ~max_rank:2 Rat.one instance; steps = [] }
let assignment t = Fixing.assignment t.core
let steps t = List.rev t.steps
let phi t e v = t.core.phi.(Fixing.slot t.core.graph e v)
let record t step = t.steps <- step :: t.steps

let step_of var ({ value; incs; score; budget } : Rat.t Fixing.choice) =
  { var; value; incs; score; budget }

(* Fix one (currently unfixed) variable without touching the shared
   step log, so [fix_class] can fan members of one color class out
   across domains. *)
let fix_var_quiet t vid =
  Fixing.check_unfixed ~name t.core vid;
  match Instance.events_of_var t.core.instance vid with
  | [||] ->
    Fixing.fix_free t.core vid;
    { var = vid; value = 0; incs = []; score = Rat.zero; budget = Rat.zero }
  | [| u |] -> step_of vid (Fixing.fix_rank1 t.core vid u)
  | [| u; v |] -> step_of vid (Fixing.fix_rank2_exact t.core vid u v)
  | _ -> assert false

let fix_var t vid = record t (fix_var_quiet t vid)

let fix_class ?domains t duties =
  Fixing.fix_class ?domains ~fix:(fix_var_quiet t) ~record:(record t) duties

(* Property P* specialised to rank 2 (exact): every edge's phi values sum
   to at most 2. *)
let pstar_holds t = Fixing.pstar_exact t.core ~edge_ok:(fun a b -> Rat.leq (Rat.add a b) Rat.two)

let solve ?order ?metrics instance =
  let t = create instance in
  Fixing.run t.core ~phase:"fix-rank2" ~fix:(fix_var t) ?order ?metrics ();
  (assignment t, t)
