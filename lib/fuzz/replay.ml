(* Independent replay of a fixing-process trace against property P*
   (Definition 3.1).

   The solver trace tells us only which variable was fixed to which
   value; everything else — the exact Inc ratios, the phi potential, the
   representable triples and their splits — is re-derived here from the
   instance, using the same update discipline as the paper's fixers
   (Fix_rank2 / Fix_rank3). Nothing the engine reports is trusted: if an
   engine's internal phi bookkeeping is wrong, its value choices stop
   being justifiable under the *honest* potential and the replay flags
   the first offending step.

   The checks per step, in order:
   - the step fixes a live in-range variable to an in-range value;
   - rank 1: the chosen value's Inc ratio is at most 1;
   - rank 2: the phi-weighted Inc score is within the edge budget
     [phi_e^u + phi_e^v] (Section 3.1, weighted form);
   - rank 3: the scaled triple lies in S_rep (Lemma 3.2, [Srep.mem_rat])
     and its exact split ([Srep.decompose_rat], the fixer's write-back)
     is a valid Definition 3.3 witness;
   - after the fix, every affected event's exact conditional probability
     is bounded by its initial probability times its phi product — the
     P* event bound itself.

   Everything is exact: Inc ratios, conditional probabilities and phi
   are rationals, and no comparison has a tolerance. *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Space = Lll_prob.Space
module Var = Lll_prob.Var
module Assignment = Lll_prob.Assignment
module Instance = Lll_core.Instance
module Srep = Lll_core.Srep

type failure = { step_index : int; var : int; reason : string }

let pp_failure ppf f =
  Format.fprintf ppf "step %d (var %d): %s" f.step_index f.var f.reason

(* ------------------------------------------------------------------ *)
(* Shared replay state: exact conditionals + honest exact phi          *)
(* ------------------------------------------------------------------ *)

type state = {
  inst : Instance.t;
  tracker : Space.Cond_tracker.tracker;
  g : Graph.t;
  phi : Rat.t array array; (* edge id -> [| side of min endpoint; side of max |] *)
  initial : Rat.t array;
}

let make_state inst =
  let g = Instance.dep_graph inst in
  {
    inst;
    tracker = Space.Cond_tracker.create (Instance.space inst) (Instance.events inst);
    g;
    phi = Array.init (Graph.m g) (fun _ -> [| Rat.one; Rat.one |]);
    initial = Instance.initial_probs inst;
  }

let side g e v =
  let u, _ = Graph.endpoints g e in
  if v = u then 0 else 1

let phi st e v = st.phi.(e).(side st.g e v)
let set_phi st e v x = st.phi.(e).(side st.g e v) <- x

let inc_vector st ev ~var =
  let after, before = Space.Cond_tracker.prob_vector st.tracker ev ~var in
  Array.map (fun a -> if Rat.is_zero before then Rat.zero else Rat.div a before) after

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

(* P* event bound for the events affected by the step just taken. *)
let event_bound_failure st ~step_index ~var evs =
  let rec scan k =
    if k >= Array.length evs then None
    else begin
      let ev = evs.(k) in
      let bound =
        List.fold_left
          (fun acc eid -> Rat.mul acc (phi st eid ev))
          st.initial.(ev) (Graph.incident_edges st.g ev)
      in
      let p = Space.Cond_tracker.prob st.tracker ev in
      if Rat.gt p bound then
        Some
          {
            step_index;
            var;
            reason =
              Printf.sprintf "event %d: conditional probability %.9g exceeds P* bound %.9g" ev
                (Rat.to_float p) (Rat.to_float bound);
          }
      else scan (k + 1)
    end
  in
  scan 0

(* The clique edges and phi products of a rank-3 variable's events. *)
let rank3_triple st u v w =
  let e = Graph.find_edge_exn st.g u v in
  let e' = Graph.find_edge_exn st.g u w in
  let e'' = Graph.find_edge_exn st.g v w in
  ( (e, e', e''),
    ( Rat.mul (phi st e u) (phi st e' u),
      Rat.mul (phi st e v) (phi st e'' v),
      Rat.mul (phi st e' w) (phi st e'' w) ) )

(* Write a split back onto the clique edges, each side scaled by [gain]. *)
let set_split st ?(gain = Rat.one) (e, e', e'') (u, v, w) (d : Rat.t Srep.split) =
  set_phi st e u (Rat.mul gain d.a1);
  set_phi st e' u (Rat.mul gain d.a2);
  set_phi st e v (Rat.mul gain d.b1);
  set_phi st e'' v (Rat.mul gain d.b3);
  set_phi st e' w (Rat.mul gain d.c2);
  set_phi st e'' w (Rat.mul gain d.c3)

let scale (a, b, c) (iu, iv, iw) = (Rat.mul iu a, Rat.mul iv b, Rat.mul iw c)

let check_trace inst steps =
  let st = make_state inst in
  let nvars = Instance.num_vars inst in
  let fail step_index var reason = Some { step_index; var; reason } in
  let rec go i = function
    | [] -> None
    | (vid, y) :: rest ->
      if vid < 0 || vid >= nvars then fail i vid "variable id out of range"
      else if Assignment.is_fixed (Space.Cond_tracker.assignment st.tracker) vid then
        fail i vid "variable fixed twice"
      else begin
        let arity = Var.arity (Space.var (Instance.space inst) vid) in
        if y < 0 || y >= arity then fail i vid "value out of range"
        else begin
          let evs = Instance.events_of_var inst vid in
          let step_failure =
            match Array.to_list evs with
            | [] -> None
            | [ u ] ->
              (* rank 1: the event bound is unchanged, so the chosen
                 Inc must not scale the probability up *)
              let inc = (inc_vector st u ~var:vid).(y) in
              if Rat.gt inc Rat.one then
                fail i vid
                  (Printf.sprintf "rank-1 step scales event %d by Inc %.9g > 1" u (Rat.to_float inc))
              else None
            | [ u; v ] ->
              let e = Graph.find_edge_exn st.g u v in
              let s = phi st e u and w = phi st e v in
              let pu = Rat.mul (inc_vector st u ~var:vid).(y) s in
              let pv = Rat.mul (inc_vector st v ~var:vid).(y) w in
              let score = Rat.add pu pv and budget = Rat.add s w in
              if Rat.gt score budget then
                fail i vid
                  (Printf.sprintf "rank-2 budget broken: score %.9g > phi budget %.9g"
                     (Rat.to_float score) (Rat.to_float budget))
              else begin
                set_phi st e u pu;
                set_phi st e v pv;
                None
              end
            | [ u; v; w ] -> (
              let edges, triple = rank3_triple st u v w in
              let incs ev = (inc_vector st ev ~var:vid).(y) in
              let scaled = scale triple (incs u, incs v, incs w) in
              if not (Srep.mem_rat scaled) then fail i vid "scaled triple left S_rep"
              else
                match Srep.decompose_rat scaled with
                | None -> fail i vid "scaled triple has no exact split"
                | Some d when not (Srep.is_valid_split scaled d) ->
                  fail i vid "split of the scaled triple is not a valid witness"
                | Some d ->
                  set_split st edges (u, v, w) d;
                  None)
            | _ -> fail i vid "rank > 3: the replay checker does not model this engine"
          in
          match step_failure with
          | Some _ as f -> f
          | None -> (
            Space.Cond_tracker.fix st.tracker ~var:vid ~value:y;
            match event_bound_failure st ~step_index:i ~var:vid evs with
            | Some _ as f -> f
            | None -> go (i + 1) rest)
        end
      end
  in
  go 0 steps

(* ------------------------------------------------------------------ *)
(* Fault injection: a fixer clone with a perturbed phi update          *)
(* ------------------------------------------------------------------ *)

type mutation = { phi_gain : Rat.t; choose_worst : bool }

let honest = { phi_gain = Rat.one; choose_worst = false }

(* A forward fixing run sharing the replay's honest machinery except for
   the injected faults: [phi_gain] scales every phi write-back (the
   S_rep violation is not scale-invariant, so inflated potentials skew
   future value rankings until a pick stops being justifiable under the
   honest potential), and [choose_worst] flips the value selection from
   minimising to maximising the score. With [honest] this is precisely
   the Fix_rank3 discipline: exact rank-1 and rank-2 scores, float S_rep
   violations at rank 3, the exact split written back (rounded down
   where none exists). *)
let run_mutant mutation inst =
  if Instance.rank inst > 3 then invalid_arg "Replay.run_mutant: instance has rank > 3";
  let st = make_state inst in
  let n = Instance.num_vars inst in
  let steps = ref [] in
  let gain = mutation.phi_gain in
  for vid = 0 to n - 1 do
    let arity = Var.arity (Space.var (Instance.space inst) vid) in
    (* the first value reaching the least (or, mutated, the greatest)
       score under [compare] *)
    let pick compare score_of =
      let best = ref (0, score_of 0) in
      for y = 1 to arity - 1 do
        let s = score_of y in
        let c = compare s (snd !best) in
        if (if mutation.choose_worst then c > 0 else c < 0) then best := (y, s)
      done;
      fst !best
    in
    let y =
      match Array.to_list (Instance.events_of_var inst vid) with
      | [] -> 0
      | [ u ] ->
        let iu = inc_vector st u ~var:vid in
        pick Rat.compare (Array.get iu)
      | [ u; v ] ->
        let e = Graph.find_edge_exn st.g u v in
        let s = phi st e u and w = phi st e v in
        let iu = inc_vector st u ~var:vid in
        let iv = inc_vector st v ~var:vid in
        let y = pick Rat.compare (fun y -> Rat.add (Rat.mul iu.(y) s) (Rat.mul iv.(y) w)) in
        set_phi st e u (Rat.mul gain (Rat.mul iu.(y) s));
        set_phi st e v (Rat.mul gain (Rat.mul iv.(y) w));
        y
      | [ u; v; w ] ->
        let edges, ((a, b, c) as triple) = rank3_triple st u v w in
        let iu = inc_vector st u ~var:vid in
        let iv = inc_vector st v ~var:vid in
        let iw = inc_vector st w ~var:vid in
        let af = Rat.to_float a and bf = Rat.to_float b and cf = Rat.to_float c in
        let violation y =
          Srep.violation
            (Rat.to_float iu.(y) *. af, Rat.to_float iv.(y) *. bf, Rat.to_float iw.(y) *. cf)
        in
        let y = pick Float.compare violation in
        let scaled = scale triple (iu.(y), iv.(y), iw.(y)) in
        let d =
          match Srep.decompose_rat scaled with Some d -> d | None -> Srep.decompose_down scaled
        in
        set_split st ~gain edges (u, v, w) d;
        y
      | _ -> assert false
    in
    Space.Cond_tracker.fix st.tracker ~var:vid ~value:y;
    steps := (vid, y) :: !steps
  done;
  (Space.Cond_tracker.assignment st.tracker, List.rev !steps)
