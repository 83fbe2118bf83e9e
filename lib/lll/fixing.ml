(* The fixing process shared by the sequential fixers (see fixing.mli).

   Theorem 1.1, Theorem 1.3 and the rank-r generalisation all run one
   loop: fix a variable, pick a value whose scaled Inc ratios stay
   within the potential's budget, write the potential phi back. This
   module holds everything but the representability test: the state
   (tracker + phi on edge-endpoints), the Inc vectors, the rank-0/1 and
   rank-2 rules, the color-class fan-out, the run loop and the P* loop.

   phi is one flat array of 2m slots, [2e] for the smaller endpoint of
   edge [e] and [2e + 1] for the larger. Every rule indexes it directly
   with a [slot] computed once per step; the float rules are written
   against [float t], so phi is read and written as an unboxed float
   array, never through a polymorphic accessor or a closure. *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Space = Lll_prob.Space
module Event = Lll_prob.Event
module Assignment = Lll_prob.Assignment
module Metrics = Lll_local.Metrics
module Par = Lll_local.Par

type 'phi t = {
  instance : Instance.t;
  graph : Graph.t;
  tracker : Space.Cond_tracker.tracker;
  phi : 'phi array;
  initial_probs : Rat.t array;
}

let create ~name ?max_rank phi0 instance =
  (match max_rank with
  | Some r when Instance.rank instance > r ->
    invalid_arg (Printf.sprintf "%s.create: instance has rank > %d" name r)
  | _ -> ());
  let graph = Instance.dep_graph instance in
  {
    instance;
    graph;
    tracker = Space.Cond_tracker.create (Instance.space instance) (Instance.events instance);
    phi = Array.make (2 * Graph.m graph) phi0;
    initial_probs = Instance.initial_probs instance;
  }

let assignment t = Space.Cond_tracker.assignment t.tracker

let check_unfixed ~name t vid =
  if Assignment.is_fixed (assignment t) vid then invalid_arg (name ^ ".fix_var: already fixed")

let slot g e v =
  let u, _ = Graph.endpoints g e in
  if v = u then 2 * e else (2 * e) + 1

(* ---- Inc vectors ---- *)

let inc_ratios (after, before) =
  Array.map (fun a -> if Rat.is_zero before then Rat.zero else Rat.div a before) after

let inc_vector t ev ~var = inc_ratios (Space.Cond_tracker.prob_vector t.tracker ev ~var)

(* ---- choice rules over Inc vectors ---- *)

(* Every loop below keeps the first value reaching the minimum. *)

let min_inc incs =
  let best = ref 0 in
  for y = 1 to Array.length incs - 1 do
    if not (Rat.leq incs.(!best) incs.(y)) then best := y
  done;
  !best

let choose_rank2_float incs_u incs_v ~s ~w =
  let best = ref 0
  and best_score = ref ((Rat.to_float incs_u.(0) *. s) +. (Rat.to_float incs_v.(0) *. w)) in
  for y = 1 to Array.length incs_u - 1 do
    let sc = (Rat.to_float incs_u.(y) *. s) +. (Rat.to_float incs_v.(y) *. w) in
    if not (!best_score <= sc) then begin
      best := y;
      best_score := sc
    end
  done;
  !best

let choose_rank3_float incs_u incs_v incs_w ~a ~b ~c =
  let triple y =
    (Rat.to_float incs_u.(y) *. a, Rat.to_float incs_v.(y) *. b, Rat.to_float incs_w.(y) *. c)
  in
  let best = ref 0 and best_triple = ref (triple 0) in
  let best_viol = ref (Srep.violation !best_triple) in
  for y = 1 to Array.length incs_u - 1 do
    let tr = triple y in
    let viol = Srep.violation tr in
    if not (!best_viol <= viol) then begin
      best := y;
      best_triple := tr;
      best_viol := viol
    end
  done;
  (* Lemma 3.2: some value is not evil, i.e. the minimum violation is
     non-positive (up to float rounding, which [Srep.decompose] clamps). *)
  (!best, !best_viol, Srep.decompose !best_triple)

(* ---- the rank <= 2 steps on the tracker state ---- *)

type 'a choice = { value : int; incs : (int * Rat.t) list; score : 'a; budget : 'a }

let fix_free t vid = Space.Cond_tracker.fix t.tracker ~var:vid ~value:0

(* rank 1: some value has Inc <= 1 *)
let fix_rank1 t vid u =
  let incs = inc_vector t u ~var:vid in
  let y = min_inc incs in
  Space.Cond_tracker.fix t.tracker ~var:vid ~value:y;
  { value = y; incs = [ (u, incs.(y)) ]; score = incs.(y); budget = Rat.one }

(* rank 2, the weighted statement of Section 3.1: by linearity of
   expectation some value has
   [Inc_u * phi_e^u + Inc_v * phi_e^v <= phi_e^u + phi_e^v <= 2]. *)
let fix_rank2_exact (t : Rat.t t) vid u v =
  let e = Graph.find_edge_exn t.graph u v in
  let su = slot t.graph e u and sv = slot t.graph e v in
  let s = t.phi.(su) and w = t.phi.(sv) in
  let incs_u = inc_vector t u ~var:vid in
  let incs_v = inc_vector t v ~var:vid in
  let score y = Rat.add (Rat.mul incs_u.(y) s) (Rat.mul incs_v.(y) w) in
  let best = ref 0 and best_score = ref (score 0) in
  for y = 1 to Array.length incs_u - 1 do
    let sc = score y in
    if not (Rat.leq !best_score sc) then begin
      best := y;
      best_score := sc
    end
  done;
  let y = !best and score = !best_score in
  let iu = incs_u.(y) and iv = incs_v.(y) in
  let budget = Rat.add s w in
  (* the minimum is within budget: a mathematical invariant, not an
     input check *)
  assert (Rat.leq score budget);
  Space.Cond_tracker.fix t.tracker ~var:vid ~value:y;
  t.phi.(su) <- Rat.mul iu s;
  t.phi.(sv) <- Rat.mul iv w;
  { value = y; incs = [ (u, iu); (v, iv) ]; score; budget }

let fix_rank2_float (t : float t) vid u v =
  let e = Graph.find_edge_exn t.graph u v in
  let su = slot t.graph e u and sv = slot t.graph e v in
  let s = t.phi.(su) and w = t.phi.(sv) in
  let incs_u = inc_vector t u ~var:vid in
  let incs_v = inc_vector t v ~var:vid in
  let y = choose_rank2_float incs_u incs_v ~s ~w in
  let iu = incs_u.(y) and iv = incs_v.(y) in
  let pu = Rat.to_float iu *. s and pv = Rat.to_float iv *. w in
  Space.Cond_tracker.fix t.tracker ~var:vid ~value:y;
  t.phi.(su) <- pu;
  t.phi.(sv) <- pv;
  { value = y; incs = [ (u, iu); (v, iv) ]; score = pu +. pv; budget = s +. w }

(* ---- drivers ---- *)

(* One color class's duty lists, members fanned out across [domains].
   Safe only when the members form one color class of the relevant
   conflict graph: their events, phi slots and scope variables are then
   pairwise disjoint (DESIGN.md §11). Member [i]'s steps land in a
   private buffer, and the buffers are folded into the log in member
   order, so the log matches the sequential loop for any domain count. *)
let fix_class ?domains ~fix ~record (duties : int list array) =
  let k = Array.length duties in
  if k > 0 then begin
    let buf = Array.make k [] in
    Par.parallel_for ?domains ~n:k (fun i -> buf.(i) <- List.map fix duties.(i));
    Array.iter (List.iter record) buf
  end

(* Fix every variable in [order]; into an enabled sink, one per-step
   record in the LOCAL runtime's per-round shape. *)
let run t ~phase ~fix ?order ?(metrics = Metrics.disabled) () =
  let m = Instance.num_vars t.instance in
  let order = match order with Some o -> o | None -> Array.init m Fun.id in
  if Metrics.enabled metrics then begin
    Metrics.set_phase metrics phase;
    Array.iteri
      (fun i vid ->
        let t0 = Metrics.now_ns () in
        fix vid;
        Metrics.record_step metrics ~round:i ~total:m ~wall_ns:(Metrics.now_ns () - t0)
          ~state:(assignment t))
      order
  end
  else Array.iter fix order

(* Property P* (Definition 3.1): every edge passes [edge_ok] on its two
   sides, and every event's exact conditional probability is bounded by
   its initial probability times its incident phi values. *)
let pstar_holds t ~edge_ok ~lift ~mul ~leq =
  let m = Graph.m t.graph in
  let rec edges e = e >= m || (edge_ok t.phi.(2 * e) t.phi.((2 * e) + 1) && edges (e + 1)) in
  edges 0
  && Array.for_all
       (fun ev ->
         let v = Event.id ev in
         let bound =
           List.fold_left
             (fun acc eid -> mul acc t.phi.(slot t.graph eid v))
             (lift t.initial_probs.(v))
             (Graph.incident_edges t.graph v)
         in
         leq (Space.prob (Instance.space t.instance) ev ~fixed:(assignment t)) bound)
       (Instance.events t.instance)

let pstar_exact t ~edge_ok = pstar_holds t ~edge_ok ~lift:Fun.id ~mul:Rat.mul ~leq:Rat.leq

let pstar_float ~eps t ~edge_ok =
  pstar_holds t ~edge_ok ~lift:Rat.to_float ~mul:( *. ) ~leq:(fun p bound ->
      Rat.to_float p <= bound +. eps)
