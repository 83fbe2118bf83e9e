(* An ACTIVE adversary against the fixers' order-obliviousness.

   Theorems 1.1 and 1.3 promise success for every variable order, "even
   [an] adaptive adversary". Random orders (T1/T2) only sample the
   benign bulk; this module searches for genuinely bad orders by hill
   climbing on the fixer's own certificate — the final certified bound
   [Pr[E_v] * prod phi_e^v] of the most-loaded event. The bound can
   approach but, below the threshold, provably never reach 1; the
   experiment confirms that even adversarially optimised orders leave it
   strictly below 1 and the fixer successful. *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Assignment = Lll_prob.Assignment

let max_event_bound instance t =
  let g = Instance.dep_graph instance in
  let probs = Instance.initial_probs instance in
  let worst = ref Rat.zero in
  Array.iter
    (fun e ->
      let v = Lll_prob.Event.id e in
      let bound =
        List.fold_left
          (fun acc eid -> Rat.mul acc (Fix_rank2.phi t eid v))
          probs.(v)
          (Graph.incident_edges g v)
      in
      if Rat.gt bound !worst then worst := bound)
    (Instance.events instance);
  !worst

(* The certificate bound of the most-loaded event after a rank-2 run:
   max_v  Pr[E_v] * prod_{e ∋ v} phi_e^v  (exact). *)
let final_bound_rank2 instance order =
  let _, t = Fix_rank2.solve ~order instance in
  max_event_bound instance t

(* The PEAK of the certificate over the whole run — the closest approach
   to the forbidden value 1; strictly below 1 for every order whenever
   p < 2^-d (the content of Theorem 1.1). *)
let peak_bound_rank2 instance order =
  let t = Fix_rank2.create instance in
  let peak = ref (max_event_bound instance t) in
  Array.iter
    (fun vid ->
      Fix_rank2.fix_var t vid;
      let b = max_event_bound instance t in
      if Rat.gt b !peak then peak := b)
    order;
  !peak

type attack = {
  order : int array;
  bound : Rat.t; (* the largest PEAK certificate the search reached *)
  succeeded : bool; (* did the fixer still avoid all events under it? *)
}

(* Hill climbing over orders: random transpositions, keep strict
   improvements of the certificate bound. *)
let worst_order_rank2 ?(seed = 0) ?(steps = 200) instance =
  let m = Instance.num_vars instance in
  let rng = Random.State.make [| seed; 0xadce |] in
  let order = Array.init m (fun i -> i) in
  Lll_graph.Generators.shuffle rng order;
  let best = ref (peak_bound_rank2 instance order) in
  for _ = 1 to steps do
    if m >= 2 then begin
      let i = Random.State.int rng m and j = Random.State.int rng m in
      if i <> j then begin
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp;
        let b = peak_bound_rank2 instance order in
        if Rat.gt b !best then best := b
        else begin
          (* revert *)
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp
        end
      end
    end
  done;
  let a, _ = Fix_rank2.solve ~order instance in
  { order = Array.copy order; bound = !best; succeeded = Verify.avoids_all instance a }
