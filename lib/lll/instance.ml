(* LLL instances.

   An instance couples a product probability space with a family of bad
   events and exposes the combinatorial views the paper works with:

   - the dependency graph [G]: one node per event, an edge between two
     events iff they share a variable;
   - per variable, the events depending on it (the hyperedges of the
     paper's [H]); the largest such family is the rank [r]. *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Space = Lll_prob.Space
module Event = Lll_prob.Event
module Var = Lll_prob.Var
module Assignment = Lll_prob.Assignment

type t = {
  space : Space.t;
  events : Event.t array; (* event id = index *)
  var_events : int array array; (* variable id -> sorted event ids depending on it *)
  dep_graph : Graph.t;
}

(* Check event ids and scopes; variable id -> sorted event ids, by a
   counting pass: count each variable's events, then fill in increasing
   event id, which leaves every list sorted and duplicate-free (scopes
   are sorted and distinct). *)
let var_events_of ~fn space events =
  Array.iteri
    (fun i e -> if Event.id e <> i then invalid_arg (fn ^ ": event id must equal its index"))
    events;
  let nv = Space.num_vars space in
  let count = Array.make nv 0 in
  for i = 0 to Array.length events - 1 do
    let scope = Event.scope events.(i) in
    for p = 0 to Array.length scope - 1 do
      let vid = scope.(p) in
      if vid < 0 || vid >= nv then invalid_arg (fn ^ ": event scope outside space");
      count.(vid) <- count.(vid) + 1
    done
  done;
  let var_events = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 nv 0;
  for i = 0 to Array.length events - 1 do
    let scope = Event.scope events.(i) in
    for p = 0 to Array.length scope - 1 do
      let vid = scope.(p) in
      var_events.(vid).(count.(vid)) <- i;
      count.(vid) <- count.(vid) + 1
    done
  done;
  var_events

(* Is [vid] the smallest variable in both sorted scopes? Both contain
   [vid], so the merge stops at it or before. *)
let first_shared a b vid =
  let rec go i j =
    let x = a.(i) and y = b.(j) in
    if x = y then x = vid else if x < y then go (i + 1) j else go i (j + 1)
  in
  go 0 0

(* Dependency edges: every pair of events sharing a variable, emitted
   once, at the smallest variable they share. The walk runs over
   variables, then pairs, in descending order, so edge ids number the
   pairs by descending first discovery in the ascending walk. *)
let dep_graph_of events var_events =
  let pairs =
    Array.fold_left (fun acc evs -> acc + (Array.length evs * (Array.length evs - 1) / 2)) 0 var_events
  in
  let ends = Array.make (2 * pairs) 0 in
  let len = ref 0 in
  for vid = Array.length var_events - 1 downto 0 do
    let evs = var_events.(vid) in
    for i = Array.length evs - 1 downto 0 do
      for j = Array.length evs - 1 downto i + 1 do
        let a = evs.(i) and b = evs.(j) in
        if first_shared (Event.scope events.(a)) (Event.scope events.(b)) vid then begin
          ends.(!len) <- a;
          ends.(!len + 1) <- b;
          len := !len + 2
        end
      done
    done
  done;
  Graph.of_ends ~n:(Array.length events) (Array.sub ends 0 !len)

let create space events =
  let var_events = var_events_of ~fn:"Instance.create" space events in
  let dep_graph = dep_graph_of events var_events in
  Space.compile_events space events;
  { space; events; var_events; dep_graph }

(* Assembly from precomputed parts — the binary loader's fast path.
   [var_events] is rebuilt here (the linear counting pass [create]
   uses); the expensive parts [create] would redo — the O(Σ deg²)
   dependency-pair enumeration and [Space.compile_events]'s full-scope
   enumeration — are exactly what the caller supplies: a ready
   dependency graph and a space whose table store already holds the
   events' rows. The
   dependency graph is structurally validated by [Graph.of_csr] on
   decode and covered by the container checksum; its semantic agreement
   with the scopes is the serializer's contract. *)
let of_precomputed space events ~dep_graph =
  let var_events = var_events_of ~fn:"Instance.of_precomputed" space events in
  if Graph.n dep_graph <> Array.length events then
    invalid_arg "Instance.of_precomputed: dependency graph node count mismatch";
  { space; events; var_events; dep_graph }

let enumerating t = { t with space = Space.enumerating t.space }
let space t = t.space
let events t = t.events
let event t i = t.events.(i)
let num_events t = Array.length t.events
let num_vars t = Space.num_vars t.space
let dep_graph t = t.dep_graph
let events_of_var t vid = t.var_events.(vid)

let rank t =
  Array.fold_left (fun acc evs -> max acc (Array.length evs)) 0 t.var_events

let dependency_degree t = Graph.max_degree t.dep_graph

(* Largest initial (unconditioned) bad-event probability — the paper's
   [p]. Exact. *)
let max_prob t =
  let fixed = Assignment.empty (num_vars t) in
  Array.fold_left (fun acc e -> Rat.max acc (Space.prob t.space e ~fixed)) Rat.zero t.events

let initial_probs t =
  let fixed = Assignment.empty (num_vars t) in
  Array.map (fun e -> Space.prob t.space e ~fixed) t.events

(* Graphviz rendering of the dependency graph, nodes labelled by event
   names. *)
let to_dot t =
  let b = Buffer.create 256 in
  Buffer.add_string b "graph dependency {\n";
  Array.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %d [label=\"%s\"];\n" (Event.id e) (Event.name e)))
    t.events;
  Graph.iter_edges (fun _ u v -> Buffer.add_string b (Printf.sprintf "  %d -- %d;\n" u v)) t.dep_graph;
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "lll(vars=%d, events=%d, d=%d, r=%d)" (num_vars t) (num_events t)
    (dependency_degree t) (rank t)
