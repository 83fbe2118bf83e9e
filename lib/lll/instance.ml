(* LLL instances.

   An instance couples a product probability space with a family of bad
   events and exposes the two combinatorial views the paper works with:

   - the dependency graph [G]: one node per event, an edge between two
     events iff they share a variable;
   - the hypergraph [H]: one hyperedge per variable, connecting exactly
     the events depending on it. The rank of [H] is the parameter [r]
     (how many events a variable can affect). *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Hypergraph = Lll_graph.Hypergraph
module Space = Lll_prob.Space
module Event = Lll_prob.Event
module Var = Lll_prob.Var
module Assignment = Lll_prob.Assignment

type t = {
  space : Space.t;
  events : Event.t array; (* event id = index *)
  var_events : int array array; (* variable id -> sorted event ids depending on it *)
  dep_graph : Graph.t;
  hypergraph : Hypergraph.t; (* hyperedges only for variables affecting >= 1 event *)
  hyperedge_of_var : int option array; (* variable id -> hyperedge id *)
}

let create space events =
  Array.iteri
    (fun i e -> if Event.id e <> i then invalid_arg "Instance.create: event id must equal its index")
    events;
  let nv = Space.num_vars space in
  let ne = Array.length events in
  (* Scopes are sorted and distinct, and event ids equal their index, so
     iterating events in decreasing id order and prepending yields each
     variable's event list already sorted and duplicate-free. *)
  let var_events_l = Array.make nv [] in
  for i = ne - 1 downto 0 do
    Array.iter
      (fun vid ->
        if vid < 0 || vid >= nv then invalid_arg "Instance.create: event scope outside space";
        var_events_l.(vid) <- i :: var_events_l.(vid))
      (Event.scope events.(i))
  done;
  let var_events = Array.map Array.of_list var_events_l in
  (* dependency edges: all pairs of events sharing a variable. A pair
     sharing several variables is emitted once, not once per shared
     variable. *)
  let seen_edges = Hashtbl.create 64 in
  let dep_edges = ref [] in
  Array.iter
    (fun evs ->
      let k = Array.length evs in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          let key = (evs.(i) * ne) + evs.(j) in
          if not (Hashtbl.mem seen_edges key) then begin
            Hashtbl.add seen_edges key ();
            dep_edges := (evs.(i), evs.(j)) :: !dep_edges
          end
        done
      done)
    var_events;
  let dep_graph = Graph.create ~n:ne !dep_edges in
  Space.compile_events space events;
  (* hypergraph over the events, one hyperedge per variable with a
     non-empty family of dependent events *)
  let hyperedge_of_var = Array.make nv None in
  let hedges = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun vid evs ->
      if Array.length evs > 0 then begin
        hyperedge_of_var.(vid) <- Some !next;
        incr next;
        hedges := Array.to_list evs :: !hedges
      end)
    var_events;
  let hypergraph = Hypergraph.create ~n:ne (List.rev !hedges) in
  { space; events; var_events; dep_graph; hypergraph; hyperedge_of_var }

(* Assembly from precomputed parts — the binary loader's fast path.
   [var_events] and the hypergraph are rebuilt here (both are linear
   prepend loops, deterministic and identical to [create]'s); the
   expensive parts [create] would redo — the O(Σ deg²) dependency-pair
   enumeration with its dedup table, and [Space.compile_events]'s
   full-scope enumeration — are exactly what the caller supplies: a
   ready dependency graph and a space whose tables are already
   installed. The dependency graph is structurally validated by
   [Graph.of_csr] on decode and covered by the container checksum; its
   semantic agreement with the scopes is the serializer's contract. *)
let of_precomputed space events ~dep_graph =
  Array.iteri
    (fun i e ->
      if Event.id e <> i then
        invalid_arg "Instance.of_precomputed: event id must equal its index")
    events;
  let nv = Space.num_vars space in
  let ne = Array.length events in
  if Graph.n dep_graph <> ne then
    invalid_arg "Instance.of_precomputed: dependency graph node count mismatch";
  let var_events_l = Array.make nv [] in
  for i = ne - 1 downto 0 do
    Array.iter
      (fun vid ->
        if vid < 0 || vid >= nv then
          invalid_arg "Instance.of_precomputed: event scope outside space";
        var_events_l.(vid) <- i :: var_events_l.(vid))
      (Event.scope events.(i))
  done;
  let var_events = Array.map Array.of_list var_events_l in
  let hyperedge_of_var = Array.make nv None in
  let hedges = ref [] in
  let next = ref 0 in
  Array.iteri
    (fun vid evs ->
      if Array.length evs > 0 then begin
        hyperedge_of_var.(vid) <- Some !next;
        incr next;
        hedges := evs :: !hedges
      end)
    var_events;
  (* the per-var event lists are strictly ascending by construction, so
     the hypergraph can skip its sort/dedup normalisation *)
  let hypergraph = Hypergraph.of_sorted_arrays ~n:ne (Array.of_list (List.rev !hedges)) in
  { space; events; var_events; dep_graph; hypergraph; hyperedge_of_var }

let enumerating t = { t with space = Space.enumerating t.space }
let space t = t.space
let events t = t.events
let event t i = t.events.(i)
let num_events t = Array.length t.events
let num_vars t = Space.num_vars t.space
let dep_graph t = t.dep_graph
let hypergraph t = t.hypergraph
let events_of_var t vid = t.var_events.(vid)
let hyperedge_of_var t vid = t.hyperedge_of_var.(vid)

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
