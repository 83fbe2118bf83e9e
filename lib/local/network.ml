(* A communication network for the LOCAL model: an undirected graph whose
   nodes carry globally unique identifiers. Identifiers are what symmetry-
   breaking algorithms (Linial, Cole–Vishkin) consume; they default to the
   node index but can be an arbitrary injective labelling to model
   adversarial id assignments. *)

module Graph = Lll_graph.Graph
module Generators = Lll_graph.Generators

(* [degrees] and [max_degree] are snapshotted off the graph's CSR at
   creation, so network-level degree queries never touch the graph. *)
type t = { graph : Graph.t; ids : int array; degrees : int array; max_degree : int }

let of_valid_ids graph ids =
  let degrees = Array.init (Graph.n graph) (Graph.degree graph) in
  { graph; ids; degrees; max_degree = Graph.max_degree graph }

(* Identity ids are distinct by construction; only given ids are
   checked. *)
let create ?ids graph =
  let n = Graph.n graph in
  match ids with
  | None -> of_valid_ids graph (Array.init n Fun.id)
  | Some ids ->
    if Array.length ids <> n then invalid_arg "Network.create: ids length mismatch";
    let tbl = Hashtbl.create n in
    Array.iter
      (fun id ->
        if Hashtbl.mem tbl id then invalid_arg "Network.create: duplicate id";
        Hashtbl.add tbl id ())
      ids;
    of_valid_ids graph (Array.copy ids)

let with_graph t graph =
  if Graph.n graph <> Graph.n t.graph then invalid_arg "Network.with_graph: node count mismatch";
  of_valid_ids graph t.ids

let graph t = t.graph
let n t = Graph.n t.graph
let id t v = t.ids.(v)
let ids t = Array.copy t.ids
let neighbors t v = Graph.neighbors t.graph v
let degree t v = t.degrees.(v)
let max_degree t = t.max_degree

(* Network with ids permuted by a seeded shuffle — an "adversarial"
   relabelling for testing id-dependence of algorithms. *)
let with_shuffled_ids ~seed t =
  let rng = Random.State.make [| seed |] in
  let ids = Array.copy t.ids in
  Generators.shuffle rng ids;
  { t with ids }
