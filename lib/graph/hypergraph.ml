(* Rank-bounded hypergraphs.

   In the paper's setting (Section 3), the hypergraph [H] has one node per
   bad event and one hyperedge per random variable, connecting exactly the
   events that depend on the variable; the rank of [H] is the maximum
   number of events any variable affects ([r]). *)

type t = {
  n : int;
  edges : int array array; (* hyperedge id -> sorted distinct member nodes *)
  incident : int list array; (* node -> hyperedge ids *)
}

let create ~n edge_list =
  if n < 0 then invalid_arg "Hypergraph.create: negative n";
  let norm members =
    let members = List.sort_uniq compare members in
    List.iter (fun v -> if v < 0 || v >= n then invalid_arg "Hypergraph.create: node out of range") members;
    if members = [] then invalid_arg "Hypergraph.create: empty hyperedge";
    Array.of_list members
  in
  let edges = Array.of_list (List.map norm edge_list) in
  let incident = Array.make n [] in
  Array.iteri (fun i e -> Array.iter (fun v -> incident.(v) <- i :: incident.(v)) e) edges;
  Array.iteri (fun v l -> incident.(v) <- List.sort compare l) incident;
  { n; edges; incident }

let n h = h.n
let m h = Array.length h.edges
let edge h i = h.edges.(i)
let edges h = h.edges
let incident h v = h.incident.(v)
let degree h v = List.length h.incident.(v)

let max_degree h =
  let d = ref 0 in
  for v = 0 to h.n - 1 do
    d := max !d (degree h v)
  done;
  !d

let rank h = Array.fold_left (fun acc e -> max acc (Array.length e)) 0 h.edges

(* The primal (a.k.a. 2-section) graph: nodes of [h], an edge between every
   pair of nodes sharing a hyperedge. For an LLL instance this is exactly
   the dependency graph. *)
let primal_graph h =
  let es = ref [] in
  Array.iter
    (fun e ->
      let k = Array.length e in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          es := (e.(i), e.(j)) :: !es
        done
      done)
    h.edges;
  Graph.create ~n:h.n !es

(* bipartite incidence rendering: square nodes for hyperedges *)
let to_dot h =
  let b = Buffer.create 256 in
  Buffer.add_string b "graph h {\n";
  for v = 0 to h.n - 1 do
    Buffer.add_string b (Printf.sprintf "  v%d [label=\"%d\"];\n" v v)
  done;
  Array.iteri
    (fun i members ->
      Buffer.add_string b (Printf.sprintf "  e%d [shape=box,label=\"e%d\"];\n" i i);
      Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "  e%d -- v%d;\n" i v)) members)
    h.edges;
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp fmt h = Format.fprintf fmt "hypergraph(n=%d, m=%d, rank=%d)" h.n (m h) (rank h)
