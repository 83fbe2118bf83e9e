(** Undirected simple graphs with nodes [0..n-1] and stable edge ids.

    The dependency graphs of LLL instances, line graphs used for edge
    coloring, and graph squares used for 2-hop coloring are all values of
    this type.

    Adjacency is stored in CSR form (flat offsets + neighbor/edge-id
    arrays, per-node slices sorted by neighbor), and edge endpoints in
    one flat column of length [2m], so [degree] and
    [max_degree] are O(1), [find_edge] is a binary search, and
    {!iter_adj}/{!fold_adj} walk a node's neighbors without allocating.
    The list-returning accessors ([adj], [neighbors], [incident_edges])
    are thin views kept for compatibility; hot paths should prefer the
    flat walks. *)

type t

val create : n:int -> (int * int) list -> t
(** [create ~n edges] builds a graph on nodes [0..n-1]. Edge ids follow
    the list order; a repeated edge (in either orientation) is dropped,
    keeping its first occurrence. Self-loops and out-of-range endpoints
    raise [Invalid_argument]. *)

val of_ends : n:int -> int array -> t
(** [of_ends ~n ends] is {!create} on the flat endpoint column [ends]:
    entry [i] joins [ends.(2i)] and [ends.(2i+1)], in either order. An
    odd-length column raises [Invalid_argument]. *)

type csr = {
  csr_n : int;
  csr_ends : int array;
      (** length [2m]: edge [e] joins [csr_ends.(2e) < csr_ends.(2e+1)] *)
  csr_offsets : int array;  (** length [n+1], monotone, covering [0, 2m) *)
  csr_neighbors : int array;  (** per-node slices strictly sorted *)
  csr_edge_ids : int array;  (** edge id of each half-edge *)
}
(** The raw CSR columns of a graph, exposed for binary serialization.
    The arrays are the graph's own (not copies): treat them as
    read-only. *)

val csr : t -> csr
(** O(1); shares the internal arrays. *)

val of_csr : csr -> t
(** Rebuild a graph directly from CSR columns, re-validating every
    structural invariant (offset coverage, sorted slices, edge-id
    agreement, normalized endpoints) in O(n + m). Raises
    [Invalid_argument] on any violation. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> (int * int) array
(** [edges g] maps each edge id to its endpoints [(u, v)] with [u < v].
    Built on demand (O(m) allocation); walks should use {!iter_edges}. *)

val endpoints : t -> int -> int * int
(** [endpoints g e] is [(u, v)] with [u < v]. *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e v] is the endpoint of edge [e] different from [v]. *)

val adj : t -> int -> (int * int) list
(** [(neighbor, edge id)] pairs, sorted by neighbor. Allocates a fresh
    list per call; prefer {!iter_adj}/{!fold_adj} on hot paths. *)

val neighbors : t -> int -> int list
val incident_edges : t -> int -> int list

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f neighbor edge_id] for every adjacency of
    [v], in ascending neighbor order, without allocating. *)

val fold_adj : t -> int -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** [fold_adj g v ~init ~f] folds [f acc neighbor edge_id] over the
    adjacencies of [v] in ascending neighbor order. *)

val degree : t -> int -> int
(** O(1) (a CSR offsets difference). *)

val max_degree : t -> int
(** O(1) (cached at construction). *)

val mem_edge : t -> int -> int -> bool

val find_edge : t -> int -> int -> int option
(** Edge id between two nodes, if adjacent. O(log degree) binary search
    over the sorted neighbor slice. *)

val find_edge_exn : t -> int -> int -> int

val fold_edges : ('a -> int -> int -> int -> 'a) -> 'a -> t -> 'a
(** [fold_edges f acc g] folds [f acc edge_id u v] over all edges. *)

val iter_edges : (int -> int -> int -> unit) -> t -> unit

val square : t -> t
(** [square g] connects all pairs of nodes at distance 1 or 2 in [g]; a
    proper coloring of [square g] is a 2-hop coloring of [g]
    (Corollary 1.4 of the paper). Its CSR is written directly in two
    passes (a stamp array dedups each node's 2-hop walk); edge ids are
    in (min, max) order. *)

val line_graph : t -> t
(** Node [i] of [line_graph g] is edge [i] of [g]; nodes are adjacent iff
    the edges share an endpoint. Written directly into CSR like
    {!square}; edge ids are in (min, max) order. *)

val bfs_dist : t -> int -> int array
(** Distances from a source; [-1] for unreachable nodes. *)

val connected_components : t -> int * int array
(** [(count, component index per node)]. *)

val is_connected : t -> bool

val girth : t -> int option
(** Length of a shortest cycle, or [None] for forests. [O(n*m)]. *)

val to_dot : t -> string
val pp : Format.formatter -> t -> unit
