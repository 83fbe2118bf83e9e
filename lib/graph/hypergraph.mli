(** Rank-bounded hypergraphs.

    Models the paper's hypergraph [H]: one node per bad event, one
    hyperedge per random variable (the events depending on it); the rank
    of [H] is the parameter [r]. *)

type t

val create : n:int -> int list list -> t
(** [create ~n edges] builds a hypergraph on nodes [0..n-1]. Members of a
    hyperedge are deduplicated; empty hyperedges and out-of-range nodes
    raise [Invalid_argument]. *)

val n : t -> int
val m : t -> int

val edge : t -> int -> int array
(** Sorted distinct members of a hyperedge. *)

val edges : t -> int array array

val incident : t -> int -> int list
(** Hyperedge ids incident to a node, sorted. *)

val degree : t -> int -> int
val max_degree : t -> int

val rank : t -> int
(** Cardinality of the largest hyperedge. *)

val primal_graph : t -> Graph.t
(** 2-section graph: nodes sharing a hyperedge become adjacent. For an LLL
    instance this is the dependency graph. *)

val to_dot : t -> string
(** Graphviz rendering of the bipartite incidence structure. *)

val pp : Format.formatter -> t -> unit
