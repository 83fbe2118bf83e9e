(** LOCAL-model communication networks: a graph plus unique node
    identifiers. *)

module Graph = Lll_graph.Graph

type t

val create : ?ids:int array -> Graph.t -> t
(** Defaults to identity ids; duplicate ids raise [Invalid_argument]. *)

val with_graph : t -> Graph.t -> t
(** The same (already validated) ids on another graph over the same
    nodes, e.g. its {!Graph.square}.
    @raise Invalid_argument if the node counts differ. *)

val graph : t -> Graph.t
val n : t -> int
val id : t -> int -> int
val ids : t -> int array
val neighbors : t -> int -> int list

val degree : t -> int -> int
(** O(1): per-node degrees are cached at {!create}. *)

val max_degree : t -> int
(** O(1): cached at {!create}. *)

val with_shuffled_ids : seed:int -> t -> t
(** Same topology with a seeded random permutation of the ids. *)
