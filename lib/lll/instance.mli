(** LLL instances: a product space, bad events, the derived dependency
    graph [G] of the paper, and per variable the events depending on it
    (the hyperedges of the paper's [H]). *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Space = Lll_prob.Space
module Event = Lll_prob.Event

type t

val create : Space.t -> Event.t array -> t
(** Event ids must equal their index; scopes must lie inside the space. *)

val of_precomputed : Space.t -> Event.t array -> dep_graph:Graph.t -> t
(** Assemble an instance from precomputed parts (the binary loader's
    fast path): the space's table store must already hold the events'
    rows ({!Space.load_tables}) and [dep_graph] must be the events'
    dependency graph. The per-variable event lists are rebuilt
    deterministically (linear time), skipping [create]'s pair
    enumeration and table compilation. *)

val enumerating : t -> t
(** The same instance on {!Space.enumerating} of its space: the exact
    enumeration reference that differential checks run engines on. *)

val space : t -> Space.t
val events : t -> Event.t array
val event : t -> int -> Event.t
val num_events : t -> int
val num_vars : t -> int

val dep_graph : t -> Graph.t
(** Dependency graph: events sharing a variable are adjacent. *)

val events_of_var : t -> int -> int array
(** Sorted ids of the events depending on a variable. *)

val rank : t -> int
(** The paper's [r]: the maximum number of events any variable affects. *)

val dependency_degree : t -> int
(** The paper's [d]: the maximum number of other events an event shares a
    variable with. *)

val max_prob : t -> Rat.t
(** The paper's [p]: the largest initial bad-event probability (exact). *)

val initial_probs : t -> Rat.t array

val to_dot : t -> string
(** Graphviz rendering of the dependency graph (event names as labels). *)

val pp : Format.formatter -> t -> unit
