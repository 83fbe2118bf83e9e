(** Distributed coloring on the LOCAL runtime: Linial reduction plus
    class-by-class cleanup, and the derived 2-hop coloring used by the
    paper's Corollary 1.4. *)

val schedule : dmax:int -> m:int -> (int * int * int) list
(** The deterministic [(q, t, colors-after)] Linial parameter schedule
    starting from [m] colors, derivable by every node without
    communication. *)

val color : ?id_bound:int -> ?domains:int -> ?metrics:Metrics.sink -> Network.t -> int array * int
(** Proper [(max_degree + 1)]-coloring computed distributedly;
    [(coloring, LOCAL rounds)]. Rounds are [O(poly d + log* id_bound)].
    [domains]/[metrics] are forwarded to the runtime. *)

val two_hop_color : ?domains:int -> ?metrics:Metrics.sink -> Network.t -> int array * int
(** Proper coloring of the square graph (nodes within distance 2 get
    distinct colors) with at most [max_degree^2 + 1] colors; each square-
    graph round is charged as two real rounds. *)
