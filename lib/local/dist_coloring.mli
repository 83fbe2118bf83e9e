(** Distributed coloring on the LOCAL runtime: Linial reduction plus
    Kuhn–Wattenhofer block reduction, and the derived 2-hop coloring used
    by the paper's Corollary 1.4. This is the repo's stand-in for the
    [PR01]/[FHK16] coloring subroutines the paper cites (DESIGN.md
    documents the substitution). *)

val choose_params : dmax:int -> m:int -> int * int
(** [(q, t)] with [q] prime, [q > t*dmax], [q^(t+1) >= m], minimising
    [q^2]: the parameters of one Linial round from [m] colors. *)

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
