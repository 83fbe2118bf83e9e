(** The threshold-pinned workload corpus.

    Each family pins its bad-event probability to one side of the
    paper's sharp threshold [p = 2^-d] and scales in [n]: the relaxed
    (strictly below) side must stay O(1)-round solvable, while the
    at-threshold side is where the [Omega(log log n)] randomized /
    [Omega(log n)] deterministic lower bounds live (sinkless orientation
    on high-girth regular graphs, arXiv 1511.00900; rank-r synthetic
    families after Brandt–Grunau–Rozhoň, arXiv 2006.04625).

    Families are described as canonical {!Lll_store.Spec.t} values;
    instances are acquired through an artifact store, never generated
    here. *)

type side = Below | At  (** position of [p] relative to [2^-d] *)

type family = {
  name : string;
  side : side;
  rank : int;
  doc : string;
  spec : seed:int -> int -> Lll_store.Spec.t;
      (** [spec ~seed n] for any [n] in a valid grid (see
          {!default_grid}); deterministic in [(seed, n)] — the spec's
          digest is the store artifact key. *)
}

val all : family list
(** Ranks 2–4, both sides of the threshold for each: the sinkless pair
    on girth-controlled 3-regular graphs, the rank-2 ring pair, the
    rank-3 and rank-4 synthetic pairs, and the (below-threshold) weak
    splitting family on biregular bipartite structure. *)

val find : string -> family option

val default_grid : int list
(** Sizes divisible by 12, satisfying every family's structural
    constraints (even [n] for 3-regular graphs, [3 | 2n] for the rank-3
    hypergraph, girth-6 Moore bound). An order of magnitude past the
    PR 6 grids: warm-store sweeps load artifacts instead of
    regenerating, and the message-passing engines stop at
    {!Run.heavy_cutoff}. *)

val default_seeds : int list
