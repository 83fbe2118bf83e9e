(* The threshold-pinned workload corpus (see corpus.mli).

   Family constructors are deterministic in (seed, n) — the regression
   baselines depend on it. Sizes must satisfy every structural
   constraint at once (n*d even for regular graphs, k | n*delta for the
   synthetic hypergraphs, the Moore bound for girth 6), which multiples
   of 12 above 24 do.

   Families describe themselves as canonical store specs; building,
   caching and artifact materialization all happen behind
   [Lll_store.Store.fetch] — the corpus owns no generation code. *)

module Spec = Lll_store.Spec

type side = Below | At

type family = {
  name : string;
  side : side;
  rank : int;
  doc : string;
  spec : seed:int -> int -> Spec.t;
}

(* High-girth 3-regular graphs: the lower-bound structure. Girth 6 is
   comfortably feasible from n = 24 up and keeps the swap repair fast. *)
let sinkless ~relaxed ~seed n = Spec.Sinkless { n; seed; degree = 3; girth = 6; relaxed }

let all =
  [
    {
      name = "sinkless-at";
      side = At;
      rank = 2;
      doc = "sinkless orientation on girth>=6 3-regular graphs: p = 2^-d exactly";
      spec = sinkless ~relaxed:false;
    };
    {
      name = "sinkless-below";
      side = Below;
      rank = 2;
      doc = "relaxed (ternary) sinkless orientation: p = 3^-d, strictly below";
      spec = sinkless ~relaxed:true;
    };
    {
      name = "ring-at";
      side = At;
      rank = 2;
      doc = "rank-2 synthetic ring, bad sets packed to p = 2^-d";
      spec = (fun ~seed n -> Spec.Ring { n; seed; arity = 4; at = true });
    };
    {
      name = "ring-below";
      side = Below;
      rank = 2;
      doc = "rank-2 synthetic ring, largest p strictly below 2^-d";
      spec = (fun ~seed n -> Spec.Ring { n; seed; arity = 4; at = false });
    };
    {
      name = "rank3-at";
      side = At;
      rank = 3;
      doc = "rank-3 synthetic family (2-regular hypergraph, arity 8) at p = 2^-d";
      spec = (fun ~seed n -> Spec.Rank { n; seed; rank = 3; delta = 2; arity = 8; at = true });
    };
    {
      name = "rank3-below";
      side = Below;
      rank = 3;
      doc = "rank-3 synthetic family, largest p strictly below 2^-d";
      spec = (fun ~seed n -> Spec.Rank { n; seed; rank = 3; delta = 2; arity = 8; at = false });
    };
    {
      name = "rank4-at";
      side = At;
      rank = 4;
      doc = "rank-4 synthetic family (2-regular hypergraph, arity 16) at p = 2^-d";
      spec = (fun ~seed n -> Spec.Rank { n; seed; rank = 4; delta = 2; arity = 16; at = true });
    };
    {
      name = "rank4-below";
      side = Below;
      rank = 4;
      doc = "rank-4 synthetic family, largest p strictly below 2^-d";
      spec = (fun ~seed n -> Spec.Rank { n; seed; rank = 4; delta = 2; arity = 16; at = false });
    };
    {
      name = "weak-split-below";
      side = Below;
      rank = 3;
      doc = "relaxed weak splitting on 3-biregular bipartite structure (p = 16^(1-deg))";
      spec = (fun ~seed n -> Spec.Weak_split { n; seed; degree = 3 });
    };
  ]

let find name = List.find_opt (fun f -> f.name = name) all

(* CI-sized, but an order of magnitude past the PR 6 corpus now that
   warm sweeps load artifacts instead of regenerating: at n = 960 the
   at- vs below-threshold envelopes separate in the fits. The
   message-passing engines are capped (see [Run.heavy_cutoff]) so the tail of
   the grid costs seconds, not minutes. *)
let default_grid = [ 24; 48; 96; 480; 960 ]
let default_seeds = [ 1; 2 ]
