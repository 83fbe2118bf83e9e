(** A genuinely message-passing distributed LLL solver (Corollary 1.4):
    the full protocol — 2-hop coloring, per-class fixing, gossip of fixed
    values and of the [phi] potential — runs on the LOCAL runtime; nodes
    act only on knowledge received in messages.

    Produces bit-for-bit the same assignment as the schedule-accounting
    drivers {!Distributed.solve_rank3} and {!Distributed.solve_rank2}
    (asserted by the test suite): the nodes call the sequential fixers'
    choice rules on the same exact [phi]. It takes three communication
    rounds per color class (fix + two propagation rounds for radius-2
    freshness). *)

module Assignment = Lll_prob.Assignment

type result = Distributed.result = {
  assignment : Assignment.t;
  rounds : int;
  coloring_rounds : int;
  sweep_rounds : int;
  colors : int;
}

val solve :
  ?engine:[ `Flat | `Boxed ] ->
  ?domains:int ->
  ?metrics:Lll_local.Metrics.sink ->
  Instance.t ->
  result
(** The Corollary 1.4 protocol (2-hop coloring schedule). [domains] and
    [metrics] are forwarded to the LOCAL runtime for both the coloring
    and the gossip sweep. [engine] (default [`Flat]) selects the flat
    record-of-arrays engine for the gossip sweep, or the retired boxed
    engine for ablation runs; the two agree bit for bit.
    @raise Invalid_argument if the instance has rank [> 3]. *)

val solve_rank2 :
  ?engine:[ `Flat | `Boxed ] ->
  ?domains:int ->
  ?metrics:Lll_local.Metrics.sink ->
  Instance.t ->
  result
(** The Corollary 1.2 protocol: edge-coloring schedule, the smaller
    endpoint of each dependency edge fixes the edge's variables.
    [engine] as in {!solve}.
    @raise Invalid_argument if the instance has rank [> 2]. *)
