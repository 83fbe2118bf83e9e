(** Synchronous LOCAL-model execution engine with round accounting,
    domain-parallel round execution and optional round-level metrics.

    Rounds are full-information rounds: each step sees the previous-round
    states of its neighbors, which is equivalent to LOCAL message passing
    because messages are unbounded. {!run_flat} is the one engine and
    {!gather_balls} wraps it; {!run_full_info_boxed} is the reference
    they are tested against.
    Each round, the non-halted nodes are stepped in parallel across
    [domains] OCaml 5 domains (default {!Par.default_domains}, i.e. the
    recommended domain count of the machine) against an immutable
    snapshot of the previous round; halt bookkeeping is committed by a
    sequential sweep in node order afterwards, so results are identical
    for every domain count — [~domains:1] is the sequential reference
    engine. A protocol whose rounds only let some nodes act declares a
    per-round wake set ([run_flat ?wake]) so a round costs in proportion
    to the nodes it steps. Per-round records go to the [?metrics] sink. *)

exception Round_limit_exceeded of int

type stats = { rounds : int }

val default_max_rounds : int

val run_flat :
  ?max_rounds:int ->
  ?domains:int ->
  ?metrics:Metrics.sink ->
  ?wake:(round:int -> prev:'p Flat_state.t -> int array option) ->
  Network.t ->
  state:'p Flat_state.t ->
  step:
    (round:int ->
    me:int ->
    prev:'p Flat_state.t ->
    cur:'p Flat_state.t ->
    nbrs:int array ->
    bool) ->
  'p Flat_state.t * stats
(** The generalized full-information engine over record-of-arrays states
    — the house engine every hot protocol runs on. [state] holds the
    initial columns and is mutated in place; [prev] is a double-buffered
    snapshot refreshed by column blits at the top of each round. A step
    may read any row of [prev] (its neighbors' ids arrive as the
    CSR-aligned slice [nbrs], in ascending order) but must write only
    row [me] of [cur]; it returns its halt request, committed by a
    sequential sweep in node order. Results are bit-identical for every
    [domains] value. Rows a step does not write carry over from the
    previous round. Exceeding [max_rounds] raises
    {!Round_limit_exceeded}.

    [wake], when given, is called once per round (after the snapshot
    refresh, with [prev] holding the round's starting states) and
    declares which nodes that round steps. [None] steps every non-halted
    node. [Some ws] — a strictly ascending array of node ids — steps
    only the non-halted nodes in [ws]; every other row carries over
    unchanged, and only the nodes in [ws] may halt that round, since the
    halt sweep walks [ws] instead of [0..n-1]. Metrics then report the
    nodes actually stepped and the domain count used for [ws]. A [ws]
    that is unsorted, holds a duplicate or an id outside [0..n-1]
    raises [Invalid_argument]. Omitting [wake] is the same as a [wake]
    that always answers [None]. *)

val run_full_info_boxed :
  ?max_rounds:int ->
  ?domains:int ->
  ?metrics:Metrics.sink ->
  Network.t ->
  init:(int -> 's) ->
  step:(round:int -> me:int -> 's -> (int * 's) list -> 's * bool) ->
  's array * stats
(** The retired boxed engine: each step sees its neighbors' states as
    an assoc list in ascending node order. Kept as the reference
    implementation {!run_flat}, [Mis.luby] and [Dist_lll] are tested
    against. Do not use in new code. *)

val gather_balls :
  ?max_rounds:int ->
  ?domains:int ->
  ?metrics:Metrics.sink ->
  Network.t ->
  radius:int ->
  value:(int -> 'a) ->
  (int * 'a) list array * stats
(** Flood for [radius] rounds so each node learns the [(node, value)]
    pairs in its radius-[radius] ball. *)
