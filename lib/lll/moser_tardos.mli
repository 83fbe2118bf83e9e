(** Moser–Tardos resampling baselines (sequential and the standard
    parallel/distributed variant). *)

module Graph = Lll_graph.Graph
module Assignment = Lll_prob.Assignment

type stats = { resamplings : int; rounds : int }

exception Budget_exhausted of { assignment : Assignment.t; stats : stats }
(** The resampling/round cap was hit. The payload carries the last
    (complete, still-violating) assignment and the work done so far, so
    callers — the solver registry, the CLI, the fuzzer — can report how
    close the run got instead of discarding it. *)

val solve_sequential :
  ?max_resamplings:int -> seed:int -> Instance.t -> Assignment.t * stats
(** Resample the scope of the lowest-id occurring bad event until none
    occurs. The occurring set is maintained incrementally (O(deg) per
    resampling).
    @raise Budget_exhausted when the cap is hit. *)

val solve_sequential_log :
  ?max_resamplings:int -> seed:int -> Instance.t -> Assignment.t * stats * int array
(** Like {!solve_sequential}, also returning the execution log (resampled
    event ids in order) consumed by {!Witness}. *)

val solve_sequential_rescan :
  ?max_resamplings:int -> seed:int -> Instance.t -> Assignment.t * stats
(** The pre-incremental ablation: rescan all [m] events after every
    resampling. Behaviourally identical to {!solve_sequential} (same
    selection, same random stream); kept as the baseline the
    occurring-set maintenance is benchmarked against. *)

val solve_parallel : ?max_rounds:int -> seed:int -> Instance.t -> Assignment.t * stats
(** Each round, occurring events that are id-minimal among their occurring
    dependency neighbors resample simultaneously; [rounds] is the
    distributed round count (O(log n) w.h.p. under [ep(d+1) < 1]). *)

val solve_parallel_random_priority :
  ?max_rounds:int -> seed:int -> Instance.t -> Assignment.t * stats
(** The Chung–Pettie–Su-flavoured selection: fresh random priorities
    per round instead of ids, ties broken by id (see
    {!priority_minima}). *)

val priority_minima : Graph.t -> prio:float array -> int list -> int list
(** [priority_minima g ~prio occurring] — the occurring events that are
    strict local minima under the lexicographic order [(prio, id)] among
    their occurring dependency neighbors. Always pairwise non-adjacent,
    and non-empty whenever [occurring] is: the id tiebreak prevents the
    livelock where a tied edge blocks both endpoints and a round selects
    nothing. [prio] must cover every event id. *)
