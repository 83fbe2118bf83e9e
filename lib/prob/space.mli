(** Product probability spaces with exact conditional probabilities.

    The space of an LLL instance: independent discrete variables; event
    probabilities conditioned on a partial assignment are computed
    exactly (rationals), by summing consistent rows of the event's
    compiled weighted table when one is cached, and otherwise by
    enumerating the unfixed scope variables through the event's
    predicate. The two paths are exactly equal in ℚ — the table rows
    carry full-scope joint probabilities, so a consistent-row sum
    divided by the fixed part's probability recovers the enumerated sum
    term for term (and [Rat] normalizes, so equality is structural).
    {!enumerating} gives the enumeration-only reference that
    differential tests and the fuzz cross-check compare against. *)

module Rat = Lll_num.Rat

type t

val create : Var.t array -> t
(** Variable ids must equal their array index. *)

val enumerating : t -> t
(** The same space, except that {!prob}, {!prob_vector},
    {!event_holds} and {!Cond_tracker.create} on it never read a table:
    they enumerate. It shares the table cache with the original, so
    {!compiled_table} returns the same tables on both. *)

val num_vars : t -> int
val var : t -> int -> Var.t
val vars : t -> Var.t array

val compile_events : t -> Event.t array -> unit
(** Compile and cache a weighted table ({!Event.compile}) for each event
    whose scope is small enough to tabulate. [Instance.create] calls
    this once; further calls overwrite the cache slots. *)

val compile_event : t -> Event.t -> unit

val install_table : t -> Event.t -> Event.table -> unit
(** Cache a pre-built table for an event instead of recompiling (the
    binary instance loader's fast path). The table must physically share
    the event's scope array (as {!Event.of_table} guarantees); the
    caller vouches that its weights match this space's distributions. *)

val compiled_table : t -> Event.t -> Event.table option
(** The cached table for exactly this event value (validated by physical
    equality, so an event the space never compiled — or a same-id
    impostor — returns [None]). Also answers on an {!enumerating}
    space. *)

val prob : t -> Event.t -> fixed:Assignment.t -> Rat.t
(** Exact [Pr[e | fixed]]. *)

val prob_vector : t -> Event.t -> fixed:Assignment.t -> var:int -> Rat.t array * Rat.t
(** [(after, before)]: [after.(y) = Pr[e | fixed, var=y]] for every value
    [y] of [var], and [before = Pr[e | fixed]], computed in a single
    pass. [var] must be unfixed. *)

val inc : t -> Event.t -> fixed:Assignment.t -> var:int -> value:int -> Rat.t
(** The paper's [Inc(e, value)]:
    [Pr[e | fixed, var=value] / Pr[e | fixed]], or [0] when
    [Pr[e | fixed] = 0]. *)

val event_holds : t -> Event.t -> Assignment.t -> bool
(** Does the event occur on the assignment (all scope variables fixed)?
    O(1) via the compiled bitmap when a table is live; otherwise falls
    back to {!Event.holds}. *)

val fold_scope_assignments :
  t -> Event.t -> Assignment.t -> ('a -> Rat.t -> (int -> int) -> 'a) -> 'a -> 'a
(** Fold over the joint values of the unfixed scope variables of an event;
    the callback receives the joint probability and a scope lookup. *)

(** Incremental conditional probabilities across a sequence of variable
    fixings. Each event keeps its live (consistent-so-far) table rows;
    fixing a variable filters only the tables of the events depending on
    it — O(live rows of affected events) per step instead of a fresh
    enumeration. Values are exactly those of {!prob} / {!prob_vector} on
    the tracker's partial assignment. *)
module Cond_tracker : sig
  type tracker

  val create : t -> Event.t array -> tracker
  (** Start from the empty assignment. Event ids must equal their array
      index. On an {!enumerating} space (or for events without a
      compiled table) conditionals are recomputed by enumeration on each
      affected fixing. *)

  val space : tracker -> t

  val assignment : tracker -> Assignment.t
  (** The partial assignment built so far. Callers must mutate it only
      through {!fix}. *)

  val prob : tracker -> int -> Rat.t
  (** Current [Pr[event | assignment]], by event id. O(1). *)

  val prob_vector : tracker -> int -> var:int -> Rat.t array * Rat.t
  (** [(after, before)] as in {!Space.prob_vector}, for an unfixed
      [var], from the live rows in one pass. *)

  val inc_vector : tracker -> int -> var:int -> Rat.t array
  (** The paper's [Inc] for every value [y] of an unfixed [var]:
      [Pr[event | assignment, var = y] / Pr[event | assignment]], or [0]
      when the denominator is [0]. One pass over the live rows, as
      [b_y / (p_y · S)] with [b_y] the weight of the rows where
      [var = y] and [S] the live weight sum; structurally equal to the
      ratios of {!prob_vector}'s pair. *)

  val fix : tracker -> var:int -> value:int -> unit
  (** Fix [var := value] and refresh the conditionals of every event
      depending on [var]. [var] must be unfixed. *)
end

val sample_unfixed : t -> Random.State.t -> Assignment.t -> Assignment.t
(** Randomly complete a partial assignment (used by Moser–Tardos). *)

val resample : t -> Random.State.t -> Assignment.t -> int list -> Assignment.t
(** Resample exactly the listed variables. *)
