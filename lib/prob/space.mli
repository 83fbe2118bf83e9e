(** Product probability spaces with exact conditional probabilities.

    The space of an LLL instance: independent discrete variables; event
    probabilities conditioned on a partial assignment are computed
    exactly (rationals), by summing the consistent rows of the event's
    window in the space's table store when it has one, and otherwise by
    enumerating the unfixed scope variables through the event's
    predicate. The two paths are exactly equal in ℚ — the rows carry
    full-scope joint probabilities, so a consistent-row sum divided by
    the fixed part's probability recovers the enumerated sum term for
    term (and [Rat] normalizes, so equality is structural).
    {!enumerating} gives the enumeration-only reference that
    differential tests and the fuzz cross-check compare against.

    The table store keeps every compiled table of the space in flat
    columns, one window per event id: row codes, exact row weights,
    strides and membership bitmaps. A window is read only for the
    physically identical event it was built for. *)

module Rat = Lll_num.Rat

type t

val create : Var.t array -> t
(** Variable ids must equal their array index. *)

val enumerating : t -> t
(** The same space, except that {!prob}, {!prob_vector},
    {!event_holds} and {!Cond_tracker.create} on it never read a table:
    they enumerate. It shares the table store with the original, so
    {!table_rows} returns the same rows on both. *)

val num_vars : t -> int
val var : t -> int -> Var.t
val vars : t -> Var.t array

val compile_events : t -> Event.t array -> unit
(** Fill the table store from these events (ids must equal their
    index): each event whose scope has at most [2^20] tuples is
    enumerated once, in ascending code order, and its satisfying tuples
    are stored with their exact joint probabilities; larger scopes are
    enumerated on demand. Replaces the store: the space keeps the tables
    of the last call. [Instance.create] calls this once. *)

val load_tables :
  t ->
  names:string array ->
  scopes:int array array ->
  row_off:int array ->
  codes:int array ->
  weights:Rat.t array ->
  Event.t array
(** Fill the table store from decoded columns (the binary loader's
    entry) and return the events: event [i] has name [names.(i)], scope
    [scopes.(i)] (kept, not copied) and rows [row_off.(i)] to
    [row_off.(i+1) - 1] of [codes] and [weights], which become the
    store's columns and may run past [row_off.(n)]. Each event's
    predicate is its membership bitmap, so enumeration and tables agree
    on every event. Checks that each scope is strictly increasing and
    inside the space, that each window's codes are strictly increasing
    and below the scope's tuple count, and that every weight is
    positive; the weights are trusted to be the joint probabilities
    under this space's distributions. Replaces the store.
    @raise Invalid_argument on any violation. *)

type table_rows = private {
  codes : int array;  (** the store's code column (read only) *)
  weights : Rat.t array;  (** the store's weight column (read only) *)
  first : int;  (** the event's first row *)
  last : int;  (** one past the event's last row *)
  strides : int array;  (** the store's stride column (read only) *)
  stride0 : int;
      (** the event's first stride: scope position [p] has stride
          [strides.(stride0 + p)], so a row's value there is
          [code / strides.(stride0 + p) mod arity] *)
}
(** An event's window in the table store. *)

val table_rows : t -> Event.t -> table_rows option
(** The window of exactly this event value ([None] for an event the
    store was not filled from, a same-id impostor, or a scope too large
    to tabulate). Also answers on an {!enumerating} space. *)

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
    O(1) via the stored bitmap when a table is live; otherwise falls
    back to {!Event.holds}. *)

val fold_scope_assignments :
  t -> Event.t -> Assignment.t -> ('a -> Rat.t -> (int -> int) -> 'a) -> 'a -> 'a
(** Fold over the joint values of the unfixed scope variables of an event;
    the callback receives the joint probability and a scope lookup. *)

(** Incremental conditional probabilities across a sequence of variable
    fixings. The tracker copies the store's two row columns once and
    keeps each event's live (consistent-so-far) rows inside its window;
    fixing a variable filters, in place, only the windows of the events
    depending on it — O(live rows of affected events) per step instead
    of a fresh enumeration. Values are exactly those of {!prob} /
    {!prob_vector} on the tracker's partial assignment. *)
module Cond_tracker : sig
  type tracker

  val create : t -> Event.t array -> tracker
  (** Start from the empty assignment. Event ids must equal their array
      index. On an {!enumerating} space (or for events without a
      window in the store) conditionals are recomputed by enumeration
      on each affected fixing. *)

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
