(** Bad events: a variable scope plus a predicate on the scope's values.

    Closures are the authoring API; {!compile} turns an event into plain
    data — a weighted satisfying-assignment table — against the
    distributions of its scope variables. Tables are what {!Space} uses
    for fast (and still exact) conditional probabilities, and what the
    instance serializer writes out. *)

type t

type table = {
  tscope : int array;  (** the event's scope (sorted distinct ids) *)
  arities : int array;  (** arity of each scope variable, by position *)
  strides : int array;  (** mixed-radix: code = Σ value_i · strides.(i) *)
  total : int;  (** product of arities *)
  codes : int array;  (** satisfying row codes, strictly increasing *)
  weights : Lll_num.Rat.t array;  (** exact joint probability per row *)
  sat : Bytes.t;  (** dense membership bitmap over all [total] codes *)
}
(** A compiled event. The weights are exact rationals computed from the
    variable distributions the table was compiled against, so any sum of
    rows equals the corresponding enumerated probability in ℚ. *)

val make : id:int -> name:string -> scope:int array -> ((int -> int) -> bool) -> t
(** The predicate receives a lookup function valid on the (deduplicated,
    sorted) scope. *)

val id : t -> int
val name : t -> string

val scope : t -> int array
(** Sorted distinct variable ids. *)

val depends_on : t -> int -> bool

val pred_holds : t -> (int -> int) -> bool
(** Apply the predicate to an explicit lookup (exact enumeration uses
    this). *)

val holds : t -> Assignment.t -> bool
(** Evaluate the predicate; all scope variables must be fixed.
    @raise Invalid_argument if the predicate probes outside its scope or a
    scope variable is unfixed. *)

val compile :
  arity_of:(int -> int) ->
  prob_of:(int -> int -> Lll_num.Rat.t) ->
  ?max_rows:int ->
  t ->
  table option
(** Enumerate the full scope of the event once and record every satisfying
    tuple with its exact joint probability. [arity_of id] and
    [prob_of id value] describe the scope variables' distributions.
    Returns [None] when the scope product exceeds [max_rows]
    (default {!default_max_rows}) — callers fall back to on-the-fly
    enumeration. *)

val default_max_rows : int
(** Table-size cap for {!compile}: [2^20] rows. *)

val of_table :
  id:int ->
  name:string ->
  scope:int array ->
  arities:int array ->
  codes:int array ->
  weights:Lll_num.Rat.t array ->
  t * table
(** Rebuild an event and its compiled table from stored parts (the
    binary instance loader). Strides, total and the sat bitmap are
    re-derived; the event's predicate is the rebuilt bitmap, so solving
    from the table or by enumeration matches the original event. Validates scope
    order, arity positivity, code range/order and weight positivity.
    @raise Invalid_argument on any violation. *)

val value_at : table -> pos:int -> code:int -> int
(** Value of the scope variable at position [pos] in the tuple encoded by
    [code]. *)

val table_mem : table -> int -> bool
(** Does the complete scope tuple encoded by the code satisfy the event?
    O(1) bitmap lookup. *)

val scope_pos : table -> int -> int
(** Position of a variable id in the compiled scope ([-1] when absent). *)

val code_of : table -> (int -> int) -> int
(** Mixed-radix code of a complete scope valuation given by the lookup. *)

val never : id:int -> name:string -> t
(** The empty-scope event that never occurs (the paper's "virtual third
    event" for padding rank-2 variables). *)

val all_equal : id:int -> name:string -> scope:int array -> t
(** Occurs iff all scope variables carry the same value (e.g. monochromatic
    constraint violations). *)

val all_value : id:int -> name:string -> scope:int array -> value:int -> t
(** Occurs iff every scope variable equals [value] (e.g. "all edges point
    at me" in sinkless orientation). *)

val of_bad_set : id:int -> name:string -> scope:int array -> int list list -> t
(** Occurs exactly on the listed value tuples (in scope order). *)

val conj : id:int -> name:string -> t -> t -> t
(** Occurs iff both operands occur; scope is the union. *)

val disj : id:int -> name:string -> t -> t -> t
val negate : id:int -> name:string -> t -> t

val pp : Format.formatter -> t -> unit
