(** Bad events: a variable scope plus a predicate on the scope's values.

    Closures are the authoring API. For computation, the owning
    {!Space} compiles an event into rows of its table store — the
    satisfying scope tuples with their exact joint probabilities — which
    it uses for fast (and still exact) conditional probabilities, and
    which the instance serializer writes out. *)

type t

val make : id:int -> name:string -> scope:int array -> ((int -> int) -> bool) -> t
(** The predicate receives a lookup function valid on the (deduplicated,
    sorted) scope. *)

val of_sorted_scope : id:int -> name:string -> scope:int array -> ((int -> int) -> bool) -> t
(** {!make} for a scope that is already sorted and distinct: the array
    is kept, not copied (the binary loader's events).
    @raise Invalid_argument if the scope is not strictly increasing or
    holds a negative id. *)

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
