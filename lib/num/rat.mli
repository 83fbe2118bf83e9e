(** Exact rational arithmetic over {!Bigint}.

    Values are kept in lowest terms with a strictly positive denominator.
    A value whose numerator and denominator both fit a native int (other
    than [min_int]) is stored as that pair of ints and computed on with
    native arithmetic; only larger values carry {!Bigint} limbs. The
    choice of form is canonical and invisible to callers.
    Used throughout the LLL library for exact event probabilities and
    [Inc] ratios; floats appear only at the geometric boundary
    (the [S_rep] surface) and never in correctness-critical checks. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make n d] is the normalised rational [n/d].
    @raise Invalid_argument if [d] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints n d] is [n/d]. @raise Invalid_argument if [d = 0]. *)

val of_string : string -> t
(** Parses ["n"] or ["n/d"] in decimal. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val to_ints_opt : t -> (int * int) option
(** [Some (n, d)] (lowest terms, [d > 0]) iff both sides fit a native
    int other than [min_int]; allocates no {!Bigint}. *)

val is_zero : t -> bool
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val inv : t -> t

val pow : t -> int -> t
(** [pow x n]; negative [n] allowed when [x] is nonzero. *)

val pow2 : int -> t
(** [pow2 e] is [2^e]; [e] may be negative ([pow2 (-d)] is the LLL
    threshold probability [2^-d]). *)

val sum : t list -> t
val product : t list -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit
val hash : t -> int
