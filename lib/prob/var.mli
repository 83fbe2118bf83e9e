(** Finite discrete random variables with exact rational distributions.

    Values are indices [0 .. arity-1]; all probabilities are strictly
    positive and sum to exactly 1. *)

module Rat = Lll_num.Rat

type t

val make : id:int -> name:string -> Rat.t array -> t
(** @raise Invalid_argument if the distribution is empty, has a
    non-positive entry, or does not sum to 1. *)

val same_distribution : id:int -> name:string -> t -> t
(** A variable with the given one's distribution, shared rather than
    copied and not re-checked (the binary loader, for a run of
    variables with one law). *)

val uniform : id:int -> name:string -> int -> t
(** Uniform distribution on [k >= 1] values. *)

val bernoulli : id:int -> name:string -> Rat.t -> t
(** Two values: [0] with probability [1-p], [1] with probability [p];
    requires [0 < p < 1]. *)

val id : t -> int
val name : t -> string
val arity : t -> int
val prob : t -> int -> Rat.t
val probs : t -> Rat.t array
val pp : Format.formatter -> t -> unit
