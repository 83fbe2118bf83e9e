(** Theorem 1.1: deterministic sequential fixing for instances in which
    every variable affects at most two events, under [p < 2^-d].

    Exact rational bookkeeping throughout; the variable order is
    arbitrary (adversary-chosen). The rules are {!Fixing}'s rank <= 2
    rules; this module keeps the step log. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;  (** [(event, Inc(event, value))] for the chosen value. *)
  score : Rat.t;  (** The phi-weighted Inc sum of the chosen value. *)
  budget : Rat.t;  (** The bound the score provably respects. *)
}

type t

val create : Instance.t -> t
(** @raise Invalid_argument if the instance has rank [> 2]. *)

val fix_var : t -> int -> unit
(** Deterministically fix one unfixed variable (Theorem 1.1 step). *)

val fix_class : ?domains:int -> t -> int list array -> unit
(** One color class's duty lists through {!Fixing.fix_class}. *)

val solve :
  ?order:int array -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> Assignment.t * t
(** Fix all variables in [order] (identity by default); per-step
    metrics records carry phase ["fix-rank2"]. *)

val assignment : t -> Assignment.t
val steps : t -> step list

val phi : t -> int -> int -> Rat.t
(** [phi t e v]: the potential on edge [e] at endpoint [v]. *)

val pstar_holds : t -> bool
(** Exact check of property [P*] (rank-2 form): edge sums at most 2 and
    every event's conditional probability bounded by its initial
    probability times its phi product. *)
