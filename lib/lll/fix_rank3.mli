(** Theorem 1.3: deterministic sequential fixing for instances in which
    every variable affects at most three events, under [p < 2^-d], via the
    representable-triples machinery of Section 3.

    [Inc] ratios and the [phi] potential are exact rationals. The value
    choice ranks the scaled triples by their float [S_rep] violation;
    the write-back is an exact dyadic split of the chosen triple
    ({!Srep.decompose_rat}), so property P* is checked with no
    tolerance. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  violation : float;
      (** float [S_rep] violation of the chosen scaled triple; Lemma 3.2
          guarantees this is non-positive up to float rounding. *)
  fallback : bool;
      (** the chosen triple was outside [S_rep], so it had no exact
          split and the step wrote the rounded-down float split
          ({!Srep.decompose_down}) *)
}

type t

val create : Instance.t -> t
(** @raise Invalid_argument if the instance has rank [> 3]. *)

val fix_var : t -> int -> unit
(** Fix one unfixed variable (the Variable Fixing Lemma step). *)

val fix_class : ?domains:int -> t -> int list array -> unit
(** One color class's duty lists through {!Fixing.fix_class}. *)

val solve :
  ?order:int array -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> Assignment.t * t
(** Fix all variables in [order] (identity by default); per-step
    metrics records carry phase ["fix-rank3"]. *)

val assignment : t -> Assignment.t
val steps : t -> step list

val max_violation : t -> float
(** Largest [S_rep] violation over all steps so far ([neg_infinity] if no
    step involved a choice); should never exceed float noise. *)

val phi : t -> int -> int -> Rat.t
(** [phi t e v]: the potential [phi_e^v] on edge [e] at endpoint [v]. *)

val fallbacks : t -> int
(** Steps so far whose chosen triple had no exact split (0 on every
    corpus family). *)

val pstar_holds : t -> bool
(** Property P* of Definition 3.1, checked exactly: non-negative [phi]
    sides with edge sums [<= 2], and every event's conditional
    probability at most its initial probability times its [phi]
    product. *)
