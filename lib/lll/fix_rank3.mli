(** Theorem 1.3: deterministic sequential fixing for instances in which
    every variable affects at most three events, under [p < 2^-d], via the
    representable-triples machinery of Section 3.

    [Inc] ratios are exact; the [phi] potential uses floats (its optimal
    updates are irrational). Accepted solutions must always be validated
    with {!Verify} (exact), which the high-level drivers do. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  violation : float;
      (** [S_rep] violation of the chosen scaled triple; Lemma 3.2
          guarantees this is non-positive up to float rounding. *)
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

val pstar_holds : ?eps:float -> t -> bool
(** Property P* of Definition 3.1 (phi side with float tolerance, event
    probabilities exact). [eps] defaults to {!Srep.default_eps}. *)
