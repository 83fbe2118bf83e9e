(** EXPERIMENTAL generalised rank-r fixing — the computational companion
    to Conjecture 1.5.

    The natural generalisation of the paper's rank-3 process to
    variables affecting any number of events, with representability of
    the clique target tuple decided numerically ({!Srep_r}). There is no
    proven guarantee for rank [>= 4]; the harness (experiment T10)
    measures feasibility empirically, and solutions are only accepted
    after exact verification ({!Verify}). *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  slack : float;  (** Achieved min slack; [>= 0] means P* was kept. *)
}

type t

val create : Instance.t -> t
val fix_var : t -> int -> unit

val fix_class : ?domains:int -> t -> int list array -> unit
(** One color class's duty lists through {!Fixing.fix_class}. *)

val solve :
  ?order:int array -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> Assignment.t * t
(** Per-step metrics records carry phase ["fix-rankr"]. *)

val assignment : t -> Assignment.t
val steps : t -> step list

val min_slack : t -> float
(** The worst slack over all steps ([infinity] if no clique step ran);
    [>= 0] supports the conjecture on this run. *)

val infeasible_steps : t -> int
(** Number of steps whose best value was numerically infeasible. *)

val pstar_holds : ?eps:float -> t -> bool
(** [eps] defaults to {!Srep.default_eps}. *)
