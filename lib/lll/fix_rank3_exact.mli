(** An exact-arithmetic variant of the rank-3 fixing process: rational
    potential, square-root-free membership tests, and dyadic-rational
    decompositions — property P* holds with NO epsilon. Falls back to the
    float path (counted) only if a step's best triple sits exactly on the
    S_rep boundary, which requires the irrational split of Lemma 3.5. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type t

val create : Instance.t -> t
(** @raise Invalid_argument if the instance has rank [> 3]. *)

val fix_var : t -> int -> unit
val solve :
  ?order:int array -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> Assignment.t * t
val assignment : t -> Assignment.t

val phi : t -> int -> int -> Rat.t

val fallbacks : t -> int
(** Steps that required the float fallback (0 on all test families). *)

val pstar_holds_exact : t -> bool
(** Property P* checked exactly: edge sums [<= 2] and probability bounds
    as rational comparisons, no tolerance. *)
