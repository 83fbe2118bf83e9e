(** The fixing process shared by the sequential fixers.

    {!Fix_rank2} (Theorem 1.1), {!Fix_rank3} (Theorem 1.3),
    {!Fix_rank3_exact} and {!Fix_rankr} (the rank-r generalisation) run
    one process: fix a variable, pick a value whose scaled [Inc] ratios
    stay within the potential's budget, and write the potential [phi]
    back. Only the representability test differs between them; this
    module is everything else. {!Dist_lll}'s message-passing nodes call
    the same choice rules. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type 'phi t = private {
  instance : Instance.t;
  graph : Lll_graph.Graph.t;  (** the dependency graph *)
  tracker : Lll_prob.Space.Cond_tracker.tracker;
      (** assignment + exact [Pr[E_v | assignment]] *)
  phi : 'phi array;  (** [phi_e^v] at slot {!slot}[ graph e v] *)
  initial_probs : Rat.t array;
}

val create : name:string -> ?max_rank:int -> 'phi -> Instance.t -> 'phi t
(** Empty assignment, every [phi] slot at the given value.
    @raise Invalid_argument ["<name>.create: instance has rank > r"]. *)

val assignment : _ t -> Assignment.t

val check_unfixed : name:string -> _ t -> int -> unit
(** @raise Invalid_argument ["<name>.fix_var: already fixed"]. *)

val slot : Lll_graph.Graph.t -> int -> int -> int
(** [slot g e v]: [2e] if [v] is the smaller endpoint of [e], else
    [2e + 1]. Index [phi] with it directly: on a [float t] that reads
    and writes unboxed floats. *)

(** {1 Inc vectors and choice rules}

    Each rule returns the first value reaching its minimum. *)

val inc_ratios : Rat.t array * Rat.t -> Rat.t array
(** [Inc] ratios from an [(after, before)] pair of [Space.prob_vector]:
    [after.(y) / before], or [0] when [before = 0]. *)

val inc_vector : _ t -> int -> var:int -> Rat.t array
(** [inc_vector t ev ~var]: {!inc_ratios} of event [ev] for every value
    of [var], from the tracker's live table rows. *)

val min_inc : Rat.t array -> int
(** Rank 1: the value minimising [Inc] (some value has [Inc <= 1]). *)

val choose_rank2_float : Rat.t array -> Rat.t array -> s:float -> w:float -> int
(** Rank 2: the value minimising [Inc_u * s + Inc_v * w]. *)

val choose_rank3_float :
  Rat.t array ->
  Rat.t array ->
  Rat.t array ->
  a:float ->
  b:float ->
  c:float ->
  int * float * Srep.decomposition
(** Rank 3 (Lemma 3.2): the value whose scaled triple
    [(Inc_u * a, Inc_v * b, Inc_w * c)] minimises the [S_rep]
    violation, that violation, and the triple's decomposition (proof of
    Lemma 3.5). *)

(** {1 Rank <= 2 steps on the tracker state} *)

type 'a choice = {
  value : int;
  incs : (int * Rat.t) list;  (** [(event, Inc(event, value))] *)
  score : 'a;  (** rank 2: the phi-weighted Inc sum; rank 1: the Inc *)
  budget : 'a;  (** [phi_e^u + phi_e^v] before the step; rank 1: [1] *)
}

val fix_free : _ t -> int -> unit
(** Rank 0: the value [0]. *)

val fix_rank1 : _ t -> int -> int -> Rat.t choice
(** [fix_rank1 t var u]: {!min_inc} on the only event [u]. *)

val fix_rank2_exact : Rat.t t -> int -> int -> int -> Rat.t choice
(** [fix_rank2_exact t var u v]: the rank-2 choice on edge [{u, v}],
    then each side of the edge scaled by its chosen [Inc]. *)

val fix_rank2_float : float t -> int -> int -> int -> float choice
(** {!fix_rank2_exact} with a float potential: {!choose_rank2_float}. *)

(** {1 Drivers} *)

val fix_class :
  ?domains:int -> fix:(int -> 'step) -> record:('step -> unit) -> int list array -> unit
(** [fix] every member's duty list, members fanned out across
    [domains] (default {!Lll_local.Par.default_domains}), then
    [record] the steps in member order — the sequential loop's log for
    any domain count. SOUND ONLY when the members form one color class
    of the relevant conflict graph: their events, phi slots and scope
    variables are then pairwise disjoint (DESIGN.md §11). *)

val run :
  _ t ->
  phase:string ->
  fix:(int -> unit) ->
  ?order:int array ->
  ?metrics:Lll_local.Metrics.sink ->
  unit ->
  unit
(** [fix] every variable in [order] (identity by default), step [i]
    of [num_vars]; into an enabled sink, one per-step record in the
    LOCAL runtime's per-round shape, tagged [phase], with the
    assignment after the step. *)

val pstar_exact : Rat.t t -> edge_ok:(Rat.t -> Rat.t -> bool) -> bool
(** Property P* (Definition 3.1): every edge's two sides pass
    [edge_ok], and every event's conditional probability is at most
    its initial probability times its incident [phi] values. *)

val pstar_float : eps:float -> float t -> edge_ok:(float -> float -> bool) -> bool
(** {!pstar_exact} with a float potential and a tolerance [eps] on the
    probability bound. *)
