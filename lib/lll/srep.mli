(** Representable triples (Definition 3.3), the boundary surface [f] of
    Lemma 3.5, and the constructive decomposition used by the rank-3
    fixer. *)

module Rat = Lll_num.Rat

val f : float -> float -> float
(** [f a b = 4 + (ab - 2a - 2b - sqrt(ab(4-a)(4-b)))/2] for
    [a, b >= 0], [a + b <= 4] (Lemma 3.5). *)

val violation : float * float * float -> float
(** Non-positive iff the triple lies in [S_rep] (up to rounding); the
    rank-3 fixer picks the value minimising this. *)

val default_eps : float
(** The single float tolerance ([1e-6]) used by every default boundary
    test at the float layer: {!mem}, {!is_valid_decomposition},
    [Fix_rankr.pstar_holds] and [Srep_r.representable]. It absorbs the
    rounding the rank-r fixer's float [phi] potential accumulates over a
    run. No *correctness* decision depends on it: exact paths use
    {!mem_rat}, {!decompose_rat} and [Verify]. Pass [?eps] to tighten or
    loosen an individual test. *)

val mem : ?eps:float -> float * float * float -> bool

val mem_rat : Rat.t * Rat.t * Rat.t -> bool
(** Exact membership: [c <= f(a,b)] rewritten square-root-free as
    [s >= 0 && s^2 >= ab(4-a)(4-b)] with [s = 8 + ab - 2a - 2b - 2c]. *)

type 'a split = { a1 : 'a; a2 : 'a; b1 : 'a; b3 : 'a; c2 : 'a; c3 : 'a }
(** Witness values of Definition 3.3: [a = a1*a2], [b = b1*b3],
    [c = c2*c3], with [a1+b1 <= 2], [a2+c2 <= 2], [b3+c3 <= 2]. *)

type decomposition = float split

val products : decomposition -> float * float * float
val is_valid_decomposition : ?eps:float -> decomposition -> bool

val decompose : float * float * float -> decomposition
(** Constructive proof of Lemma 3.5: decompose a triple of [S_rep]
    (small positive float violations are clamped). *)

(** {1 Exact splits}

    The rank-3 fixer keeps its potential in [Rat]: the optimal split of
    Lemma 3.5 is irrational, so it writes back a dyadic one that
    satisfies Definition 3.3 exactly. *)

val decompose_rat : Rat.t * Rat.t * Rat.t -> Rat.t split option
(** An exact witness for a rational triple, [None] exactly when the
    triple is outside [S_rep]. [a1] is the first [x] with
    [c <= (2 - a/x)(2 - b/(2-x))] among: the dyadic [x] (denominator
    [2^40]) nearest the float optimum {!best_x}, the dyadics within 32
    steps of [2^-20] either side of it, [a/2], [2 - b/2], their
    midpoint, and the rational [x] maximising
    [x (2 - x) ((2 - a/x)(2 - b/(2-x)) - c)] on [[a/2, 2 - b/2]] (the
    only choice for a triple on the surface). *)

val decompose_down : Rat.t * Rat.t * Rat.t -> Rat.t split
(** The fallback for a triple outside [S_rep]: {!decompose} of
    the triple's float image with each side rounded down to a multiple
    of [2^-40]. Edge sums stay at most 2; products may fall short. *)

val is_valid_split : Rat.t * Rat.t * Rat.t -> Rat.t split -> bool
(** Definition 3.3 in [Rat]: every side in [[0, 2]], the three edge
    sums at most 2, and each product at least its coordinate of the
    triple. *)

val c_of_x : a:float -> b:float -> float -> float
(** [(2 - a/x)(2 - b/(2-x))]: the largest [c] representable with
    [a1 = x]. *)

val best_x : a:float -> b:float -> float
(** Maximiser of {!c_of_x} on [[a/2, 2-b/2]] (ternary search). *)

val hessian : float -> float -> float * float * float
(** [(f_aa, f_ab, f_bb)] from the appendix's closed forms; open domain
    [a, b > 0], [a + b < 4]. *)

val hessian_determinant : float -> float -> float

val surface_grid : steps:int -> (float * float * float) list
(** Samples of the Figure 1 surface over the triangle [a + b <= 4]. *)

val random_representable : Random.State.t -> float * float * float
(** A uniformly-sampled witness decomposition's products — guaranteed
    representable. *)

val random_near_boundary : ?eps:float -> Random.State.t -> float * float * float
(** A triple [(a, b, c)] with [c = f(a,b) * (1 ± eps)] for uniform
    [(a, b)] in the triangle [a + b <= 4] — inputs hugging the incurved
    surface, where {!mem} and {!decompose} have the least float headroom
    (the fuzzer's geometry oracle feeds on these). *)
