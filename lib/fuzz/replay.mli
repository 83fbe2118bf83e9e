(** Independent replay of a fixing-process trace against property P*
    (Definition 3.1).

    Given only the [(variable, value)] choices of a trace, re-derive
    the exact Inc ratios and the honest phi potential from the instance
    and check every step: rank-1 Inc at most 1, the rank-2 phi budget,
    rank-3 scaled triples in [S_rep] ({!Lll_core.Srep.mem_rat}) with a
    valid exact split ({!Lll_core.Srep.decompose_rat}), and the P*
    conditional-probability bound on every affected event. Every
    quantity is a rational and every comparison exact. Nothing the
    engine reports is trusted. *)

module Instance = Lll_core.Instance
module Rat = Lll_num.Rat

type failure = { step_index : int; var : int; reason : string }

val pp_failure : Format.formatter -> failure -> unit

val check_trace : Instance.t -> (int * int) list -> failure option
(** First step at which the trace stops being justifiable under the
    honest potential, or [None] if every step checks out. Sound for
    engines following the Fix_rank2 / Fix_rank3 update discipline on
    rank-[<= 3] instances. *)

type mutation = { phi_gain : Rat.t; choose_worst : bool }
(** Fault injection for the harness self-test: [phi_gain] scales every
    phi write-back ([Rat.zero] "forgets" the potential — the classic
    dropped-update bug), [choose_worst] maximises instead of minimising
    the per-step score. *)

val honest : mutation
(** [{ phi_gain = Rat.one; choose_worst = false }] — no fault: exactly
    the Fix_rank3 discipline. *)

val run_mutant : mutation -> Instance.t -> Lll_prob.Assignment.t * (int * int) list
(** Run the (possibly faulty) forward fixing process over all variables
    in id order; returns the final assignment and the trace.
    @raise Invalid_argument on instances of rank > 3. *)
