(** Distributed LLL solvers with LOCAL round accounting: Corollary 1.2
    (rank 2, edge coloring) and Corollary 1.4 (rank 3, 2-hop coloring).
    The parallel Moser–Tardos baseline is the registry engine
    ["mt-par"]. *)

module Assignment = Lll_prob.Assignment

type result = {
  assignment : Assignment.t;
  rounds : int;  (** Total LOCAL rounds: coloring + sweep. *)
  coloring_rounds : int;
  sweep_rounds : int;
  colors : int;
}

val vars_by_owner : Instance.t -> int list array * int list
(** Each variable is owned by its smallest event: the owned variables
    of every event in ascending order, and the variables on no event. *)

val solve_rank2 : ?domains:int -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> result
(** Corollary 1.2: [O(d + log* n)]-style schedule (edge coloring via the
    Linial pipeline, then one round per color class). Requires rank
    [<= 2]. [domains]/[metrics] drive the coloring phase's runtime. *)

val solve_rank3 : ?domains:int -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> result
(** Corollary 1.4: [O(d^2 + log* n)]-style schedule (2-hop coloring, then
    one round per class). Requires rank [<= 3]. *)

val solve_rankr : ?domains:int -> ?metrics:Lll_local.Metrics.sink -> Instance.t -> result
(** The Corollary 1.4 schedule driving the experimental rank-r fixer
    ({!Fix_rankr}); sound scheduling for any rank, heuristic feasibility
    for rank [>= 4]. *)
