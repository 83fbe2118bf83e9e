(** The application layer as first-class solver engines.

    Two registry engines that recognise application-shaped instances
    structurally — by matching the variable/event incidence AND the
    exact semantics of every compiled event table — and solve them with
    the combinatorial algorithm of the application instead of a generic
    fixing process:

    - ["sinkless-orient"]: sinkless orientation ({!Sinkless.instance} /
      {!Sinkless.relaxed_instance}). Relaxed (ternary) instances are
      solved in 0 LOCAL rounds by leaving every edge unoriented; binary
      at-threshold instances by orienting a cycle of each component
      cyclically and every remaining edge toward that cycle — the
      reported round count is the largest distance to a cycle plus one,
      the genuine LOCAL time of the construction.
    - ["weak-split-greedy"]: relaxed weak splitting
      ({!Weak_splitting.instance}, [min_seen = 2]). A 0-round id-hash
      coloring plus a bounded number of parallel repair rounds; if the
      repair loop does not converge the engine falls back to a provably
      correct sequential greedy pass (possible whenever the palette is
      larger than the instance rank). Solving only needs the structural
      shape; the guarantee additionally demands table-exact
      monochromatic semantics, so it is claimed only when every event's
      scope is small enough to tabulate.

    Both engines are deterministic, unchanged on the enumerating
    reference ({!Lll_core.Instance.enumerating}) and total: on instances
    that do not match their application they return a best-effort
    constant assignment and their {!Lll_core.Solver.guarantees}
    predicate returns [false], so the shared post-condition (exact
    verification) is the only judge. Registration is effectful; call
    {!ensure_registered} before consulting the registry. *)

val ensure_registered : unit -> unit
(** Register both engines (idempotent). *)
