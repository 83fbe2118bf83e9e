(** Round-count regression baselines: a checked-in JSON artifact with a
    tolerance band per (family, engine, n), plus the sub-threshold O(1)
    witnesses the sharp-threshold story depends on.

    Policy (DESIGN.md §10): bands are derived from recorded
    measurements as [min - slack .. max + slack] with
    [slack = max(1, ceil(tolerance * max))]; a family on the [Below]
    side must keep at least one engine whose rounds never exceed
    {!o1_cap} across the whole grid. Everything is deterministic in the
    recorded (grid, seeds), so a check failure means the code changed
    behaviour, not noise. *)

type band = { lo : int; hi : int }

type entry = { e_family : string; e_engine : string; e_n : int; band : band }

type witness = { w_family : string; w_engine : string }
(** A sub-threshold family together with the engine that solves it in
    O(1) rounds. *)

type growth_note = { g_family : string; g_engine : string; g_growth : string }

type t = {
  version : int;
  tolerance : float;
  o1_cap : int;
  grid : int list;
  seeds : int list;
  entries : entry list;
  witnesses : witness list;
  growth : growth_note list;  (** informational: fitted envelopes *)
}

val default_tolerance : float
(** 0.25: a quarter of the recorded maximum, at least one round. *)

val default_o1_cap : int
(** 8 rounds: the ceiling for "O(1)-round-solvable" on the default
    grid. At-threshold deterministic series cross it well before
    [n = 96]; the sub-threshold witnesses saturate under it (the
    application engines at 0–1 rounds, parallel Moser–Tardos under
    shattering plateauing at 7 rounds by [n = 960]). *)

val of_measurements :
  ?tolerance:float ->
  ?o1_cap:int ->
  grid:int list ->
  seeds:int list ->
  Run.measurement list ->
  Run.fit list ->
  t
(** Derive bands, witnesses and growth notes from a measurement sweep.
    @raise Failure if some [Below]-side family has no O(1) witness. *)

val check : t -> Run.measurement list -> string list
(** Regression verdict: empty = pass. Reports every crashed
    measurement, every measured round count outside its band, every baseline entry with no matching
    measurement, and every sub-threshold witness whose engine no longer
    stays within [o1_cap] rounds. *)

val to_json : t -> string
val of_json : string -> t
(** @raise Failure on malformed input. *)

val save : string -> t -> unit
val load : string -> t
