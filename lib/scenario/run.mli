(** The measurement driver: every round-accounted registry engine over
    a grid of sizes, with per-run metrics and growth-envelope fits. *)

module Solver = Lll_core.Solver

type measurement = {
  family : string;
  engine : string;
  n : int;  (** the family's size parameter *)
  seed : int;
  rounds : int option;  (** the engine's reported LOCAL rounds *)
  ok : bool;  (** shared post-condition verdict *)
  guaranteed : bool;  (** the engine's theorem covered this instance *)
  round_records : int;
      (** per-round records the engine pushed into the Metrics sink *)
  max_sweep_width : int;
      (** widest color-class fixer sweep (max [stepped] over
          ["fix-sweep"]-phase records with [par_width > 0]); [0] when
          the engine never ran a parallel class sweep *)
  crashed : string option;
      (** the exception the engine raised, if any: [rounds = None] then
          means a crash, not an engine declining the instance *)
}

type growth = Constant | Log_log | Log
(** The envelopes of the paper's threshold dichotomy: O(1) below,
    [Theta(log log n)] randomized / [Theta(log n)] deterministic at the
    threshold. *)

val growth_to_string : growth -> string

type fit = {
  f_family : string;
  f_engine : string;
  f_growth : growth;  (** best-fitting envelope *)
  coeff : float;  (** fitted multiplier for that envelope *)
  residual : float;  (** normalized L2 residual of the best fit *)
}

val heavy_engines : string list
(** The message-passing engines (["mp2"], ["mp3"]), measured only up
    to {!heavy_cutoff} nodes; part of the measurement definition (applied identically when
    recording and when checking baselines). *)

val heavy_cutoff : int

val engine_included : engine:string -> n:int -> bool

val measure :
  ?grid:int list ->
  ?seeds:int list ->
  ?families:Corpus.family list ->
  ?domains:int option ->
  ?store:Lll_store.Store.t ->
  unit ->
  measurement list
(** Run every registered engine with [caps.distributed = true] (the
    round-accounted ones) that is applicable to each family instance —
    except {!heavy_engines} past {!heavy_cutoff}. Instances are
    acquired through [store] (one per (family, n, seed), shared by the
    engines); the default is a fresh memory-only store, so pass a
    disk-backed one to reuse materialized artifacts across runs.
    Deterministic in (grid, seeds): engines draw randomness only from
    the per-measurement seed, and a store hit is bit-identical to a
    regeneration (serialization round-trips exactly). An engine that
    raises yields a [rounds = None, ok = false] measurement carrying the
    exception in [crashed] rather than aborting the sweep. [domains] defaults to [Some 1] so baselines
    never depend on the machine's core count; any override must leave
    every round count bit-identical (the runtime's determinism
    contract) and only affects the recorded sweep widths. *)

val fit_growth : measurement list -> fit list
(** Least-squares fit (through the origin) of each (family, engine)
    series' mean round counts against the three envelopes; series need
    at least two distinct sizes with reported rounds. *)

val pp_measurements : Format.formatter -> measurement list -> unit
val pp_fits : Format.formatter -> fit list -> unit
