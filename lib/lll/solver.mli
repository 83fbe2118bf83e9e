(** The unified solver engine: one interface, one registry, one trace
    pipeline across every LLL fixer and driver in the library.

    Each engine — the paper's deterministic fixing processes (rank 2,
    rank 3, the exact-arithmetic rank-3 variant, the experimental
    rank-r generalisation), the Moser–Tardos baselines, the
    conditional-expectations union-bound baseline, and the distributed
    drivers of Corollaries 1.2/1.4 (both schedule-accounting and
    genuinely message-passing) — is a plain function from {!params}
    and an instance to an {!outcome}, one complete run, registered
    under a string key together with a {!caps} capability envelope.
    Consumers (the CLI, the experiment harness, the benchmarks, the
    examples and the tests) select engines with
    {!find}/{!all}/{!applicable_to} and run them with {!solve}, never
    touching engine-specific APIs.

    Every {!solve} ends in the one shared post-condition: the produced
    assignment goes through exact {!Verify.check}, and engines whose
    envelope claims property [P*] additionally run their [pstar_holds]
    check — a report is [ok] only if both pass.

    New engines (e.g. the arbitrary-rank generalisation of
    Brandt–Grunau–Rozhoň, or further LLL algorithms à la Davies)
    register themselves with {!register} and instantly appear in
    [lll_cli solvers], the experiment sweep and the
    differential test suite. See DESIGN.md §6. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment
module Metrics = Lll_local.Metrics

(** {1 The uniform step trace} *)

type step = {
  var : int;  (** variable fixed by this step *)
  value : int;  (** value it was fixed to *)
  incs : (int * Rat.t) list;
      (** exact [(event, Inc(event, value))] ratios for the chosen
          value; [[]] for engines that do not track them *)
  srep_violation : float option;
      (** [S_rep] violation of the chosen scaled tuple, where the engine
          has one (rank-3 and rank-r fixers) *)
}

(** {1 Capability envelope} *)

type caps = {
  max_rank : int option;
      (** largest instance rank the engine accepts; [None] = any rank *)
  exact : bool;
      (** every correctness-relevant comparison is exact-rational (no
          float enters a decision) *)
  distributed : bool;
      (** round-accounted: reports LOCAL rounds; runtime-backed engines
          also honour [domains] and emit per-round metrics *)
  randomized : bool;  (** consumes {!params.seed} *)
  claims_pstar : bool;
      (** maintains property [P*] and checks it after the run; the
          shared post-condition then requires the check to pass *)
}

val pp_caps : Format.formatter -> caps -> unit
(** Compact envelope rendering, e.g. ["rank<=3 float sequential det P*"]. *)

(** {1 Run parameters} *)

type params = {
  seed : int;  (** randomized engines only *)
  order : int array option;
      (** variable order for the sequential fixers (identity if [None]);
          distributed engines derive their own schedule *)
  domains : int option;  (** LOCAL runtime domain count *)
  metrics : Metrics.sink;
      (** receives per-step records from sequential engines and
          per-round records from runtime-backed ones *)
}

val default_params : params
(** [seed = 1], identity order, default domains, disabled metrics. *)

(** {1 Outcomes and reports} *)

type outcome = {
  assignment : Assignment.t;
  trace : step list;  (** uniform step trace ([[]] if untraced) *)
  rounds : int option;  (** LOCAL rounds for round-accounted engines *)
  pstar : bool option;
      (** result of the engine's own [P*] check; [None] when the engine
          does not claim [P*] *)
  max_violation : float option;
      (** worst float-boundary violation over the run, for engines with
          a float potential; compare against {!Srep.default_eps} *)
  detail : (string * string) list;
      (** engine-specific diagnostics (resamplings, colors, fallbacks,
          final estimator, ...) as printable key/value pairs. Randomized
          engines whose resampling budget ran out report
          [("budget_exhausted", "true")] together with the work done —
          the run still flows through the shared post-condition and
          comes out [ok = false] rather than raising. *)
}

type report = {
  solver : string;
  outcome : outcome;
  verify : Verify.result;  (** exact verification of the assignment *)
  ok : bool;
      (** [verify.ok] and, where the engine claims [P*],
          [outcome.pstar = Some true] *)
}

val pp_report : Format.formatter -> report -> unit
(** One-line summary: name, ok, rounds, P*, violation, detail. *)

(** {1 Engines} *)

type t
(** A registered engine. *)

val name : t -> string
val doc : t -> string
val caps : t -> caps

val applicable : t -> Instance.t -> bool
(** Structural check: the instance's rank fits the engine's envelope. *)

val guarantees : t -> Instance.t -> bool
(** Whether the engine's success criterion holds for the instance
    (e.g. [p < 2^-d] for the fixers, [ep(d+1) < 1] for Moser–Tardos,
    [sum p_i < 1] for the union bound). When this returns [true] the
    engine's theorem promises an [ok] report; otherwise the run is
    best-effort. *)

val solve : ?params:params -> t -> Instance.t -> report
(** Run the engine and apply the shared post-condition.
    @raise Invalid_argument if the engine is not {!applicable}. *)

(** {1 The registry} *)

type impl = params -> Instance.t -> outcome
(** An engine implementation: one complete run. *)

val make :
  name:string ->
  doc:string ->
  caps:caps ->
  ?guarantees:(Instance.t -> bool) ->
  impl ->
  t
(** An engine outside the registry (e.g. a fault-injected test clone).
    [guarantees] defaults to the paper's exponential criterion
    [p < 2^-d]. *)

val register :
  name:string ->
  doc:string ->
  caps:caps ->
  ?guarantees:(Instance.t -> bool) ->
  impl ->
  t
(** {!make} the engine and add it to the registry under [name].
    @raise Invalid_argument on a duplicate name. *)

val find : string -> t option
val find_exn : string -> t

val all : unit -> t list
(** Every registered engine, in registration order. *)

val names : unit -> string list

val applicable_to : Instance.t -> t list
(** The engines whose envelope fits the instance's rank. *)
