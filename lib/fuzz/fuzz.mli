(** The adversarial fuzz harness over the solver registry: hostile
    instances from {!Gen}, a cross-check matrix per engine against the
    enumerating reference ({!Lll_core.Instance.enumerating}), independent
    P* replay ({!Replay}, exact: no tolerance enters the cross-check),
    greedy shrinking ({!Shrink}) and Serialize-v2 reproducer dumps. The
    float tolerance [?eps] survives only on the {!geometry_check} oracle
    of the float [S_rep] surface. See DESIGN.md §8. *)

module Instance = Lll_core.Instance
module Solver = Lll_core.Solver

(** {1 Violations} *)

type violation =
  | Backend_mismatch of { engine : string }
      (** final assignments differ between the instance and its
          enumerating reference *)
  | Guarantee_failed of { engine : string; violated : int list }
      (** the guarantee predicate holds but the report is not [ok] *)
  | Pstar_broken of { engine : string; failure : Replay.failure }
      (** the independent P* replay rejected a trace step *)
  | Engine_crashed of { engine : string; exn : string }

val violation_engine : violation -> string
val pp_violation : Format.formatter -> violation -> unit

(** {1 The cross-check matrix} *)

val default_replay_engines : string list
(** Engines whose traces follow the Fix_rank2/Fix_rank3 update
    discipline modelled by {!Replay.check_trace}. *)

val check :
  ?replay:(string -> bool) ->
  engines:Solver.t list ->
  Instance.t ->
  violation option
(** Run every applicable engine of [engines] on the instance and on
    [Instance.enumerating] of it and return the first violation found,
    if any. *)

val shrink :
  ?replay:(string -> bool) ->
  engines:Solver.t list ->
  violation ->
  Instance.t ->
  Instance.t
(** Greedily minimise the instance while the violating engine (looked
    up by name in [engines]) keeps tripping the cross-check. *)

(** {1 The geometry oracle} *)

val geometry_check : ?eps:float -> float * float * float -> string option
(** For a triple accepted by [Srep.mem]: the constructive decomposition
    must be a valid witness reproducing [(a, b)] and attaining [c] (up
    to boundary clamping). Returns a reason on disagreement. *)

val fuzz_geometry :
  ?eps:float -> seed:int -> samples:int -> unit -> ((float * float * float) * string) option
(** Feed {!geometry_check} with triples hugging the incurved surface
    ({!Lll_core.Srep.random_near_boundary}). *)

(** {1 The fuzz loop} *)

type finding = {
  label : string;  (** generator label of the original instance *)
  instance : Instance.t;  (** the instance as generated *)
  violation : violation;
  shrunk : Instance.t;  (** greedily minimised reproducer *)
}

type outcome = { tested : int; finding : finding option }

val run :
  ?replay:(string -> bool) ->
  ?engines:Solver.t list ->
  ?log:(string -> unit) ->
  seed:int ->
  budget:int ->
  unit ->
  outcome
(** Generate up to [budget] hostile instances and stop at the first
    violation, shrinking it. Reproducible from [seed]. *)

val dump_reproducer : string -> finding -> string
(** Save the shrunk reproducer in the Serialize v2 instance format;
    returns the path ([lll_cli solve/criteria --file] reload it). *)

val dump_reproducer_store : Lll_store.Store.t -> finding -> string * string
(** Persist the shrunk reproducer as a content-addressed binary
    artifact in the store; returns [(digest, path)]. Requires a
    disk-backed store ([Store.create ~dir]). *)

(** {1 Harness self-test} *)

val mutant_name : string
(** ["fix3-mutant-phi"] — the name of the fault-injected engine. *)

val self_test_mutation : Replay.mutation

val mutant_engine : Solver.t
(** The fault-injected clone of the rank-3 fixer, kept out of the
    registry: a perturbed, asymmetric phi write-back
    ({!self_test_mutation}). Its runs look deterministic and complete,
    so only the independent cross-checks can expose it. *)

val self_test : ?seed:int -> ?budget:int -> ?log:(string -> unit) -> unit -> outcome
(** Fuzz the mutant engine only. A healthy harness returns a finding
    (the injected fault is caught and shrunk); [None] in [finding]
    means the harness itself lost its teeth. *)
