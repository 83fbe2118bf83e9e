(* The adversarial fuzz harness over the solver registry.

   For every generated hostile instance (Gen) and every applicable
   engine, run the engine on the instance and on its enumerating
   reference ([Instance.enumerating], whose conditionals never read a
   compiled table) and cross-check:

   (a) deterministic-given-seed engines produce identical final
       assignments on both (tables and enumeration are exactly equal in
       Q, and the randomness streams do not depend on either);
   (b) whenever the engine's guarantee predicate holds for the
       instance, the shared post-condition report is [ok] — exact
       Verify plus the engine's own P* claim;
   (c) for engines following the paper's fixing discipline, the P*
       potential invariant holds after every trace step, re-derived
       from the instance by the independent Replay checker (nothing
       the engine reports is trusted);

   plus a geometry oracle feeding Srep.mem / Srep.decompose with
   triples hugging the incurved boundary surface.

   On a violation the instance is greedily shrunk (Shrink) while the
   offending engine keeps tripping the same cross-check, and the
   minimal reproducer is dumped in the Serialize v2 instance format so
   [lll_cli --load-instance] can replay it.

   The harness self-test (the fuzzer fuzzing itself) builds an
   unregistered fault-injected clone of the rank-3 fixer —
   Replay.run_mutant with a perturbed phi update — and asserts the
   harness catches and shrinks it. *)

module Rat = Lll_num.Rat
module Instance = Lll_core.Instance
module Solver = Lll_core.Solver
module Srep = Lll_core.Srep
module Serial = Lll_core.Serial

(* ------------------------------------------------------------------ *)
(* Violations                                                          *)
(* ------------------------------------------------------------------ *)

type violation =
  | Backend_mismatch of { engine : string }
  | Guarantee_failed of { engine : string; violated : int list }
  | Pstar_broken of { engine : string; failure : Replay.failure }
  | Engine_crashed of { engine : string; exn : string }

let violation_engine = function
  | Backend_mismatch { engine }
  | Guarantee_failed { engine; _ }
  | Pstar_broken { engine; _ }
  | Engine_crashed { engine; _ } ->
    engine

let pp_violation ppf = function
  | Backend_mismatch { engine } ->
    Format.fprintf ppf
      "%s: final assignments differ between the compiled tables and the enumerating reference"
      engine
  | Guarantee_failed { engine; violated } ->
    Format.fprintf ppf
      "%s: guarantee predicate holds but the report is not ok (violated events: %a)" engine
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Format.pp_print_int)
      violated
  | Pstar_broken { engine; failure } ->
    Format.fprintf ppf "%s: P* replay failed at %a" engine Replay.pp_failure failure
  | Engine_crashed { engine; exn } -> Format.fprintf ppf "%s: raised %s" engine exn

(* ------------------------------------------------------------------ *)
(* The cross-check matrix on one instance                              *)
(* ------------------------------------------------------------------ *)

let mutant_name = "fix3-mutant-phi"

(* Engines whose traces follow the Fix_rank2 / Fix_rank3 update
   discipline the Replay checker models. (fixr generalises the
   potential differently.) *)
let default_replay_engines = [ "fix2"; "fix3"; mutant_name ]

let check ?(replay = fun name -> List.mem name default_replay_engines) ~engines inst =
  let reference = Instance.enumerating inst in
  let run engine inst = Solver.solve ~params:{ Solver.default_params with seed = 1 } engine inst in
  let check_engine e =
    let name = Solver.name e in
    match (run e reference, run e inst) with
    | exception exn -> Some (Engine_crashed { engine = name; exn = Printexc.to_string exn })
    | re, rt ->
      if re.Solver.outcome.Solver.assignment <> rt.Solver.outcome.Solver.assignment then
        Some (Backend_mismatch { engine = name })
      else if Solver.guarantees e inst && not rt.Solver.ok then
        Some (Guarantee_failed { engine = name; violated = rt.Solver.verify.Lll_core.Verify.violated })
      else if replay name && Instance.rank inst <= 3 then begin
        let steps =
          List.map (fun (s : Solver.step) -> (s.Solver.var, s.Solver.value)) rt.Solver.outcome.Solver.trace
        in
        match Replay.check_trace inst steps with
        | Some failure -> Some (Pstar_broken { engine = name; failure })
        | None -> None
      end
      else None
  in
  let rec scan = function
    | [] -> None
    | e :: rest ->
      if not (Solver.applicable e inst) then scan rest
      else (match check_engine e with Some _ as v -> v | None -> scan rest)
  in
  scan engines

(* ------------------------------------------------------------------ *)
(* Shrinking a finding                                                 *)
(* ------------------------------------------------------------------ *)

let shrink ?replay ~engines violation inst =
  let name = violation_engine violation in
  match List.find_opt (fun e -> Solver.name e = name) engines with
  | None -> inst
  | Some engine ->
    let reproduces candidate =
      match check ?replay ~engines:[ engine ] candidate with
      | Some _ -> true
      | None -> false
      | exception _ -> false
    in
    Shrink.minimize ~reproduces inst

(* ------------------------------------------------------------------ *)
(* The geometry oracle                                                 *)
(* ------------------------------------------------------------------ *)

(* For a triple accepted by [Srep.mem], the constructive decomposition
   must be a valid Definition 3.3 witness whose products reproduce
   (a, b) and neither overshoot c nor fall measurably short of it. The
   tolerances leave ~100x headroom over the deviations the ternary
   search actually produces. *)
let geometry_check ?(eps = Srep.default_eps) ((a, b, c) as t) =
  if not (Srep.mem ~eps t) then None
  else begin
    let d = Srep.decompose t in
    let a', b', c' = Srep.products d in
    if not (Srep.is_valid_decomposition ~eps d) then
      Some "decompose returned an invalid witness for a member triple"
    else if abs_float (a' -. a) > 1e-9 || abs_float (b' -. b) > 1e-9 then
      Some "decomposition products do not reproduce (a, b)"
    else if c' > c +. eps then Some "decomposition overshoots c"
    else if c' < c -. 100. *. eps then Some "decomposition falls short of a representable c"
    else None
  end

let fuzz_geometry ?eps ~seed ~samples () =
  let rng = Random.State.make [| seed |] in
  let rec go i =
    if i >= samples then None
    else begin
      let t = Srep.random_near_boundary rng in
      match geometry_check ?eps t with Some reason -> Some (t, reason) | None -> go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The fuzz loop                                                       *)
(* ------------------------------------------------------------------ *)

type finding = {
  label : string;
  instance : Instance.t;
  violation : violation;
  shrunk : Instance.t;
}

type outcome = { tested : int; finding : finding option }

let run ?replay ?(engines = Solver.all ()) ?(log = fun _ -> ()) ~seed ~budget () =
  let rng = Random.State.make [| seed |] in
  let rec go i =
    if i >= budget then { tested = budget; finding = None }
    else begin
      let h = Gen.generate rng in
      log (Printf.sprintf "[%d/%d] %s" (i + 1) budget h.Gen.label);
      match check ?replay ~engines h.Gen.instance with
      | None -> go (i + 1)
      | Some violation ->
        let shrunk = shrink ?replay ~engines violation h.Gen.instance in
        {
          tested = i + 1;
          finding = Some { label = h.Gen.label; instance = h.Gen.instance; violation; shrunk };
        }
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Harness self-test: inject a perturbed-phi mutant, catch it, shrink  *)
(* ------------------------------------------------------------------ *)

(* Zeroing every phi write-back "forgets" the potential: decisions after
   the first write on an edge are made against a flattened landscape, so
   on reused edges (rank-3 rings, chords) the mutant eventually picks a
   value that is unjustifiable under the honest potential — exactly what
   the independent replay must catch. A uniform nonzero gain would be
   too tame: it cancels out of the rank-2 ranking entirely. *)
let self_test_mutation = { Replay.phi_gain = Rat.zero; choose_worst = false }

let mutant_engine =
  Solver.make ~name:mutant_name
    ~doc:
      "fault-injected clone of fix3 with a perturbed phi update — exists so the fuzz \
       harness can prove it catches broken fixers (see DESIGN.md §8); never use for \
       solving"
    ~caps:
      {
        Solver.max_rank = Some 3;
        exact = false;
        distributed = false;
        randomized = false;
        claims_pstar = false;
      }
    (fun _params inst ->
      let assignment, tr = Replay.run_mutant self_test_mutation inst in
      {
        Solver.assignment;
        trace =
          List.map (fun (var, value) -> { Solver.var; value; incs = []; srep_violation = None }) tr;
        rounds = None;
        pstar = None;
        max_violation = None;
        detail = [ ("mutation", "phi_gain=0") ];
      })

let self_test ?(seed = 7) ?(budget = 50) ?log () =
  run ?log ~engines:[ mutant_engine ] ~seed ~budget ()

(* ------------------------------------------------------------------ *)
(* Reproducer dump                                                     *)
(* ------------------------------------------------------------------ *)

let dump_reproducer path finding =
  Serial.save path finding.shrunk;
  path

(* Reproducers as first-class store artifacts: content-addressed, so
   re-finding the same shrunk instance dedupes, and any layer reloads
   it by key ([solve file=<path>] converges on the same cache entry). *)
let dump_reproducer_store store finding =
  let digest = Lll_store.Store.put_blob store finding.shrunk in
  (digest, Filename.concat (Option.get (Lll_store.Store.dir store)) (digest ^ ".lllbin"))
