(* The unified solver engine (see the .mli).

   An engine is a plain function from parameters and an instance to an
   [outcome]. The sequential fixers run through their own [solve] (the
   one fixing loop, [Fixing.run], emits their per-step metrics) and are
   summarised here; Moser-Tardos, conditional expectations and the
   distributed drivers map their results onto the same record. The
   specialized modules keep their full APIs; this module is the single
   point where selection, tracing, metrics and the verification
   post-condition live. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment
module Metrics = Lll_local.Metrics

type step = {
  var : int;
  value : int;
  incs : (int * Rat.t) list;
  srep_violation : float option;
}

type caps = {
  max_rank : int option;
  exact : bool;
  distributed : bool;
  randomized : bool;
  claims_pstar : bool;
}

let pp_caps fmt c =
  Format.fprintf fmt "%s %s %s %s%s"
    (match c.max_rank with Some r -> Printf.sprintf "rank<=%d" r | None -> "rank-any")
    (if c.exact then "exact" else "float")
    (if c.distributed then "distributed" else "sequential")
    (if c.randomized then "rand" else "det")
    (if c.claims_pstar then " P*" else "")

type params = {
  seed : int;
  order : int array option;
  domains : int option;
  metrics : Metrics.sink;
}

let default_params = { seed = 1; order = None; domains = None; metrics = Metrics.disabled }

type outcome = {
  assignment : Assignment.t;
  trace : step list;
  rounds : int option;
  pstar : bool option;
  max_violation : float option;
  detail : (string * string) list;
}

type report = { solver : string; outcome : outcome; verify : Verify.result; ok : bool }

let pp_report fmt r =
  Format.fprintf fmt "%s: %s" r.solver (if r.ok then "ok" else "FAILED");
  (match r.outcome.rounds with
  | Some k -> Format.fprintf fmt ", %d LOCAL rounds" k
  | None -> ());
  (match r.outcome.pstar with Some b -> Format.fprintf fmt ", P* %b" b | None -> ());
  (match r.outcome.max_violation with
  | Some v when v > neg_infinity -> Format.fprintf fmt ", max violation %.2e" v
  | _ -> ());
  if not r.verify.Verify.ok then
    Format.fprintf fmt ", violated [%s]"
      (String.concat ";" (List.map string_of_int r.verify.Verify.violated));
  List.iter (fun (k, v) -> Format.fprintf fmt ", %s=%s" k v) r.outcome.detail

type impl = params -> Instance.t -> outcome

type t = {
  key : string;
  doc : string;
  caps : caps;
  guarantee : Instance.t -> bool;
  impl : impl;
}

let name t = t.key
let doc t = t.doc
let caps t = t.caps

let applicable t inst =
  match t.caps.max_rank with None -> true | Some r -> Instance.rank inst <= r

let guarantees t inst = applicable t inst && t.guarantee inst

(* ---- criteria shorthands (guarantee predicates) ---- *)

let exponential inst =
  Criteria.holds Criteria.Exponential ~p:(Instance.max_prob inst)
    ~d:(Instance.dependency_degree inst)

let shattering inst =
  Criteria.holds Criteria.Shattering ~p:(Instance.max_prob inst)
    ~d:(Instance.dependency_degree inst)

(* ---- registry ---- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let order_of_registration : t list ref = ref []

let make ~name ~doc ~caps ?(guarantees = exponential) impl =
  { key = name; doc; caps; guarantee = guarantees; impl }

let register ~name ~doc ~caps ?guarantees impl =
  if Hashtbl.mem registry name then invalid_arg ("Solver.register: duplicate engine " ^ name);
  let t = make ~name ~doc ~caps ?guarantees impl in
  Hashtbl.replace registry name t;
  order_of_registration := t :: !order_of_registration;
  t

let find key = Hashtbl.find_opt registry key
let find_exn key = match find key with Some t -> t | None -> raise Not_found
let all () = List.rev !order_of_registration
let names () = List.map name (all ())
let applicable_to inst = List.filter (fun t -> applicable t inst) (all ())

(* ---- running ---- *)

let solve ?(params = default_params) t inst =
  if not (applicable t inst) then
    invalid_arg
      (Printf.sprintf "Solver.solve: engine %s supports rank <= %d, instance has rank %d"
         t.key
         (Option.value t.caps.max_rank ~default:max_int)
         (Instance.rank inst));
  let o = t.impl params inst in
  let verify = Verify.check inst o.assignment in
  let ok = verify.Verify.ok && match o.pstar with Some false -> false | _ -> true in
  { solver = t.key; outcome = o; verify; ok }

(* ------------------------------------------------------------------ *)
(* Engine adapters                                                     *)
(* ------------------------------------------------------------------ *)

(* The outcome of a finished sequential fixer. *)
let fixed ~assignment ?(trace = []) ~pstar ?max_violation detail =
  { assignment; trace; rounds = None; pstar = Some pstar; max_violation; detail }

let fix2_impl params inst =
  let assignment, t = Fix_rank2.solve ?order:params.order ~metrics:params.metrics inst in
  let steps = Fix_rank2.steps t in
  (* worst certificate headroom (budget - score) over the run: how
     close the adversary got to the proof's bound *)
  let headroom =
    List.fold_left
      (fun acc (s : Fix_rank2.step) -> Float.min acc (Rat.to_float (Rat.sub s.budget s.score)))
      infinity steps
  in
  fixed ~assignment
    ~trace:
      (List.map
         (fun (s : Fix_rank2.step) ->
           { var = s.var; value = s.value; incs = s.incs; srep_violation = None })
         steps)
    ~pstar:(Fix_rank2.pstar_holds t)
    (if headroom = infinity then [] else [ ("worst_headroom", Printf.sprintf "%.6f" headroom) ])

let fix3_impl params inst =
  let assignment, t = Fix_rank3.solve ?order:params.order ~metrics:params.metrics inst in
  fixed ~assignment
    ~trace:
      (List.map
         (fun (s : Fix_rank3.step) ->
           { var = s.var; value = s.value; incs = s.incs; srep_violation = Some s.violation })
         (Fix_rank3.steps t))
    ~pstar:(Fix_rank3.pstar_holds t) ~max_violation:(Fix_rank3.max_violation t)
    [ ("fallbacks", string_of_int (Fix_rank3.fallbacks t)) ]

let fixr_impl params inst =
  let assignment, t = Fix_rankr.solve ?order:params.order ~metrics:params.metrics inst in
  let slack = Fix_rankr.min_slack t in
  fixed ~assignment
    ~trace:
      (List.map
         (fun (s : Fix_rankr.step) ->
           { var = s.var; value = s.value; incs = s.incs; srep_violation = Some (-.s.slack) })
         (Fix_rankr.steps t))
    ~pstar:(Fix_rankr.pstar_holds t)
    ?max_violation:(if slack = infinity then None else Some (-.slack))
    [
      ("min_slack", Printf.sprintf "%.3e" slack);
      ("infeasible_steps", string_of_int (Fix_rankr.infeasible_steps t));
    ]

let union_bound_impl params inst =
  let a, phi = Cond_exp.solve ?order:params.order ~metrics:params.metrics inst in
  {
    assignment = a;
    trace = [];
    rounds = None;
    pstar = None;
    max_violation = None;
    detail =
      [
        ("criterion", if Cond_exp.criterion_holds inst then "holds" else "fails");
        ("final_phi", Rat.to_string phi);
      ];
  }

(* On budget exhaustion the engines hand back the carried partial result:
   the (complete but still violating) assignment goes through the shared
   post-condition like any other, so the report comes out ok=false with
   the work done so far in [detail] instead of an exception escaping the
   registry. *)
let mt_outcome ~rounds_of run =
  let (a, (s : Moser_tardos.stats)), exhausted =
    match run () with
    | result -> (result, false)
    | exception Moser_tardos.Budget_exhausted { assignment; stats } -> ((assignment, stats), true)
  in
  {
    assignment = a;
    trace = [];
    rounds = rounds_of s;
    pstar = None;
    max_violation = None;
    detail =
      ("resamplings", string_of_int s.resamplings)
      :: (if exhausted then [ ("budget_exhausted", "true") ] else []);
  }

let mt_seq_impl params inst =
  mt_outcome ~rounds_of:(fun _ -> None) (fun () ->
      Moser_tardos.solve_sequential ~seed:params.seed inst)

let mt_par_impl variant params inst =
  mt_outcome ~rounds_of:(fun s -> Some s.Moser_tardos.rounds) (fun () ->
      variant ~seed:params.seed inst)

let dist_impl solve_fn params inst =
  let (r : Distributed.result) = solve_fn ?domains:params.domains ?metrics:(Some params.metrics) inst in
  {
    assignment = r.Distributed.assignment;
    trace = [];
    rounds = Some r.Distributed.rounds;
    pstar = None;
    max_violation = None;
    detail =
      [
        ("coloring_rounds", string_of_int r.Distributed.coloring_rounds);
        ("sweep_rounds", string_of_int r.Distributed.sweep_rounds);
        ("colors", string_of_int r.Distributed.colors);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Built-in registrations (the `lll_cli solvers` order)               *)
(* ------------------------------------------------------------------ *)

let seq_caps ~max_rank ~exact =
  { max_rank; exact; distributed = false; randomized = false; claims_pstar = true }

let (_ : t) =
  register ~name:"fix2"
    ~doc:"Theorem 1.1: rank-2 deterministic sequential fixing (min-score value)"
    ~caps:(seq_caps ~max_rank:(Some 2) ~exact:true)
    fix2_impl

let (_ : t) =
  register ~name:"fix3"
    ~doc:"Theorem 1.3: rank-3 fixing via S_rep (exact potential, min-violation value)"
    ~caps:(seq_caps ~max_rank:(Some 3) ~exact:true)
    fix3_impl

let (_ : t) =
  register ~name:"fixr"
    ~doc:"Conjecture 1.5: experimental rank-r fixing (no proven guarantee for r >= 4)"
    ~caps:(seq_caps ~max_rank:None ~exact:false)
    ~guarantees:(fun inst -> exponential inst && Instance.rank inst <= 3)
    fixr_impl

let (_ : t) =
  register ~name:"union-bound"
    ~doc:"conditional expectations under the global union-bound criterion sum p_i < 1"
    ~caps:
      {
        max_rank = None;
        exact = true;
        distributed = false;
        randomized = false;
        claims_pstar = false;
      }
    ~guarantees:Cond_exp.criterion_holds union_bound_impl

let mt_caps = { max_rank = None; exact = true; distributed = false; randomized = true; claims_pstar = false }

let (_ : t) =
  register ~name:"mt-seq" ~doc:"Moser-Tardos sequential resampling [MT10]" ~caps:mt_caps
    ~guarantees:shattering mt_seq_impl

let (_ : t) =
  register ~name:"mt-par"
    ~doc:"parallel Moser-Tardos, id-minima selection (round-accounted)"
    ~caps:{ mt_caps with distributed = true }
    ~guarantees:shattering
    (mt_par_impl (fun ~seed inst -> Moser_tardos.solve_parallel ~seed inst))

let (_ : t) =
  register ~name:"mt-par-rand"
    ~doc:"parallel Moser-Tardos, fresh random priorities per round [CPS17]"
    ~caps:{ mt_caps with distributed = true }
    ~guarantees:shattering
    (mt_par_impl (fun ~seed inst -> Moser_tardos.solve_parallel_random_priority ~seed inst))

let dist_caps ~max_rank ~exact =
  { max_rank; exact; distributed = true; randomized = false; claims_pstar = false }

let (_ : t) =
  register ~name:"dist2"
    ~doc:"Corollary 1.2: distributed rank-2 schedule (edge coloring + per-class sweep)"
    ~caps:(dist_caps ~max_rank:(Some 2) ~exact:true)
    (dist_impl Distributed.solve_rank2)

let (_ : t) =
  register ~name:"dist3"
    ~doc:"Corollary 1.4: distributed rank-3 schedule (2-hop coloring + per-class sweep)"
    ~caps:(dist_caps ~max_rank:(Some 3) ~exact:true)
    (dist_impl Distributed.solve_rank3)

let (_ : t) =
  register ~name:"distr"
    ~doc:"Corollary 1.4 schedule driving the experimental rank-r fixer"
    ~caps:(dist_caps ~max_rank:None ~exact:false)
    ~guarantees:(fun inst -> exponential inst && Instance.rank inst <= 3)
    (dist_impl Distributed.solve_rankr)

let (_ : t) =
  register ~name:"mp2"
    ~doc:"Corollary 1.2 as a genuinely message-passing protocol on the LOCAL runtime"
    ~caps:(dist_caps ~max_rank:(Some 2) ~exact:true)
    (dist_impl (fun ?domains ?metrics inst -> Dist_lll.solve_rank2 ?domains ?metrics inst))

let (_ : t) =
  register ~name:"mp3"
    ~doc:"Corollary 1.4 as a genuinely message-passing protocol on the LOCAL runtime"
    ~caps:(dist_caps ~max_rank:(Some 3) ~exact:true)
    (dist_impl (fun ?domains ?metrics inst -> Dist_lll.solve ?domains ?metrics inst))
