(* The unified solver engine (see the .mli).

   Engines are adapted behind two small drivers: [seq_driver] wraps the
   sequential fixing processes (one variable per step, per-step metrics
   in the LOCAL runtime's round-record shape) and [oneshot] wraps the
   engines that only exist as complete runs (Moser-Tardos, the
   distributed drivers, conditional expectations). The specialized
   modules keep their full APIs; this module is the single point where
   selection, tracing, metrics and the verification post-condition
   live. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment
module Space = Lll_prob.Space
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

type impl = params -> Instance.t -> driver

and driver = {
  advance : unit -> bool;
  peek_assignment : unit -> Assignment.t;
  peek_trace : unit -> step list;
  finish : unit -> outcome;
}

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

let register ~name ~doc ~caps ?(guarantees = exponential) impl =
  if Hashtbl.mem registry name then invalid_arg ("Solver.register: duplicate engine " ^ name);
  let t = { key = name; doc; caps; guarantee = guarantees; impl } in
  Hashtbl.replace registry name t;
  order_of_registration := t :: !order_of_registration;
  t

let find key = Hashtbl.find_opt registry key
let find_exn key = match find key with Some t -> t | None -> raise Not_found
let all () = List.rev !order_of_registration
let names () = List.map name (all ())
let applicable_to inst = List.filter (fun t -> applicable t inst) (all ())

(* ---- sessions ---- *)

type session = {
  sdriver : driver;
  sink : Metrics.sink;
  mutable exhausted : bool;
  mutable summary : outcome option;
}

let create ?(params = default_params) t inst =
  if not (applicable t inst) then
    invalid_arg
      (Printf.sprintf "Solver.create: engine %s supports rank <= %d, instance has rank %d"
         t.key
         (Option.value t.caps.max_rank ~default:max_int)
         (Instance.rank inst));
  { sdriver = t.impl params inst; sink = params.metrics; exhausted = false; summary = None }

let step s =
  if s.exhausted then false
  else begin
    let more = s.sdriver.advance () in
    if not more then s.exhausted <- true;
    more
  end

let finished s = s.exhausted
let assignment s = s.sdriver.peek_assignment ()
let trace s = s.sdriver.peek_trace ()
let metrics s = Metrics.records s.sink

let outcome s =
  match s.summary with
  | Some o -> o
  | None ->
    let o = s.sdriver.finish () in
    s.exhausted <- true;
    s.summary <- Some o;
    o

let solve ?params t inst =
  let s = create ?params t inst in
  let o = outcome s in
  let verify = Verify.check inst o.assignment in
  let ok = verify.Verify.ok && match o.pstar with Some false -> false | _ -> true in
  { solver = t.key; outcome = o; verify; ok }

let solve_by_name ?params key inst = solve ?params (find_exn key) inst

(* ------------------------------------------------------------------ *)
(* Engine adapters                                                     *)
(* ------------------------------------------------------------------ *)

(* A sequential fixing process: one variable per [advance], per-step
   metrics records shaped like the runtime's round records. [summarise]
   gives the P* verdict, max_violation and detail of the finished run. *)
let seq_driver ~phase ~(fix : int -> unit) ~(get_assignment : unit -> Assignment.t)
    ?(get_trace = fun () -> []) ~summarise params inst =
  let n = Instance.num_vars inst in
  let order = match params.order with Some o -> o | None -> Array.init n (fun i -> i) in
  let len = Array.length order in
  let metrics = params.metrics in
  if Metrics.enabled metrics then Metrics.set_phase metrics phase;
  let pos = ref 0 in
  let advance () =
    if !pos >= len then false
    else begin
      Fixing.timed_fix ~metrics ~total:len ~state:get_assignment fix !pos order.(!pos);
      incr pos;
      !pos < len
    end
  in
  {
    advance;
    peek_assignment = get_assignment;
    peek_trace = get_trace;
    finish =
      (fun () ->
        while advance () do
          ()
        done;
        let pstar, max_violation, detail = summarise () in
        {
          assignment = get_assignment ();
          trace = get_trace ();
          rounds = None;
          pstar = Some pstar;
          max_violation;
          detail;
        });
  }

(* An engine that only exists as a complete run: the single [advance]
   performs it; the outcome is memoised. *)
let oneshot run_fn =
  let memo = ref None in
  let force () =
    match !memo with
    | Some o -> o
    | None ->
      let o = run_fn () in
      memo := Some o;
      o
  in
  {
    advance = (fun () -> ignore (force ()); false);
    peek_assignment = (fun () -> (force ()).assignment);
    peek_trace = (fun () -> (force ()).trace);
    finish = force;
  }

let fix2_impl params inst =
  let t = Fix_rank2.create inst in
  seq_driver ~phase:"fix-rank2"
    ~fix:(Fix_rank2.fix_var t)
    ~get_assignment:(fun () -> Fix_rank2.assignment t)
    ~get_trace:(fun () ->
      List.map
        (fun (s : Fix_rank2.step) ->
          { var = s.var; value = s.value; incs = s.incs; srep_violation = None })
        (Fix_rank2.steps t))
    ~summarise:(fun () ->
      (* worst certificate headroom (budget - score) over the run: how
         close the adversary got to the proof's bound *)
      let headroom =
        List.fold_left
          (fun acc (s : Fix_rank2.step) -> Float.min acc (Rat.to_float (Rat.sub s.budget s.score)))
          infinity (Fix_rank2.steps t)
      in
      ( Fix_rank2.pstar_holds t,
        None,
        if headroom = infinity then [] else [ ("worst_headroom", Printf.sprintf "%.6f" headroom) ]
      ))
    params inst

let fix3_impl params inst =
  let t = Fix_rank3.create inst in
  seq_driver ~phase:"fix-rank3"
    ~fix:(Fix_rank3.fix_var t)
    ~get_assignment:(fun () -> Fix_rank3.assignment t)
    ~get_trace:(fun () ->
      List.map
        (fun (s : Fix_rank3.step) ->
          { var = s.var; value = s.value; incs = s.incs; srep_violation = Some s.violation })
        (Fix_rank3.steps t))
    ~summarise:(fun () -> (Fix_rank3.pstar_holds t, Some (Fix_rank3.max_violation t), []))
    params inst

let fix3_exact_impl params inst =
  let t = Fix_rank3_exact.create inst in
  seq_driver ~phase:"fix-rank3-exact"
    ~fix:(Fix_rank3_exact.fix_var t)
    ~get_assignment:(fun () -> Fix_rank3_exact.assignment t)
    ~summarise:(fun () ->
      ( Fix_rank3_exact.pstar_holds_exact t,
        None,
        [ ("fallbacks", string_of_int (Fix_rank3_exact.fallbacks t)) ] ))
    params inst

let fixr_impl params inst =
  let t = Fix_rankr.create inst in
  seq_driver ~phase:"fix-rankr"
    ~fix:(Fix_rankr.fix_var t)
    ~get_assignment:(fun () -> Fix_rankr.assignment t)
    ~get_trace:(fun () ->
      List.map
        (fun (s : Fix_rankr.step) ->
          { var = s.var; value = s.value; incs = s.incs; srep_violation = Some (-.s.slack) })
        (Fix_rankr.steps t))
    ~summarise:(fun () ->
      let slack = Fix_rankr.min_slack t in
      ( Fix_rankr.pstar_holds t,
        (if slack = infinity then None else Some (-.slack)),
        [
          ("min_slack", Printf.sprintf "%.3e" slack);
          ("infeasible_steps", string_of_int (Fix_rankr.infeasible_steps t));
        ] ))
    params inst

let union_bound_impl params inst =
  oneshot (fun () ->
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
      })

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
  oneshot (fun () ->
      mt_outcome ~rounds_of:(fun _ -> None) (fun () ->
          Moser_tardos.solve_sequential ~seed:params.seed inst))

let mt_par_impl variant params inst =
  oneshot (fun () ->
      mt_outcome ~rounds_of:(fun s -> Some s.Moser_tardos.rounds) (fun () ->
          variant ~seed:params.seed inst))

let dist_impl solve_fn params inst =
  oneshot (fun () ->
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
      })

(* ------------------------------------------------------------------ *)
(* Built-in registrations (the CLI/--list-solvers order)               *)
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
    ~doc:"Theorem 1.3: rank-3 fixing via S_rep (float potential, min-violation value)"
    ~caps:(seq_caps ~max_rank:(Some 3) ~exact:false)
    fix3_impl

let (_ : t) =
  register ~name:"fix3-exact"
    ~doc:"rank-3 fixing with exact rational potential (P* with no epsilon)"
    ~caps:(seq_caps ~max_rank:(Some 3) ~exact:true)
    fix3_exact_impl

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
    ~caps:(dist_caps ~max_rank:(Some 3) ~exact:false)
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
    ~caps:(dist_caps ~max_rank:(Some 3) ~exact:false)
    (dist_impl (fun ?domains ?metrics inst -> Dist_lll.solve ?domains ?metrics inst))
