(* Tests for the probability substrate: variables, assignments, events and
   exact conditional probabilities. *)

module R = Lll_num.Rat
module Var = Lll_prob.Var
module A = Lll_prob.Assignment
module E = Lll_prob.Event
module S = Lll_prob.Space

let rat = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Var                                                                  *)
(* ------------------------------------------------------------------ *)

let test_var_uniform () =
  let v = Var.uniform ~id:0 ~name:"u" 4 in
  Alcotest.(check int) "arity" 4 (Var.arity v);
  Alcotest.check rat "prob" (R.of_ints 1 4) (Var.prob v 2)

let test_var_bernoulli () =
  let v = Var.bernoulli ~id:0 ~name:"b" (R.of_ints 1 3) in
  Alcotest.check rat "false" (R.of_ints 2 3) (Var.prob v 0);
  Alcotest.check rat "true" (R.of_ints 1 3) (Var.prob v 1)

let test_var_rejects () =
  Alcotest.check_raises "sum" (Invalid_argument "Var.make: probabilities must sum to 1")
    (fun () -> ignore (Var.make ~id:0 ~name:"x" [| R.of_ints 1 2; R.of_ints 1 3 |]));
  Alcotest.check_raises "zero" (Invalid_argument "Var.make: probabilities must be positive")
    (fun () -> ignore (Var.make ~id:0 ~name:"x" [| R.zero; R.one |]));
  Alcotest.check_raises "empty" (Invalid_argument "Var.make: empty distribution") (fun () ->
      ignore (Var.make ~id:0 ~name:"x" [||]));
  Alcotest.check_raises "bernoulli p=1" (Invalid_argument "Var.bernoulli: need 0 < p < 1")
    (fun () -> ignore (Var.bernoulli ~id:0 ~name:"x" R.one))

(* ------------------------------------------------------------------ *)
(* Assignment                                                           *)
(* ------------------------------------------------------------------ *)

let test_assignment () =
  let a = A.empty 3 in
  Alcotest.(check bool) "unfixed" false (A.is_fixed a 0);
  let a = A.set a 0 5 in
  Alcotest.(check int) "get" 5 (A.value_exn a 0);
  Alcotest.(check int) "num fixed" 1 (A.num_fixed a);
  Alcotest.(check bool) "incomplete" false (A.is_complete a);
  let a = A.set (A.set a 1 0) 2 1 in
  Alcotest.(check bool) "complete" true (A.is_complete a);
  Alcotest.(check (list (pair int int))) "to_list" [ (0, 5); (1, 0); (2, 1) ] (A.to_list a);
  Alcotest.check_raises "value_exn" (Invalid_argument "Assignment.value_exn: variable not fixed")
    (fun () -> ignore (A.value_exn (A.empty 1) 0))

let test_assignment_of_list () =
  let a = A.of_list 4 [ (1, 2); (3, 0) ] in
  Alcotest.(check (option int)) "fixed" (Some 2) (A.get a 1);
  Alcotest.(check (option int)) "unfixed" None (A.get a 0)

(* ------------------------------------------------------------------ *)
(* Event                                                                *)
(* ------------------------------------------------------------------ *)

let test_event_scope_sorted () =
  let e = E.make ~id:0 ~name:"e" ~scope:[| 3; 1; 3; 2 |] (fun _ -> true) in
  Alcotest.(check (array int)) "dedup sorted" [| 1; 2; 3 |] (E.scope e);
  Alcotest.(check bool) "depends" true (E.depends_on e 2);
  Alcotest.(check bool) "not depends" false (E.depends_on e 0)

let test_event_holds () =
  let e = E.all_equal ~id:0 ~name:"eq" ~scope:[| 0; 1 |] in
  Alcotest.(check bool) "equal" true (E.holds e (A.of_list 2 [ (0, 3); (1, 3) ]));
  Alcotest.(check bool) "differ" false (E.holds e (A.of_list 2 [ (0, 3); (1, 4) ]))

let test_event_out_of_scope_probe () =
  let e = E.make ~id:0 ~name:"bad" ~scope:[| 0 |] (fun lookup -> lookup 1 = 0) in
  (try
     ignore (E.holds e (A.of_list 2 [ (0, 0); (1, 0) ]));
     Alcotest.fail "no error"
   with Invalid_argument _ -> ())

let test_event_all_value () =
  let e = E.all_value ~id:0 ~name:"av" ~scope:[| 0; 2 |] ~value:1 in
  Alcotest.(check bool) "all 1" true (E.holds e (A.of_list 3 [ (0, 1); (1, 0); (2, 1) ]));
  Alcotest.(check bool) "not all" false (E.holds e (A.of_list 3 [ (0, 1); (1, 1); (2, 0) ]))

let test_event_of_bad_set () =
  let e = E.of_bad_set ~id:0 ~name:"bs" ~scope:[| 0; 1 |] [ [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.(check bool) "in set" true (E.holds e (A.of_list 2 [ (0, 0); (1, 1) ]));
  Alcotest.(check bool) "not in set" false (E.holds e (A.of_list 2 [ (0, 0); (1, 0) ]));
  Alcotest.(check bool) "never" false (E.holds (E.never ~id:1 ~name:"n") (A.empty 0))

let test_event_combinators () =
  let e1 = E.all_value ~id:0 ~name:"x0=1" ~scope:[| 0 |] ~value:1 in
  let e2 = E.all_value ~id:1 ~name:"x1=1" ~scope:[| 1 |] ~value:1 in
  let both = E.conj ~id:2 ~name:"both" e1 e2 in
  let either = E.disj ~id:3 ~name:"either" e1 e2 in
  let neither = E.negate ~id:4 ~name:"not-e1" e1 in
  Alcotest.(check (array int)) "union scope" [| 0; 1 |] (E.scope both);
  let a11 = A.of_list 2 [ (0, 1); (1, 1) ] and a10 = A.of_list 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "conj true" true (E.holds both a11);
  Alcotest.(check bool) "conj false" false (E.holds both a10);
  Alcotest.(check bool) "disj true" true (E.holds either a10);
  Alcotest.(check bool) "neg" false (E.holds neither a10)

let test_combinator_probabilities () =
  (* inclusion-exclusion on independent events, exactly *)
  let s =
    S.create [| Var.uniform ~id:0 ~name:"x0" 2; Var.uniform ~id:1 ~name:"x1" 4 |]
  in
  let e1 = E.all_value ~id:0 ~name:"e1" ~scope:[| 0 |] ~value:1 in
  let e2 = E.all_value ~id:1 ~name:"e2" ~scope:[| 1 |] ~value:3 in
  let fixed = A.empty 2 in
  let p1 = S.prob s e1 ~fixed and p2 = S.prob s e2 ~fixed in
  let pc = S.prob s (E.conj ~id:2 ~name:"c" e1 e2) ~fixed in
  let pd = S.prob s (E.disj ~id:3 ~name:"d" e1 e2) ~fixed in
  let pn = S.prob s (E.negate ~id:4 ~name:"n" e1) ~fixed in
  Alcotest.check rat "independence" (R.mul p1 p2) pc;
  Alcotest.check rat "inclusion-exclusion" (R.sub (R.add p1 p2) pc) pd;
  Alcotest.check rat "complement" (R.sub R.one p1) pn

(* ------------------------------------------------------------------ *)
(* Space: exact probabilities                                           *)
(* ------------------------------------------------------------------ *)

let space2 () =
  S.create
    [| Var.uniform ~id:0 ~name:"x0" 2; Var.bernoulli ~id:1 ~name:"x1" (R.of_ints 1 3) |]

let test_prob_unconditioned () =
  let s = space2 () in
  (* both variables 1: 1/2 * 1/3 = 1/6 *)
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 0; 1 |] ~value:1 in
  Alcotest.check rat "joint" (R.of_ints 1 6) (S.prob s e ~fixed:(A.empty 2));
  (* x0 = x1: 1/2*2/3 + 1/2*1/3 = 1/2 *)
  let eq = E.all_equal ~id:1 ~name:"eq" ~scope:[| 0; 1 |] in
  Alcotest.check rat "equal" (R.of_ints 1 2) (S.prob s eq ~fixed:(A.empty 2))

let test_prob_conditioned () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 0; 1 |] ~value:1 in
  Alcotest.check rat "given x0=1" (R.of_ints 1 3) (S.prob s e ~fixed:(A.of_list 2 [ (0, 1) ]));
  Alcotest.check rat "given x0=0" R.zero (S.prob s e ~fixed:(A.of_list 2 [ (0, 0) ]));
  Alcotest.check rat "fully fixed" R.one
    (S.prob s e ~fixed:(A.of_list 2 [ (0, 1); (1, 1) ]))

let test_prob_out_of_scope_conditioning () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 1 |] ~value:1 in
  (* conditioning on x0 does not change an event on x1 *)
  Alcotest.check rat "independent" (R.of_ints 1 3)
    (S.prob s e ~fixed:(A.of_list 2 [ (0, 0) ]))

let test_inc () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 0; 1 |] ~value:1 in
  (* Inc(e, x0=1) = (1/3)/(1/6) = 2 *)
  Alcotest.check rat "inc up" (R.of_int 2) (S.inc s e ~fixed:(A.empty 2) ~var:0 ~value:1);
  Alcotest.check rat "inc down" R.zero (S.inc s e ~fixed:(A.empty 2) ~var:0 ~value:0);
  (* denominator zero: Inc = 0 by the paper's convention *)
  Alcotest.check rat "zero denom" R.zero
    (S.inc s e ~fixed:(A.of_list 2 [ (0, 0) ]) ~var:1 ~value:1)

let test_prob_vector () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 0; 1 |] ~value:1 in
  let after, before = S.prob_vector s e ~fixed:(A.empty 2) ~var:0 in
  Alcotest.check rat "before" (R.of_ints 1 6) before;
  Alcotest.check rat "after 0" R.zero after.(0);
  Alcotest.check rat "after 1" (R.of_ints 1 3) after.(1);
  (* law of total probability: sum p_y * after(y) = before *)
  let v = S.var s 0 in
  let total =
    R.sum (List.init (Var.arity v) (fun y -> R.mul (Var.prob v y) after.(y)))
  in
  Alcotest.check rat "total probability" before total

let test_prob_vector_out_of_scope () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 1 |] ~value:1 in
  let after, before = S.prob_vector s e ~fixed:(A.empty 2) ~var:0 in
  Alcotest.check rat "before" (R.of_ints 1 3) before;
  Alcotest.check rat "after same" before after.(0);
  Alcotest.check rat "after same'" before after.(1)

let test_prob_vector_rejects_fixed () =
  let s = space2 () in
  let e = E.all_value ~id:0 ~name:"e" ~scope:[| 0 |] ~value:1 in
  Alcotest.check_raises "fixed var" (Invalid_argument "Space.prob_vector: var already fixed")
    (fun () -> ignore (S.prob_vector s e ~fixed:(A.of_list 2 [ (0, 0) ]) ~var:0))

let test_sampling () =
  let s = space2 () in
  let rng = Random.State.make [| 42 |] in
  let a = S.sample_unfixed s rng (A.empty 2) in
  Alcotest.(check bool) "complete" true (A.is_complete a);
  let partial = A.of_list 2 [ (0, 1) ] in
  let a = S.sample_unfixed s rng partial in
  Alcotest.(check int) "respects fixed" 1 (A.value_exn a 0);
  (* resample changes only the listed variables *)
  let a' = S.resample s rng a [ 1 ] in
  Alcotest.(check int) "untouched" (A.value_exn a 0) (A.value_exn a' 0)

let test_sampling_frequencies () =
  let s = space2 () in
  let rng = Random.State.make [| 7 |] in
  let n = 20_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    let a = S.sample_unfixed s rng (A.empty 2) in
    if A.value_exn a 1 = 1 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "bernoulli 1/3" true (Float.abs (freq -. (1. /. 3.)) < 0.02)

let test_prob_empty_scope_event () =
  let s = space2 () in
  let always = E.make ~id:0 ~name:"always" ~scope:[||] (fun _ -> true) in
  let never = E.never ~id:1 ~name:"never" in
  Alcotest.check rat "always" R.one (S.prob s always ~fixed:(A.empty 2));
  Alcotest.check rat "never" R.zero (S.prob s never ~fixed:(A.empty 2))

let test_space_rejects_misindexed () =
  Alcotest.check_raises "ids" (Invalid_argument "Space.create: variable id must equal its index")
    (fun () -> ignore (S.create [| Var.uniform ~id:3 ~name:"x" 2 |]))

let test_resample_changes_only_listed () =
  let s =
    S.create (Array.init 6 (fun i -> Var.uniform ~id:i ~name:(Printf.sprintf "x%d" i) 10))
  in
  let rng = Random.State.make [| 9 |] in
  let a = S.sample_unfixed s rng (A.empty 6) in
  let a' = S.resample s rng a [ 2; 4 ] in
  List.iter
    (fun i ->
      if i <> 2 && i <> 4 then
        Alcotest.(check int) (Printf.sprintf "x%d untouched" i) (A.value_exn a i)
          (A.value_exn a' i))
    [ 0; 1; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* random small spaces with a random bad-set event *)
let gen_space_event =
  QCheck.Gen.(
    let* nvars = int_range 1 4 in
    let* arity = int_range 2 3 in
    let* seed = int_range 0 100_000 in
    let vars = Array.init nvars (fun i -> Var.uniform ~id:i ~name:(Printf.sprintf "x%d" i) arity) in
    let s = S.create vars in
    let rng = Random.State.make [| seed |] in
    let rec tuples k = if k = 0 then [ [] ] else List.concat_map (fun t -> List.init arity (fun v -> v :: t)) (tuples (k - 1)) in
    let all = tuples nvars in
    let bad = List.filter (fun _ -> Random.State.bool rng) all in
    let scope = Array.init nvars (fun i -> i) in
    let e = E.of_bad_set ~id:0 ~name:"e" ~scope bad in
    return (s, e, List.length bad, List.length all, seed))

let arb_space_event =
  QCheck.make
    ~print:(fun (_, _, nb, na, seed) -> Printf.sprintf "bad=%d/%d seed=%d" nb na seed)
    gen_space_event

let prob_props =
  [
    prop "prob = |bad|/|all| for uniform" 300 arb_space_event (fun (s, e, nb, na, _) ->
        R.equal (S.prob s e ~fixed:(A.empty (S.num_vars s))) (R.of_ints nb na)
        || nb = 0
           && R.is_zero (S.prob s e ~fixed:(A.empty (S.num_vars s))));
    prop "law of total probability" 300 arb_space_event (fun (s, e, _, _, _) ->
        let before = S.prob s e ~fixed:(A.empty (S.num_vars s)) in
        let after, before' = S.prob_vector s e ~fixed:(A.empty (S.num_vars s)) ~var:0 in
        let v = S.var s 0 in
        R.equal before before'
        && R.equal before
             (R.sum (List.init (Var.arity v) (fun y -> R.mul (Var.prob v y) after.(y)))));
    prop "probability in [0,1]" 300 arb_space_event (fun (s, e, _, _, seed) ->
        let rng = Random.State.make [| seed + 1 |] in
        let a = S.sample_unfixed s rng (A.empty (S.num_vars s)) in
        (* condition on a random prefix *)
        let partial = A.empty (S.num_vars s) in
        Array.iteri
          (fun i v -> if i mod 2 = 0 then A.set_inplace partial i (Option.get v))
          (a :> int option array);
        let p = S.prob s e ~fixed:partial in
        R.geq p R.zero && R.leq p R.one);
    prop "fully conditioned prob is 0 or 1" 300 arb_space_event (fun (s, e, _, _, seed) ->
        let rng = Random.State.make [| seed + 2 |] in
        let a = S.sample_unfixed s rng (A.empty (S.num_vars s)) in
        let p = S.prob s e ~fixed:a in
        (R.equal p R.one && E.holds e a) || (R.is_zero p && not (E.holds e a)));
    prop "expected inc is 1" 300 arb_space_event (fun (s, e, _, _, _) ->
        let before = S.prob s e ~fixed:(A.empty (S.num_vars s)) in
        QCheck.assume (not (R.is_zero before));
        let v = S.var s 0 in
        let expectation =
          R.sum
            (List.init (Var.arity v) (fun y ->
                 R.mul (Var.prob v y) (S.inc s e ~fixed:(A.empty (S.num_vars s)) ~var:0 ~value:y)))
        in
        R.equal expectation R.one);
  ]

(* ------------------------------------------------------------------ *)
(* Differential: compiled tables vs. the enumerating reference        *)
(* ------------------------------------------------------------------ *)

(* Random spaces with non-uniform rational distributions, random
   sub-scope events and a random fixing sequence, rebuilt
   deterministically from the seed so a failing case reproduces. *)
type backend_case = {
  bspace : S.t;
  bevents : E.t array;
  bfixes : (int * int) list;  (* fixing sequence; each var at most once *)
  bseed : int;
}

let build_backend_case (nvars, nevents, seed) =
  let rng = Random.State.make [| seed |] in
  let vars =
    Array.init nvars (fun i ->
        let arity = 2 + Random.State.int rng 2 in
        let ws = Array.init arity (fun _ -> 1 + Random.State.int rng 5) in
        let total = Array.fold_left ( + ) 0 ws in
        Var.make ~id:i ~name:(Printf.sprintf "x%d" i)
          (Array.map (fun w -> R.of_ints w total) ws))
  in
  let bspace = S.create vars in
  let rand_event id =
    let scope =
      match List.filter (fun _ -> Random.State.bool rng) (List.init nvars Fun.id) with
      | [] -> [| Random.State.int rng nvars |]
      | l -> Array.of_list l
    in
    let rec tuples j =
      if j = Array.length scope then [ [] ]
      else
        let rest = tuples (j + 1) in
        List.concat
          (List.init (Var.arity vars.(scope.(j))) (fun v -> List.map (fun t -> v :: t) rest))
    in
    let bad = List.filter (fun _ -> Random.State.int rng 3 = 0) (tuples 0) in
    E.of_bad_set ~id ~name:(Printf.sprintf "e%d" id) ~scope bad
  in
  let bevents = Array.init nevents rand_event in
  let bfixes =
    let chosen =
      Array.of_list
        (List.filter_map
           (fun v ->
             if Random.State.bool rng then
               Some (v, Random.State.int rng (Var.arity vars.(v)))
             else None)
           (List.init nvars Fun.id))
    in
    (* Fisher–Yates: the tracker must not care about fixing order *)
    for i = Array.length chosen - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = chosen.(i) in
      chosen.(i) <- chosen.(j);
      chosen.(j) <- t
    done;
    Array.to_list chosen
  in
  { bspace; bevents; bfixes; bseed = seed }

let arb_backend_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "nvars=%d nevents=%d fixes=[%s] seed=%d" (S.num_vars c.bspace)
        (Array.length c.bevents)
        (String.concat ";" (List.map (fun (v, y) -> Printf.sprintf "%d:=%d" v y) c.bfixes))
        c.bseed)
    QCheck.Gen.(
      let* nvars = int_range 1 5 in
      let* nevents = int_range 1 3 in
      let* seed = int_range 0 1_000_000 in
      return (build_backend_case (nvars, nevents, seed)))

(* [f] on the space itself and on its enumerating reference *)
let both_paths space f = (f space, f (S.enumerating space))

(* table prob must be Rat-equal to the enumerated prob under the empty
   assignment and after every prefix of the fixing sequence *)
let law_table_prob_matches_enum c =
  S.compile_events c.bspace c.bevents;
  let ok = ref true in
  let check fixed =
    Array.iter
      (fun e ->
        let pt, pe = both_paths c.bspace (fun s -> S.prob s e ~fixed) in
        if not (R.equal pt pe) then ok := false)
      c.bevents
  in
  let fixed = A.empty (S.num_vars c.bspace) in
  check fixed;
  List.iter
    (fun (v, y) ->
      A.set_inplace fixed v y;
      check fixed)
    c.bfixes;
  !ok

(* same for the whole conditional vector over every unfixed variable *)
let law_table_prob_vector_matches_enum c =
  S.compile_events c.bspace c.bevents;
  let n = S.num_vars c.bspace in
  let ok = ref true in
  let check fixed =
    for v = 0 to n - 1 do
      if not (A.is_fixed fixed v) then
        Array.iter
          (fun e ->
            let (at, bt), (ae, be) =
              both_paths c.bspace (fun s -> S.prob_vector s e ~fixed ~var:v)
            in
            if not (R.equal bt be) then ok := false;
            Array.iteri (fun y a -> if not (R.equal a ae.(y)) then ok := false) at)
          c.bevents
    done
  in
  let fixed = A.empty n in
  check fixed;
  List.iter
    (fun (v, y) ->
      A.set_inplace fixed v y;
      check fixed)
    c.bfixes;
  !ok

(* the incremental tracker must agree with a from-scratch enumeration
   after every single fixing step, on both prob and prob_vector *)
let law_tracker_matches_enum c =
  S.compile_events c.bspace c.bevents;
  let tr = S.Cond_tracker.create c.bspace c.bevents in
  let reference = S.enumerating c.bspace in
  let ok = ref true in
  let check () =
    let fixed = S.Cond_tracker.assignment tr in
    Array.iteri
      (fun i e ->
        let pe = S.prob reference e ~fixed in
        if not (R.equal (S.Cond_tracker.prob tr i) pe) then ok := false;
        for v = 0 to S.num_vars c.bspace - 1 do
          if not (A.is_fixed fixed v) then begin
            let at, bt = S.Cond_tracker.prob_vector tr i ~var:v in
            let ae, be = S.prob_vector reference e ~fixed ~var:v in
            if not (R.equal bt be) then ok := false;
            Array.iteri (fun y a -> if not (R.equal a ae.(y)) then ok := false) at
          end
        done)
      c.bevents
  in
  check ();
  List.iter
    (fun (v, y) ->
      S.Cond_tracker.fix tr ~var:v ~value:y;
      check ())
    c.bfixes;
  !ok

(* a tracker on the enumerating reference (no tables consulted) walks
   the same path *)
let law_tracker_backend_independent c =
  S.compile_events c.bspace c.bevents;
  let tt = S.Cond_tracker.create c.bspace c.bevents in
  let te = S.Cond_tracker.create (S.enumerating c.bspace) c.bevents in
  let ok = ref true in
  let check () =
    Array.iteri
      (fun i _ ->
        if not (R.equal (S.Cond_tracker.prob tt i) (S.Cond_tracker.prob te i)) then
          ok := false)
      c.bevents
  in
  check ();
  List.iter
    (fun (v, y) ->
      S.Cond_tracker.fix tt ~var:v ~value:y;
      S.Cond_tracker.fix te ~var:v ~value:y;
      check ())
    c.bfixes;
  !ok

(* The two-step Inc reference: the tracker's (after, before) pair,
   divided entry by entry, [0] when [before = 0]. *)
let two_step_inc (after, before) =
  Array.map (fun a -> if R.is_zero before then R.zero else R.div a before) after

(* the one-pass [inc_vector] is structurally the two-step ratio, on the
   table path and on the enumerating reference, after every fixing *)
let law_tracker_inc_one_pass c =
  S.compile_events c.bspace c.bevents;
  let trackers =
    [
      S.Cond_tracker.create c.bspace c.bevents;
      S.Cond_tracker.create (S.enumerating c.bspace) c.bevents;
    ]
  in
  let ok = ref true in
  let check tr =
    let fixed = S.Cond_tracker.assignment tr in
    Array.iteri
      (fun i _ ->
        for v = 0 to S.num_vars c.bspace - 1 do
          if not (A.is_fixed fixed v) then
            if S.Cond_tracker.inc_vector tr i ~var:v
               <> two_step_inc (S.Cond_tracker.prob_vector tr i ~var:v)
            then ok := false
        done)
      c.bevents
  in
  List.iter check trackers;
  List.iter
    (fun (v, y) ->
      List.iter
        (fun tr ->
          S.Cond_tracker.fix tr ~var:v ~value:y;
          check tr)
        trackers)
    c.bfixes;
  !ok

(* the edge cases by hand: an event already at probability 0, and
   variables outside an event's scope *)
let test_inc_vector_edge_cases () =
  let vars =
    [|
      Var.make ~id:0 ~name:"x0" [| R.of_ints 1 4; R.of_ints 3 4 |];
      Var.uniform ~id:1 ~name:"x1" 2;
      Var.uniform ~id:2 ~name:"x2" 3;
    |]
  in
  let e0 = E.of_bad_set ~id:0 ~name:"e0" ~scope:[| 0; 1 |] [ [ 0; 0 ] ] in
  let e1 = E.of_bad_set ~id:1 ~name:"e1" ~scope:[| 2 |] [ [ 1 ] ] in
  let space = S.create vars in
  S.compile_events space [| e0; e1 |];
  List.iter
    (fun space ->
      let tr = S.Cond_tracker.create space [| e0; e1 |] in
      let inc ev var = S.Cond_tracker.inc_vector tr ev ~var in
      let agrees ev var =
        Alcotest.(check bool)
          (Printf.sprintf "e%d var %d = two-step" ev var)
          true
          (inc ev var = two_step_inc (S.Cond_tracker.prob_vector tr ev ~var))
      in
      Alcotest.(check (array rat)) "e1 in scope" [| R.zero; R.of_int 3; R.zero |] (inc 1 2);
      Alcotest.(check (array rat)) "e1, var outside scope" [| R.one; R.one |] (inc 1 1);
      S.Cond_tracker.fix tr ~var:0 ~value:1;
      Alcotest.(check rat) "e0 now impossible" R.zero (S.Cond_tracker.prob tr 0);
      Alcotest.(check (array rat)) "e0 at 0, in scope" [| R.zero; R.zero |] (inc 0 1);
      Alcotest.(check (array rat)) "e0 at 0, var outside scope" [| R.zero; R.zero; R.zero |]
        (inc 0 2);
      List.iter (fun (ev, var) -> agrees ev var) [ (0, 1); (0, 2); (1, 1); (1, 2) ])
    [ space; S.enumerating space ]

(* A structurally valid but wrong table: swapping e's two row weights
   keeps its rows and bitmap but moves the mass. The table path must
   read the planted value and the enumerating reference the true one,
   or the differential properties above could not tell them apart. *)
let test_planted_table_is_visible () =
  let vars =
    [|
      Var.make ~id:0 ~name:"x0" [| R.of_ints 1 4; R.of_ints 3 4 |]; Var.uniform ~id:1 ~name:"x1" 2;
    |]
  in
  let e = E.of_bad_set ~id:0 ~name:"e" ~scope:[| 0; 1 |] [ [ 0; 0 ]; [ 1; 1 ] ] in
  let space = S.create vars in
  S.compile_events space [| e |];
  let rows = Option.get (S.table_rows space e) in
  Alcotest.(check int) "two rows" 2 (rows.S.last - rows.S.first);
  let codes = Array.sub rows.S.codes rows.S.first 2 in
  let w = Array.sub rows.S.weights rows.S.first 2 in
  (* plant through the loader's entry: the same rows, weights swapped *)
  let e =
    (S.load_tables space ~names:[| "e" |] ~scopes:[| E.scope e |] ~row_off:[| 0; 2 |] ~codes
       ~weights:[| w.(1); w.(0) |]).(0)
  in
  let fixed = A.of_list 2 [ (0, 0) ] in
  let reference = S.enumerating space in
  (* Pr[e | x0 = 0] = Pr[x1 = 0] = 1/2; the planted row reads (3/8) / (1/4) *)
  Alcotest.(check rat) "table path reads the plant" (R.of_ints 3 2) (S.prob space e ~fixed);
  Alcotest.(check rat) "enumeration reads the truth" (R.of_ints 1 2) (S.prob reference e ~fixed);
  Alcotest.(check rat) "enumerating prob_vector" (R.of_ints 1 2)
    (fst (S.prob_vector reference e ~fixed:(A.empty 2) ~var:0)).(0);
  let tr = S.Cond_tracker.create reference [| e |] in
  S.Cond_tracker.fix tr ~var:0 ~value:0;
  Alcotest.(check rat) "enumerating tracker" (R.of_ints 1 2) (S.Cond_tracker.prob tr 0)

let backend_props =
  [
    prop "table prob = enum prob" 250 arb_backend_case law_table_prob_matches_enum;
    prop "table prob_vector = enum prob_vector" 200 arb_backend_case
      law_table_prob_vector_matches_enum;
    prop "tracker = enum after every fix" 200 arb_backend_case law_tracker_matches_enum;
    prop "tracker is backend independent" 200 arb_backend_case
      law_tracker_backend_independent;
    prop "tracker inc_vector = two-step ratios" 200 arb_backend_case law_tracker_inc_one_pass;
    Alcotest.test_case "inc_vector at probability 0 and out of scope" `Quick
      test_inc_vector_edge_cases;
    Alcotest.test_case "planted wrong table: tables read it, enumeration does not" `Quick
      test_planted_table_is_visible;
  ]

let () =
  Alcotest.run "lll_prob"
    [
      ( "var",
        [
          Alcotest.test_case "uniform" `Quick test_var_uniform;
          Alcotest.test_case "bernoulli" `Quick test_var_bernoulli;
          Alcotest.test_case "rejects" `Quick test_var_rejects;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "basics" `Quick test_assignment;
          Alcotest.test_case "of_list" `Quick test_assignment_of_list;
        ] );
      ( "event",
        [
          Alcotest.test_case "scope sorted" `Quick test_event_scope_sorted;
          Alcotest.test_case "holds" `Quick test_event_holds;
          Alcotest.test_case "out-of-scope probe" `Quick test_event_out_of_scope_probe;
          Alcotest.test_case "all_value" `Quick test_event_all_value;
          Alcotest.test_case "of_bad_set / never" `Quick test_event_of_bad_set;
          Alcotest.test_case "combinators" `Quick test_event_combinators;
          Alcotest.test_case "combinator probabilities" `Quick test_combinator_probabilities;
        ] );
      ( "space",
        [
          Alcotest.test_case "unconditioned" `Quick test_prob_unconditioned;
          Alcotest.test_case "conditioned" `Quick test_prob_conditioned;
          Alcotest.test_case "out-of-scope conditioning" `Quick test_prob_out_of_scope_conditioning;
          Alcotest.test_case "inc" `Quick test_inc;
          Alcotest.test_case "prob_vector" `Quick test_prob_vector;
          Alcotest.test_case "prob_vector out of scope" `Quick test_prob_vector_out_of_scope;
          Alcotest.test_case "prob_vector rejects fixed" `Quick test_prob_vector_rejects_fixed;
          Alcotest.test_case "sampling" `Quick test_sampling;
          Alcotest.test_case "sampling frequencies" `Slow test_sampling_frequencies;
          Alcotest.test_case "empty-scope events" `Quick test_prob_empty_scope_event;
          Alcotest.test_case "rejects misindexed vars" `Quick test_space_rejects_misindexed;
          Alcotest.test_case "resample scope" `Quick test_resample_changes_only_listed;
        ] );
      ("properties", prob_props);
      ("backend differential", backend_props);
    ]
