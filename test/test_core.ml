(* Tests for the core LLL library: instances, criteria, the S_rep
   geometry, both fixers, Moser–Tardos and the distributed drivers. *)

module R = Lll_num.Rat
module G = Lll_graph.Graph
module Gen = Lll_graph.Generators
module Var = Lll_prob.Var
module A = Lll_prob.Assignment
module E = Lll_prob.Event
module S = Lll_prob.Space
module I = Lll_core.Instance
module Crit = Lll_core.Criteria
module Srep = Lll_core.Srep
module F2 = Lll_core.Fix_rank2
module F3 = Lll_core.Fix_rank3
module MT = Lll_core.Moser_tardos
module D = Lll_core.Distributed
module V = Lll_core.Verify
module Syn = Lll_core.Synthetic

let rat = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Instance construction                                                *)
(* ------------------------------------------------------------------ *)

(* a tiny triangle instance: 3 events, one shared rank-3 variable plus a
   private variable per event *)
let triangle_instance () =
  let vars =
    [|
      Var.uniform ~id:0 ~name:"shared" 4;
      Var.uniform ~id:1 ~name:"p0" 2;
      Var.uniform ~id:2 ~name:"p1" 2;
      Var.uniform ~id:3 ~name:"p2" 2;
    |]
  in
  let ev i =
    (* event i occurs iff shared = i and its private variable = 1 *)
    E.make ~id:i ~name:(Printf.sprintf "e%d" i) ~scope:[| 0; i + 1 |] (fun lookup ->
        lookup 0 = i && lookup (i + 1) = 1)
  in
  I.create (S.create vars) [| ev 0; ev 1; ev 2 |]

let test_instance_structure () =
  let inst = triangle_instance () in
  Alcotest.(check int) "events" 3 (I.num_events inst);
  Alcotest.(check int) "vars" 4 (I.num_vars inst);
  Alcotest.(check int) "rank" 3 (I.rank inst);
  Alcotest.(check int) "d" 2 (I.dependency_degree inst);
  Alcotest.(check (array int)) "events of shared" [| 0; 1; 2 |] (I.events_of_var inst 0);
  Alcotest.(check (array int)) "events of private" [| 1 |] (I.events_of_var inst 2);
  let g = I.dep_graph inst in
  Alcotest.(check int) "dep triangle" 3 (G.m g);
  Alcotest.check rat "p = 1/8" (R.of_ints 1 8) (I.max_prob inst)

let test_instance_to_dot () =
  let dot = I.to_dot (triangle_instance ()) in
  Alcotest.(check bool) "labels present" true
    (let re = "e0" in
     let rec contains i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_instance_rejects () =
  let vars = [| Var.uniform ~id:0 ~name:"x" 2 |] in
  let bad_ev = E.make ~id:1 ~name:"wrong id" ~scope:[| 0 |] (fun _ -> false) in
  Alcotest.check_raises "event id" (Invalid_argument "Instance.create: event id must equal its index")
    (fun () -> ignore (I.create (S.create vars) [| bad_ev |]));
  let oos = E.make ~id:0 ~name:"oos" ~scope:[| 5 |] (fun _ -> false) in
  Alcotest.check_raises "scope range" (Invalid_argument "Instance.create: event scope outside space")
    (fun () -> ignore (I.create (S.create vars) [| oos |]))

let test_hyperedges () =
  (* one hyperedge per variable: the events depending on it *)
  let inst = triangle_instance () in
  let hedges = List.init (I.num_vars inst) (I.events_of_var inst) in
  Alcotest.(check int) "hyperedges" 4 (List.length (List.filter (fun e -> e <> [||]) hedges));
  Alcotest.(check int) "rank" 3 (I.rank inst);
  Alcotest.(check (list (array int))) "members" [ [| 0; 1; 2 |]; [| 0 |]; [| 1 |]; [| 2 |] ] hedges

(* Dependency edge ids: pairs numbered by descending first discovery in
   an ascending walk over variables, then pairs, deduplicated by a
   table. The reference is that walk, written out. *)
let test_dep_edge_order () =
  let reference inst =
    let seen = Hashtbl.create 16 and acc = ref [] in
    for vid = 0 to I.num_vars inst - 1 do
      let evs = I.events_of_var inst vid in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if j > i && not (Hashtbl.mem seen (a, b)) then begin
                Hashtbl.add seen (a, b) ();
                acc := (a, b) :: !acc
              end)
            evs)
        evs
    done;
    Array.of_list !acc
  in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 40 do
    let nv = 2 + Random.State.int rng 6 and ne = 2 + Random.State.int rng 6 in
    let vars = Array.init nv (fun id -> Var.uniform ~id ~name:(string_of_int id) 2) in
    (* random scopes of size 1..3: pairs often share several variables *)
    let events =
      Array.init ne (fun id ->
          let k = 1 + Random.State.int rng 3 in
          let scope =
            Array.of_list (List.sort_uniq compare (List.init k (fun _ -> Random.State.int rng nv)))
          in
          E.make ~id ~name:(string_of_int id) ~scope (fun look -> look scope.(0) = 0))
    in
    let inst = I.create (S.create vars) events in
    Alcotest.(check (array (pair int int))) "edge ids" (reference inst) (G.edges (I.dep_graph inst))
  done

(* ------------------------------------------------------------------ *)
(* Criteria                                                             *)
(* ------------------------------------------------------------------ *)

let test_criteria_exact_threshold () =
  (* p = 2^-d exactly: Exponential must FAIL; p slightly below: holds *)
  let d = 5 in
  Alcotest.(check bool) "at" false (Crit.holds Crit.Exponential ~p:(R.pow2 (-d)) ~d);
  Alcotest.(check bool) "below" true
    (Crit.holds Crit.Exponential ~p:(R.sub (R.pow2 (-d)) (R.of_ints 1 1000000)) ~d);
  Alcotest.check rat "ratio at threshold" R.one (Crit.threshold_ratio ~p:(R.pow2 (-d)) ~d)

let test_criteria_shattering () =
  (* e * p * (d+1) < 1 with p=1/100, d=9: e*0.1 < 1 holds *)
  Alcotest.(check bool) "holds" true (Crit.holds Crit.Shattering ~p:(R.of_ints 1 100) ~d:9);
  (* p=1/10, d=9: e*1 > 1 fails *)
  Alcotest.(check bool) "fails" false (Crit.holds Crit.Shattering ~p:(R.of_ints 1 10) ~d:9)

let test_criteria_report () =
  let inst = triangle_instance () in
  let rep = Crit.evaluate inst in
  Alcotest.(check int) "d" 2 rep.Crit.d;
  Alcotest.(check int) "r" 3 rep.Crit.r;
  Alcotest.check rat "p" (R.of_ints 1 8) rep.Crit.p;
  (* 1/8 vs 2^-2 = 1/4: strictly below *)
  Alcotest.(check bool) "exp holds" true (List.assoc Crit.Exponential rep.Crit.satisfied);
  Alcotest.(check bool) "mentions this paper" true
    (let s = Crit.best_algorithm rep in
     String.length s > 0 && String.sub s 0 13 = "deterministic")

let test_criteria_asymmetric () =
  let inst = triangle_instance () in
  (* p_i = 1/8, d = 2; with x_i = 1/3: bound = (1/3)(2/3)^2 = 4/27 > 1/8 *)
  Alcotest.(check bool) "x=1/(d+1) holds" true
    (Crit.asymmetric_holds inst ~x:(Crit.asymmetric_default_x inst));
  (* too-small weights fail: x_i = 1/100 -> bound ~ 1/100 < 1/8 *)
  Alcotest.(check bool) "tiny x fails" false
    (Crit.asymmetric_holds inst ~x:(Array.make 3 (R.of_ints 1 100)));
  Alcotest.check_raises "x out of range"
    (Invalid_argument "Criteria.asymmetric_holds: need 0 < x_i < 1") (fun () ->
      ignore (Crit.asymmetric_holds inst ~x:(Array.make 3 R.one)));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Criteria.asymmetric_holds: |x| mismatch") (fun () ->
      ignore (Crit.asymmetric_holds inst ~x:(Array.make 2 (R.of_ints 1 3))))

(* K3 dependency graph with symmetric probability [num]/[den]: one shared
   arity-[den] variable, event i occurs on [num] designated values. *)
let k3_instance num den =
  let vars = [| Var.uniform ~id:0 ~name:"shared" den |] in
  let ev i =
    E.make ~id:i ~name:(Printf.sprintf "e%d" i) ~scope:[| 0 |] (fun lookup ->
        let x = lookup 0 in
        x mod 3 = i && x < 3 * num)
  in
  I.create (S.create vars) [| ev 0; ev 1; ev 2 |]

let test_criteria_shearer () =
  (* K3 boundary is p = 1/3: Q(K3) = 1 - 3p *)
  Alcotest.(check bool) "K3 p=1/8 inside" true (Crit.shearer_holds (triangle_instance ()));
  (* shared arity-9 variable, events of probability 1/9 and 3/9 *)
  Alcotest.(check bool) "K3 p=1/9 inside" true (Crit.shearer_holds (k3_instance 1 9));
  Alcotest.(check bool) "K3 p=3/9 on boundary -> fails" false
    (Crit.shearer_holds (k3_instance 3 9));
  (* at-threshold sinkless orientation on C5: p = 1/4, d = 2;
     Q(C5) = 1 - 5p + 5p^2 = 1/16 > 0 — INSIDE Shearer (a solution
     exists!) even though the distributed problem is hard: existence vs
     distributed complexity, the paper's whole point *)
  let c5 = Lll_apps.Sinkless.instance (Gen.cycle 5) in
  Alcotest.(check bool) "at-threshold sinkless C5 inside Shearer" true (Crit.shearer_holds c5);
  let rep = Crit.evaluate c5 in
  Alcotest.(check bool) "yet outside the exponential criterion" false
    (List.assoc Crit.Exponential rep.Crit.satisfied)

let test_criteria_shearer_rejects_large () =
  let inst = Syn.ring ~seed:0 ~n:30 ~arity:4 () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Criteria.shearer_holds: too many events (exponential check)") (fun () ->
      ignore (Crit.shearer_holds inst))

(* ------------------------------------------------------------------ *)
(* S_rep geometry                                                       *)
(* ------------------------------------------------------------------ *)

let test_f_known_values () =
  Alcotest.(check (float 1e-12)) "f(0,0)" 4.0 (Srep.f 0. 0.);
  Alcotest.(check (float 1e-12)) "f(0,b)" 2.5 (Srep.f 0. 1.5);
  Alcotest.(check (float 1e-12)) "f(a,0)" 3.0 (Srep.f 1. 0.);
  (* f(a,a) = (2-a)^2 *)
  Alcotest.(check (float 1e-9)) "f(1,1)" 1.0 (Srep.f 1. 1.);
  Alcotest.(check (float 1e-9)) "f(2,2)" 0.0 (Srep.f 2. 2.);
  Alcotest.(check (float 1e-9)) "f(0.5,0.5)" 2.25 (Srep.f 0.5 0.5)

let test_figure2_triple () =
  (* Figure 2 of the paper: (1/4, 3/2, 1/10) is representable *)
  let t = (0.25, 1.5, 0.1) in
  Alcotest.(check bool) "float mem" true (Srep.mem t);
  Alcotest.(check bool) "exact mem" true
    (Srep.mem_rat (R.of_ints 1 4, R.of_ints 3 2, R.of_ints 1 10));
  let d = Srep.decompose t in
  Alcotest.(check bool) "valid witness" true (Srep.is_valid_decomposition d);
  let a, b, c = Srep.products d in
  Alcotest.(check (float 1e-9)) "a" 0.25 a;
  Alcotest.(check (float 1e-9)) "b" 1.5 b;
  Alcotest.(check (float 1e-9)) "c" 0.1 c

let test_srep_boundary_cases () =
  Alcotest.(check bool) "origin" true (Srep.mem (0., 0., 0.));
  Alcotest.(check bool) "(0,0,4)" true (Srep.mem (0., 0., 4.));
  Alcotest.(check bool) "(4,0,0)" true (Srep.mem (4., 0., 0.));
  Alcotest.(check bool) "(0,0,4.01) out" false (Srep.mem (0., 0., 4.01));
  Alcotest.(check bool) "a+b>4 out" false (Srep.mem (2.5, 1.6, 0.));
  Alcotest.(check bool) "(1,1,1) in" true (Srep.mem (1., 1., 1.));
  Alcotest.(check bool) "(1,1,1.01) out" false (Srep.mem ~eps:1e-12 (1., 1., 1.01));
  Alcotest.(check bool) "negative out" false (Srep.mem (-0.1, 0., 0.))

let test_mem_rat_matches_float () =
  let rng = Random.State.make [| 123 |] in
  for _ = 1 to 2000 do
    let q () = R.of_ints (Random.State.int rng 4001) 1000 in
    let a = q () and b = q () and c = q () in
    let fa = R.to_float a and fb = R.to_float b and fc = R.to_float c in
    let viol = Srep.violation (fa, fb, fc) in
    (* only compare away from the boundary, where floats are decisive *)
    if Float.abs viol > 1e-6 then
      Alcotest.(check bool)
        (Printf.sprintf "consistency at (%f,%f,%f)" fa fb fc)
        (viol < 0.) (Srep.mem_rat (a, b, c))
  done

let test_hessian_positive () =
  (* convexity of f (Lemma 3.6): Hessian positive definite on a grid *)
  let steps = 40 in
  for i = 1 to steps - 1 do
    for j = 1 to steps - 1 do
      let a = 4. *. float_of_int i /. float_of_int steps in
      let b = 4. *. float_of_int j /. float_of_int steps in
      if a +. b < 4. -. 1e-9 then begin
        let faa, _, fbb = Srep.hessian a b in
        Alcotest.(check bool) "faa > 0" true (faa > 0.);
        Alcotest.(check bool) "fbb > 0" true (fbb > 0.);
        Alcotest.(check bool) "det > 0" true (Srep.hessian_determinant a b > 0.)
      end
    done
  done

let test_surface_grid () =
  let pts = Srep.surface_grid ~steps:20 in
  Alcotest.(check bool) "nonempty" true (List.length pts > 100);
  List.iter
    (fun (a, b, c) ->
      Alcotest.(check bool) "on surface => representable" true (Srep.mem ~eps:1e-9 (a, b, c));
      Alcotest.(check bool) "range" true (c >= -1e-9 && c <= 4. +. 1e-9);
      ignore (a, b))
    pts

let test_best_x_matches_formula () =
  (* away from the a=b degeneracy, the ternary-search maximiser matches
     the closed-form critical point x1 from the proof of Lemma 3.5 *)
  let check a b =
    let x = Srep.best_x ~a ~b in
    let x1 =
      ((a *. (4. -. b)) -. sqrt (a *. b *. (4. -. a) *. (4. -. b))) /. (2. *. (a -. b))
    in
    Alcotest.(check (float 1e-6)) (Printf.sprintf "x1(%f,%f)" a b) x1 x
  in
  check 0.5 1.5;
  check 2.0 1.0;
  check 0.1 3.0;
  check 1.9 2.0

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let arb_unit_triple =
  QCheck.triple (QCheck.float_bound_inclusive 4.) (QCheck.float_bound_inclusive 4.)
    (QCheck.float_bound_inclusive 4.)

let srep_props =
  [
    prop "witness products are representable" 1000 (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let t = Srep.random_representable rng in
        Srep.mem ~eps:1e-9 t);
    prop "decompose valid on representables" 1000 (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let ((a, b, c) as t) = Srep.random_representable rng in
        let d = Srep.decompose t in
        let a', b', c' = Srep.products d in
        Srep.is_valid_decomposition d
        && Float.abs (a' -. a) <= 1e-6
        && Float.abs (b' -. b) <= 1e-6
        && c' >= c -. 1e-6);
    prop "incurvedness on random segments" 500
      (QCheck.pair arb_unit_triple arb_unit_triple)
      (fun (s, s') ->
        (* if both endpoints are OUTSIDE S_rep, no convex combination is
           inside (Definition 3.4 / Lemma 3.7); sample the segment *)
        QCheck.assume (not (Srep.mem ~eps:0. s) && not (Srep.mem ~eps:0. s'));
        let (xa, ya, za) = s and (xb, yb, zb) = s' in
        let ok = ref true in
        for i = 1 to 19 do
          let q = float_of_int i /. 20. in
          let p =
            ( (q *. xa) +. ((1. -. q) *. xb),
              (q *. ya) +. ((1. -. q) *. yb),
              (q *. za) +. ((1. -. q) *. zb) )
          in
          (* allow boundary-grazing float noise *)
          if Srep.mem ~eps:(-1e-9) p then ok := false
        done;
        !ok);
    prop "monotone: shrinking a coordinate stays in S_rep" 500
      (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        let a, b, c = Srep.random_representable rng in
        let shrink x = x *. Random.State.float rng 1.0 in
        Srep.mem ~eps:1e-9 (shrink a, shrink b, shrink c));
    prop "f symmetric" 500 (QCheck.pair (QCheck.float_bound_inclusive 2.) (QCheck.float_bound_inclusive 2.))
      (fun (a, b) -> Float.abs (Srep.f a b -. Srep.f b a) <= 1e-9);
    prop "c_of_x never exceeds f" 500
      (QCheck.triple (QCheck.float_bound_inclusive 2.) (QCheck.float_bound_inclusive 2.)
         (QCheck.float_bound_inclusive 2.))
      (fun (a, b, x) ->
        QCheck.assume (a +. b <= 4.);
        Srep.c_of_x ~a ~b x <= Srep.f a b +. 1e-9);
  ]

(* On the surface the one split is the rational maximiser of c(x) - c,
   which no dyadic step near the float optimum hits: (1, 1, 1) splits at
   x = 1 (also the midpoint candidate) and (1/2, 7/8, 7/4) at x = 5/6
   (no candidate but the maximiser). Just above the surface, or with
   a + b > 4, there is no split. *)
let test_decompose_rat_surface () =
  let split t =
    match Srep.decompose_rat t with
    | Some d ->
      Alcotest.(check bool) "valid witness" true (Srep.is_valid_split t d);
      Some (R.to_string d.Srep.a1)
    | None -> None
  in
  let q = R.of_ints in
  Alcotest.(check (option string)) "(1, 1, 1)" (Some "1") (split (R.one, R.one, R.one));
  Alcotest.(check (option string)) "(1/2, 7/8, 7/4)" (Some "5/6") (split (q 1 2, q 7 8, q 7 4));
  Alcotest.(check (option string)) "(1, 1, 1 + 2^-40)" None
    (split (R.one, R.one, R.add R.one (R.pow2 (-40))));
  Alcotest.(check (option string)) "(3, 3/2, 0)" None (split (R.of_int 3, q 3 2, R.zero))

(* rational-coordinate properties of the boundary surface (Lemmas
   3.5-3.7): points are dyadic rationals k/64 in [0,4], so [R.to_float]
   is exact and the float evaluation of [f] is only ever compared with
   a 1e-9 slack while [mem_rat] assertions stay fully exact *)
(* (na, nb) with na + nb <= 256, i.e. a = na/64, b = nb/64 in the
   domain triangle a + b <= 4 of f — generated directly, no assume *)
let gen_rat_ab =
  QCheck.Gen.(int_bound 256 >>= fun na -> int_bound (256 - na) >|= fun nb -> (na, nb))

let arb_rat_ab =
  QCheck.make ~print:(fun (na, nb) -> Printf.sprintf "a=%d/64 b=%d/64" na nb) gen_rat_ab

let fq n = float_of_int n /. 64.

let srep_rat_props =
  [
    prop "f midpoint-convex on rational chords (Lemma 3.6)" 400
      (QCheck.pair arb_rat_ab arb_rat_ab)
      (fun ((na, nb), (na', nb')) ->
        let mid = Srep.f (float_of_int (na + na') /. 128.) (float_of_int (nb + nb') /. 128.) in
        mid <= ((Srep.f (fq na) (fq nb) +. Srep.f (fq na') (fq nb')) /. 2.) +. 1e-9);
    prop "f nonincreasing in each argument" 400
      (QCheck.make
         ~print:(fun ((na, nb), d) -> Printf.sprintf "a=%d/64 b=%d/64 d=%d/64" na nb d)
         QCheck.Gen.(
           gen_rat_ab >>= fun (na, nb) ->
           int_bound (256 - na - nb) >|= fun d -> ((na, nb), d)))
      (fun ((na, nb), d) ->
        Srep.f (fq (na + d)) (fq nb) <= Srep.f (fq na) (fq nb) +. 1e-9
        && Srep.f (fq na) (fq (nb + d)) <= Srep.f (fq na) (fq nb) +. 1e-9);
    prop "mem_rat downward-closed in c (exact)" 300
      (QCheck.pair arb_rat_ab (QCheck.make QCheck.Gen.(int_bound 64)))
      (fun ((na, nb), k) ->
        let a = R.of_ints na 64 and b = R.of_ints nb 64 in
        (* a rational c strictly below the surface: membership must hold,
           and must keep holding after scaling c down by k/64 *)
        let nc = max 0 (int_of_float (Srep.f (fq na) (fq nb) *. 64.) - 1) in
        let c = R.of_ints nc 64 in
        Srep.mem_rat (a, b, c) && Srep.mem_rat (a, b, R.mul c (R.of_ints k 64)));
    prop "decompose_rat: exact witness for rational S_rep triples" 400
      (QCheck.make
         ~print:(fun ((na, nb), k, w) ->
           Printf.sprintf "a=%d/64 b=%d/64 k=%d witness_seed=%s" na nb k
             (Option.fold ~none:"-" ~some:string_of_int w))
         QCheck.Gen.(triple gen_rat_ab (int_bound 64) (opt (int_bound 1_000_000))))
      (fun ((na, nb), k, witness_seed) ->
        (* a rational c below the surface at (na/64, nb/64), scaled down
           by k/64; or the products of random k/64 witness sides *)
        let ((a, b, c) as t) =
          match witness_seed with
          | Some seed ->
            let rng = Random.State.make [| seed |] in
            let q () = R.of_ints (Random.State.int rng 129) 64 in
            let pair () =
              let x = q () in
              (x, R.min (R.sub R.two x) (q ()))
            in
            let a1, b1 = pair () and a2, c2 = pair () and b3, c3 = pair () in
            (R.mul a1 a2, R.mul b1 b3, R.mul c2 c3)
          | None ->
            let nc = max 0 (int_of_float (Srep.f (fq na) (fq nb) *. 64.) - 1) in
            (R.of_ints na 64, R.of_ints nb 64, R.mul (R.of_ints nc 64) (R.of_ints k 64))
        in
        Srep.mem_rat t
        &&
        match Srep.decompose_rat t with
        | None ->
          QCheck.Test.fail_reportf "no exact split for (%s, %s, %s)" (R.to_string a)
            (R.to_string b) (R.to_string c)
        | Some d ->
          let side x = R.sign x >= 0 in
          let edge x y = R.leq (R.add x y) R.two in
          List.for_all side [ d.Srep.a1; d.a2; d.b1; d.b3; d.c2; d.c3 ]
          && edge d.a1 d.b1 && edge d.a2 d.c2 && edge d.b3 d.c3
          && R.geq (R.mul d.a1 d.a2) a
          && R.geq (R.mul d.b1 d.b3) b
          && R.geq (R.mul d.c2 d.c3) c
          && Srep.is_valid_split t d);
    (* the numeric clique solver vs the exact rank-3 characterisation is
       one-sided: it never certifies a non-member even at tight eps, but
       its coordinate-balancing can stall ~0.1 log-slack short of the
       optimum on a few percent of true members (near-degenerate
       coordinates), so completeness is only asserted at a loose eps *)
    prop "Srep_r never accepts a non-member (sound)" 150
      (QCheck.triple (QCheck.float_bound_inclusive 4.) (QCheck.float_bound_inclusive 4.)
         (QCheck.float_bound_inclusive 4.))
      (fun ((a, b, c) as t) ->
        QCheck.assume (Srep.violation t > 0.05);
        not (Lll_core.Srep_r.representable ~eps:1e-4 [| a; b; c |]));
    prop "Srep_r accepts members up to solver slack" 150
      (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        (* rejection-sample a triple well inside S_rep from the seed
           (uniform triples are members ~9% of the time, too sparse for
           QCheck.assume) *)
        let rng = Random.State.make [| seed |] in
        let rec pick k =
          let q () = Random.State.float rng 4.0 in
          let a = q () and b = q () and c = q () in
          if Srep.violation (a, b, c) < -0.05 then (a, b, c)
          else if k > 1_000 then (1., 1., 1.)
          else pick (k + 1)
        in
        let a, b, c = pick 0 in
        Lll_core.Srep_r.representable ~eps:0.15 [| a; b; c |]);
  ]

let test_decompose_corners () =
  List.iter
    (fun ((a, b, c), name) ->
      let d = Srep.decompose (a, b, c) in
      Alcotest.(check bool) (name ^ " valid") true (Srep.is_valid_decomposition d);
      let a', b', c' = Srep.products d in
      Alcotest.(check (float 1e-9)) (name ^ " a") a a';
      Alcotest.(check (float 1e-9)) (name ^ " b") b b';
      Alcotest.(check (float 1e-9)) (name ^ " c") c c')
    [
      ((0., 0., 0.), "origin");
      ((0., 0., 4.), "c-max");
      ((4., 0., 0.), "a-max");
      ((0., 4., 0.), "b-max");
      ((2., 2., 0.), "ridge");
      ((1., 1., 1.), "interior");
      ((0., 1.5, 2.5), "a-zero face");
      ((1.5, 0., 2.5), "b-zero face");
    ]

let test_decompose_surface_points () =
  (* points exactly on the surface decompose with c' = f(a,b) *)
  List.iter
    (fun (a, b) ->
      let c = Srep.f a b in
      let d = Srep.decompose (a, b, c) in
      Alcotest.(check bool) "valid" true (Srep.is_valid_decomposition d);
      let _, _, c' = Srep.products d in
      Alcotest.(check (float 1e-6)) "attains f" c c')
    [ (0.5, 0.5); (1., 2.); (3., 0.5); (0.1, 3.8); (2., 2.) ]

let test_violation_negatives () =
  Alcotest.(check bool) "negative coordinate" true (Srep.violation (-0.5, 1., 1.) = infinity)

let test_best_x_in_range () =
  List.iter
    (fun (a, b) ->
      let x = Srep.best_x ~a ~b in
      Alcotest.(check bool) "range" true (x >= (a /. 2.) -. 1e-9 && x <= 2. -. (b /. 2.) +. 1e-9))
    [ (0.5, 0.5); (1., 2.9); (3.9, 0.05); (2., 2.) ]

(* The full 200-step ternary search, kept here as the reference for
   [Srep.best_x]'s early exit. *)
let best_x_200 ~a ~b =
  let lo = ref (a /. 2.) and hi = ref (2. -. (b /. 2.)) in
  if !lo > !hi then begin
    let mid = 0.5 *. (!lo +. !hi) in
    lo := mid;
    hi := mid
  end;
  for _ = 1 to 200 do
    let m1 = !lo +. ((!hi -. !lo) /. 3.) and m2 = !hi -. ((!hi -. !lo) /. 3.) in
    if Srep.c_of_x ~a ~b m1 < Srep.c_of_x ~a ~b m2 then lo := m1 else hi := m2
  done;
  0.5 *. (!lo +. !hi)

let test_best_x_early_exit_exact () =
  let check a b =
    let want = best_x_200 ~a ~b and got = Srep.best_x ~a ~b in
    if Int64.bits_of_float want <> Int64.bits_of_float got then
      Alcotest.failf "best_x ~a:%h ~b:%h = %h, 200 steps give %h" a b got want
  in
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 20_000 do
    let a = Random.State.float rng 4. in
    check a (Random.State.float rng (4. -. a))
  done;
  let tiny = [ 0.; 1e-300; 5e-324; 1e-12; 1e-6 ] in
  List.iter (fun x -> check x x) [ 0.; 1e-9; 0.25; 1.; 1.5; 2.; 2. -. 1e-12 ];
  List.iter (fun t -> List.iter (fun u -> check t u; check u t) [ 0.5; 2.; 3.9; 4. -. t ]) tiny;
  (* a / 2 > 2 - b / 2: the interval starts as one point *)
  List.iter (fun (a, b) -> check a b) [ (3., 2.); (4., 4.); (3.9, 0.2); (2.5, 1.6) ];
  (* a + b near 4 *)
  List.iter
    (fun a -> List.iter (fun d -> check a (4. -. a -. d)) [ 0.; 1e-15; 1e-9; 1e-3 ])
    [ 0.1; 1.; 2.; 3.; 3.999 ]

(* ------------------------------------------------------------------ *)
(* Rank-2 fixer (Theorem 1.1)                                           *)
(* ------------------------------------------------------------------ *)

let shuffled_order ~seed m =
  let rng = Random.State.make [| seed |] in
  let o = Array.init m (fun i -> i) in
  Gen.shuffle rng o;
  o

let test_fix2_ring_instances () =
  for seed = 0 to 9 do
    let inst = Syn.ring ~seed ~n:30 ~arity:4 () in
    let order = shuffled_order ~seed:(seed * 7) (I.num_vars inst) in
    let a, t = F2.solve ~order inst in
    Alcotest.(check bool) (Printf.sprintf "seed %d avoids all" seed) true (V.avoids_all inst a);
    Alcotest.(check bool) (Printf.sprintf "seed %d pstar" seed) true (F2.pstar_holds t)
  done

let test_fix2_scores_within_budget () =
  let inst = Syn.ring ~seed:5 ~n:24 ~arity:4 () in
  let _, t = F2.solve inst in
  List.iter
    (fun (s : F2.step) -> Alcotest.(check bool) "score <= budget" true (R.leq s.score s.budget))
    (F2.steps t)

let test_fix2_relaxed_sinkless () =
  List.iter
    (fun (g, name) ->
      let inst = Lll_apps.Sinkless.relaxed_instance g in
      let a, t = F2.solve inst in
      Alcotest.(check bool) (name ^ " avoids") true (V.avoids_all inst a);
      Alcotest.(check bool) (name ^ " sinkless") true (Lll_apps.Sinkless.is_sinkless g a);
      Alcotest.(check bool) (name ^ " pstar") true (F2.pstar_holds t))
    [
      (Gen.cycle 24, "cycle");
      (Gen.random_regular ~seed:3 20 3, "rr3");
      (Gen.grid 5 5, "grid");
      (Gen.complete 5, "K5");
    ]

let test_fix2_adversarial_orders () =
  (* Theorem 1.1 promises success for EVERY order; try several *)
  let inst = Syn.ring ~seed:77 ~n:20 ~arity:4 () in
  let m = I.num_vars inst in
  let orders =
    [
      Array.init m (fun i -> i);
      Array.init m (fun i -> m - 1 - i);
      shuffled_order ~seed:1 m;
      shuffled_order ~seed:2 m;
      Array.init m (fun i -> if i mod 2 = 0 then i / 2 else m - 1 - (i / 2));
    ]
  in
  List.iteri
    (fun k order ->
      let a, _ = F2.solve ~order inst in
      Alcotest.(check bool) (Printf.sprintf "order %d" k) true (V.avoids_all inst a))
    orders

let test_fix2_rings_with_pstar () =
  for seed = 0 to 4 do
    let inst = Syn.ring ~seed ~n:20 ~arity:4 () in
    let a, t = F2.solve inst in
    Alcotest.(check bool) "success" true (V.avoids_all inst a);
    Alcotest.(check bool) "pstar" true (F2.pstar_holds t)
  done

let test_fix2_rejects_rank3 () =
  let inst = triangle_instance () in
  Alcotest.check_raises "rank 3" (Invalid_argument "Fix_rank2.create: instance has rank > 2")
    (fun () -> ignore (F2.create inst))

let test_fix2_fix_twice () =
  let inst = Syn.ring ~seed:4 ~n:10 ~arity:4 () in
  let t = F2.create inst in
  F2.fix_var t 0;
  Alcotest.check_raises "double fix" (Invalid_argument "Fix_rank2.fix_var: already fixed")
    (fun () -> F2.fix_var t 0)

let fix2_props =
  [
    prop "below-threshold rings always solved" 25
      (QCheck.make QCheck.Gen.(pair (int_range 0 10_000) (int_range 6 40)))
      (fun (seed, n) ->
        let inst = Syn.ring ~seed ~n ~arity:4 () in
        let order = shuffled_order ~seed:(seed + 1) (I.num_vars inst) in
        let a, _ = F2.solve ~order inst in
        V.avoids_all inst a);
    prop "phi sums bounded by 2 (exact)" 15
      (QCheck.make QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let inst = Syn.ring ~seed ~n:16 ~arity:4 () in
        let _, t = F2.solve inst in
        let g = I.dep_graph inst in
        List.for_all
          (fun e ->
            let u, v = G.endpoints g e in
            R.leq (R.add (F2.phi t e u) (F2.phi t e v)) R.two)
          (List.init (G.m g) Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Rank-3 fixer (Theorem 1.3)                                           *)
(* ------------------------------------------------------------------ *)

let test_fix3_triangle () =
  let inst = triangle_instance () in
  let a, t = F3.solve inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "pstar" true (F3.pstar_holds t);
  Alcotest.(check bool) "violations non-positive" true (F3.max_violation t <= 1e-9)

let test_fix3_random_instances () =
  for seed = 0 to 7 do
    let inst = Syn.random ~seed ~n:18 ~rank:3 ~delta:2 ~arity:8 () in
    let order = shuffled_order ~seed:(seed * 13) (I.num_vars inst) in
    let a, t = F3.solve ~order inst in
    Alcotest.(check bool) (Printf.sprintf "seed %d avoids" seed) true (V.avoids_all inst a);
    Alcotest.(check bool) (Printf.sprintf "seed %d pstar" seed) true (F3.pstar_holds t);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d violations" seed)
      true
      (F3.max_violation t <= 1e-9)
  done

let test_fix3_handles_rank2_instances () =
  (* a rank-2 instance is a valid rank-3 instance *)
  let inst = Syn.ring ~seed:21 ~n:20 ~arity:4 () in
  let a, t = F3.solve inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "pstar" true (F3.pstar_holds t)

let test_fix3_pstar_along_the_way () =
  let inst = Syn.random ~seed:3 ~n:12 ~rank:3 ~delta:2 ~arity:8 () in
  let t = F3.create inst in
  let order = shuffled_order ~seed:9 (I.num_vars inst) in
  Array.iter
    (fun vid ->
      F3.fix_var t vid;
      Alcotest.(check bool) (Printf.sprintf "pstar after var %d" vid) true (F3.pstar_holds t))
    order

let test_fix3_random_with_pstar () =
  for seed = 0 to 3 do
    let inst = Syn.random ~seed ~n:15 ~rank:3 ~delta:2 ~arity:8 () in
    let a, t = F3.solve inst in
    Alcotest.(check bool) "success" true (V.avoids_all inst a);
    Alcotest.(check bool) "pstar" true (F3.pstar_holds t)
  done

let test_fix3_rejects_rank4 () =
  let vars = [| Var.uniform ~id:0 ~name:"x" 2 |] in
  let evs =
    Array.init 4 (fun i -> E.all_value ~id:i ~name:(Printf.sprintf "e%d" i) ~scope:[| 0 |] ~value:1)
  in
  let inst = I.create (S.create vars) evs in
  Alcotest.check_raises "rank 4" (Invalid_argument "Fix_rank3.create: instance has rank > 3")
    (fun () -> ignore (F3.create inst))

let fix3_props =
  [
    (* the exact rank-3 fixer and the float-potential rank-r fixer *)
    prop "float, exact and rank-r fixers all succeed" 8
      (QCheck.make QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let inst = Syn.random ~seed ~n:12 ~rank:3 ~delta:2 ~arity:8 () in
        let a1, t3 = F3.solve inst in
        let a2, tr = Lll_core.Fix_rankr.solve inst in
        V.avoids_all inst a1 && V.avoids_all inst a2
        && F3.pstar_holds t3 && F3.fallbacks t3 = 0
        && Lll_core.Fix_rankr.min_slack tr >= -1e-7);
    prop "exact witness rationals are mem_rat members" 300
      (QCheck.make QCheck.Gen.(int_range 0 1_000_000))
      (fun seed ->
        let rng = Random.State.make [| seed |] in
        (* rational witness values with denominator 64 *)
        let q hi = R.of_ints (Random.State.int rng (hi + 1)) 64 in
        let a1 = q 128 in
        let b1 = R.sub R.two a1 |> fun rest -> R.min rest (q 128) in
        let a2 = q 128 in
        let c2 = R.sub R.two a2 |> fun rest -> R.min rest (q 128) in
        let b3 = q 128 in
        let c3 = R.sub R.two b3 |> fun rest -> R.min rest (q 128) in
        QCheck.assume
          (R.sign a1 >= 0 && R.sign b1 >= 0 && R.sign a2 >= 0 && R.sign c2 >= 0
          && R.sign b3 >= 0 && R.sign c3 >= 0);
        Srep.mem_rat (R.mul a1 a2, R.mul b1 b3, R.mul c2 c3));
    prop "below-threshold rank-3 always solved" 15
      (QCheck.make QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let inst = Syn.random ~seed ~n:15 ~rank:3 ~delta:2 ~arity:8 () in
        let order = shuffled_order ~seed:(seed + 3) (I.num_vars inst) in
        let a, t = F3.solve ~order inst in
        V.avoids_all inst a && F3.max_violation t <= 1e-9);
    prop "phi stays a valid P* potential" 10
      (QCheck.make QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let inst = Syn.random ~seed ~n:12 ~rank:3 ~delta:2 ~arity:8 () in
        let _, t = F3.solve inst in
        F3.pstar_holds t);
  ]

(* ------------------------------------------------------------------ *)
(* Exactness of the rank-3 fixer                                        *)
(* ------------------------------------------------------------------ *)

let test_fix3_exact_solves () =
  for seed = 0 to 5 do
    let inst = Syn.random ~seed ~n:15 ~rank:3 ~delta:2 ~arity:8 () in
    let order = shuffled_order ~seed:(seed * 11) (I.num_vars inst) in
    let a, t = F3.solve ~order inst in
    Alcotest.(check bool) (Printf.sprintf "seed %d avoids" seed) true (V.avoids_all inst a);
    Alcotest.(check int) (Printf.sprintf "seed %d no fallback" seed) 0 (F3.fallbacks t);
    Alcotest.(check bool) (Printf.sprintf "seed %d P* EXACT" seed) true (F3.pstar_holds t)
  done

let test_fix3_exact_on_applications () =
  let h = Gen.random_regular_hypergraph ~seed:6 12 3 3 in
  let inst = Lll_apps.Hyper_orientation.instance h in
  let a, t = F3.solve inst in
  Alcotest.(check bool) "hyper solved" true (Lll_apps.Hyper_orientation.is_valid h a);
  Alcotest.(check int) "no fallback" 0 (F3.fallbacks t);
  Alcotest.(check bool) "P* exact" true (F3.pstar_holds t);
  let adj = Gen.random_biregular_bipartite ~seed:6 ~nv:12 ~nu:12 ~deg_u:3 ~deg_v:3 in
  let inst = Lll_apps.Weak_splitting.instance ~nv:12 adj in
  let a, t = F3.solve inst in
  Alcotest.(check bool) "ws solved" true (Lll_apps.Weak_splitting.is_valid ~nv:12 adj a);
  Alcotest.(check int) "ws no fallback" 0 (F3.fallbacks t);
  Alcotest.(check bool) "ws P* exact" true (F3.pstar_holds t)

let test_fix3_exact_phi_sums_exact () =
  let inst = Syn.random ~seed:4 ~n:12 ~rank:3 ~delta:2 ~arity:8 () in
  let _, t = F3.solve inst in
  let g = I.dep_graph inst in
  for e = 0 to G.m g - 1 do
    let u, v = G.endpoints g e in
    Alcotest.(check bool) "sum <= 2 exactly" true
      (R.leq (R.add (F3.phi t e u) (F3.phi t e v)) R.two)
  done

(* ------------------------------------------------------------------ *)
(* Srep_r and the experimental rank-r fixer (Conjecture 1.5)            *)
(* ------------------------------------------------------------------ *)

module SR = Lll_core.Srep_r
module FR = Lll_core.Fix_rankr

let test_clique_edges () =
  Alcotest.(check int) "K3" 3 (Array.length (SR.clique_edges 3));
  Alcotest.(check int) "K4" 6 (Array.length (SR.clique_edges 4));
  Alcotest.(check int) "K5" 10 (Array.length (SR.clique_edges 5))

let test_srep_r_matches_exact_r3 () =
  (* the numeric clique solver must agree with the exact rank-3
     characterisation away from the boundary *)
  let rng = Random.State.make [| 777 |] in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 300 do
    let q () = Random.State.float rng 4.0 in
    let a = q () and b = q () and c = q () in
    let exact_viol = Srep.violation (a, b, c) in
    if Float.abs exact_viol > 0.05 then begin
      incr total;
      let numeric = SR.representable ~eps:1e-4 [| a; b; c |] in
      if numeric = (exact_viol < 0.) then incr agree
    end
  done;
  Alcotest.(check int) "full agreement off-boundary" !total !agree

let test_srep_r_known_points () =
  Alcotest.(check bool) "figure-2 triple" true (SR.representable [| 0.25; 1.5; 0.1 |]);
  Alcotest.(check bool) "all ones r=4" true (SR.representable [| 1.; 1.; 1.; 1. |]);
  Alcotest.(check bool) "all ones r=5" true (SR.representable [| 1.; 1.; 1.; 1.; 1. |]);
  (* a node's product is at most 2^(r-1) *)
  Alcotest.(check bool) "too big r=4" false (SR.representable [| 9.; 0.; 0.; 0. |]);
  Alcotest.(check bool) "max corner r=4" true (SR.representable ~eps:1e-3 [| 7.9; 0.; 0.; 0. |]);
  Alcotest.(check bool) "zeros always" true (SR.representable [| 0.; 0.; 0.; 0.; 0. |])

let test_srep_r_solution_consistency () =
  let rng = Random.State.make [| 31337 |] in
  for _ = 1 to 50 do
    let r = 3 + Random.State.int rng 3 in
    let targets = Array.init r (fun _ -> Random.State.float rng 1.5) in
    let sol = SR.solve ~targets () in
    (* psi respects the edge budgets by construction *)
    Array.iter
      (fun (_, _, pi, pj) ->
        Alcotest.(check bool) "budget" true (pi >= 0. && pj >= 0. && pi +. pj <= 2. +. 1e-9))
      sol.SR.psi;
    (* the reported slack matches the witness products *)
    if sol.SR.min_slack >= 0. then begin
      let prod = Array.make r 1.0 in
      Array.iter
        (fun (i, j, pi, pj) ->
          prod.(i) <- prod.(i) *. pi;
          prod.(j) <- prod.(j) *. pj)
        sol.SR.psi;
      Array.iteri
        (fun i t ->
          Alcotest.(check bool) "witness dominates target" true (prod.(i) >= t -. 1e-6))
        targets
    end
  done

let test_fix_rankr_on_rank3 () =
  (* the generalised fixer agrees with the proven rank-3 one on success *)
  for seed = 0 to 4 do
    let inst = Syn.random ~seed ~n:15 ~rank:3 ~delta:2 ~arity:8 () in
    let a, t = FR.solve inst in
    Alcotest.(check bool) "success" true (V.avoids_all inst a);
    Alcotest.(check bool) "no infeasible step" true (FR.infeasible_steps t = 0);
    Alcotest.(check bool) "pstar" true (FR.pstar_holds t)
  done

let test_fix_rankr_rank4 () =
  for seed = 0 to 3 do
    let inst = Syn.random ~seed ~n:16 ~rank:4 ~delta:2 ~arity:16 () in
    let order =
      let rng = Random.State.make [| seed * 3 |] in
      let o = Array.init (I.num_vars inst) (fun i -> i) in
      Gen.shuffle rng o;
      o
    in
    let a, t = FR.solve ~order inst in
    Alcotest.(check bool) "success" true (V.avoids_all inst a);
    Alcotest.(check bool) "slack >= 0" true (FR.min_slack t >= -1e-7);
    Alcotest.(check bool) "pstar" true (FR.pstar_holds t)
  done

let test_fix_rankr_rank5 () =
  let inst = Syn.random ~seed:1 ~n:20 ~rank:5 ~delta:2 ~arity:32 () in
  let a, t = FR.solve inst in
  Alcotest.(check bool) "success" true (V.avoids_all inst a);
  Alcotest.(check bool) "slack >= 0" true (FR.min_slack t >= -1e-7)

(* ------------------------------------------------------------------ *)
(* Moser–Tardos                                                         *)
(* ------------------------------------------------------------------ *)

let test_mt_sequential () =
  let inst = Syn.ring ~seed:2 ~n:30 ~arity:4 () in
  let a, stats = MT.solve_sequential ~seed:5 inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "finite" true (stats.MT.resamplings < 1_000_000)

let test_mt_parallel () =
  let inst = Syn.ring ~seed:2 ~n:30 ~arity:4 () in
  let a, stats = MT.solve_parallel ~seed:5 inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "rounds recorded" true (stats.MT.rounds >= 0)

let test_mt_at_threshold_sinkless () =
  (* at the threshold MT still works (shattering criterion fails on paper
     but resampling converges in practice on small instances) *)
  let g = Gen.cycle 16 in
  let inst = Lll_apps.Sinkless.instance g in
  let a, _ = MT.solve_parallel ~seed:11 inst in
  Alcotest.(check bool) "sinkless" true (Lll_apps.Sinkless.is_sinkless g a)

let test_mt_random_priority () =
  let inst = Syn.ring ~seed:2 ~n:30 ~arity:4 () in
  let a, stats = MT.solve_parallel_random_priority ~seed:5 inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "did work" true (stats.MT.rounds >= 0)

let test_mt_budget () =
  (* an unsatisfiable instance must raise Budget_exhausted, and the
     payload must carry the last (complete) assignment and the stats *)
  let vars = [| Var.uniform ~id:0 ~name:"x" 2 |] in
  let ev = E.make ~id:0 ~name:"always" ~scope:[| 0 |] (fun _ -> true) in
  let inst = I.create (S.create vars) [| ev |] in
  (try
     ignore (MT.solve_sequential ~max_resamplings:50 ~seed:0 inst);
     Alcotest.fail "no budget error"
   with MT.Budget_exhausted { assignment; stats } ->
     Alcotest.(check int) "payload resamplings" 50 stats.MT.resamplings;
     Alcotest.(check bool) "payload assignment complete" true (A.is_complete assignment))

let test_mt_incremental_matches_rescan () =
  (* the incremental occurring set must reproduce the full-rescan
     baseline exactly: same selection order, same random stream, same
     assignment and resampling count *)
  List.iter
    (fun (inst, seed) ->
      let a1, s1 = MT.solve_sequential ~seed inst in
      let a2, s2 = MT.solve_sequential_rescan ~seed inst in
      Alcotest.(check bool) "same assignment" true (a1 = a2);
      Alcotest.(check int) "same resamplings" s1.MT.resamplings s2.MT.resamplings)
    [
      (Syn.ring ~seed:2 ~n:30 ~arity:4 (), 5);
      (Syn.ring ~position:Syn.At_threshold ~seed:3 ~n:16 ~arity:4 (), 9);
      (Syn.random ~seed:4 ~n:12 ~rank:3 ~delta:2 ~arity:8 (), 7);
    ]

let test_mt_priority_tie_break () =
  (* forced-tie priority array: comparing priorities alone used to block
     both endpoints of every tied edge, selecting nothing while burning
     the round; the lexicographic (priority, id) order must select the
     id-minima instead *)
  let inst = Syn.ring ~seed:2 ~n:8 ~arity:4 () in
  let g = I.dep_graph inst in
  let all_ids = List.init (I.num_events inst) (fun i -> i) in
  let tied = Array.make (I.num_events inst) 0.5 in
  let selected = MT.priority_minima g ~prio:tied all_ids in
  Alcotest.(check bool) "tied round selects at least one event" true (selected <> []);
  (* under a full tie the lexicographic order degenerates to ids: the
     selection must equal the id-local-minima (and be independent) *)
  let id_minima =
    List.filter (fun id -> List.for_all (fun u -> u > id) (Lll_graph.Graph.neighbors g id)) all_ids
  in
  Alcotest.(check (list int)) "tie degenerates to id-minima" id_minima selected;
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u <> v then
            Alcotest.(check bool) "selected events non-adjacent" false
              (Lll_graph.Graph.mem_edge g u v))
        selected)
    selected;
  (* distinct priorities must keep selecting priority-minima as before *)
  let prio = Array.init (I.num_events inst) (fun i -> float_of_int ((i * 5) mod 8)) in
  let by_prio = MT.priority_minima g ~prio all_ids in
  List.iter
    (fun id ->
      List.iter
        (fun u ->
          Alcotest.(check bool) "strict minimum among neighbors" true
            (prio.(u) > prio.(id) || (prio.(u) = prio.(id) && u > id)))
        (Lll_graph.Graph.neighbors g id))
    by_prio

let test_mt_deterministic_given_seed () =
  let inst = Syn.ring ~seed:8 ~n:20 ~arity:4 () in
  let a1, s1 = MT.solve_sequential ~seed:99 inst in
  let a2, s2 = MT.solve_sequential ~seed:99 inst in
  Alcotest.(check bool) "same assignment" true (a1 = a2);
  Alcotest.(check int) "same resamplings" s1.MT.resamplings s2.MT.resamplings

(* ------------------------------------------------------------------ *)
(* Verify                                                               *)
(* ------------------------------------------------------------------ *)

let test_verify_module () =
  let inst = triangle_instance () in
  (* shared=0 and p0=1: event 0 occurs *)
  let bad = A.of_list 4 [ (0, 0); (1, 1); (2, 0); (3, 0) ] in
  Alcotest.(check bool) "not avoided" false (V.avoids_all inst bad);
  Alcotest.(check (option int)) "first violated" (Some 0) (V.first_violated inst bad);
  Alcotest.(check (list int)) "occurring" [ 0 ] (V.occurring_events inst bad);
  let r = V.check inst bad in
  Alcotest.(check bool) "record" true ((not r.V.ok) && r.V.violated = [ 0 ]);
  let good = A.of_list 4 [ (0, 3); (1, 1); (2, 1); (3, 1) ] in
  Alcotest.(check bool) "avoided" true (V.avoids_all inst good);
  Alcotest.(check (option int)) "none violated" None (V.first_violated inst good);
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Verify.avoids_all: incomplete assignment") (fun () ->
      ignore (V.avoids_all inst (A.empty 4)))

let test_best_algorithm_branches () =
  let contains hay needle =
    let ln = String.length needle and lh = String.length hay in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  (* exponential + r<=2: O(d^1) *)
  let r2 = Crit.evaluate (Syn.ring ~seed:0 ~n:8 ~arity:4 ()) in
  Alcotest.(check bool) "rank2 wording" true (contains (Crit.best_algorithm r2) "O(d^1");
  (* exponential + r=3: O(d^2) *)
  let r3 = Crit.evaluate (triangle_instance ()) in
  Alcotest.(check bool) "rank3 wording" true (contains (Crit.best_algorithm r3) "O(d^2");
  (* nothing holds *)
  let bad = Crit.evaluate (Lll_apps.Sinkless.instance (Gen.cycle 5)) in
  Alcotest.(check bool) "no criterion" true
    (contains (Crit.best_algorithm bad) "no criterion"
    || contains (Crit.best_algorithm bad) "Moser-Tardos")

(* ------------------------------------------------------------------ *)
(* Conditional expectations under the union bound                       *)
(* ------------------------------------------------------------------ *)

module CE = Lll_core.Cond_exp

let test_cond_exp_solves_under_union_bound () =
  (* few events: p = 3/16 per event, 4 events: sum = 3/4 < 1 *)
  for seed = 0 to 4 do
    let inst = Syn.ring ~seed ~n:4 ~arity:4 () in
    Alcotest.(check bool) "criterion" true (CE.criterion_holds inst);
    let a, phi = CE.solve inst in
    Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
    Alcotest.check rat "phi is 0 at the end" R.zero phi
  done

let test_cond_exp_criterion_fails_globally () =
  (* the union bound is global: the same local structure fails for
     large n while the LLL criterion keeps holding — the paper's point *)
  let small = Syn.ring ~seed:1 ~n:4 ~arity:4 () in
  let large = Syn.ring ~seed:1 ~n:64 ~arity:4 () in
  Alcotest.(check bool) "small holds" true (CE.criterion_holds small);
  Alcotest.(check bool) "large fails" false (CE.criterion_holds large);
  let rep = Crit.evaluate large in
  Alcotest.(check bool) "LLL still applies" true
    (List.assoc Crit.Exponential rep.Crit.satisfied)

let test_cond_exp_phi_never_increases () =
  let inst = Syn.ring ~seed:5 ~n:10 ~arity:4 () in
  let _, phi = CE.solve inst in
  let initial = R.sum (Array.to_list (I.initial_probs inst)) in
  Alcotest.(check bool) "phi <= initial" true (R.leq phi initial)

(* ------------------------------------------------------------------ *)
(* Active adversary against order-obliviousness                         *)
(* ------------------------------------------------------------------ *)

module Adv = Lll_core.Adversary

let test_adversary_cannot_break_fixer () =
  (* hill climbing on the certificate bound never reaches 1 below the
     threshold, and the fixer always still succeeds *)
  for seed = 0 to 2 do
    let inst = Syn.ring ~seed ~n:14 ~arity:4 () in
    let attack = Adv.worst_order_rank2 ~seed ~steps:60 inst in
    Alcotest.(check bool) "bound < 1" true (R.lt attack.Adv.bound R.one);
    Alcotest.(check bool) "fixer survived" true attack.Adv.succeeded
  done

let test_adversary_bound_is_certificate () =
  let inst = Syn.ring ~seed:9 ~n:10 ~arity:4 () in
  let order = Array.init (I.num_vars inst) (fun i -> i) in
  let b = Adv.final_bound_rank2 inst order in
  Alcotest.(check bool) "positive" true (R.sign b >= 0);
  Alcotest.(check bool) "below 1 below threshold" true (R.lt b R.one)

(* ------------------------------------------------------------------ *)
(* Witness trees (MT10 analysis)                                        *)
(* ------------------------------------------------------------------ *)

module W = Lll_core.Witness

let test_witness_trees_well_formed () =
  let inst = Syn.ring ~position:Syn.At_threshold ~seed:5 ~n:20 ~arity:4 () in
  let _, stats, log = MT.solve_sequential_log ~seed:2 inst in
  Alcotest.(check int) "log length" stats.MT.resamplings (Array.length log);
  QCheck.assume (Array.length log > 0);
  Array.iteri
    (fun t _ ->
      let tree = W.tree_of_log inst log t in
      Alcotest.(check int) (Printf.sprintf "root %d" t) log.(t) tree.W.label;
      Alcotest.(check bool) (Printf.sprintf "well-formed %d" t) true (W.well_formed inst tree);
      Alcotest.(check bool) (Printf.sprintf "size bound %d" t) true (W.size tree <= t + 1);
      Alcotest.(check bool)
        (Printf.sprintf "height <= size %d" t)
        true
        (W.height tree <= W.size tree))
    log

let test_witness_tree_of_empty_prefix () =
  let inst = Syn.ring ~position:Syn.At_threshold ~seed:7 ~n:16 ~arity:4 () in
  let _, _, log = MT.solve_sequential_log ~seed:3 inst in
  QCheck.assume (Array.length log > 0);
  let t0 = W.tree_of_log inst log 0 in
  Alcotest.(check int) "singleton" 1 (W.size t0);
  Alcotest.(check int) "height" 1 (W.height t0)

let test_witness_histogram () =
  let inst = Syn.ring ~position:Syn.At_threshold ~seed:11 ~n:24 ~arity:4 () in
  let _, stats, log = MT.solve_sequential_log ~seed:5 inst in
  let hist = W.size_histogram inst log in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "covers all steps" stats.MT.resamplings total;
  (* sizes are positive and sorted *)
  Alcotest.(check bool) "sorted sizes" true
    (let rec sorted = function
       | (a, _) :: ((b, _) :: _ as rest) -> a < b && sorted rest
       | _ -> true
     in
     sorted hist)

let test_witness_rejects_bad_step () =
  let inst = Syn.ring ~seed:1 ~n:10 ~arity:4 () in
  Alcotest.check_raises "range" (Invalid_argument "Witness.tree_of_log: step out of range")
    (fun () -> ignore (W.tree_of_log inst [| 0 |] 5))

(* ------------------------------------------------------------------ *)
(* Distributed drivers                                                  *)
(* ------------------------------------------------------------------ *)

let test_distributed_rank2 () =
  let inst = Syn.ring ~seed:6 ~n:40 ~arity:4 () in
  let r = D.solve_rank2 inst in
  Alcotest.(check bool) "ok" true (V.avoids_all inst r.D.assignment);
  Alcotest.(check bool) "rounds accounted" true (r.D.rounds = r.D.coloring_rounds + r.D.sweep_rounds);
  Alcotest.(check bool) "few colors" true (r.D.colors <= 3)

let test_distributed_rank3 () =
  let inst = Syn.random ~seed:6 ~n:18 ~rank:3 ~delta:2 ~arity:8 () in
  let r = D.solve_rank3 inst in
  Alcotest.(check bool) "ok" true (V.avoids_all inst r.D.assignment);
  Alcotest.(check bool) "rounds accounted" true (r.D.rounds = r.D.coloring_rounds + r.D.sweep_rounds)

let test_distributed_rankr () =
  let inst = Syn.random ~seed:2 ~n:16 ~rank:4 ~delta:2 ~arity:16 () in
  let r = D.solve_rankr inst in
  Alcotest.(check bool) "ok" true (V.avoids_all inst r.D.assignment);
  Alcotest.(check bool) "rounds accounted" true (r.D.rounds = r.D.coloring_rounds + r.D.sweep_rounds)

let test_distributed_mt () =
  let inst = Syn.ring ~seed:7 ~n:30 ~arity:4 () in
  let params = { Lll_core.Solver.default_params with Lll_core.Solver.seed = 3 } in
  let r = Lll_core.Solver.solve ~params (Lll_core.Solver.find_exn "mt-par") inst in
  Alcotest.(check bool) "ok" true r.Lll_core.Solver.ok

let test_distributed_round_scaling () =
  (* Corollary 1.2 flavour: rounds flat in n past the Linial fixpoint *)
  let rounds n =
    let inst = Syn.ring ~seed:1 ~n ~arity:4 () in
    (D.solve_rank2 inst).D.rounds
  in
  let r1 = rounds 128 and r2 = rounds 512 in
  Alcotest.(check bool) "flat" true (abs (r1 - r2) <= 2)

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

module Ser = Lll_core.Serial

let instances_agree a b =
  (* same structure and same exact probabilities under a few partial
     assignments *)
  I.num_vars a = I.num_vars b
  && I.num_events a = I.num_events b
  && G.edges (I.dep_graph a) = G.edges (I.dep_graph b)
  && I.initial_probs a = I.initial_probs b

let test_serial_roundtrip () =
  List.iter
    (fun (inst, name) ->
      let s = Ser.to_string inst in
      let inst' = Ser.of_string s in
      Alcotest.(check bool) (name ^ " roundtrip") true (instances_agree inst inst');
      (* the round-tripped instance is solvable and agrees step by step *)
      let a, _ = F3.solve inst and a', _ = F3.solve inst' in
      Alcotest.(check bool) (name ^ " same solution") true (a = a'))
    [
      (triangle_instance (), "triangle");
      (Syn.ring ~seed:3 ~n:10 ~arity:4 (), "ring");
      (Lll_apps.Sinkless.relaxed_instance (Gen.cycle 8), "sinkless");
    ]

let test_serial_file_roundtrip () =
  let inst = Syn.random ~seed:2 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  let path = Filename.temp_file "lll_test" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ser.save path inst;
      let inst' = Ser.load_any path in
      Alcotest.(check bool) "file roundtrip" true (instances_agree inst inst'))

let test_serial_ignores_comments () =
  let s = Ser.to_string (triangle_instance ()) in
  let s = "# a comment\n\n" ^ s in
  Alcotest.(check bool) "comments ok" true
    (instances_agree (triangle_instance ()) (Ser.of_string s))

let test_serial_rejects_garbage () =
  (try
     ignore (Ser.of_string "not an instance");
     Alcotest.fail "accepted garbage"
   with Ser.Parse_error _ -> ());
  (try
     ignore (Ser.of_string "lll-instance v2\nvars x\n");
     Alcotest.fail "accepted bad count"
   with Ser.Parse_error _ -> ());
  (* regression: a sign inside a probability's digits ("--2" parsed to
     a negative limb whose gcd never terminated) is a clean parse error *)
  List.iter
    (fun p ->
      try
        ignore
          (Ser.of_any_string
             (Printf.sprintf "lll-instance v2\nvars 1\nvar 0 x 2 %s 1/2\nevents 0\n" p));
        Alcotest.fail ("accepted probability " ^ p)
      with Ser.Parse_error _ -> ())
    [ "1/--2"; "1-2"; "1/2-" ]

let test_serial_v2_error_paths () =
  (* take an honest v2 rendering and corrupt it in each of the ways a
     damaged file plausibly is; every corruption must surface as a clean
     Parse_error, never a wrong instance *)
  let good = Ser.to_string (triangle_instance ()) in
  let lines = String.split_on_char '\n' good in
  let reject name s =
    try
      ignore (Ser.of_string s);
      Alcotest.fail (name ^ " accepted")
    with Ser.Parse_error _ -> ()
  in
  (* wrong-version header *)
  (match lines with
  | header :: rest ->
    Alcotest.(check string) "emits v2" "lll-instance v2" header;
    reject "future version" (String.concat "\n" ("lll-instance v3" :: rest))
  | [] -> Alcotest.fail "empty serialization");
  (* truncated table: drop the final 'w' row so the last wtable block
     promises more rows than the file holds *)
  let last_w =
    List.fold_left
      (fun (i, best) l ->
        (i + 1, if String.length l >= 2 && String.sub l 0 2 = "w " then i else best))
      (0, -1) lines
    |> snd
  in
  Alcotest.(check bool) "has weight rows" true (last_w >= 0);
  reject "truncated table"
    (String.concat "\n" (List.filteri (fun i _ -> i <> last_w) lines));
  (* corrupted row weight: still a positive rational, but no longer the
     product of the distributions — the self-check must fire *)
  let rewrite_weight value =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i <> last_w then l
           else
             match String.rindex_opt l ' ' with
             | Some j -> String.sub l 0 j ^ " " ^ value
             | None -> Alcotest.fail "weight row has no weight")
         lines)
  in
  reject "wrong weight" (rewrite_weight "7/9");
  (* non-positive weight: rejected by the wtable parser itself *)
  reject "zero weight" (rewrite_weight "0")

let test_serial_bad_tuples () =
  let inst = triangle_instance () in
  let e = I.event inst 0 in
  let tuples = Ser.bad_tuples (I.space inst) e in
  (* event 0: shared = 0 and private p0 = 1; scope sorted [0;1]: tuple
     (0, 1) *)
  Alcotest.(check (list (list int))) "table" [ [ 0; 1 ] ] tuples

(* ---- the binary v3 container ---- *)

module Bin = Lll_graph.Serialize.Bin

let test_serial_binary_roundtrip () =
  List.iter
    (fun (inst, name) ->
      let blob = Ser.to_binary_string inst in
      Alcotest.(check bool) (name ^ " detected as binary") true (Ser.is_binary blob);
      Alcotest.(check bool) (name ^ " text not binary") false (Ser.is_binary (Ser.to_string inst));
      let inst' = Ser.of_binary_string blob in
      Alcotest.(check bool) (name ^ " roundtrip") true (instances_agree inst inst');
      let a, _ = F3.solve inst and a', _ = F3.solve inst' in
      Alcotest.(check bool) (name ^ " same solution") true (a = a'))
    [
      (triangle_instance (), "triangle");
      (Syn.ring ~seed:3 ~n:10 ~arity:4 (), "ring");
      (Lll_apps.Sinkless.relaxed_instance (Gen.cycle 8), "sinkless");
    ]

let test_serial_binary_cross_conversion () =
  (* text -> binary -> text is the identity on the v2 rendering, so the
     two formats are lossless interchange *)
  let inst = Syn.random ~seed:2 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  let text = Ser.to_string inst in
  let text' = Ser.to_string (Ser.of_binary_string (Ser.to_binary_string (Ser.of_string text))) in
  Alcotest.(check string) "v2 fixed point" text text';
  (* of_any_string dispatches on content *)
  Alcotest.(check bool) "any: text" true
    (instances_agree inst (Ser.of_any_string text));
  Alcotest.(check bool) "any: binary" true
    (instances_agree inst (Ser.of_any_string (Ser.to_binary_string inst)))

let test_serial_binary_file_roundtrip () =
  let inst = Syn.random ~seed:5 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  let path = Filename.temp_file "lll_test" ".lllb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ser.save_binary path inst;
      Alcotest.(check bool) "load_binary_mmap" true
        (instances_agree inst (Ser.load_binary_mmap path));
      Alcotest.(check bool) "load_any" true (instances_agree inst (Ser.load_any path)))

let test_serial_binary_error_paths () =
  (* every plausible kind of file damage must surface as a clean
     Bin.Corrupt with a distinguishing message, never a wrong instance *)
  let blob = Ser.to_binary_string (triangle_instance ()) in
  let reject name expect s =
    try
      ignore (Ser.of_binary_string s);
      Alcotest.fail (name ^ " accepted")
    with Bin.Corrupt msg ->
      let holds =
        let el = String.length expect and ml = String.length msg in
        let rec scan i = i + el <= ml && (String.sub msg i el = expect || scan (i + 1)) in
        scan 0
      in
      if not holds then
        Alcotest.fail (Printf.sprintf "%s: message %S lacks %S" name msg expect)
  in
  let patch pos c =
    let b = Bytes.of_string blob in
    Bytes.set b pos c;
    Bytes.to_string b
  in
  (* bad magic: first four bytes are not LLL3 *)
  reject "bad magic" "bad magic" (patch 0 'X');
  (* version skew: the i64 at offset 4 is the format version *)
  reject "version skew" "unsupported version" (patch 4 '\099');
  (* truncation: cut the container mid-section *)
  reject "truncated" "truncated" (String.sub blob 0 (String.length blob - 5));
  reject "truncated header" "truncated" (String.sub blob 0 8);
  (* checksum: flip one byte inside a section body (the last byte of the
     payload sits inside the final section) *)
  let last = String.length blob - 1 in
  let flipped = Char.chr (Char.code blob.[last] lxor 0x40) in
  reject "corrupted checksum" "checksum mismatch" (patch last flipped);
  (* wrong container kind: a graph blob is not an instance *)
  reject "wrong kind" "kind"
    (Lll_graph.Serialize.graph_to_binary (Gen.cycle 6));
  (* a string or blob length near max_int must not wrap the bounds
     check past the section end *)
  List.iter
    (fun (what, read) ->
      let w = Bin.make_writer ~kind:"huge" in
      Bin.section w "HUGE";
      Bin.add_int w (max_int - 4);
      let r = Bin.open_reader ~kind:"huge" (Bin.source_of_string (Bin.contents w)) in
      Bin.enter r "HUGE";
      match read r with
      | () -> Alcotest.fail (what ^ ": huge length accepted")
      | exception Bin.Corrupt msg ->
        Alcotest.(check string) what ("section HUGE: truncated " ^ what) msg)
    [
      ("string", fun r -> ignore (Bin.read_string r));
      ("blob", fun r -> ignore (Bin.read_blob r));
    ]

(* An instance container assembled field by field with [Bin]'s writer,
   in the section layout of [Serial.to_binary_string]: every fault
   below carries a valid checksum, so only the loader's semantic checks
   can catch it. Two binary variables and two events, e0 on {x0, x1}
   and e1 on {x1}, adjacent in the dependency graph. *)
let semantic_container ?(probs = [ [| R.of_ints 1 2; R.of_ints 1 2 |]; [| R.of_ints 1 2; R.of_ints 1 2 |] ])
    ?(scope0 = [| 0; 1 |]) ?(codes0 = [| 0; 3 |]) ?(weights0 = [| R.of_ints 1 4; R.of_ints 1 4 |]) () =
  let w = Bin.make_writer ~kind:"instance" in
  Bin.section w "VARS";
  Bin.add_int w (List.length probs);
  List.iteri
    (fun i p ->
      Bin.add_string w (Printf.sprintf "x%d" i);
      Bin.add_rat_array w p)
    probs;
  Bin.section w "EVTS";
  Bin.add_int w 2;
  Bin.add_string w "e0";
  Bin.add_int_array w scope0;
  Bin.add_int_array w codes0;
  Bin.add_rat_array w weights0;
  Bin.add_string w "e1";
  Bin.add_int_array w [| 1 |];
  Bin.add_int_array w [| 1 |];
  Bin.add_rat_array w [| R.of_ints 1 2 |];
  Bin.section w "DEPG";
  Bin.add_string w (Lll_graph.Serialize.graph_to_binary (G.of_ends ~n:2 [| 0; 1 |]));
  Bin.contents w

let test_serial_binary_semantic_faults () =
  let good = Ser.of_binary_string (semantic_container ()) in
  Alcotest.(check int) "fault-free container loads" 2 (I.num_events good);
  Alcotest.(check (array rat)) "fault-free probabilities" [| R.of_ints 1 2; R.of_ints 1 2 |]
    (I.initial_probs good);
  let half = R.of_ints 1 2 and quarter = R.of_ints 1 4 in
  List.iter
    (fun (name, blob) ->
      match Ser.of_binary_string blob with
      | _ -> Alcotest.fail (name ^ " accepted")
      | exception Bin.Corrupt _ -> ())
    [
      ("scope not increasing", semantic_container ~scope0:[| 1; 0 |] ());
      ("scope variable out of range", semantic_container ~scope0:[| 0; 2 |] ());
      ("row code at the arity product", semantic_container ~codes0:[| 0; 4 |] ());
      ("row codes not increasing", semantic_container ~codes0:[| 3; 0 |] ());
      ("code/weight count mismatch", semantic_container ~weights0:[| quarter |] ());
      ("zero weight", semantic_container ~weights0:[| quarter; R.zero |] ());
      ( "distribution not summing to 1",
        semantic_container ~probs:[ [| half; half |]; [| R.of_ints 1 3; R.of_ints 1 3 |] ] () );
    ]

let test_serial_binary_mmap () =
  (* the mapped read path must decode the same instance as a copied
     blob, report the same fingerprint, and reject damage just as
     loudly *)
  let inst = Syn.random ~seed:7 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  let path = Filename.temp_file "lll_test" ".lllb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ser.save_binary path inst;
      Alcotest.(check bool) "mmap agrees with read" true
        (instances_agree
           (Ser.of_binary_string (In_channel.with_open_bin path In_channel.input_all))
           (Ser.load_binary_mmap path));
      (match Ser.binary_fingerprint path with
      | None -> Alcotest.fail "no fingerprint for a binary file"
      | Some fp ->
        let copy = Filename.temp_file "lll_test" ".lllb" in
        Fun.protect
          ~finally:(fun () -> Sys.remove copy)
          (fun () ->
            let blob = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin copy (fun oc -> Out_channel.output_string oc blob);
            Alcotest.(check (option string)) "copy fingerprints equal" (Some fp)
              (Ser.binary_fingerprint copy)));
      (* flip a payload byte on disk: the mapped load must raise the
         same checksum Corrupt as a copied blob *)
      let blob = In_channel.with_open_bin path In_channel.input_all in
      let dmg = Bytes.of_string blob in
      let last = Bytes.length dmg - 1 in
      Bytes.set dmg last (Char.chr (Char.code (Bytes.get dmg last) lxor 0x40));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc dmg);
      (try
         ignore (Ser.load_binary_mmap path);
         Alcotest.fail "corrupted mmap load accepted"
       with Bin.Corrupt _ -> ()));
  let text = Filename.temp_file "lll_test" ".lll" in
  Fun.protect
    ~finally:(fun () -> Sys.remove text)
    (fun () ->
      Out_channel.with_open_bin text (fun oc ->
          Out_channel.output_string oc (Ser.to_string inst));
      Alcotest.(check (option string)) "text has no fingerprint" None
        (Ser.binary_fingerprint text));
  (* the fingerprint and the reader share one header decoder: every
     damaged header yields no fingerprint and the reader's Corrupt *)
  let missing = Filename.temp_file "lll_test" ".lllb" in
  Sys.remove missing;
  Alcotest.(check (option string)) "missing: no fingerprint" None
    (Ser.binary_fingerprint missing);
  (try
     ignore (Bin.source_of_path missing);
     Alcotest.fail "missing path mapped"
   with Unix.Unix_error _ -> ());
  let i64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Bytes.to_string b
  in
  let blob = Ser.to_binary_string inst in
  List.iter
    (fun (name, bytes, expect) ->
      let path = Filename.temp_file "lll_test" ".lllb" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
          Alcotest.(check (option string)) (name ^ ": no fingerprint") None
            (Ser.binary_fingerprint path);
          match Bin.open_reader ~kind:"instance" (Bin.source_of_path path) with
          | _ -> Alcotest.fail (name ^ ": header accepted")
          | exception Bin.Corrupt msg ->
            Alcotest.(check string) (name ^ ": message") expect msg))
    [
      ("empty", "", "bad magic");
      ("bare magic", "LLL3", "truncated header (version)");
      ( "version 2",
        "LLL3" ^ i64 2 ^ String.sub blob 12 (String.length blob - 12),
        "unsupported version 2 (expected 3)" );
      ("kind past EOF", "LLL3" ^ i64 3 ^ i64 1000 ^ "instance", "truncated header (kind)");
      ("kind length near max_int", "LLL3" ^ i64 3 ^ i64 (max_int - 4) ^ "instance",
        "truncated header (kind)");
    ]

let test_store_artifact_error_paths () =
  (* the artifact store built on this container must never surface
     Bin.Corrupt to its callers: a damaged artifact (any of the damage
     kinds rejected above) is quarantined to [.bad] and regenerated *)
  let module Spec = Lll_store.Spec in
  let module Store = Lll_store.Store in
  let dir = Filename.temp_file "lll_store_core" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let spec = Spec.Ring { n = 18; seed = 3; arity = 4; at = true } in
      let damage name mutate =
        let path = Store.materialize (Store.create ~dir ()) spec in
        let blob = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (mutate blob));
        let st = Store.create ~dir () in
        let inst, src = Store.fetch st spec in
        Alcotest.(check bool) (name ^ ": regenerated, not crashed") true (src = `Built);
        Alcotest.(check int) (name ^ ": quarantined") 1 (Store.stats st).Store.st_quarantined;
        Alcotest.(check bool) (name ^ ": .bad parked") true (Sys.file_exists (path ^ ".bad"));
        Alcotest.(check bool) (name ^ ": instance usable") true
          (instances_agree inst (Spec.build spec));
        Sys.remove (path ^ ".bad")
      in
      damage "bad magic" (fun b -> "XXXX" ^ String.sub b 4 (String.length b - 4));
      damage "truncated" (fun b -> String.sub b 0 (String.length b / 3));
      damage "checksum flip" (fun b ->
          let d = Bytes.of_string b in
          let last = Bytes.length d - 1 in
          Bytes.set d last (Char.chr (Char.code (Bytes.get d last) lxor 0x40));
          Bytes.to_string d);
      damage "emptied" (fun _ -> "");
      (* wrong container kind parked too: a graph blob is not an instance *)
      damage "wrong kind" (fun _ ->
          Lll_graph.Serialize.graph_to_binary (Gen.cycle 6)))

let test_bin_mmap_negative_values () =
  (* regression: negative values at misaligned offsets (the leading
     string skews every later value off 4- and 8-byte alignment) must
     decode intact — i32 array elements sign-extended, i64 values at
     full width — from a mapped file and from a copied blob alike *)
  let m32 = Int32.to_int Int32.min_int in
  let a32 = [| -1; m32; 123456; -70000 |] in
  let a64 = [| min_int; -1; max_int; -4611686018427387904 |] in
  let q = Lll_num.Rat.of_ints (-3) 7 in
  let w = Bin.make_writer ~kind:"negs" in
  Bin.section w "NEGS";
  Bin.add_string w "x";
  Bin.add_int_array w a32;
  Bin.add_int_array w a64;
  Bin.add_int w (-987654321);
  Bin.add_rat w q;
  let path = Filename.temp_file "lll_test" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Bin.contents w));
      let check_reader r =
        Bin.enter r "NEGS";
        Alcotest.(check string) "skew string" "x" (Bin.read_string r);
        Alcotest.(check (array int)) "i32 column" a32 (Bin.read_int_array r);
        Alcotest.(check (array int)) "i64 column" a64 (Bin.read_int_array r);
        Alcotest.(check int) "scalar" (-987654321) (Bin.read_int r);
        Alcotest.(check bool) "rational" true (Lll_num.Rat.equal q (Bin.read_rat r));
        Bin.close r
      in
      check_reader (Bin.open_reader ~kind:"negs" (Bin.source_of_path path));
      check_reader
        (Bin.open_reader ~kind:"negs"
           (Bin.source_of_string (In_channel.with_open_bin path In_channel.input_all))))

(* The container checksum, computed independently of [Bin]: djb2-xor
   over the payload's 8-byte little-endian words, then its tail bytes. *)
let reference_checksum payload =
  let mix h w = ((h lsl 5) + h) lxor w in
  let len = String.length payload in
  let h = ref 0x1505 in
  for i = 0 to (len / 8) - 1 do
    h := mix !h (Int64.to_int (String.get_int64_le payload (8 * i)))
  done;
  for i = 8 * (len / 8) to len - 1 do
    h := mix !h (Char.code payload.[i])
  done;
  !h land max_int

(* A one-section container holding a single '\001' (decimal-string)
   rational record, assembled byte by byte. *)
let decimal_rat_container ns ds =
  let i64 b v = Buffer.add_int64_le b (Int64.of_int v) in
  let str b x =
    i64 b (String.length x);
    Buffer.add_string b x
  in
  let body = Buffer.create 32 in
  Buffer.add_char body '\001';
  str body ns;
  str body ds;
  let payload = Buffer.create 64 in
  i64 payload 1;
  str payload "QRAT";
  str payload (Buffer.contents body);
  let payload = Buffer.contents payload in
  let b = Buffer.create 128 in
  Buffer.add_string b "LLL3";
  i64 b 3;
  str b "rat";
  i64 b (reference_checksum payload);
  Buffer.add_string b payload;
  Buffer.contents b

let test_bin_signed_digit_rational () =
  let read ns ds =
    let r = Bin.open_reader ~kind:"rat" (Bin.source_of_string (decimal_rat_container ns ds)) in
    Bin.enter r "QRAT";
    let q = Bin.read_rat r in
    Bin.close r;
    q
  in
  Alcotest.(check bool) "well-formed record decodes" true
    (Lll_num.Rat.equal (Lll_num.Rat.of_ints (-2) 3) (read "-2" "3"));
  List.iter
    (fun (ns, ds) ->
      try
        ignore (read ns ds);
        Alcotest.fail (Printf.sprintf "%s/%s accepted" ns ds)
      with Bin.Corrupt _ -> ())
    [ ("--2", "1"); ("1", "--2"); ("1-2", "3"); ("+-5", "1") ]

(* One container case for the alignment property: a leading string that
   shifts every later value, int columns of every packed width, and a
   run-length rational column. Whichever of the two column sections
   comes last ends the file, so its final values sit in the last bytes
   of the file. *)
type bin_case = {
  lead : string;
  cols : int array list;
  rats : Lll_num.Rat.t array;
  rats_last : bool;
}

let write_bin_case c =
  let w = Bin.make_writer ~kind:"align" in
  Bin.section w "LEAD";
  Bin.add_string w c.lead;
  let cols () =
    Bin.section w "COLS";
    Bin.add_int w (List.length c.cols);
    List.iter (Bin.add_int_array w) c.cols
  in
  let rats () =
    Bin.section w "RATS";
    Bin.add_rat_array w c.rats
  in
  if c.rats_last then (cols (); rats ()) else (rats (); cols ());
  Bin.contents w

let read_bin_case ~rats_last src =
  let r = Bin.open_reader ~kind:"align" src in
  Bin.enter r "LEAD";
  let lead = Bin.read_string r in
  let cols () =
    Bin.enter r "COLS";
    List.init (Bin.read_int r) (fun _ -> Bin.read_int_array r)
  in
  let rats () =
    Bin.enter r "RATS";
    Bin.read_rat_array r
  in
  let cols, rats =
    if rats_last then
      let c = cols () in
      (c, rats ())
    else
      let q = rats () in
      (cols (), q)
  in
  Bin.close r;
  { lead; cols; rats; rats_last }

let bin_case_equal a b =
  a.lead = b.lead && a.cols = b.cols
  && Array.length a.rats = Array.length b.rats
  && Array.for_all2 Lll_num.Rat.equal a.rats b.rats

let gen_bin_case =
  let open QCheck.Gen in
  let m32 = Int32.to_int Int32.min_int and x32 = Int32.to_int Int32.max_int in
  (* each wider generator pins its column to one packed width: the
     forced element is what needs that width *)
  let column elt forced =
    let* xs = array_size (int_range 1 25) elt in
    let* f = forced in
    let* at = int_range 0 (Array.length xs - 1) in
    xs.(at) <- f;
    return xs
  in
  let width1 = array_size (int_range 1 25) (int_range 0 255) in
  let width2 = column (int_range 0 0xFFFF) (int_range 0x100 0xFFFF) in
  let width4 =
    column (int_range m32 x32) (oneofl [ m32; x32; -1; -70000; 0x1_0000 ])
  in
  let width8 =
    column (oneof [ int; int_range m32 x32 ]) (oneofl [ min_int; max_int; x32 + 1; m32 - 1 ])
  in
  let big = Lll_num.Rat.of_string "123456789012345678901234567/7" in
  let rat =
    oneof
      [
        map2 (fun n d -> Lll_num.Rat.of_ints n d) (int_range (-50) 50) (int_range 1 9);
        oneofl [ big; Lll_num.Rat.neg big; Lll_num.Rat.of_ints min_int 3 ];
      ]
  in
  let* lead_len = int_range 0 13 in
  let* lead = string_size ~gen:printable (return lead_len) in
  let* cols = list_size (int_range 0 6) (oneof [ width1; width2; width4; width8; return [||] ]) in
  let* runs = list_size (int_range 0 6) (pair (int_range 1 4) rat) in
  let rats = Array.concat (List.map (fun (k, q) -> Array.make k q) runs) in
  let* rats_last = bool in
  return { lead; cols; rats; rats_last }

(* Every case is written once and read three ways — from a copied
   blob, from a mapped file, and as a nested window behind a random
   pad (the window ends its outer container, so it ends in the last
   bytes of that file too) — so values land at every offset modulo 8
   and in the last bytes of files of random total length. *)
let bin_alignment_law (pad, c) =
  let blob = write_bin_case c in
  let read_bin_case = read_bin_case ~rats_last:c.rats_last in
  let path = Filename.temp_file "lll_align" ".bin" in
  let mapped =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc blob);
        read_bin_case (Bin.source_of_path path))
  in
  let outer =
    let w = Bin.make_writer ~kind:"outer" in
    Bin.section w "PAD";
    Bin.add_string w pad;
    Bin.section w "INNR";
    Bin.add_string w blob;
    Bin.contents w
  in
  let nested =
    let r = Bin.open_reader ~kind:"outer" (Bin.source_of_string outer) in
    Bin.enter r "PAD";
    ignore (Bin.read_string r);
    Bin.enter r "INNR";
    let window = Bin.read_blob r in
    Bin.close r;
    read_bin_case window
  in
  bin_case_equal c (read_bin_case (Bin.source_of_string blob))
  && bin_case_equal c mapped && bin_case_equal c nested

let suite_binary_qcheck =
  [
    prop "binary round-trip solves identically to text v2" 25
      (QCheck.make QCheck.Gen.(int_range 0 10_000))
      (fun seed ->
        let inst = Syn.random ~seed ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
        let via_text = Ser.of_string (Ser.to_string inst) in
        let via_bin = Ser.of_binary_string (Ser.to_binary_string inst) in
        let a, _ = F3.solve via_text and a', _ = F3.solve via_bin in
        instances_agree via_text via_bin && a = a');
    prop "one reader at every alignment: copied, mapped, nested" 200
      (QCheck.make
         ~print:(fun (pad, c) ->
           Printf.sprintf "pad=%d lead=%d cols=[%s] rats=%d" (String.length pad)
             (String.length c.lead)
             (String.concat ";" (List.map (fun a -> string_of_int (Array.length a)) c.cols))
             (Array.length c.rats))
         QCheck.Gen.(pair (string_size ~gen:printable (int_range 0 7)) gen_bin_case))
      bin_alignment_law;
  ]

(* ------------------------------------------------------------------ *)
(* The message-passing distributed solver                               *)
(* ------------------------------------------------------------------ *)

module DL = Lll_core.Dist_lll

let test_dist_lll_solves () =
  List.iter
    (fun (inst, name) ->
      let r = DL.solve inst in
      Alcotest.(check bool) (name ^ " ok") true (V.avoids_all inst r.DL.assignment);
      Alcotest.(check bool)
        (name ^ " rounds = coloring + 3*classes")
        true
        (r.DL.sweep_rounds = 3 * r.DL.colors))
    [
      (Syn.ring ~seed:4 ~n:24 ~arity:4 (), "ring");
      (Syn.random ~seed:4 ~n:15 ~rank:3 ~delta:2 ~arity:8 (), "rank3");
      (Lll_apps.Sinkless.relaxed_instance (Gen.random_regular ~seed:4 16 3), "sinkless");
    ]

let test_dist_lll_matches_sequential_driver () =
  (* the protocol must reproduce the schedule-accounting driver's
     assignment BIT FOR BIT: same owners, same per-variable order, same
     float operations *)
  List.iter
    (fun (inst, name) ->
      let seq = D.solve_rank3 inst in
      let msg = DL.solve inst in
      Alcotest.(check bool) (name ^ " both ok") true
        (V.avoids_all inst seq.D.assignment && V.avoids_all inst msg.DL.assignment);
      Alcotest.(check bool)
        (name ^ " identical assignment")
        true
        (seq.D.assignment = msg.DL.assignment);
      Alcotest.(check int) (name ^ " same colors") seq.D.colors msg.DL.colors)
    [
      (Syn.random ~seed:9 ~n:18 ~rank:3 ~delta:2 ~arity:8 (), "rank3");
      ( Lll_apps.Weak_splitting.instance ~nv:12
          (Gen.random_biregular_bipartite ~seed:9 ~nv:12 ~nu:12 ~deg_u:3 ~deg_v:3),
        "weak-splitting" );
      ( Lll_apps.Hyper_orientation.instance (Gen.random_regular_hypergraph ~seed:9 12 3 2),
        "hyper-orientation" );
    ]

let test_dist_lll_rank2_matches_sequential_driver () =
  (* Corollary 1.2 likewise: the protocol's nodes run the exact rank-2
     rule on the same phi, in the same per-edge order *)
  List.iter
    (fun (inst, name) ->
      let seq = D.solve_rank2 inst in
      let msg = DL.solve_rank2 inst in
      Alcotest.(check bool) (name ^ " both ok") true
        (V.avoids_all inst seq.D.assignment && V.avoids_all inst msg.DL.assignment);
      Alcotest.(check bool) (name ^ " identical assignment") true
        (seq.D.assignment = msg.DL.assignment);
      Alcotest.(check int) (name ^ " same colors") seq.D.colors msg.DL.colors)
    [
      (Syn.ring ~seed:9 ~n:48 ~arity:4 (), "ring");
      (Syn.ring ~seed:10 ~n:96 ~arity:8 (), "ring arity 8");
      (Lll_apps.Sinkless.relaxed_instance (Gen.random_regular ~seed:9 48 3), "sinkless");
    ]

let test_dist_lll_rank2_protocol () =
  List.iter
    (fun (inst, name) ->
      let r = DL.solve_rank2 inst in
      Alcotest.(check bool) (name ^ " ok") true (V.avoids_all inst r.DL.assignment);
      Alcotest.(check bool)
        (name ^ " rounds = 3*(colors+1)")
        true
        (r.DL.sweep_rounds = 3 * (r.DL.colors + 1));
      (* Corollary 1.2 shape: few colors on the line graph *)
      Alcotest.(check bool) (name ^ " few classes") true (r.DL.colors <= 5))
    [
      (Syn.ring ~seed:6 ~n:30 ~arity:4 (), "ring");
      (Lll_apps.Sinkless.relaxed_instance (Gen.cycle 20), "sinkless cycle");
    ]

let test_dist_lll_rank2_rejects_rank3 () =
  Alcotest.check_raises "rank3" (Invalid_argument "Dist_lll.solve_rank2: instance has rank > 2")
    (fun () -> ignore (DL.solve_rank2 (triangle_instance ())))

let test_dist_lll_rejects_rank4 () =
  let inst = Syn.random ~seed:1 ~n:16 ~rank:4 ~delta:2 ~arity:16 () in
  Alcotest.check_raises "rank4" (Invalid_argument "Dist_lll.solve: instance has rank > 3")
    (fun () -> ignore (DL.solve inst))

(* ------------------------------------------------------------------ *)
(* Synthetic placement                                                  *)
(* ------------------------------------------------------------------ *)

let test_synthetic_placement () =
  let below = Syn.ring ~seed:3 ~n:12 ~arity:4 () in
  let rep = Crit.evaluate below in
  Alcotest.(check bool) "below" true (List.assoc Crit.Exponential rep.Crit.satisfied);
  let at = Syn.ring ~position:Syn.At_threshold ~seed:3 ~n:12 ~arity:4 () in
  let rep_at = Crit.evaluate at in
  Alcotest.(check bool) "at threshold fails criterion" false
    (List.assoc Crit.Exponential rep_at.Crit.satisfied);
  Alcotest.check rat "exactly at" R.one (Crit.threshold_ratio ~p:rep_at.Crit.p ~d:rep_at.Crit.d)

let test_exponential_inside_shearer () =
  (* the paper's criterion p < 2^-d lies strictly inside Shearer's exact
     region (sampled over small synthetic instances) *)
  for seed = 0 to 9 do
    let inst = Syn.ring ~seed ~n:12 ~arity:4 () in
    let rep = Crit.evaluate inst in
    Alcotest.(check bool) "below threshold" true
      (List.assoc Crit.Exponential rep.Crit.satisfied);
    Alcotest.(check bool) "inside shearer" true (Crit.shearer_holds inst)
  done

let test_synthetic_degenerate_zero_probability () =
  (* arity 4, delta 2, d = 4: the below-threshold bad-set size is 0, so
     all events are impossible — the fixers must handle Pr = 0 (Inc = 0)
     gracefully and trivially succeed *)
  let inst = Syn.random ~seed:2 ~n:12 ~rank:3 ~delta:2 ~arity:4 () in
  Alcotest.check rat "p = 0" R.zero (I.max_prob inst);
  let a, t = F3.solve inst in
  Alcotest.(check bool) "avoids" true (V.avoids_all inst a);
  Alcotest.(check bool) "pstar" true (F3.pstar_holds t)

let test_synthetic_structure () =
  let inst = Syn.random ~seed:5 ~n:15 ~rank:3 ~delta:2 ~arity:8 () in
  Alcotest.(check int) "rank" 3 (I.rank inst);
  Alcotest.(check bool) "d bounded" true (I.dependency_degree inst <= 4);
  Alcotest.(check int) "vars" (15 * 2 / 3) (I.num_vars inst)

let () =
  Alcotest.run "lll_core"
    [
      ( "instance",
        [
          Alcotest.test_case "structure" `Quick test_instance_structure;
          Alcotest.test_case "rejects" `Quick test_instance_rejects;
          Alcotest.test_case "to_dot" `Quick test_instance_to_dot;
          Alcotest.test_case "hyperedges" `Quick test_hyperedges;
          Alcotest.test_case "dependency edge order" `Quick test_dep_edge_order;
        ] );
      ( "criteria",
        [
          Alcotest.test_case "exact threshold" `Quick test_criteria_exact_threshold;
          Alcotest.test_case "shattering" `Quick test_criteria_shattering;
          Alcotest.test_case "report" `Quick test_criteria_report;
          Alcotest.test_case "asymmetric (Erdos-Lovasz)" `Quick test_criteria_asymmetric;
          Alcotest.test_case "shearer exact region" `Quick test_criteria_shearer;
          Alcotest.test_case "shearer size guard" `Quick test_criteria_shearer_rejects_large;
        ] );
      ( "srep",
        [
          Alcotest.test_case "f known values" `Quick test_f_known_values;
          Alcotest.test_case "figure 2 triple" `Quick test_figure2_triple;
          Alcotest.test_case "boundary cases" `Quick test_srep_boundary_cases;
          Alcotest.test_case "mem_rat matches float" `Quick test_mem_rat_matches_float;
          Alcotest.test_case "hessian positive (Lemma 3.6)" `Quick test_hessian_positive;
          Alcotest.test_case "surface grid" `Quick test_surface_grid;
          Alcotest.test_case "best_x matches x1 formula" `Quick test_best_x_matches_formula;
          Alcotest.test_case "decompose corners" `Quick test_decompose_corners;
          Alcotest.test_case "decompose surface points" `Quick test_decompose_surface_points;
          Alcotest.test_case "violation of negatives" `Quick test_violation_negatives;
          Alcotest.test_case "best_x in range" `Quick test_best_x_in_range;
          Alcotest.test_case "best_x early exit = 200 steps, bit for bit" `Quick
            test_best_x_early_exit_exact;
          Alcotest.test_case "decompose_rat on and off the surface" `Quick
            test_decompose_rat_surface;
        ] );
      ("srep-properties", srep_props);
      ("srep-rational-properties", srep_rat_props);
      ( "fix-rank2",
        [
          Alcotest.test_case "ring instances" `Quick test_fix2_ring_instances;
          Alcotest.test_case "scores within budget" `Quick test_fix2_scores_within_budget;
          Alcotest.test_case "relaxed sinkless" `Quick test_fix2_relaxed_sinkless;
          Alcotest.test_case "adversarial orders" `Quick test_fix2_adversarial_orders;
          Alcotest.test_case "rings solved with P*" `Quick test_fix2_rings_with_pstar;
          Alcotest.test_case "rejects rank 3" `Quick test_fix2_rejects_rank3;
          Alcotest.test_case "rejects double fix" `Quick test_fix2_fix_twice;
        ] );
      ("fix-rank2-properties", fix2_props);
      ( "fix-rank3",
        [
          Alcotest.test_case "triangle" `Quick test_fix3_triangle;
          Alcotest.test_case "random instances" `Quick test_fix3_random_instances;
          Alcotest.test_case "rank-2 inputs" `Quick test_fix3_handles_rank2_instances;
          Alcotest.test_case "P* along the way" `Quick test_fix3_pstar_along_the_way;
          Alcotest.test_case "rank-3 solved with P*" `Quick test_fix3_random_with_pstar;
          Alcotest.test_case "rejects rank 4" `Quick test_fix3_rejects_rank4;
        ] );
      ("fix-rank3-properties", fix3_props);
      ( "fix-rank3-exact",
        [
          Alcotest.test_case "solves with exact P*" `Quick test_fix3_exact_solves;
          Alcotest.test_case "applications" `Quick test_fix3_exact_on_applications;
          Alcotest.test_case "phi sums exact" `Quick test_fix3_exact_phi_sums_exact;
        ] );
      ( "srep-r",
        [
          Alcotest.test_case "clique edges" `Quick test_clique_edges;
          Alcotest.test_case "matches exact r=3" `Quick test_srep_r_matches_exact_r3;
          Alcotest.test_case "known points" `Quick test_srep_r_known_points;
          Alcotest.test_case "solution consistency" `Quick test_srep_r_solution_consistency;
        ] );
      ( "fix-rankr",
        [
          Alcotest.test_case "rank-3 sanity" `Quick test_fix_rankr_on_rank3;
          Alcotest.test_case "rank 4 (Conjecture 1.5)" `Quick test_fix_rankr_rank4;
          Alcotest.test_case "rank 5 (Conjecture 1.5)" `Slow test_fix_rankr_rank5;
        ] );
      ( "moser-tardos",
        [
          Alcotest.test_case "sequential" `Quick test_mt_sequential;
          Alcotest.test_case "parallel" `Quick test_mt_parallel;
          Alcotest.test_case "at-threshold sinkless" `Quick test_mt_at_threshold_sinkless;
          Alcotest.test_case "parallel random priorities (CPS)" `Quick test_mt_random_priority;
          Alcotest.test_case "budget" `Quick test_mt_budget;
          Alcotest.test_case "incremental occurring set matches rescan" `Quick
            test_mt_incremental_matches_rescan;
          Alcotest.test_case "priority tie-break selects id-minima" `Quick
            test_mt_priority_tie_break;
          Alcotest.test_case "seed determinism" `Quick test_mt_deterministic_given_seed;
        ] );
      ( "verify",
        [
          Alcotest.test_case "module behaviour" `Quick test_verify_module;
          Alcotest.test_case "best_algorithm branches" `Quick test_best_algorithm_branches;
        ] );
      ( "cond-exp",
        [
          Alcotest.test_case "solves under union bound" `Quick
            test_cond_exp_solves_under_union_bound;
          Alcotest.test_case "criterion is global" `Quick test_cond_exp_criterion_fails_globally;
          Alcotest.test_case "phi never increases" `Quick test_cond_exp_phi_never_increases;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "cannot break the fixer" `Quick test_adversary_cannot_break_fixer;
          Alcotest.test_case "bound is a certificate" `Quick test_adversary_bound_is_certificate;
        ] );
      ( "witness-trees",
        [
          Alcotest.test_case "well-formed on real logs" `Quick test_witness_trees_well_formed;
          Alcotest.test_case "first step is a singleton" `Quick test_witness_tree_of_empty_prefix;
          Alcotest.test_case "size histogram" `Quick test_witness_histogram;
          Alcotest.test_case "rejects bad step" `Quick test_witness_rejects_bad_step;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "rank 2" `Quick test_distributed_rank2;
          Alcotest.test_case "rank 3" `Quick test_distributed_rank3;
          Alcotest.test_case "rank r (experimental)" `Quick test_distributed_rankr;
          Alcotest.test_case "moser-tardos" `Quick test_distributed_mt;
          Alcotest.test_case "round scaling" `Slow test_distributed_round_scaling;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "string roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_serial_file_roundtrip;
          Alcotest.test_case "comments" `Quick test_serial_ignores_comments;
          Alcotest.test_case "rejects garbage" `Quick test_serial_rejects_garbage;
          Alcotest.test_case "v2 error paths" `Quick test_serial_v2_error_paths;
          Alcotest.test_case "bad tuples" `Quick test_serial_bad_tuples;
          Alcotest.test_case "binary roundtrip" `Quick test_serial_binary_roundtrip;
          Alcotest.test_case "binary cross-conversion" `Quick test_serial_binary_cross_conversion;
          Alcotest.test_case "binary file roundtrip" `Quick test_serial_binary_file_roundtrip;
          Alcotest.test_case "binary error paths" `Quick test_serial_binary_error_paths;
          Alcotest.test_case "binary semantic faults" `Quick test_serial_binary_semantic_faults;
          Alcotest.test_case "store artifact error paths" `Quick
            test_store_artifact_error_paths;
          Alcotest.test_case "mmap load" `Quick test_serial_binary_mmap;
          Alcotest.test_case "mmap negative values" `Quick test_bin_mmap_negative_values;
          Alcotest.test_case "signed-digit rational record" `Quick
            test_bin_signed_digit_rational;
        ]
        @ suite_binary_qcheck );
      ( "dist-lll-protocol",
        [
          Alcotest.test_case "solves and accounts rounds" `Quick test_dist_lll_solves;
          Alcotest.test_case "matches sequential driver exactly" `Quick
            test_dist_lll_matches_sequential_driver;
          Alcotest.test_case "rank-2 protocol (Cor 1.2)" `Quick test_dist_lll_rank2_protocol;
          Alcotest.test_case "rank-2 protocol rejects rank 3" `Quick
            test_dist_lll_rank2_rejects_rank3;
          Alcotest.test_case "rejects rank 4" `Quick test_dist_lll_rejects_rank4;
          Alcotest.test_case "rank-2 protocol matches sequential driver" `Quick
            test_dist_lll_rank2_matches_sequential_driver;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "threshold placement" `Quick test_synthetic_placement;
          Alcotest.test_case "degenerate zero-probability" `Quick
            test_synthetic_degenerate_zero_probability;
          Alcotest.test_case "exponential inside Shearer" `Quick test_exponential_inside_shearer;
          Alcotest.test_case "structure" `Quick test_synthetic_structure;
        ] );
    ]
