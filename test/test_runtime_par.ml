(* Differential tests for the domain-parallel LOCAL runtime: for every
   runner ([run_flat] and [gather_balls] over it) the parallel engine
   ([~domains:4]) must produce byte-identical results — final states,
   round counts, raised exceptions — to the sequential reference engine
   ([~domains:1], which never spawns a domain), and [run_flat] must also
   agree with the retired boxed engine [run_full_info_boxed].

   The protocols below are deterministic pseudo-random functions of
   (node, round, state), so any divergence in scheduling, snapshotting
   or neighbor order between the two engines shows up as a differing
   final state. *)

module Net = Lll_local.Network
module RT = Lll_local.Runtime
module Par = Lll_local.Par
module Metrics = Lll_local.Metrics
module FS = Lll_local.Flat_state
module Gen = Lll_graph.Generators

let prop name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

(* ---------------------------------------------------------------- *)
(* random networks                                                  *)
(* ---------------------------------------------------------------- *)

(* (seed, n, edge budget) -> connected-ish random network; the graph is
   rebuilt deterministically inside the law so shrinking stays sound *)
let arb_net_params =
  QCheck.make
    ~print:(fun (seed, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" seed n m)
    QCheck.Gen.(triple (int_bound 100_000) (int_range 2 30) (int_bound 60))

let net_of (seed, n, m) =
  let m = min m (n * (n - 1) / 2) in
  Net.create (Gen.gnm ~seed n m)

(* deterministic integer mixing — stands in for "arbitrary protocol" *)
let mix a b = ((a * 1_000_003) + b + 0x9E37) land 0x3FFFFFFF

(* ---------------------------------------------------------------- *)
(* protocols                                                        *)
(* ---------------------------------------------------------------- *)

(* fold the neighbors order-sensitively (subtraction and mixing do not
   commute) into the state, halt at a per-node round; [fold] walks the
   (neighbor, state) pairs in the order the engine presents them *)
let flood_next ~round ~me s fold =
  let s = fold (fun acc u x -> mix acc (mix u x) - u) (mix s round) in
  (s, round + 1 >= 1 + ((me + s) mod 5))

let flood_boxed ~round ~me s nbrs =
  flood_next ~round ~me s (fun f init -> List.fold_left (fun acc (u, x) -> f acc u x) init nbrs)

let flood_flat ~round ~me ~prev ~cur ~nbrs =
  let xs = FS.int_column prev 0 in
  let s, halt =
    flood_next ~round ~me xs.(me) (fun f init -> Array.fold_left (fun acc u -> f acc u xs.(u)) init nbrs)
  in
  FS.set_int cur 0 me s;
  halt

let flood_init v = mix v 23

let flood_with ?metrics net domains =
  let n = Net.n net in
  let state = FS.create ~n ~int_fields:1 () in
  for v = 0 to n - 1 do
    FS.set_int state 0 v (flood_init v)
  done;
  let st, stats = RT.run_flat ~domains ?metrics net ~state ~step:flood_flat in
  (FS.int_column st 0, stats)

let same_stats (s1 : RT.stats) (s2 : RT.stats) = s1.rounds = s2.rounds

(* ---------------------------------------------------------------- *)
(* differential properties: parallel == sequential                  *)
(* ---------------------------------------------------------------- *)

let diff_props =
  [
    prop "run_flat: domains:4 == domains:1 == boxed engine" 200 arb_net_params
      (fun p ->
        let net = net_of p in
        let st1, s1 = flood_with net 1 and st4, s4 = flood_with net 4 in
        let stb, sb = RT.run_full_info_boxed ~domains:1 net ~init:flood_init ~step:flood_boxed in
        st1 = st4 && st1 = stb && same_stats s1 s4 && same_stats s1 sb);
    prop "gather_balls: domains:4 == domains:1 for radius 0..4" 200 arb_net_params
      (fun ((seed, _, _) as p) ->
        let net = net_of p in
        let radius = seed mod 5 in
        let value v = mix v 31 in
        let b1, s1 = RT.gather_balls ~domains:1 net ~radius ~value
        and b4, s4 = RT.gather_balls ~domains:4 net ~radius ~value in
        b1 = b4 && same_stats s1 s4);
    prop "run_flat: Round_limit_exceeded raised identically" 200 arb_net_params
      (fun p ->
        let net = net_of p in
        (* never halts: both engines must hit the limit with equal payload *)
        let attempt domains =
          match
            RT.run_flat ~max_rounds:5 ~domains net
              ~state:(FS.create ~n:(Net.n net) ~int_fields:1 ())
              ~step:(fun ~round ~me ~prev ~cur ~nbrs:_ ->
                FS.set_int cur 0 me (mix (FS.get_int prev 0 me) round);
                false)
          with
          | _ -> None
          | exception RT.Round_limit_exceeded k -> Some k
        in
        attempt 1 = Some 5 && attempt 4 = Some 5);
  ]

(* ---------------------------------------------------------------- *)
(* wake sets: stepping only the woken nodes == stepping everyone    *)
(* ---------------------------------------------------------------- *)

(* A node is awake in a round when a pseudo-random function of (node,
   round, its round-start state) says so; the set changes every round. *)
let awake ~round ~prev v = mix (mix v round) (FS.get_int prev 0 v) land 3 = 0

(* the flood step, but the identity (no write, no halt) on sleeping nodes *)
let flood_sleepy ~round ~me ~prev ~cur ~nbrs =
  awake ~round ~prev me && flood_flat ~round ~me ~prev ~cur ~nbrs

let wake_set ~round ~prev =
  let n = FS.n prev in
  Some (Array.of_list (List.filter (awake ~round ~prev) (List.init n Fun.id)))

(* states and rounds (or the round limit's payload), and whether a
   sleeping node was stepped; the metrics' [stepped] must add up to the
   step calls made *)
let sleepy_run ?wake net domains =
  let n = Net.n net in
  let state = FS.create ~n ~int_fields:1 () in
  for v = 0 to n - 1 do
    FS.set_int state 0 v (flood_init v)
  done;
  let calls = Atomic.make 0 and stepped_asleep = Atomic.make false in
  let step ~round ~me ~prev ~cur ~nbrs =
    Atomic.incr calls;
    if not (awake ~round ~prev me) then Atomic.set stepped_asleep true;
    flood_sleepy ~round ~me ~prev ~cur ~nbrs
  in
  let metrics = Metrics.buffer () in
  let outcome =
    match RT.run_flat ~max_rounds:60 ~domains ~metrics ?wake net ~state ~step with
    | st, stats -> Ok (FS.int_column st 0, stats.RT.rounds)
    | exception RT.Round_limit_exceeded k -> Error k
  in
  let stepped = List.fold_left (fun acc r -> acc + r.Metrics.stepped) 0 (Metrics.records metrics) in
  (outcome, Atomic.get stepped_asleep, stepped = Atomic.get calls)

let wake_props =
  [
    prop "wake: d1 == d4 == identity step on sleeping nodes" 200 arb_net_params (fun p ->
        let net = net_of p in
        let reference, _, counted = sleepy_run net 1 in
        counted
        && List.for_all
             (fun domains -> sleepy_run ~wake:wake_set net domains = (reference, false, true))
             [ 1; 4 ]);
  ]

let test_wake_rejects_bad_sets () =
  let net = Net.create (Gen.cycle 6) in
  List.iter
    (fun (name, ws) ->
      List.iter
        (fun domains ->
          match
            RT.run_flat ~domains ~wake:(fun ~round:_ ~prev:_ -> Some ws) net
              ~state:(FS.create ~n:6 ~int_fields:1 ())
              ~step:(fun ~round:_ ~me:_ ~prev:_ ~cur:_ ~nbrs:_ -> true)
          with
          | _ -> Alcotest.failf "%s accepted (domains=%d)" name domains
          | exception Invalid_argument _ -> ())
        [ 1; 4 ])
    [
      ("unsorted", [| 2; 1; 3 |]);
      ("duplicate", [| 0; 2; 2 |]);
      ("past n", [| 4; 6 |]);
      ("negative", [| -1; 0 |]);
    ]

(* ---------------------------------------------------------------- *)
(* migrated protocols: flat d1 == flat d4 == boxed ablation         *)
(* ---------------------------------------------------------------- *)

module Mis = Lll_local.Mis
module Dist_lll = Lll_core.Dist_lll
module Distributed = Lll_core.Distributed
module Synthetic = Lll_core.Synthetic

(* every protocol that moved off the boxed engine in the record-of-arrays
   migration: its flat sequential run, its flat multi-domain run, and the
   retained boxed ablation baseline must agree byte for byte *)
let protocol_props =
  [
    prop "Mis.luby: flat d1 == flat d4 == boxed" 200 arb_net_params
      (fun ((seed, _, _) as p) ->
        let net = net_of p in
        let f1 = Mis.luby ~domains:1 ~seed net
        and f4 = Mis.luby ~domains:4 ~seed net
        and b = Mis.luby_boxed ~domains:1 ~seed net in
        f1 = f4 && f1 = b);
    prop "Dist_lll.solve: `Flat d1 == `Flat d4 == `Boxed" 200
      (QCheck.make
         ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
         QCheck.Gen.(int_bound 100_000))
      (fun seed ->
        let inst =
          (* the 2-regular rank-3 structure needs [3 | n] and enough
             nodes for distinct edges *)
          Synthetic.random ~seed ~n:(3 * (4 + (seed mod 4))) ~rank:3 ~delta:2 ~arity:2 ()
        in
        let go engine domains = Dist_lll.solve ~engine ~domains inst in
        let f1 = go `Flat 1 and f4 = go `Flat 4 and b = go `Boxed 1 in
        f1 = f4 && f1 = b);
    prop "Distributed.solve_rank3: parallel fix_class d1 == d4" 200
      (QCheck.make
         ~print:(fun seed -> Printf.sprintf "seed=%d" seed)
         QCheck.Gen.(int_bound 100_000))
      (fun seed ->
        let inst =
          (* the 2-regular rank-3 structure needs [3 | n] and enough
             nodes for distinct edges *)
          Synthetic.random ~seed ~n:(3 * (4 + (seed mod 4))) ~rank:3 ~delta:2 ~arity:2 ()
        in
        Distributed.solve_rank3 ~domains:1 inst = Distributed.solve_rank3 ~domains:4 inst);
  ]

(* ---------------------------------------------------------------- *)
(* gather_balls: pinned output                                      *)
(* ---------------------------------------------------------------- *)

(* Regression: gather_balls output pinned exactly — entries sorted by
   node id, values attached. Guards the sorted-merge dedup. *)
let test_gather_balls_pinned () =
  let value v = 10 * v in
  let check name net radius expected =
    let balls, _ = RT.gather_balls ~domains:4 net ~radius ~value in
    Alcotest.(check (array (list (pair int int)))) name expected balls
  in
  check "path-5 radius 2"
    (Net.create (Gen.path 5))
    2
    [|
      [ (0, 0); (1, 10); (2, 20) ];
      [ (0, 0); (1, 10); (2, 20); (3, 30) ];
      [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ];
      [ (1, 10); (2, 20); (3, 30); (4, 40) ];
      [ (2, 20); (3, 30); (4, 40) ];
    |];
  check "star-5 radius 1"
    (Net.create (Gen.star 5))
    1
    [|
      [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ];
      [ (0, 0); (1, 10) ];
      [ (0, 0); (2, 20) ];
      [ (0, 0); (3, 30) ];
      [ (0, 0); (4, 40) ];
    |]

(* ---------------------------------------------------------------- *)
(* metrics: per-round records are consistent with the stats         *)
(* ---------------------------------------------------------------- *)

let metrics_props =
  [
    prop "metrics: one record per round, last record fully halted" 60 arb_net_params
      (fun p ->
        let net = net_of p in
        let sink = Metrics.buffer () in
        let _, stats = flood_with ~metrics:sink net 4 in
        let recs = Metrics.records sink in
        List.length recs = stats.RT.rounds
        && List.map (fun r -> r.Metrics.round) recs = List.init stats.RT.rounds Fun.id
        && (match List.rev recs with
           | last :: _ -> last.Metrics.halted_fraction = 1.0
           | [] -> stats.RT.rounds = 0)
        && List.for_all (fun r -> r.Metrics.stepped <= Net.n net) recs);
  ]

let test_metrics_disabled_empty () =
  let net = Net.create (Gen.cycle 5) in
  ignore (flood_with ~metrics:Metrics.disabled net 4);
  Alcotest.(check (list int)) "no records without a sink" []
    (List.map (fun r -> r.Metrics.round) (Metrics.records Metrics.disabled))

(* ---------------------------------------------------------------- *)
(* Par.chunks: static split is a partition of [0, n)                *)
(* ---------------------------------------------------------------- *)

let chunk_props =
  [
    prop "Par.chunks partitions 0..n-1 contiguously" 300
      (QCheck.make
         ~print:(fun (d, n) -> Printf.sprintf "domains=%d n=%d" d n)
         QCheck.Gen.(pair (int_range 1 16) (int_range 1 200)))
      (fun (domains, n) ->
        let bounds = Par.chunks ~domains ~n in
        let k = Array.length bounds in
        k >= 1
        && fst bounds.(0) = 0
        && snd bounds.(k - 1) = n - 1
        && Array.for_all
             (fun j -> fst bounds.(j + 1) = snd bounds.(j) + 1)
             (Array.init (k - 1) Fun.id));
  ]

let test_parallel_for_covers_all () =
  let n = 1001 in
  List.iter
    (fun domains ->
      let hits = Array.make n 0 in
      Par.parallel_for ~domains ~n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "each index visited once (domains=%d)" domains)
        true
        (Array.for_all (( = ) 1) hits))
    [ 1; 2; 3; 7 ]

let () =
  Alcotest.run "runtime_par"
    [
      ( "differential",
        diff_props
        @ wake_props
        @ [ Alcotest.test_case "wake: bad sets raise Invalid_argument" `Quick
              test_wake_rejects_bad_sets ] );
      ("protocols", protocol_props);
      (* Alcotest truncates case names at a column set by the longest
         group name; at 15 characters this group keeps the printed case
         names of this suite stable. *)
      ( "gather-snapshot",
        [ Alcotest.test_case "gather_balls output pinned" `Quick test_gather_balls_pinned ] );
      ( "metrics",
        metrics_props
        @ [ Alcotest.test_case "disabled sink yields no records" `Quick
              test_metrics_disabled_empty ] );
      ( "par",
        chunk_props
        @ [ Alcotest.test_case "parallel_for covers every index" `Quick
              test_parallel_for_covers_all ] );
    ]
