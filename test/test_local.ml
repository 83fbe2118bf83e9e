(* Tests for the LOCAL-model simulator and the distributed coloring
   programs. *)

module G = Lll_graph.Graph
module Gen = Lll_graph.Generators
module Col = Lll_graph.Coloring
module Net = Lll_local.Network
module RT = Lll_local.Runtime
module FS = Lll_local.Flat_state
module DC = Lll_local.Dist_coloring

(* ------------------------------------------------------------------ *)
(* Network                                                              *)
(* ------------------------------------------------------------------ *)

let test_network_basics () =
  let net = Net.create (Gen.cycle 5) in
  Alcotest.(check int) "n" 5 (Net.n net);
  Alcotest.(check int) "id" 3 (Net.id net 3);
  Alcotest.(check (list int)) "neighbors" [ 1; 4 ] (Net.neighbors net 0);
  Alcotest.(check int) "max degree" 2 (Net.max_degree net)

let test_network_duplicate_ids () =
  Alcotest.check_raises "dup" (Invalid_argument "Network.create: duplicate id") (fun () ->
      ignore (Net.create ~ids:[| 1; 1; 2 |] (Gen.cycle 3)))

let test_shuffled_ids () =
  let net = Net.create (Gen.cycle 8) in
  let net' = Net.with_shuffled_ids ~seed:3 net in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  Alcotest.(check (array int)) "permutation" (sorted (Net.ids net)) (sorted (Net.ids net'))

(* ------------------------------------------------------------------ *)
(* Runtime: halting and the round limit                                 *)
(* ------------------------------------------------------------------ *)

(* One int column, row [v] initialised to [init v]. *)
let int_state n init =
  let st = FS.create ~n ~int_fields:1 () in
  for v = 0 to n - 1 do
    FS.set_int st 0 v (init v)
  done;
  st

(* Each node adopts the max of its closed neighborhood's previous-round
   values and halts after [rounds] rounds. *)
let max_step ~rounds ~round ~me ~prev ~cur ~nbrs =
  let xs = FS.int_column prev 0 in
  FS.set_int cur 0 me (Array.fold_left (fun acc u -> max acc xs.(u)) xs.(me) nbrs);
  round + 1 >= rounds

(* A silent protocol that halts after [k] rounds costs exactly [k]
   rounds. *)
let test_halting_rounds () =
  let net = Net.create (Gen.path 6) in
  let st, stats =
    RT.run_flat net ~state:(int_state 6 Fun.id)
      ~step:(fun ~round ~me:_ ~prev:_ ~cur:_ ~nbrs:_ -> round + 1 >= 5)
  in
  Alcotest.(check int) "rounds" 5 stats.RT.rounds;
  Alcotest.(check (array int)) "state kept" (Array.init 6 Fun.id) (FS.int_column st 0)

let test_max_flood () =
  let net = Net.create (Gen.path 4) in
  let st, stats = RT.run_flat net ~state:(int_state 4 Fun.id) ~step:(max_step ~rounds:4) in
  (* value 3 needs three hops to reach node 0 *)
  Alcotest.(check (array int)) "max flooded" [| 3; 3; 3; 3 |] (FS.int_column st 0);
  Alcotest.(check int) "rounds" 4 stats.RT.rounds

let test_round_limit () =
  let net = Net.create (Gen.path 3) in
  (try
     ignore
       (RT.run_flat ~max_rounds:5 net ~state:(FS.create ~n:3 ())
          ~step:(fun ~round:_ ~me:_ ~prev:_ ~cur:_ ~nbrs:_ -> false));
     Alcotest.fail "no limit"
   with RT.Round_limit_exceeded 5 -> ())

(* ------------------------------------------------------------------ *)
(* Runtime: full information                                            *)
(* ------------------------------------------------------------------ *)

let test_full_info_snapshot_semantics () =
  (* all nodes simultaneously adopt max(self, neighbors); on a path the
     max value spreads one hop per round — this checks that updates use
     the previous-round snapshot, not in-round values *)
  let net = Net.create (Gen.path 5) in
  let st, _ =
    RT.run_flat net
      ~state:(int_state 5 (fun v -> if v = 0 then 100 else v))
      ~step:(max_step ~rounds:1)
  in
  (* after ONE synchronous round each node holds the max of its closed
     1-ball w.r.t. the initial values — nothing propagates further *)
  Alcotest.(check (array int)) "one hop only" [| 100; 100; 3; 4; 4 |] (FS.int_column st 0)

let test_gather_balls () =
  let g = Gen.cycle 6 in
  let net = Net.create g in
  let balls, stats = RT.gather_balls net ~radius:2 ~value:(fun v -> v * 10) in
  Alcotest.(check int) "rounds" 2 stats.RT.rounds;
  let ball0 = List.map fst balls.(0) in
  Alcotest.(check (list int)) "ball of 0" [ 0; 1; 2; 4; 5 ] ball0;
  Alcotest.(check bool) "values carried" true (List.mem (2, 20) balls.(0));
  let balls0, stats0 = RT.gather_balls net ~radius:0 ~value:(fun v -> v) in
  Alcotest.(check int) "radius 0 rounds" 0 stats0.RT.rounds;
  Alcotest.(check (list (pair int int))) "radius 0 ball" [ (3, 3) ] balls0.(3)

(* ------------------------------------------------------------------ *)
(* Distributed coloring                                                 *)
(* ------------------------------------------------------------------ *)

let test_dist_coloring_proper () =
  List.iter
    (fun (g, name) ->
      let net = Net.create g in
      let c, rounds = DC.color net in
      Alcotest.(check bool) (name ^ " proper") true (Col.is_proper g c);
      Alcotest.(check bool)
        (name ^ " <= d+1 colors")
        true
        (Col.num_colors c <= G.max_degree g + 1);
      Alcotest.(check bool) (name ^ " rounds >= 0") true (rounds >= 0))
    [
      (Gen.cycle 64, "cycle64");
      (Gen.random_regular ~seed:21 60 4, "rr60");
      (Gen.grid 7 7, "grid");
      (Gen.star 9, "star");
    ]

let test_dist_coloring_shuffled_ids () =
  let g = Gen.random_regular ~seed:23 40 3 in
  let net = Net.with_shuffled_ids ~seed:99 (Net.create g) in
  let c, _ = DC.color net in
  Alcotest.(check bool) "proper under adversarial ids" true (Col.is_proper g c)

let test_two_hop_coloring () =
  let g = Gen.random_regular ~seed:37 48 3 in
  let net = Net.create g in
  let c, rounds = DC.two_hop_color net in
  Alcotest.(check bool) "proper on square" true (Col.is_proper (G.square g) c);
  Alcotest.(check bool)
    "<= d^2+1 colors"
    true
    (Col.num_colors c <= (G.max_degree (G.square g)) + 1);
  Alcotest.(check bool) "rounds even" true (rounds mod 2 = 0)

let test_dist_coloring_logstar_scaling () =
  let rounds_of n =
    let net = Net.create (Gen.cycle n) in
    snd (DC.color net)
  in
  (* past the Linial fixpoint, rounds are flat in n for fixed degree *)
  let r1 = rounds_of 512 and r2 = rounds_of 4096 in
  Alcotest.(check bool) "flat in n" true (abs (r2 - r1) <= 2)

let test_schedule_consistency () =
  let sched = DC.schedule ~dmax:3 ~m:10_000 in
  Alcotest.(check bool) "descends" true
    (let rec desc m = function
       | [] -> true
       | (_, _, m') :: rest -> m' < m && desc m' rest
     in
     desc 10_000 sched)

let test_choose_params () =
  let q, t = DC.choose_params ~dmax:4 ~m:100 in
  Alcotest.(check bool) "prime" true (Lll_graph.Primes.is_prime q);
  Alcotest.(check bool) "q > t*d" true (q > t * 4);
  Alcotest.(check bool) "covers" true (float_of_int q ** float_of_int (t + 1) >= 100.)

(* The parameter search before it started at the exact root: walk the
   primes up from [t * dmax + 1], testing q^(t+1) >= m with a saturating
   power. Kept as the reference the faster search must agree with. *)
let linear_choose_params ~dmax ~m =
  let dmax = max dmax 1 in
  let rec pow_sat q k =
    if k = 0 then 1
    else
      let p = pow_sat q (k - 1) in
      if p > max_int / q then max_int else p * q
  in
  let best = ref None in
  for t = 1 to 60 do
    let rec search q =
      let q = Lll_graph.Primes.next_prime q in
      if pow_sat q (t + 1) >= m then q else search (q + 1)
    in
    let q = search ((t * dmax) + 1) in
    match !best with Some (q', _) when q' <= q -> () | _ -> best := Some (q, t)
  done;
  Option.get !best

let linear_schedule ~dmax ~m =
  let rec go m acc =
    let q, t = linear_choose_params ~dmax ~m in
    if q * q >= m then List.rev acc else go (q * q) ((q, t, q * q) :: acc)
  in
  go m []

let test_schedule_matches_linear_search () =
  let ms =
    [ 0; 1; 2; 3; 4; 5; 8; 9; 10; 48; 49; 50; 100; 120; 121; 122; 1000; 1023; 1024; 1025 ]
    @ [ 4095; 4096; 4097; 10_000; 65_535; 65_536; 99_999; 1 lsl 20; (1 lsl 20) + 1 ]
    @ [ (1 lsl 24) - 1; 1 lsl 24; 32_749 * 32_749; 1 lsl 30 ]
  in
  for dmax = 0 to 12 do
    List.iter
      (fun m ->
        let label = Printf.sprintf "dmax=%d m=%d" dmax m in
        Alcotest.(check (pair int int)) label (linear_choose_params ~dmax ~m)
          (DC.choose_params ~dmax ~m);
        Alcotest.(check (list (triple int int int))) label (linear_schedule ~dmax ~m)
          (DC.schedule ~dmax ~m))
      ms
  done

let test_schedule_huge_id_space () =
  (* the search once walked every prime up to sqrt m here *)
  let sched = DC.schedule ~dmax:11 ~m:(1 lsl 60) in
  match sched with
  | [] -> Alcotest.fail "no Linial step for 2^60 ids"
  | (q, t, m') :: _ ->
    Alcotest.(check bool) "prime" true (Lll_graph.Primes.is_prime q);
    Alcotest.(check bool) "q > t*d" true (q > t * 11);
    Alcotest.(check int) "colors after" (q * q) m'

(* Golden pin for the coloring itself: a digest of the color array plus
   the LOCAL round count, for [color] and [two_hop_color] on a cycle, a
   random 4-regular graph and a gnm graph with shuffled ids. The gnm
   [id_bound] of 2^24 forces two Linial rounds, with t = 4 and t = 2.
   Any change to the Linial or KW schedule, the evaluation point a node
   picks, or the slot it recolors into moves a digest. *)
let coloring_digest (colors, rounds) =
  Printf.sprintf "%s/%d"
    (Digest.to_hex
       (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int colors)))))
    rounds

let test_dist_coloring_golden () =
  let gnm_g = Gen.gnm ~seed:11 80 200 in
  let dmax = G.max_degree gnm_g in
  Alcotest.(check (list (pair int int)))
    "gnm schedule: two Linial rounds with t >= 2"
    [ (47, 4); (23, 2) ]
    (List.map (fun (q, t, _) -> (q, t)) (DC.schedule ~dmax ~m:(1 lsl 24)));
  let cyc = Net.create (Gen.cycle 50) in
  let rr = Net.create (Gen.random_regular ~seed:7 60 4) in
  let gnm = Net.with_shuffled_ids ~seed:5 (Net.create gnm_g) in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected (coloring_digest got))
    [
      ("cycle color", "0bafbe9cd14303a241ad3432637e277e/13", DC.color cyc);
      ("cycle two-hop", "6bd6e587f142f8f9bbb6bcdcdf0795d8/40", DC.two_hop_color cyc);
      ("rr4 color", "0affd87cc37a3c633663855c0702ff5f/20", DC.color rr);
      ("rr4 two-hop", "2c124e597d7d7a6f3e5882b2b6ddaa64/68", DC.two_hop_color rr);
      ( "gnm color",
        "895fbf9b76eb21520297da0d4e3a7bb8/74",
        DC.color ~id_bound:(1 lsl 24) gnm );
      ("gnm two-hop", "05641e72204ba058a299eb05a515c22a/94", DC.two_hop_color gnm);
    ]

(* With wake sets, per-round metrics count the nodes actually stepped:
   Linial rounds and the compacting last round of each KW phase step all
   n nodes, every other KW round steps one color slot, and [par_width]
   is the domain count used for that round's woken nodes. *)
let test_dist_coloring_wake_metrics () =
  let g = Gen.random_regular ~seed:7 60 4 in
  let n = G.n g and dmax = G.max_degree g in
  let w = dmax + 1 in
  Alcotest.(check bool) "n > 2(dmax+1)" true (n > 2 * w);
  let id_bound = 1 lsl 16 in
  let linial_rounds = List.length (DC.schedule ~dmax ~m:id_bound) in
  Alcotest.(check bool) "has Linial rounds" true (linial_rounds >= 1);
  let sink = Lll_local.Metrics.buffer () in
  let _, rounds = DC.color ~id_bound ~domains:4 ~metrics:sink (Net.create g) in
  let recs = Lll_local.Metrics.records sink in
  Alcotest.(check int) "one record per round" rounds (List.length recs);
  List.iter
    (fun (r : Lll_local.Metrics.round_record) ->
      let everyone = r.round < linial_rounds || (r.round - linial_rounds) mod w = w - 1 in
      if everyone then Alcotest.(check int) (Printf.sprintf "round %d steps all" r.round) n r.stepped
      else
        Alcotest.(check bool) (Printf.sprintf "round %d steps fewer" r.round) true (r.stepped < n);
      Alcotest.(check int)
        (Printf.sprintf "round %d par_width" r.round)
        (min 4 (max 1 r.stepped))
        r.par_width)
    recs;
  let total = List.fold_left (fun acc (r : Lll_local.Metrics.round_record) -> acc + r.stepped) 0 recs in
  Alcotest.(check bool) "summed stepped below rounds * n" true (total < rounds * n)

let test_gather_beyond_diameter () =
  let g = Gen.path 4 in
  let net = Net.create g in
  let balls, _ = RT.gather_balls net ~radius:10 ~value:(fun v -> v) in
  Array.iter
    (fun ball -> Alcotest.(check int) "whole graph" 4 (List.length ball))
    balls

let test_single_node_network () =
  let net = Net.create (Lll_graph.Graph.create ~n:1 []) in
  let st, stats =
    RT.run_flat net ~state:(int_state 1 (fun _ -> 42))
      ~step:(fun ~round:_ ~me ~prev ~cur ~nbrs:_ ->
        FS.set_int cur 0 me (FS.get_int prev 0 me + 1);
        true)
  in
  Alcotest.(check int) "one round" 1 stats.RT.rounds;
  Alcotest.(check (array int)) "stepped" [| 43 |] (FS.int_column st 0)

module MIS = Lll_local.Mis

let test_luby_valid () =
  List.iter
    (fun (g, name) ->
      let net = Net.create g in
      let in_mis, rounds = MIS.luby ~seed:42 net in
      Alcotest.(check bool) (name ^ " valid MIS") true (MIS.is_mis g in_mis);
      Alcotest.(check bool) (name ^ " rounds positive") true (rounds > 0))
    [
      (Gen.cycle 40, "cycle");
      (Gen.random_regular ~seed:3 50 4, "rr50");
      (Gen.complete 8, "K8");
      (Gen.star 10, "star");
      (Gen.grid 6 6, "grid");
    ]

let test_luby_deterministic () =
  let g = Gen.random_regular ~seed:5 30 3 in
  let m1, r1 = MIS.luby ~seed:7 (Net.create g) in
  let m2, r2 = MIS.luby ~seed:7 (Net.create g) in
  Alcotest.(check bool) "same set" true (m1 = m2);
  Alcotest.(check int) "same rounds" r1 r2

let test_luby_logarithmic () =
  let rounds n = snd (MIS.luby ~seed:1 (Net.create (Gen.cycle n))) in
  Alcotest.(check bool) "grows slowly" true (rounds 2048 <= rounds 64 + 14)

let test_luby_single_node () =
  let net = Net.create (Lll_graph.Graph.create ~n:1 []) in
  let in_mis, _ = MIS.luby ~seed:1 net in
  Alcotest.(check bool) "lonely node joins" true in_mis.(0)

let test_greedy_mis () =
  List.iter
    (fun g -> Alcotest.(check bool) "greedy valid" true (MIS.is_mis g (MIS.greedy g)))
    [ Gen.cycle 9; Gen.complete 5; Gen.grid 4 4; Gen.random_regular ~seed:2 20 3 ]

let test_is_mis_rejects () =
  let g = Gen.path 3 in
  Alcotest.(check bool) "not independent" false (MIS.is_mis g [| true; true; false |]);
  Alcotest.(check bool) "not maximal" false (MIS.is_mis g [| false; false; false |]);
  Alcotest.(check bool) "valid" true (MIS.is_mis g [| true; false; true |])

let () =
  Alcotest.run "lll_local"
    [
      ( "network",
        [
          Alcotest.test_case "basics" `Quick test_network_basics;
          Alcotest.test_case "duplicate ids" `Quick test_network_duplicate_ids;
          Alcotest.test_case "shuffled ids" `Quick test_shuffled_ids;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "halting rounds" `Quick test_halting_rounds;
          Alcotest.test_case "message flood" `Quick test_max_flood;
          Alcotest.test_case "round limit" `Quick test_round_limit;
          Alcotest.test_case "full-info snapshot semantics" `Quick test_full_info_snapshot_semantics;
          Alcotest.test_case "gather balls" `Quick test_gather_balls;
          Alcotest.test_case "gather beyond diameter" `Quick test_gather_beyond_diameter;
          Alcotest.test_case "single node" `Quick test_single_node_network;
        ] );
      ( "mis",
        [
          Alcotest.test_case "luby valid" `Quick test_luby_valid;
          Alcotest.test_case "luby deterministic" `Quick test_luby_deterministic;
          Alcotest.test_case "luby round growth" `Slow test_luby_logarithmic;
          Alcotest.test_case "single node" `Quick test_luby_single_node;
          Alcotest.test_case "greedy oracle" `Quick test_greedy_mis;
          Alcotest.test_case "checker rejects" `Quick test_is_mis_rejects;
        ] );
      ( "dist-coloring",
        [
          Alcotest.test_case "proper" `Quick test_dist_coloring_proper;
          Alcotest.test_case "adversarial ids" `Quick test_dist_coloring_shuffled_ids;
          Alcotest.test_case "two-hop" `Quick test_two_hop_coloring;
          Alcotest.test_case "log* scaling" `Slow test_dist_coloring_logstar_scaling;
          Alcotest.test_case "schedule descends" `Quick test_schedule_consistency;
          Alcotest.test_case "choose params" `Quick test_choose_params;
          Alcotest.test_case "schedule matches linear search" `Quick
            test_schedule_matches_linear_search;
          Alcotest.test_case "schedule for 2^60 ids" `Quick test_schedule_huge_id_space;
          Alcotest.test_case "golden colors" `Quick test_dist_coloring_golden;
          Alcotest.test_case "wake metrics" `Quick test_dist_coloring_wake_metrics;
        ] );
    ]
