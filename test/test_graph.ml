(* Tests for the graph substrate: graphs, hypergraphs, generators and the
   coloring algorithms. *)

module G = Lll_graph.Graph
module H = Lll_graph.Hypergraph
module Gen = Lll_graph.Generators
module Col = Lll_graph.Coloring
module CV = Lll_graph.Cole_vishkin
module P = Lll_graph.Primes
module Net = Lll_local.Network
module DC = Lll_local.Dist_coloring

(* ------------------------------------------------------------------ *)
(* Graph basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_create_dedup () =
  let g = G.create ~n:3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check int) "m" 2 (G.m g);
  Alcotest.(check int) "deg 1" 2 (G.degree g 1)

let test_create_rejects () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.create: self-loop") (fun () ->
      ignore (G.create ~n:2 [ (1, 1) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.create: node out of range") (fun () ->
      ignore (G.create ~n:2 [ (0, 2) ]))

let test_endpoints_normalised () =
  let g = G.create ~n:4 [ (3, 1) ] in
  Alcotest.(check (pair int int)) "sorted" (1, 3) (G.endpoints g 0);
  Alcotest.(check int) "other" 3 (G.other_endpoint g 0 1);
  Alcotest.(check int) "other'" 1 (G.other_endpoint g 0 3)

let test_find_edge () =
  let g = Gen.cycle 5 in
  (match G.find_edge g 0 1 with
  | Some e ->
    let u, v = G.endpoints g e in
    Alcotest.(check (pair int int)) "endpoints" (0, 1) (u, v)
  | None -> Alcotest.fail "edge 0-1 missing");
  Alcotest.(check bool) "non-adjacent" true (G.find_edge g 0 2 = None)

let test_square () =
  let g = Gen.path 5 in
  let sq = G.square g in
  Alcotest.(check bool) "dist1" true (G.mem_edge sq 0 1);
  Alcotest.(check bool) "dist2" true (G.mem_edge sq 0 2);
  Alcotest.(check bool) "dist3 absent" false (G.mem_edge sq 0 3);
  Alcotest.(check int) "max degree" 4 (G.max_degree sq)

let test_line_graph () =
  let g = Gen.star 5 in
  (* line graph of a star is complete on its edges *)
  let lg = G.line_graph g in
  Alcotest.(check int) "nodes" (G.m g) (G.n lg);
  Alcotest.(check int) "complete" (4 * 3 / 2) (G.m lg)

let test_bfs () =
  let g = Gen.path 6 in
  let d = G.bfs_dist g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4; 5 |] d

let test_components () =
  let g = G.create ~n:5 [ (0, 1); (2, 3) ] in
  let count, comp = G.connected_components g in
  Alcotest.(check int) "count" 3 count;
  Alcotest.(check bool) "same comp" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "diff comp" true (comp.(0) <> comp.(2));
  Alcotest.(check bool) "connected" false (G.is_connected g);
  Alcotest.(check bool) "cycle connected" true (G.is_connected (Gen.cycle 7))

let test_girth () =
  Alcotest.(check (option int)) "cycle" (Some 7) (G.girth (Gen.cycle 7));
  Alcotest.(check (option int)) "tree" None (G.girth (Gen.path 9));
  Alcotest.(check (option int)) "complete" (Some 3) (G.girth (Gen.complete 5));
  Alcotest.(check (option int)) "grid" (Some 4) (G.girth (Gen.grid 3 3));
  Alcotest.(check (option int)) "hypercube" (Some 4) (G.girth (Gen.hypercube 4))

let test_to_dot () =
  let g = Gen.path 3 in
  let dot = G.to_dot g in
  Alcotest.(check bool) "header" true (String.length dot > 0 && String.sub dot 0 7 = "graph g");
  Alcotest.(check bool) "edge listed" true
    (let re = "0 -- 1" in
     let rec contains i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_other_endpoint_rejects () =
  let g = Gen.path 3 in
  (try
     ignore (G.other_endpoint g 0 2);
     Alcotest.fail "no error"
   with Invalid_argument _ -> ())

let test_empty_graph () =
  let g = G.create ~n:0 [] in
  Alcotest.(check int) "n" 0 (G.n g);
  Alcotest.(check int) "components" 0 (fst (G.connected_components g));
  Alcotest.(check bool) "connected (vacuous)" true (G.is_connected g);
  Alcotest.(check int) "max degree" 0 (G.max_degree g)

let test_line_graph_of_cycle () =
  (* the line graph of a cycle is a cycle of the same length *)
  let g = Gen.cycle 8 in
  let lg = G.line_graph g in
  Alcotest.(check int) "n" 8 (G.n lg);
  Alcotest.(check int) "m" 8 (G.m lg);
  Alcotest.(check int) "2-regular" 2 (G.max_degree lg);
  Alcotest.(check (option int)) "girth" (Some 8) (G.girth lg)

let test_square_of_cycle () =
  let g = Gen.cycle 8 in
  let sq = G.square g in
  Alcotest.(check int) "4-regular" 4 (G.max_degree sq);
  Alcotest.(check int) "m doubled" 16 (G.m sq)

(* ------------------------------------------------------------------ *)
(* Hypergraphs                                                          *)
(* ------------------------------------------------------------------ *)

let test_hypergraph_basics () =
  let h = H.create ~n:5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 4 ] ] in
  Alcotest.(check int) "rank" 3 (H.rank h);
  Alcotest.(check int) "deg 2" 2 (H.degree h 2);
  Alcotest.(check (list int)) "incident 2" [ 0; 1 ] (H.incident h 2);
  let pg = H.primal_graph h in
  Alcotest.(check bool) "0-1" true (G.mem_edge pg 0 1);
  Alcotest.(check bool) "2-3" true (G.mem_edge pg 2 3);
  Alcotest.(check bool) "0-3 absent" false (G.mem_edge pg 0 3);
  Alcotest.(check int) "isolated" 0 (G.degree pg 4)

let test_hypergraph_to_dot () =
  let h = H.create ~n:3 [ [ 0; 1; 2 ] ] in
  let dot = H.to_dot h in
  Alcotest.(check bool) "has box node" true
    (let re = "shape=box" in
     let rec contains i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_hypergraph_rejects () =
  Alcotest.check_raises "empty edge" (Invalid_argument "Hypergraph.create: empty hyperedge")
    (fun () -> ignore (H.create ~n:2 [ [] ]))

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_shapes () =
  let g = Gen.cycle 9 in
  Alcotest.(check int) "cycle m" 9 (G.m g);
  Alcotest.(check int) "cycle deg" 2 (G.max_degree g);
  let g = Gen.torus 4 5 in
  Alcotest.(check int) "torus m" 40 (G.m g);
  Alcotest.(check bool) "torus 4-regular" true
    (List.for_all (fun v -> G.degree g v = 4) (List.init (G.n g) (fun i -> i)));
  let g = Gen.grid 4 3 in
  Alcotest.(check int) "grid m" ((3 * 3) + (2 * 4)) (G.m g);
  let g = Gen.hypercube 5 in
  Alcotest.(check int) "hypercube n" 32 (G.n g);
  Alcotest.(check bool) "hypercube 5-regular" true
    (List.for_all (fun v -> G.degree g v = 5) (List.init 32 (fun i -> i)))

let test_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  Alcotest.(check int) "m" 12 (G.m g);
  Alcotest.(check (option int)) "girth 4" (Some 4) (G.girth g);
  Alcotest.(check bool) "bipartite structure" true
    (G.fold_edges (fun ok _ u v -> ok && ((u < 3) <> (v < 3))) true g)

let test_random_tree () =
  for seed = 0 to 5 do
    let n = 2 + (seed * 7) in
    let g = Gen.random_tree ~seed n in
    Alcotest.(check int) "m = n-1" (n - 1) (G.m g);
    Alcotest.(check bool) "connected" true (G.is_connected g);
    Alcotest.(check (option int)) "acyclic" None (G.girth g)
  done;
  Alcotest.(check int) "singleton" 0 (G.m (Gen.random_tree ~seed:0 1))

let test_random_regular () =
  let g = Gen.random_regular ~seed:3 50 4 in
  Alcotest.(check int) "n" 50 (G.n g);
  Alcotest.(check bool) "regular" true
    (List.for_all (fun v -> G.degree g v = 4) (List.init 50 (fun i -> i)));
  (* determinism *)
  let g' = Gen.random_regular ~seed:3 50 4 in
  Alcotest.(check bool) "deterministic" true (G.edges g = G.edges g')

let test_random_regular_rejects () =
  Alcotest.check_raises "odd" (Invalid_argument "Generators.random_regular: n*d must be even")
    (fun () -> ignore (Gen.random_regular ~seed:0 5 3))

let test_gnm () =
  let g = Gen.gnm ~seed:1 30 40 in
  Alcotest.(check int) "m" 40 (G.m g)

let test_bounded_degree () =
  let g = Gen.random_bounded_degree ~seed:5 40 3 50 in
  Alcotest.(check bool) "cap" true (G.max_degree g <= 3)

let test_biregular () =
  let adj = Gen.random_biregular_bipartite ~seed:9 ~nv:20 ~nu:20 ~deg_u:3 ~deg_v:3 in
  Alcotest.(check int) "nu" 20 (Array.length adj);
  Array.iter
    (fun row ->
      Alcotest.(check int) "deg_u" 3 (Array.length row);
      Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare (Array.to_list row))))
    adj;
  let deg_v = Array.make 20 0 in
  Array.iter (Array.iter (fun v -> deg_v.(v) <- deg_v.(v) + 1)) adj;
  Array.iter (fun d -> Alcotest.(check int) "deg_v" 3 d) deg_v

let test_regular_hypergraph () =
  let h = Gen.random_regular_hypergraph ~seed:11 18 3 4 in
  Alcotest.(check int) "rank" 3 (H.rank h);
  Alcotest.(check int) "m" (18 * 4 / 3) (H.m h);
  for v = 0 to 17 do
    Alcotest.(check int) "deg" 4 (H.degree h v)
  done

let test_hypergraph_rank2_primal () =
  (* a rank-2 hypergraph's primal graph has exactly its edges *)
  let h = H.create ~n:4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let pg = H.primal_graph h in
  Alcotest.(check int) "m" 3 (G.m pg);
  Alcotest.(check int) "rank" 2 (H.rank h)

let test_hypergraph_duplicate_members () =
  let h = H.create ~n:3 [ [ 0; 1; 1; 0; 2 ] ] in
  Alcotest.(check (array int)) "dedup" [| 0; 1; 2 |] (H.edge h 0);
  Alcotest.(check int) "rank" 3 (H.rank h)

(* ------------------------------------------------------------------ *)
(* Primes (Linial's field sizes)                                      *)
(* ------------------------------------------------------------------ *)

let test_primes () =
  Alcotest.(check bool) "2" true (P.is_prime 2);
  Alcotest.(check bool) "1" false (P.is_prime 1);
  Alcotest.(check bool) "97" true (P.is_prime 97);
  Alcotest.(check bool) "91" false (P.is_prime 91);
  Alcotest.(check int) "next 90" 97 (P.next_prime 90);
  Alcotest.(check int) "next of prime" 13 (P.next_prime 13);
  Alcotest.(check int) "next 0" 2 (P.next_prime 0)

(* ------------------------------------------------------------------ *)
(* Cole–Vishkin                                                         *)
(* ------------------------------------------------------------------ *)

let test_cv_step_preserves_properness () =
  for n = 3 to 40 do
    let succ v = (v + 1) mod n in
    let colors = Array.init n (fun i -> i) in
    let colors' = CV.cv_step ~succ colors in
    Alcotest.(check bool)
      (Printf.sprintf "proper n=%d" n)
      true
      (CV.is_proper_on_cycle ~succ colors')
  done

let test_cv_three_colors () =
  List.iter
    (fun n ->
      let c, rounds = CV.three_color_cycle n in
      let succ v = (v + 1) mod n in
      Alcotest.(check bool)
        (Printf.sprintf "proper n=%d" n)
        true
        (CV.is_proper_on_cycle ~succ c);
      Alcotest.(check bool) "3 colors" true (Array.for_all (fun x -> x >= 0 && x < 3) c);
      Alcotest.(check bool) "rounds small" true (rounds <= 20))
    [ 3; 4; 5; 10; 100; 1000; 10000 ]

let test_cv_logstar () =
  let _, r_small = CV.three_color_cycle 16 in
  let _, r_big = CV.three_color_cycle 65536 in
  Alcotest.(check bool) "log* growth" true (r_big - r_small <= 3)

let test_lowest_diff_bit () =
  Alcotest.(check int) "bit 0" 0 (CV.lowest_diff_bit 2 3);
  Alcotest.(check int) "bit 2" 2 (CV.lowest_diff_bit 8 12)

(* ------------------------------------------------------------------ *)
(* Exact colorability and shift graphs (the log* lower bound)            *)
(* ------------------------------------------------------------------ *)

module SG = Lll_graph.Shift_graph

let test_chromatic_number_basics () =
  Alcotest.(check (option int)) "empty" (Some 0) (Col.chromatic_number (G.create ~n:0 []));
  Alcotest.(check (option int)) "edgeless" (Some 1) (Col.chromatic_number (G.create ~n:5 []));
  Alcotest.(check (option int)) "K4" (Some 4) (Col.chromatic_number (Gen.complete 4));
  Alcotest.(check (option int)) "C5" (Some 3) (Col.chromatic_number (Gen.cycle 5));
  Alcotest.(check (option int)) "C6" (Some 2) (Col.chromatic_number (Gen.cycle 6));
  Alcotest.(check (option int)) "grid bipartite" (Some 2) (Col.chromatic_number (Gen.grid 4 4));
  Alcotest.(check (option int)) "petersen-ish bipartite" (Some 2)
    (Col.chromatic_number (Gen.complete_bipartite 3 5))

let test_colorable_budget () =
  (* an absurdly small budget must come back undecided *)
  Alcotest.(check (option bool)) "undecided" None
    (Col.colorable ~budget:1 (Gen.random_regular ~seed:1 30 4) 3)

let test_shift_rank_unrank () =
  let m = 6 and k = 3 in
  for r = 0 to SG.num_tuples m k - 1 do
    let t = SG.unrank ~m ~k r in
    Alcotest.(check int) "roundtrip" r (SG.rank ~m t);
    Alcotest.(check int) "distinct" k (List.length (List.sort_uniq compare (Array.to_list t)))
  done

let test_shift_graph_structure () =
  let g = SG.build ~m:4 ~k:2 in
  Alcotest.(check int) "nodes" 12 (G.n g);
  (* (0,1) ~ (1,2): shares the shifted window *)
  let r01 = SG.rank ~m:4 [| 0; 1 |] and r12 = SG.rank ~m:4 [| 1; 2 |] in
  Alcotest.(check bool) "shift edge" true (G.mem_edge g r01 r12);
  (* (0,1) and (2,3) share nothing: no edge *)
  let r23 = SG.rank ~m:4 [| 2; 3 |] in
  Alcotest.(check bool) "no edge" false (G.mem_edge g r01 r23)

let test_shift_chromatic_numbers () =
  (* exact, certified by exhaustive search: the iterated-log growth that
     underlies the Omega(log* n) lower bound *)
  List.iter
    (fun (m, k, chi) ->
      Alcotest.(check (option int))
        (Printf.sprintf "chi(S(%d,%d))" m k)
        (Some chi)
        (SG.chromatic_number ~m ~k ()))
    [ (2, 2, 1); (3, 2, 3); (4, 2, 3); (5, 2, 4); (6, 2, 4); (4, 3, 2); (5, 3, 3) ]

let test_shift_threshold_universe () =
  (* no 3-coloring of pairs once ids come from a universe of >= 5:
     a concrete, machine-checked instance of the lower bound *)
  Alcotest.(check (option int)) "threshold" (Some 5)
    (SG.threshold_universe ~k:2 ~colors:3 ~max_m:8 ())

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

module Ser = Lll_graph.Serialize

let graphs_equal a b = G.n a = G.n b && G.edges a = G.edges b

let graph_of_blob blob = Ser.graph_of_binary_src (Ser.Bin.source_of_string blob)

let test_wtable_roundtrip () =
  let wt =
    {
      Ser.arities = [| 2; 3 |];
      rows = [ ([| 0; 2 |], Lll_num.Rat.of_string "1/6"); ([| 1; 0 |], Lll_num.Rat.of_string "1/3") ];
    }
  in
  let wt' = Ser.weighted_table_of_string (Ser.weighted_table_to_string wt) in
  Alcotest.(check bool) "arities" true (wt.Ser.arities = wt'.Ser.arities);
  Alcotest.(check bool) "rows" true
    (List.for_all2
       (fun (xs, w) (xs', w') -> xs = xs' && Lll_num.Rat.equal w w')
       wt.Ser.rows wt'.Ser.rows)

let test_wtable_error_paths () =
  let reject name s =
    try
      ignore (Ser.weighted_table_of_string s);
      Alcotest.fail (name ^ " accepted")
    with Ser.Parse_error _ -> ()
  in
  (* wrong block header *)
  reject "bad header" "p wtible 1 1\na 2\nw 0 1/2\n";
  (* truncated table: header promises 2 rows, only 1 present *)
  reject "truncated table" "p wtable 1 2\na 2\nw 0 1/2\n";
  (* tuple value outside the declared arity *)
  reject "value out of range" "p wtable 1 1\na 2\nw 2 1/2\n";
  (* corrupted row weights: zero, negative, or not a rational at all *)
  reject "zero weight" "p wtable 1 1\na 2\nw 0 0\n";
  reject "negative weight" "p wtable 1 1\na 2\nw 0 -1/2\n";
  reject "garbage weight" "p wtable 1 1\na 2\nw 0 bogus\n"

let test_graph_binary_roundtrip () =
  List.iter
    (fun g ->
      let g' = graph_of_blob (Ser.graph_to_binary g) in
      Alcotest.(check bool) "binary roundtrip" true (graphs_equal g g'))
    [ Gen.cycle 7; Gen.random_regular ~seed:1 20 3; G.create ~n:5 []; Gen.grid 3 4 ]

let test_graph_binary_file_roundtrip () =
  let g = Gen.random_regular ~seed:3 24 3 in
  let path = Filename.temp_file "lll_graph" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Ser.graph_to_binary g));
      Alcotest.(check bool) "binary file roundtrip" true
        (graphs_equal g (Ser.graph_of_binary_src (Ser.Bin.source_of_path path))))

let test_graph_binary_error_paths () =
  let blob = Ser.graph_to_binary (Gen.cycle 9) in
  let reject name s =
    try
      ignore (graph_of_blob s);
      Alcotest.fail (name ^ " accepted")
    with Ser.Bin.Corrupt _ -> ()
  in
  let patch pos c =
    let b = Bytes.of_string blob in
    Bytes.set b pos c;
    Bytes.to_string b
  in
  reject "bad magic" (patch 0 '?');
  reject "version skew" (patch 4 '\042');
  reject "truncated" (String.sub blob 0 (String.length blob - 3));
  let last = String.length blob - 1 in
  reject "checksum" (patch last (Char.chr (Char.code blob.[last] lxor 1)))

let test_of_csr_validation () =
  let g = Gen.random_regular ~seed:5 18 3 in
  (* the identity: csr followed by of_csr reproduces the graph *)
  Alcotest.(check bool) "of_csr identity" true (graphs_equal g (G.of_csr (G.csr g)));
  let reject name c =
    try
      ignore (G.of_csr c);
      Alcotest.fail (name ^ " accepted")
    with Invalid_argument _ -> ()
  in
  let c = G.csr g in
  reject "bad offsets length" { c with G.csr_offsets = Array.sub c.G.csr_offsets 0 3 };
  reject "neighbor out of range"
    {
      c with
      G.csr_neighbors =
        (let a = Array.copy c.G.csr_neighbors in
         a.(0) <- G.n g;
         a);
    };
  reject "unsorted slice"
    {
      c with
      G.csr_neighbors =
        (let a = Array.copy c.G.csr_neighbors in
         (* the graph is 3-regular: the first slice has 3 entries *)
         let t = a.(0) in
         a.(0) <- a.(1);
         a.(1) <- t;
         a);
    };
  reject "edge id disagrees"
    {
      c with
      G.csr_edge_ids =
        (let a = Array.copy c.G.csr_edge_ids in
         a.(0) <- (a.(0) + 1) mod (Array.length c.G.csr_ends / 2);
         a);
    };
  (* the flat endpoint column: even length, each pair ascending *)
  reject "odd endpoint column"
    { c with G.csr_ends = Array.sub c.G.csr_ends 0 (Array.length c.G.csr_ends - 1) };
  reject "reversed endpoints"
    {
      c with
      G.csr_ends =
        (let a = Array.copy c.G.csr_ends in
         let t = a.(0) in
         a.(0) <- a.(1);
         a.(1) <- t;
         a);
    }

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let arb_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* m = int_range 0 (min 80 (n * (n - 1) / 2)) in
      let* seed = int_range 0 10_000 in
      return (Gen.gnm ~seed n m))
  in
  QCheck.make ~print:(fun g -> Printf.sprintf "graph(n=%d,m=%d)" (G.n g) (G.m g)) gen

let graph_props =
  [
    prop "degree sum = 2m" 200 arb_graph (fun g ->
        let sum = List.fold_left (fun acc v -> acc + G.degree g v) 0 (List.init (G.n g) Fun.id) in
        sum = 2 * G.m g);
    prop "linial pipeline proper" 50 arb_graph (fun g ->
        let c, rounds = DC.color (Net.create g) in
        (* every node derives the schedule from n and dmax: |schedule|
           Linial rounds, then dmax + 1 rounds per KW halving phase *)
        let dmax = G.max_degree g in
        let sched = DC.schedule ~dmax ~m:(G.n g) in
        let m_star = List.fold_left (fun _ (_, _, m) -> m) (G.n g) sched in
        let w = dmax + 1 in
        let rec phases m = if m <= w then 0 else 1 + phases ((m + (2 * w) - 1) / (2 * w) * w) in
        Col.is_proper g c
        && Col.num_colors c <= dmax + 1
        && rounds = List.length sched + (w * phases m_star));
    prop "square contains graph" 100 arb_graph (fun g ->
        G.fold_edges (fun ok _ u v -> ok && G.mem_edge (G.square g) u v) true g);
    prop "square edges are dist <= 2" 50 arb_graph (fun g ->
        let sq = G.square g in
        G.fold_edges (fun ok _ u v -> ok && (G.bfs_dist g u).(v) <= 2 && (G.bfs_dist g u).(v) >= 1)
          true sq);
    prop "line graph degree" 50 arb_graph (fun g ->
        let lg = G.line_graph g in
        G.fold_edges
          (fun ok e u v -> ok && G.degree lg e = G.degree g u + G.degree g v - 2)
          true g);
    prop "edge coloring proper" 50 arb_graph (fun g ->
        let c, _ = DC.color (Net.create (G.line_graph g)) in
        (* line-graph node e is edge e: the edges at every node differ *)
        let proper_at v =
          let cols = G.fold_adj g v ~init:[] ~f:(fun acc _ e -> c.(e) :: acc) in
          List.length (List.sort_uniq compare cols) = List.length cols
        in
        Array.length c = G.m g
        && List.for_all proper_at (List.init (G.n g) Fun.id)
        && Col.num_colors c <= max 1 ((2 * G.max_degree g) - 1));
    prop "two-hop coloring proper on square" 50 arb_graph (fun g ->
        let c, rounds = DC.two_hop_color (Net.create g) in
        let sq = G.square g in
        Col.is_proper sq c && Col.num_colors c <= G.max_degree sq + 1 && rounds mod 2 = 0);
    prop "bfs triangle inequality" 50 arb_graph (fun g ->
        G.fold_edges
          (fun ok _ u v ->
            let du = G.bfs_dist g u in
            ok && abs (du.(v) - du.(u)) <= 1)
          true g);
  ]

(* ------------------------------------------------------------------ *)
(* Girth-controlled regular sampler                                     *)
(* ------------------------------------------------------------------ *)

(* Independent BFS girth computation (does not trust [G.girth]): from
   every root, a non-tree edge (u, w) closes a cycle of length
   dist(u) + dist(w) + 1; rooted at a vertex of a shortest cycle the
   bound is attained, so the minimum over all roots is the exact
   girth. *)
let bfs_girth g =
  let n = G.n g in
  let best = ref max_int in
  for s = 0 to n - 1 do
    let dist = Array.make n (-1) in
    let par_edge = Array.make n (-1) in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun e ->
          let w = G.other_endpoint g e u in
          if dist.(w) = -1 then begin
            dist.(w) <- dist.(u) + 1;
            par_edge.(w) <- e;
            Queue.add w q
          end
          else if e <> par_edge.(u) then best := min !best (dist.(u) + dist.(w) + 1))
        (G.incident_edges g u)
    done
  done;
  if !best = max_int then None else Some !best

(* (degree, girth, size) combinations with enough slack above the Moore
   bound for the swap sampler to succeed on every seed *)
let arb_girth_params =
  let gen =
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let* d, girth, n =
        oneofl
          [ (3, 5, 14); (3, 5, 22); (3, 6, 20); (3, 6, 30); (3, 6, 40); (4, 5, 32); (4, 5, 48) ]
      in
      return (seed, d, girth, n))
  in
  QCheck.make
    ~print:(fun (seed, d, girth, n) -> Printf.sprintf "seed=%d d=%d girth=%d n=%d" seed d girth n)
    gen

let girth_sampler_props =
  [
    prop "girth sampler is d-regular" 200 arb_girth_params (fun (seed, d, girth, n) ->
        let g = Gen.random_regular_girth ~seed ~girth n d in
        G.n g = n && List.for_all (fun v -> G.degree g v = d) (List.init n Fun.id));
    prop "girth sampler meets the girth lower bound (BFS check)" 200 arb_girth_params
      (fun (seed, d, girth, n) ->
        let g = Gen.random_regular_girth ~seed ~girth n d in
        match bfs_girth g with
        | None -> false (* d-regular graphs always contain a cycle *)
        | Some c -> c >= girth && G.girth g = Some c);
    prop "girth sampler round-trips through serialization" 200 arb_girth_params
      (fun (seed, d, girth, n) ->
        let g = Gen.random_regular_girth ~seed ~girth n d in
        graphs_equal g (graph_of_blob (Ser.graph_to_binary g)));
  ]

(* Every simple graph has girth >= 3, so the girth-3 repair loop is a
   no-op and attempt 0 must hand back the configuration-model graph for
   the *same* seed — the attempt-0 seed derivation that store artifact
   keys are pinned to. *)
let test_girth_sampler_attempt0_seed () =
  List.iter
    (fun (seed, n, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "girth 3 = plain configuration model (seed=%d n=%d d=%d)" seed n d)
        true
        (graphs_equal
           (Gen.random_regular_girth ~seed ~girth:3 n d)
           (Gen.random_regular ~seed n d)))
    [ (1, 24, 3); (2, 24, 3); (1, 48, 3); (7, 30, 4) ]

(* A hardcoded edge checksum on the corpus point (seed=1, girth=6,
   n=24, d=3). Any change here silently renames every committed
   sinkless artifact and invalidates the scenario baselines, so it must
   be a deliberate, visible decision. *)
let test_girth_sampler_pinned_edges () =
  let g = Gen.random_regular_girth ~seed:1 ~girth:6 24 3 in
  let sum =
    Array.fold_left
      (fun acc (u, v) -> ((acc * 131) + (u * 251) + v) land 0x3FFF_FFFF)
      0 (G.edges g)
  in
  Alcotest.(check int) "edge checksum (store-key stability pin)" 727835792 sum

let test_girth_sampler_stats () =
  let stats = Gen.fresh_girth_stats () in
  let g = Gen.random_regular_girth ~stats ~seed:1 ~girth:6 24 3 in
  Alcotest.(check bool) "at least one attempt" true (stats.Gen.gs_attempts >= 1);
  Alcotest.(check bool) "girth 6 at n=24 needs repair swaps" true (stats.Gen.gs_swaps > 0);
  Alcotest.(check bool) "counters non-negative" true
    (stats.Gen.gs_reverts >= 0 && stats.Gen.gs_rejects >= 0);
  (* threading a stats record must not perturb the sample *)
  Alcotest.(check bool) "stats do not touch the rng" true
    (graphs_equal g (Gen.random_regular_girth ~seed:1 ~girth:6 24 3));
  (* the record accumulates across calls rather than resetting *)
  let before = stats.Gen.gs_attempts in
  ignore (Gen.random_regular_girth ~stats ~seed:2 ~girth:6 24 3);
  Alcotest.(check bool) "accumulates" true (stats.Gen.gs_attempts > before)

(* ------------------------------------------------------------------ *)
(* CSR vs naive list model                                              *)
(* ------------------------------------------------------------------ *)

(* A deliberately naive reference implementation of the graph API, built
   straight from the raw edge list with lists and linear scans — the
   semantics the CSR representation must reproduce exactly. *)
module Model = struct
  type t = { n : int; edges : (int * int) array }

  let create ~n edge_list =
    let seen = Hashtbl.create 16 in
    let norm (u, v) = if u < v then (u, v) else (v, u) in
    let uniq =
      List.filter
        (fun e ->
          let e = norm e in
          if Hashtbl.mem seen e then false
          else begin
            Hashtbl.add seen e ();
            true
          end)
        edge_list
    in
    { n; edges = Array.of_list (List.map norm uniq) }

  let adj t v =
    let acc = ref [] in
    Array.iteri
      (fun i (a, b) ->
        if a = v then acc := (b, i) :: !acc else if b = v then acc := (a, i) :: !acc)
      t.edges;
    List.sort compare !acc

  let neighbors t v = List.map fst (adj t v)
  let incident_edges t v = List.map snd (adj t v)
  let degree t v = List.length (adj t v)

  let max_degree t =
    List.fold_left (fun acc v -> max acc (degree t v)) 0 (List.init t.n Fun.id)

  let find_edge t u v =
    let key = (min u v, max u v) in
    let r = ref None in
    Array.iteri (fun i e -> if !r = None && e = key then r := Some i) t.edges;
    !r

  (* distance-<=2 pairs by brute force over the adjacency matrix *)
  let square_pairs t =
    let m = Array.make_matrix t.n t.n false in
    Array.iter
      (fun (u, v) ->
        m.(u).(v) <- true;
        m.(v).(u) <- true)
      t.edges;
    let out = ref [] in
    for u = t.n - 1 downto 0 do
      for v = t.n - 1 downto u + 1 do
        let dist2 = ref m.(u).(v) in
        for w = 0 to t.n - 1 do
          if m.(u).(w) && m.(w).(v) then dist2 := true
        done;
        if !dist2 then out := (u, v) :: !out
      done
    done;
    !out

  (* distinct edges sharing an endpoint, as ascending id pairs *)
  let line_pairs t =
    let out = ref [] in
    let m = Array.length t.edges in
    for i = m - 1 downto 0 do
      for j = m - 1 downto i + 1 do
        let a, b = t.edges.(i) and c, d = t.edges.(j) in
        if a = c || a = d || b = c || b = d then out := (i, j) :: !out
      done
    done;
    !out
end

(* Raw (n, possibly-duplicated, possibly-reversed edge list) inputs, so the
   dedup/normalisation path is exercised too. *)
let arb_raw_graph =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 30 in
      let* m = int_range 0 60 in
      let* pairs = list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, List.filter (fun (u, v) -> u <> v) pairs))
  in
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) es)))
    gen

let csr_model_props =
  let both (n, es) = (G.create ~n es, Model.create ~n es) in
  [
    prop "neighbors agree" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        List.for_all (fun v -> G.neighbors g v = Model.neighbors m v) (List.init n Fun.id));
    prop "incident_edges agree" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        List.for_all (fun v -> G.incident_edges g v = Model.incident_edges m v)
          (List.init n Fun.id));
    prop "adj agrees" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        List.for_all (fun v -> G.adj g v = Model.adj m v) (List.init n Fun.id));
    prop "degree and max_degree agree" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        G.max_degree g = Model.max_degree m
        && List.for_all (fun v -> G.degree g v = Model.degree m v) (List.init n Fun.id));
    prop "find_edge agrees on all pairs" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        List.for_all
          (fun u ->
            List.for_all
              (fun v -> u = v || G.find_edge g u v = Model.find_edge m u v)
              (List.init n Fun.id))
          (List.init n Fun.id));
    prop "edge ids preserve first-occurrence order" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        (* the same edges again, reversed, after the first occurrences:
           every one is a repeat, so the ids must not move *)
        let again = es @ List.rev_map (fun (u, v) -> (v, u)) es in
        let flat = Array.of_list (List.concat_map (fun (u, v) -> [ u; v ]) again) in
        G.edges g = m.Model.edges
        && G.edges (G.create ~n again) = m.Model.edges
        && G.edges (G.of_ends ~n flat) = m.Model.edges);
    prop "square agrees with brute-force dist<=2" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        let sq = G.square g in
        (* edge ids in (min, max) order, and the CSR passes validation *)
        G.edges sq = Array.of_list (Model.square_pairs m)
        && graphs_equal sq (G.of_csr (G.csr sq)));
    prop "line graph agrees with brute-force shared endpoints" 200 arb_raw_graph (fun (n, es) ->
        let g, m = both (n, es) in
        let lg = G.line_graph g in
        G.n lg = Array.length m.Model.edges
        && G.edges lg = Array.of_list (Model.line_pairs m)
        && graphs_equal lg (G.of_csr (G.csr lg)));
  ]

let () =
  Alcotest.run "lll_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "create dedup" `Quick test_create_dedup;
          Alcotest.test_case "create rejects" `Quick test_create_rejects;
          Alcotest.test_case "endpoints normalised" `Quick test_endpoints_normalised;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "line graph" `Quick test_line_graph;
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "girth" `Quick test_girth;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          Alcotest.test_case "other_endpoint rejects" `Quick test_other_endpoint_rejects;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "line graph of cycle" `Quick test_line_graph_of_cycle;
          Alcotest.test_case "square of cycle" `Quick test_square_of_cycle;
        ] );
      ( "hypergraph",
        [
          Alcotest.test_case "basics" `Quick test_hypergraph_basics;
          Alcotest.test_case "rejects" `Quick test_hypergraph_rejects;
          Alcotest.test_case "to_dot" `Quick test_hypergraph_to_dot;
          Alcotest.test_case "rank-2 primal" `Quick test_hypergraph_rank2_primal;
          Alcotest.test_case "duplicate members" `Quick test_hypergraph_duplicate_members;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "random regular rejects" `Quick test_random_regular_rejects;
          Alcotest.test_case "gnm" `Quick test_gnm;
          Alcotest.test_case "bounded degree" `Quick test_bounded_degree;
          Alcotest.test_case "biregular bipartite" `Quick test_biregular;
          Alcotest.test_case "regular hypergraph" `Quick test_regular_hypergraph;
        ] );
      ( "linial",
        [
          Alcotest.test_case "primes" `Quick test_primes;
        ] );
      ( "cole-vishkin",
        [
          Alcotest.test_case "cv step preserves properness" `Quick
            test_cv_step_preserves_properness;
          Alcotest.test_case "three colors" `Quick test_cv_three_colors;
          Alcotest.test_case "log* rounds" `Quick test_cv_logstar;
          Alcotest.test_case "lowest diff bit" `Quick test_lowest_diff_bit;
        ] );
      ( "shift-graphs",
        [
          Alcotest.test_case "chromatic number basics" `Quick test_chromatic_number_basics;
          Alcotest.test_case "budget undecided" `Quick test_colorable_budget;
          Alcotest.test_case "rank/unrank bijection" `Quick test_shift_rank_unrank;
          Alcotest.test_case "structure" `Quick test_shift_graph_structure;
          Alcotest.test_case "chromatic numbers (certified)" `Quick test_shift_chromatic_numbers;
          Alcotest.test_case "threshold universe" `Quick test_shift_threshold_universe;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "wtable roundtrip" `Quick test_wtable_roundtrip;
          Alcotest.test_case "wtable error paths" `Quick test_wtable_error_paths;
          Alcotest.test_case "binary roundtrip" `Quick test_graph_binary_roundtrip;
          Alcotest.test_case "binary file roundtrip" `Quick test_graph_binary_file_roundtrip;
          Alcotest.test_case "binary error paths" `Quick test_graph_binary_error_paths;
          Alcotest.test_case "of_csr validation" `Quick test_of_csr_validation;
        ] );
      ("properties", graph_props);
      ( "girth-sampler",
        girth_sampler_props
        @ [
            Alcotest.test_case "attempt-0 seed derivation" `Quick
              test_girth_sampler_attempt0_seed;
            Alcotest.test_case "pinned corpus edges" `Quick test_girth_sampler_pinned_edges;
            Alcotest.test_case "sampler stats" `Quick test_girth_sampler_stats;
          ] );
      ("csr-vs-model", csr_model_props);
    ]
