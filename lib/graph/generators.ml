(* Deterministic and seeded-random graph/hypergraph generators used by the
   test suite, the examples and the benchmark harness. *)

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.create ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  if n < 1 then invalid_arg "Generators.path: need n >= 1";
  Graph.create ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let es = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      es := (i, j) :: !es
    done
  done;
  Graph.create ~n !es

let star n =
  if n < 1 then invalid_arg "Generators.star: need n >= 1";
  Graph.create ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Generators.grid: need positive dims";
  let id x y = (y * w) + x in
  let es = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then es := (id x y, id (x + 1) y) :: !es;
      if y + 1 < h then es := (id x y, id x (y + 1)) :: !es
    done
  done;
  Graph.create ~n:(w * h) !es

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Generators.torus: need dims >= 3";
  let id x y = (y * w) + x in
  let es = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      es := (id x y, id ((x + 1) mod w) y) :: !es;
      es := (id x y, id x ((y + 1) mod h)) :: !es
    done
  done;
  Graph.create ~n:(w * h) !es

let hypercube dims =
  if dims < 1 || dims > 20 then invalid_arg "Generators.hypercube: dims in [1,20]";
  let n = 1 lsl dims in
  let es = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to dims - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then es := (v, u) :: !es
    done
  done;
  Graph.create ~n !es

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Generators.complete_bipartite: need positive sides";
  let es = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      es := (i, a + j) :: !es
    done
  done;
  Graph.create ~n:(a + b) !es

(* Uniform random labelled tree via a Prüfer sequence. *)
let random_tree ~seed n =
  if n < 1 then invalid_arg "Generators.random_tree: need n >= 1";
  if n = 1 then Graph.create ~n []
  else if n = 2 then Graph.create ~n [ (0, 1) ]
  else begin
    let rng = Random.State.make [| seed |] in
    let prufer = Array.init (n - 2) (fun _ -> Random.State.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) prufer;
    let es = ref [] in
    let deg = deg in
    Array.iter
      (fun v ->
        (* smallest leaf *)
        let leaf = ref 0 in
        while deg.(!leaf) <> 1 do
          incr leaf
        done;
        es := (!leaf, v) :: !es;
        deg.(!leaf) <- 0;
        deg.(v) <- deg.(v) - 1)
      prufer;
    (* the two remaining degree-1 nodes *)
    let rest = ref [] in
    Array.iteri (fun v d -> if d = 1 then rest := v :: !rest) deg;
    (match !rest with
    | [ u; v ] -> es := (u, v) :: !es
    | _ -> assert false);
    Graph.create ~n !es
  end

(* Fisher-Yates shuffle of an array, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Random d-regular graph via the configuration model: create [d] stubs per
   node, pair them randomly, retry on self-loops/multi-edges. Requires
   [n * d] even and [d < n]. *)
let random_regular ~seed n d =
  if d < 1 || d >= n then invalid_arg "Generators.random_regular: need 1 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Generators.random_regular: n*d must be even";
  let rng = Random.State.make [| seed |] in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    if !attempts > 2000 then failwith "Generators.random_regular: too many retries";
    let stubs = Array.init (n * d) (fun i -> i / d) in
    shuffle rng stubs;
    let seen = Hashtbl.create (n * d) in
    let ok = ref true in
    let es = ref [] in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      let key = (min u v, max u v) in
      if u = v || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.add seen key ();
        es := (u, v) :: !es;
        i := !i + 2
      end
    done;
    if !ok then Graph.create ~n !es else attempt ()
  in
  attempt ()

(* Girth-controlled d-regular sampler: start from a configuration-model
   regular graph and repair short cycles by degree-preserving 2-swaps.
   An edge (u, v) lies on a cycle shorter than [girth] iff u and v are
   still within distance [girth - 2] once the edge itself is removed; a
   bounded BFS finds such edges and a random rewiring
   (u,v),(x,y) -> (u,x),(v,y) destroys the short cycle while keeping
   every degree intact. Random d-regular graphs have only O(1) expected
   cycles below any fixed length, so the repair loop converges after a
   handful of swaps. The lower-bound constructions of the sinkless
   orientation papers live on exactly these high-girth regular graphs. *)
type girth_stats = {
  mutable gs_attempts : int;
  mutable gs_swaps : int;
  mutable gs_reverts : int;
  mutable gs_rejects : int;
}

let fresh_girth_stats () = { gs_attempts = 0; gs_swaps = 0; gs_reverts = 0; gs_rejects = 0 }

(* Counter updates must never touch the rng streams: the attempt-0 seed
   derivation below is pinned by store artifact keys. *)
let random_regular_girth ?(stats = fresh_girth_stats ()) ~seed ~girth n d =
  if girth < 3 then invalid_arg "Generators.random_regular_girth: need girth >= 3";
  if d < 1 || d >= n then invalid_arg "Generators.random_regular_girth: need 1 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Generators.random_regular_girth: n*d must be even";
  (* Moore bound: a d-regular graph of girth g needs at least this many
     nodes; reject structurally impossible requests up front instead of
     burning the swap budget. *)
  if d >= 3 then begin
    let r = (girth - 1) / 2 in
    let tree = ref 1 and layer = ref d in
    for _ = 1 to r do
      tree := !tree + !layer;
      layer := !layer * (d - 1)
    done;
    let moore = if girth mod 2 = 1 then !tree else 2 * (!tree - (!layer / (d - 1))) in
    if n < moore then
      invalid_arg
        (Printf.sprintf
           "Generators.random_regular_girth: girth %d on %d-regular graphs needs n >= %d \
            (Moore bound), got %d"
           girth d moore n)
  end
  else if girth > n then
    invalid_arg "Generators.random_regular_girth: girth > n is impossible for d <= 2";
  (* One repair attempt from a fresh configuration-model start; [None]
     when the swap budget runs out (rare, only near the Moore bound).
     Attempt 0 keeps the canonical seed derivation so recorded corpora
     (scenario baselines) reproduce bit-for-bit across runs. *)
  let attempt k =
  stats.gs_attempts <- stats.gs_attempts + 1;
  let g0 = random_regular ~seed:(if k = 0 then seed else seed + (k * 0x9e3779)) n d in
  let rng =
    if k = 0 then Random.State.make [| seed; girth; d; 0x5157 |]
    else Random.State.make [| seed; girth; d; k; 0x5157 |]
  in
  let m = Graph.m g0 in
  let edges = Graph.edges g0 in
  let adj = Array.make n [] in
  let edge_set = Hashtbl.create (2 * m) in
  let key u v = (min u v, max u v) in
  let add_edge u v =
    Hashtbl.replace edge_set (key u v) ();
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  in
  let remove_edge u v =
    Hashtbl.remove edge_set (key u v);
    adj.(u) <- List.filter (fun w -> w <> v) adj.(u);
    adj.(v) <- List.filter (fun w -> w <> u) adj.(v)
  in
  let mem_edge u v = Hashtbl.mem edge_set (key u v) in
  Array.iter (fun (u, v) -> add_edge u v) edges;
  (* bounded BFS from u avoiding the edge (u, v): does v sit within
     distance [girth - 2]? Timestamped visit marks avoid O(n) clears. *)
  let stamp = Array.make n 0 in
  let generation = ref 0 in
  let frontier = Queue.create () in
  let on_short_cycle u v =
    let limit = girth - 2 in
    incr generation;
    let gen = !generation in
    Queue.clear frontier;
    Queue.add (u, 0) frontier;
    stamp.(u) <- gen;
    let found = ref false in
    (try
       while not (Queue.is_empty frontier) do
         let w, dw = Queue.pop frontier in
         if dw < limit then
           List.iter
             (fun x ->
               if not ((w = u && x = v) || (w = v && x = u)) then
                 if x = v then begin
                   found := true;
                   raise Exit
                 end
                 else if stamp.(x) <> gen then begin
                   stamp.(x) <- gen;
                   Queue.add (x, dw + 1) frontier
                 end)
             adj.(w)
       done
     with Exit -> ());
    !found
  in
  let find_offender () =
    let start = Random.State.int rng m in
    let rec scan i =
      if i >= m then None
      else
        let e = (start + i) mod m in
        let u, v = edges.(e) in
        if on_short_cycle u v then Some e else scan (i + 1)
    in
    scan 0
  in
  let try_swap ei =
    let ej = Random.State.int rng m in
    if ej = ei then begin
      stats.gs_rejects <- stats.gs_rejects + 1;
      false
    end
    else begin
      let u, v = edges.(ei) in
      let x, y = if Random.State.bool rng then edges.(ej) else (snd edges.(ej), fst edges.(ej)) in
      if u = x || u = y || v = x || v = y || mem_edge u x || mem_edge v y then begin
        stats.gs_rejects <- stats.gs_rejects + 1;
        false
      end
      else begin
        remove_edge u v;
        remove_edge x y;
        add_edge u x;
        add_edge v y;
        (* informed acceptance: revert a swap whose replacement edges
           land on short cycles themselves (otherwise the walk thrashes
           near the Moore bound, e.g. 4-regular girth 5 at n = 24); a
           1-in-8 blind acceptance keeps it from stalling in a local
           minimum where no single swap is clean *)
        let blind = Random.State.int rng 8 = 0 in
        if (not blind) && (on_short_cycle u x || on_short_cycle v y) then begin
          remove_edge u x;
          remove_edge v y;
          add_edge u v;
          add_edge x y;
          stats.gs_reverts <- stats.gs_reverts + 1;
          false
        end
        else begin
          edges.(ei) <- key u x;
          edges.(ej) <- key v y;
          stats.gs_swaps <- stats.gs_swaps + 1;
          true
        end
      end
    end
  in
  let budget = ref (200 * m + 20_000) in
  let rec repair () =
    match find_offender () with
    | None -> Some (Graph.create ~n (Array.to_list edges))
    | Some ei ->
      decr budget;
      if !budget <= 0 then None
      else begin
        ignore (try_swap ei : bool);
        repair ()
      end
  in
  repair ()
  in
  let max_attempts = 8 in
  let rec go k =
    if k >= max_attempts then
      failwith "Generators.random_regular_girth: swap budget exhausted (girth too ambitious)"
    else match attempt k with Some g -> g | None -> go (k + 1)
  in
  go 0

(* Erdős–Rényi G(n, m') with exactly [m'] distinct edges. *)
let gnm ~seed n m' =
  let max_m = n * (n - 1) / 2 in
  if m' < 0 || m' > max_m then invalid_arg "Generators.gnm: bad edge count";
  let rng = Random.State.make [| seed |] in
  let seen = Hashtbl.create (2 * m') in
  let es = ref [] in
  while Hashtbl.length seen < m' do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v then begin
      let key = (min u v, max u v) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        es := key :: !es
      end
    end
  done;
  Graph.create ~n !es

(* Random graph with maximum degree at most [dmax]: sample candidate edges,
   keep those not violating the cap. *)
let random_bounded_degree ~seed n dmax target_m =
  let rng = Random.State.make [| seed |] in
  let deg = Array.make n 0 in
  let seen = Hashtbl.create (2 * target_m) in
  let es = ref [] in
  let budget = ref (40 * target_m) in
  let count = ref 0 in
  while !count < target_m && !budget > 0 do
    decr budget;
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if u <> v && deg.(u) < dmax && deg.(v) < dmax then begin
      let key = (min u v, max u v) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        es := key :: !es;
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1;
        incr count
      end
    end
  done;
  Graph.create ~n !es

(* Random bipartite structure for weak splitting: [nv] "constraint" nodes V
   and [nu] "variable" nodes U; every u in U gets [deg_u] distinct
   neighbors in V, and we retry so every v in V ends with degree at least
   [min_deg_v]. Returns the adjacency from U to V. *)
let random_bipartite ~seed ~nv ~nu ~deg_u ~min_deg_v =
  if deg_u > nv then invalid_arg "Generators.random_bipartite: deg_u > nv";
  let rng = Random.State.make [| seed |] in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    if !attempts > 2000 then failwith "Generators.random_bipartite: too many retries";
    let deg_v = Array.make nv 0 in
    let adj =
      Array.init nu (fun _ ->
          (* sample deg_u distinct v's *)
          let chosen = Hashtbl.create deg_u in
          let rec pick k acc =
            if k = 0 then acc
            else begin
              let v = Random.State.int rng nv in
              if Hashtbl.mem chosen v then pick k acc
              else begin
                Hashtbl.add chosen v ();
                deg_v.(v) <- deg_v.(v) + 1;
                pick (k - 1) (v :: acc)
              end
            end
          in
          Array.of_list (List.sort compare (pick deg_u [])))
    in
    if Array.for_all (fun d -> d >= min_deg_v) deg_v then adj else attempt ()
  in
  attempt ()

(* Biregular bipartite structure: every U-node has degree exactly [deg_u],
   every V-node degree exactly [deg_v] (configuration model pairing of
   stubs, retrying on duplicate (u, v) pairs). Requires
   [nu * deg_u = nv * deg_v]. Returns the U-side adjacency. *)
let random_biregular_bipartite ~seed ~nv ~nu ~deg_u ~deg_v =
  if nu * deg_u <> nv * deg_v then
    invalid_arg "Generators.random_biregular_bipartite: nu*deg_u must equal nv*deg_v";
  if deg_u > nv then invalid_arg "Generators.random_biregular_bipartite: deg_u > nv";
  let rng = Random.State.make [| seed |] in
  let total = nu * deg_u in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    if !attempts > 5000 then failwith "Generators.random_biregular_bipartite: too many retries";
    (* v stubs: each v repeated deg_v times *)
    let vstubs = Array.init total (fun i -> i / deg_v) in
    shuffle rng vstubs;
    let seen = Hashtbl.create total in
    let ok = ref true in
    let adj = Array.make_matrix nu deg_u (-1) in
    for i = 0 to total - 1 do
      if !ok then begin
        let u = i / deg_u and slot = i mod deg_u in
        let v = vstubs.(i) in
        if Hashtbl.mem seen (u, v) then ok := false
        else begin
          Hashtbl.add seen (u, v) ();
          adj.(u).(slot) <- v
        end
      end
    done;
    if !ok then begin
      Array.iter (fun row -> Array.sort compare row) adj;
      adj
    end
    else attempt ()
  in
  attempt ()

(* Random rank-[k] hypergraph where every node has degree exactly [deg]
   (configuration model on hyperedges; retries on repeated nodes within a
   hyperedge or duplicate hyperedges). Requires [n * deg] divisible by
   [k]. *)
let random_regular_hypergraph ~seed n k deg =
  if k < 2 then invalid_arg "Generators.random_regular_hypergraph: rank >= 2";
  if n * deg mod k <> 0 then invalid_arg "Generators.random_regular_hypergraph: n*deg must be divisible by k";
  let rng = Random.State.make [| seed |] in
  let attempts = ref 0 in
  let rec attempt () =
    incr attempts;
    if !attempts > 2000 then failwith "Generators.random_regular_hypergraph: too many retries";
    let stubs = Array.init (n * deg) (fun i -> i / deg) in
    shuffle rng stubs;
    let nedges = n * deg / k in
    let seen = Hashtbl.create nedges in
    let ok = ref true in
    let es = ref [] in
    for e = 0 to nedges - 1 do
      if !ok then begin
        let members = Array.to_list (Array.sub stubs (e * k) k) in
        let sorted = List.sort_uniq compare members in
        if List.length sorted < k || Hashtbl.mem seen sorted then ok := false
        else begin
          Hashtbl.add seen sorted ();
          es := sorted :: !es
        end
      end
    done;
    if !ok then Hypergraph.create ~n !es else attempt ()
  in
  attempt ()
