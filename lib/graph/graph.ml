(* Undirected simple graphs with integer nodes [0..n-1] and stable edge ids.

   The adjacency structure is CSR (compressed sparse row): one offsets
   array of length [n+1] into two parallel flat arrays holding, for every
   node, its neighbors and the corresponding edge ids. Per-node slices are
   sorted by neighbor (ascending), which makes [find_edge] a binary search.
   [degree] is an O(1) offsets difference and [max_degree] is cached at
   construction.

   Edge endpoints live in one flat column [ends] of length [2m]: edge [e]
   joins [ends.(2e) < ends.(2e+1)]. That is exactly the binary
   container's EDGE section, so the codec writes and reads it as is. *)

type t = {
  n : int;
  ends : int array; (* length 2m; edge e joins ends.(2e) < ends.(2e+1) *)
  adj_offsets : int array; (* length n+1; slice of node v is [off.(v), off.(v+1)) *)
  adj_neighbors : int array; (* length 2m, per-node slices sorted by neighbor *)
  adj_edge_ids : int array; (* parallel to adj_neighbors *)
  max_degree : int;
}

let n g = g.n
let m g = Array.length g.ends / 2
let edges g = Array.init (m g) (fun e -> (g.ends.(2 * e), g.ends.((2 * e) + 1)))
let endpoints g e = (g.ends.(2 * e), g.ends.((2 * e) + 1))
let degree g v = g.adj_offsets.(v + 1) - g.adj_offsets.(v)
let max_degree g = g.max_degree

(* Flat-array adjacency walks: no allocation, CSR slice order (neighbor
   ascending). These are what the in-repo hot paths use; the list
   accessors below are thin compatibility views built on them. *)

let iter_adj g v f =
  for i = g.adj_offsets.(v) to g.adj_offsets.(v + 1) - 1 do
    f g.adj_neighbors.(i) g.adj_edge_ids.(i)
  done

let fold_adj g v ~init ~f =
  let acc = ref init in
  for i = g.adj_offsets.(v) to g.adj_offsets.(v + 1) - 1 do
    acc := f !acc g.adj_neighbors.(i) g.adj_edge_ids.(i)
  done;
  !acc

let adj g v =
  List.init (degree g v) (fun i ->
      let i = g.adj_offsets.(v) + i in
      (g.adj_neighbors.(i), g.adj_edge_ids.(i)))

let neighbors g v =
  List.init (degree g v) (fun i -> g.adj_neighbors.(g.adj_offsets.(v) + i))

let incident_edges g v =
  List.init (degree g v) (fun i -> g.adj_edge_ids.(g.adj_offsets.(v) + i))

let other_endpoint g e v =
  let u = g.ends.(2 * e) and w = g.ends.((2 * e) + 1) in
  if u = v then w else if w = v then u else invalid_arg "Graph.other_endpoint: not an endpoint"

let max_slice off n =
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := max !best (off.(v + 1) - off.(v))
  done;
  !best

(* Build the CSR from a normalised ([ends.(2e) < ends.(2e+1)]) endpoint
   column, dropping repeated edges. Two stable counting sorts place the
   half-edges: one keyed by neighbor, then one keyed by node, so every
   slice comes out sorted by neighbor with equal neighbors in edge-id
   order. A repeated edge is then a slice entry whose neighbor equals
   its predecessor's, and the first occurrence (the smallest id) is the
   one kept: the survivors, in input order, are sorted once more.
   O(n + m), no comparison sort, no hashing. [ends] is owned by the
   result. *)
let rec of_norm_ends ~n ends =
  let m = Array.length ends / 2 in
  let h = 2 * m in
  let off = Array.make (n + 1) 0 in
  for i = 0 to h - 1 do
    off.(ends.(i) + 1) <- off.(ends.(i) + 1) + 1
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* pass 1: half-edges bucketed by neighbor, in edge-id order; bucket
     [w] holds the nodes adjacent to [w] *)
  let pos = Array.sub off 0 n in
  let by_nbr_node = Array.make h 0 and by_nbr_eid = Array.make h 0 in
  for e = 0 to m - 1 do
    let u = ends.(2 * e) and v = ends.((2 * e) + 1) in
    let p = pos.(v) in
    pos.(v) <- p + 1;
    by_nbr_node.(p) <- u;
    by_nbr_eid.(p) <- e;
    let p = pos.(u) in
    pos.(u) <- p + 1;
    by_nbr_node.(p) <- v;
    by_nbr_eid.(p) <- e
  done;
  (* pass 2: stable by node; walking the buckets in neighbor order
     leaves every slice sorted by neighbor *)
  Array.blit off 0 pos 0 n;
  let nbr = Array.make h 0 and eid = Array.make h 0 in
  for w = 0 to n - 1 do
    for p = off.(w) to off.(w + 1) - 1 do
      let x = by_nbr_node.(p) in
      let q = pos.(x) in
      pos.(x) <- q + 1;
      nbr.(q) <- w;
      eid.(q) <- by_nbr_eid.(p)
    done
  done;
  (* repeated edges: a later entry of a run of equal neighbors *)
  let drop = Array.make m false in
  let dropped = ref 0 in
  for v = 0 to n - 1 do
    for i = off.(v) + 1 to off.(v + 1) - 1 do
      if nbr.(i) = nbr.(i - 1) && not drop.(eid.(i)) then begin
        drop.(eid.(i)) <- true;
        incr dropped
      end
    done
  done;
  if !dropped = 0 then
    { n; ends; adj_offsets = off; adj_neighbors = nbr; adj_edge_ids = eid;
      max_degree = max_slice off n }
  else begin
    (* keep the first occurrences, in input order, and sort again *)
    let kept = Array.make (2 * (m - !dropped)) 0 in
    let k = ref 0 in
    for e = 0 to m - 1 do
      if not drop.(e) then begin
        kept.(!k) <- ends.(2 * e);
        kept.(!k + 1) <- ends.((2 * e) + 1);
        k := !k + 2
      end
    done;
    of_norm_ends ~n kept
  end

(* ---- raw CSR view, for the binary serializer ----

   [csr] exposes exactly the arrays of the internal representation so a
   binary dump is a plain copy-out and a binary load a copy-in.
   [of_csr] re-validates every structural invariant in O(n + m) int
   work — strictly sorted slices, mirror symmetry via [ends], offsets
   monotone and covering — so a loaded graph is as trustworthy as a
   constructed one without re-running the counting sorts. *)

type csr = {
  csr_n : int;
  csr_ends : int array;
  csr_offsets : int array;
  csr_neighbors : int array;
  csr_edge_ids : int array;
}

let csr g =
  {
    csr_n = g.n;
    csr_ends = g.ends;
    csr_offsets = g.adj_offsets;
    csr_neighbors = g.adj_neighbors;
    csr_edge_ids = g.adj_edge_ids;
  }

let of_csr { csr_n = n; csr_ends = ends; csr_offsets = off; csr_neighbors = nbr;
             csr_edge_ids = eid } =
  let fail msg = invalid_arg ("Graph.of_csr: " ^ msg) in
  let h = Array.length ends in
  if h land 1 <> 0 then fail "edge endpoint column must have even length";
  let m = h / 2 in
  if n < 0 then fail "negative n";
  if Array.length off <> n + 1 then fail "offsets length must be n+1";
  if Array.length nbr <> h || Array.length eid <> h then
    fail "adjacency arrays must have length 2m";
  if off.(0) <> 0 || off.(n) <> h then fail "offsets must cover [0, 2m)";
  for e = 0 to m - 1 do
    let u = ends.(2 * e) and v = ends.((2 * e) + 1) in
    if u < 0 || v >= n || u >= v then fail "edge endpoints must satisfy 0 <= u < v < n"
  done;
  (* every half-edge must appear exactly once per direction: count them
     against the offsets while checking slice order and edge agreement *)
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    if hi < lo then fail "offsets must be monotone";
    for i = lo to hi - 1 do
      let u = nbr.(i) and e = eid.(i) in
      if u < 0 || u >= n then fail "neighbor out of range";
      if i > lo && nbr.(i - 1) >= u then fail "slice not strictly sorted by neighbor";
      if e < 0 || e >= m then fail "edge id out of range";
      let a = ends.(2 * e) and b = ends.((2 * e) + 1) in
      if not ((a = v && b = u) || (a = u && b = v)) then
        fail "edge id disagrees with slice entry"
    done
  done;
  { n; ends; adj_offsets = off; adj_neighbors = nbr; adj_edge_ids = eid;
    max_degree = max_slice off n }

(* Normalise edge [e] of a fresh endpoint column in place. *)
let norm_end ~fn ~n ends e =
  let u = ends.(2 * e) and v = ends.((2 * e) + 1) in
  if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (fn ^ ": node out of range");
  if u = v then invalid_arg (fn ^ ": self-loop");
  if u > v then begin
    ends.(2 * e) <- v;
    ends.((2 * e) + 1) <- u
  end

let of_ends ~n ends =
  if n < 0 then invalid_arg "Graph.of_ends: negative n";
  if Array.length ends land 1 <> 0 then invalid_arg "Graph.of_ends: odd endpoint column";
  let ends = Array.copy ends in
  for e = 0 to (Array.length ends / 2) - 1 do
    norm_end ~fn:"Graph.of_ends" ~n ends e
  done;
  of_norm_ends ~n ends

let create ~n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative n";
  let ends = Array.make (2 * List.length edge_list) 0 in
  List.iteri
    (fun e (u, v) ->
      ends.(2 * e) <- u;
      ends.((2 * e) + 1) <- v;
      norm_end ~fn:"Graph.create" ~n ends e)
    edge_list;
  of_norm_ends ~n ends

(* Binary search for [v] in [u]'s neighbor slice. *)
let find_edge g u v =
  let lo = ref g.adj_offsets.(u) and hi = ref (g.adj_offsets.(u + 1) - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.adj_neighbors.(mid) in
    if w = v then found := Some g.adj_edge_ids.(mid)
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let mem_edge g u v = find_edge g u v <> None

let find_edge_exn g u v =
  match find_edge g u v with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Graph.find_edge_exn: no edge %d-%d" u v)

let fold_edges f acc g =
  let acc = ref acc in
  for e = 0 to m g - 1 do
    acc := f !acc e g.ends.(2 * e) g.ends.((2 * e) + 1)
  done;
  !acc

let iter_edges f g =
  for e = 0 to m g - 1 do
    f e g.ends.(2 * e) g.ends.((2 * e) + 1)
  done

(* ---- derived graphs, written straight into CSR ----

   [square] and [line_graph] fill their columns in two passes over the
   source. The first sizes every slice. The second walks the nodes in
   ascending order; when node [v] comes up, its lower neighbors are
   already in its slice, ascending, because each smaller node appended
   itself there. [v] then collects its upper neighbors into the rest of
   the slice, sorts them in place, numbers the edges [(v, w)] in that
   order, and appends itself to each upper neighbor's slice. Edge ids
   come out in (min, max) order. *)

let sort_slice a lo hi =
  let s = Array.sub a lo (hi - lo) in
  Array.sort Int.compare s;
  Array.blit s 0 a lo (hi - lo)

(* [off] sized, [fill] at the first free slot of every slice, the
   current node's upper neighbors in [nbr.(lo) .. nbr.(fill.(v) - 1)]:
   sort them and emit their edges, numbered from [e0]. Returns the next
   free edge id. *)
let emit_uppers ~ends ~nbr ~eid ~fill v lo e0 =
  let hi = fill.(v) in
  sort_slice nbr lo hi;
  for i = lo to hi - 1 do
    let w = nbr.(i) and e = e0 + (i - lo) in
    eid.(i) <- e;
    ends.(2 * e) <- v;
    ends.((2 * e) + 1) <- w;
    let q = fill.(w) in
    fill.(w) <- q + 1;
    nbr.(q) <- v;
    eid.(q) <- e
  done;
  e0 + (hi - lo)

let prefix_sum a =
  for i = 1 to Array.length a - 1 do
    a.(i) <- a.(i) + a.(i - 1)
  done

(* Square graph: nodes at distance 1 or 2 become adjacent. A proper
   coloring of [square g] is exactly a 2-hop coloring of [g]. A stamp
   array marks the upper neighbors [w > v] already seen from [v]. *)
let square g =
  let n = g.n and off = g.adj_offsets and gn = g.adj_neighbors in
  let stamp = Array.make n (-1) in
  let walk v visit =
    for i = off.(v) to off.(v + 1) - 1 do
      let u = gn.(i) in
      visit u;
      for j = off.(u) to off.(u + 1) - 1 do
        visit gn.(j)
      done
    done
  in
  (* pass 1: slice sizes; [v]'s uppers each count once for both ends *)
  let soff = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    walk v (fun w ->
        if w > v && stamp.(w) <> v then begin
          stamp.(w) <- v;
          soff.(v + 1) <- soff.(v + 1) + 1;
          soff.(w + 1) <- soff.(w + 1) + 1
        end)
  done;
  prefix_sum soff;
  let h = soff.(n) in
  let ends = Array.make h 0 and nbr = Array.make h 0 and eid = Array.make h 0 in
  let fill = Array.sub soff 0 n in
  Array.fill stamp 0 n (-1);
  let e = ref 0 in
  for v = 0 to n - 1 do
    let lo = fill.(v) in
    walk v (fun w ->
        if w > v && stamp.(w) <> v then begin
          stamp.(w) <- v;
          nbr.(fill.(v)) <- w;
          fill.(v) <- fill.(v) + 1
        end);
    e := emit_uppers ~ends ~nbr ~eid ~fill v lo !e
  done;
  { n; ends; adj_offsets = soff; adj_neighbors = nbr; adj_edge_ids = eid;
    max_degree = max_slice soff n }

(* Line graph: one node per edge of [g]; two nodes adjacent iff the edges
   share an endpoint. Node [i] is edge [i] of [g]. In a simple graph two
   distinct edges share at most one endpoint, so the upper neighbors of
   [e = (a, b)] — the larger edge ids incident to [a] or [b] — are
   distinct without a stamp, and [e] has [deg a + deg b - 2] neighbors. *)
let line_graph g =
  let lm = m g and off = g.adj_offsets and geid = g.adj_edge_ids in
  let loff = Array.make (lm + 1) 0 in
  for e = 0 to lm - 1 do
    loff.(e + 1) <- degree g g.ends.(2 * e) + degree g g.ends.((2 * e) + 1) - 2
  done;
  prefix_sum loff;
  let h = loff.(lm) in
  let ends = Array.make h 0 and nbr = Array.make h 0 and eid = Array.make h 0 in
  let fill = Array.sub loff 0 lm in
  let e' = ref 0 in
  for e = 0 to lm - 1 do
    let lo = fill.(e) in
    for s = 0 to 1 do
      let x = g.ends.((2 * e) + s) in
      for i = off.(x) to off.(x + 1) - 1 do
        let f = geid.(i) in
        if f > e then begin
          nbr.(fill.(e)) <- f;
          fill.(e) <- fill.(e) + 1
        end
      done
    done;
    e' := emit_uppers ~ends ~nbr ~eid ~fill e lo !e'
  done;
  { n = lm; ends; adj_offsets = loff; adj_neighbors = nbr; adj_edge_ids = eid;
    max_degree = max_slice loff lm }

let bfs_dist g src =
  let dist = Array.make g.n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    iter_adj g v (fun u _ ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u q
        end)
  done;
  dist

let connected_components g =
  let comp = Array.make g.n (-1) in
  let c = ref 0 in
  for v = 0 to g.n - 1 do
    if comp.(v) < 0 then begin
      let q = Queue.create () in
      comp.(v) <- !c;
      Queue.add v q;
      while not (Queue.is_empty q) do
        let x = Queue.pop q in
        iter_adj g x (fun u _ ->
            if comp.(u) < 0 then begin
              comp.(u) <- !c;
              Queue.add u q
            end)
      done;
      incr c
    end
  done;
  (!c, comp)

let is_connected g = g.n <= 1 || fst (connected_components g) = 1

(* Girth by BFS from every node; O(n*m), fine for test-sized graphs.
   Returns [None] for forests. *)
let girth g =
  let best = ref max_int in
  for src = 0 to g.n - 1 do
    let dist = Array.make g.n (-1) in
    let parent_edge = Array.make g.n (-1) in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.add src q;
    let continue = ref true in
    while !continue && not (Queue.is_empty q) do
      let v = Queue.pop q in
      iter_adj g v (fun u e ->
          if e <> parent_edge.(v) then begin
            if dist.(u) < 0 then begin
              dist.(u) <- dist.(v) + 1;
              parent_edge.(u) <- e;
              Queue.add u q
            end
            else begin
              (* cycle through src of length <= dist v + dist u + 1 *)
              let len = dist.(v) + dist.(u) + 1 in
              if len < !best then best := len
            end
          end);
      if dist.(v) * 2 > !best then continue := false
    done
  done;
  if !best = max_int then None else Some !best

let to_dot g =
  let b = Buffer.create 256 in
  Buffer.add_string b "graph g {\n";
  for v = 0 to g.n - 1 do
    Buffer.add_string b (Printf.sprintf "  %d;\n" v)
  done;
  iter_edges (fun _ u v -> Buffer.add_string b (Printf.sprintf "  %d -- %d;\n" u v)) g;
  Buffer.add_string b "}\n";
  Buffer.contents b

let pp fmt g = Format.fprintf fmt "graph(n=%d, m=%d)" g.n (m g)
