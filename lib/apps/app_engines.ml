(* The application layer as first-class registry engines.

   The scenario corpus (lib/scenario) measures round counts of every
   applicable engine on threshold-pinned workloads, so the applications
   themselves must speak the registry interface. Each engine here first
   *recognises* its application inside a bare [Instance.t] — both the
   incidence structure and, through the compiled event tables of the
   space, the exact semantics of every bad event — and only then runs
   the combinatorial algorithm. Recognition is exact: an instance whose
   events merely look like sink events but differ on a single tuple is
   rejected, so the [guarantees] predicates below are sound against the
   fuzz harness's hostile lookalikes.

   Both engines are deterministic and total: an unrecognised instance
   gets a best-effort constant assignment (never an exception), keeping
   them safe to run inside the adversarial fuzz sweep alongside the
   generic fixers. *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Event = Lll_prob.Event
module Space = Lll_prob.Space
module Assignment = Lll_prob.Assignment
module Instance = Lll_core.Instance
module Solver = Lll_core.Solver

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let outcome ?rounds ?(detail = []) assignment =
  {
    Solver.assignment;
    trace = [];
    rounds;
    pstar = None;
    max_violation = None;
    detail;
  }

(* Deterministic fallback for unrecognised instances: all zeros. *)
let fallback inst =
  let a = Assignment.empty (Instance.num_vars inst) in
  for v = 0 to Instance.num_vars inst - 1 do
    Assignment.set_inplace a v 0
  done;
  outcome ~detail:[ ("recognized", "false") ] a

(* All variables share one arity (the structure both applications need). *)
let uniform_arity inst =
  let sp = Instance.space inst in
  let nu = Instance.num_vars inst in
  if nu = 0 then None
  else begin
    let a0 = Lll_prob.Var.arity (Space.var sp 0) in
    let ok = ref true in
    for u = 1 to nu - 1 do
      if Lll_prob.Var.arity (Space.var sp u) <> a0 then ok := false
    done;
    if !ok then Some a0 else None
  end

(* ------------------------------------------------------------------ *)
(* Sinkless orientation                                                *)
(* ------------------------------------------------------------------ *)

(* A recognised sinkless instance: variable [e] is edge [e] of [graph]
   (endpoints = the two events depending on it, in sorted order, which
   matches the min/max value convention of [Sinkless]), and the bad
   event at node [v] holds on exactly one scope tuple — every incident
   edge pointing at [v]. *)
type sink_shape = { graph : Graph.t; arity : int }

let recognize_sinkless inst =
  let n = Instance.num_events inst and m = Instance.num_vars inst in
  if n = 0 || m = 0 then None
  else
    match uniform_arity inst with
    | Some arity when arity = 2 || arity = 3 -> (
      let sp = Instance.space inst in
      let exception Reject in
      try
        (* every variable = an edge between two distinct events *)
        let ends = Array.make (2 * m) 0 in
        for e = 0 to m - 1 do
          match Instance.events_of_var inst e with
          | [| u; v |] when u <> v && v < n ->
            ends.(2 * e) <- u;
            ends.((2 * e) + 1) <- v
          | _ -> raise Reject
        done;
        let graph = Graph.of_ends ~n ends in
        (* no parallel edges: [of_ends] would drop one and renumber *)
        if Graph.m graph <> m then raise Reject;
        (* semantics: event v is bad on exactly the all-point-at-v tuple *)
        Array.iter
          (fun ev ->
            match Space.table_rows sp ev with
            | None -> raise Reject
            | Some t ->
              let scope = Event.scope ev in
              if Array.length scope = 0 then raise Reject;
              let v = Event.id ev in
              let code = ref 0 in
              Array.iteri
                (fun pos e ->
                  let toward_v =
                    if v = ends.(2 * e) then 0 else if v = ends.((2 * e) + 1) then 1
                    else raise Reject
                  in
                  code := !code + (toward_v * t.Space.strides.(t.Space.stride0 + pos)))
                scope;
              if t.Space.last - t.Space.first <> 1 || t.Space.codes.(t.Space.first) <> !code then
                raise Reject)
          (Instance.events inst);
        Some { graph; arity }
      with Reject | Invalid_argument _ -> None)
    | _ -> None

(* Orient edge [e] toward endpoint [t]: 0 points at the smaller
   endpoint, 1 at the larger (the [Sinkless] value convention). *)
let orient g a e ~toward =
  let u, _ = Graph.endpoints g e in
  Assignment.set_inplace a e (if toward = u then 0 else 1)

(* Binary instances: per component, find one cycle (BFS non-tree edge +
   LCA walk), orient it cyclically, then orient every remaining node's
   discovery edge toward the cycle by multi-source BFS. Every node ends
   up with an outgoing edge iff its component contains a cycle; the
   reported LOCAL rounds are the worst distance to a cycle plus one. *)
let solve_binary g =
  let n = Graph.n g and m = Graph.m g in
  let a = Assignment.empty m in
  for e = 0 to m - 1 do
    Assignment.set_inplace a e 0
  done;
  let parent = Array.make n (-1) in
  let parent_edge = Array.make n (-1) in
  let visited = Array.make n false in
  let depth = Array.make n 0 in
  let on_tree = Array.make n false in
  let max_depth = ref 0 in
  let all_cyclic = ref true in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      let q = Queue.create () in
      visited.(root) <- true;
      Queue.add root q;
      let nontree = ref None in
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        List.iter
          (fun e ->
            let w = Graph.other_endpoint g e v in
            if not visited.(w) then begin
              visited.(w) <- true;
              parent.(w) <- v;
              parent_edge.(w) <- e;
              Queue.add w q
            end
            else if e <> parent_edge.(v) && !nontree = None then nontree := Some (v, w, e))
          (Graph.incident_edges g v)
      done;
      match !nontree with
      | None -> all_cyclic := false (* a tree: any orientation has a sink *)
      | Some (u0, w0, e0) ->
        (* the unique cycle through the non-tree edge: both tree chains
           up to the lowest common ancestor, closed by [e0] *)
        let mark = Hashtbl.create 16 in
        let x = ref u0 in
        Hashtbl.replace mark !x ();
        while parent.(!x) >= 0 do
          x := parent.(!x);
          Hashtbl.replace mark !x ()
        done;
        let lca = ref w0 in
        while not (Hashtbl.mem mark !lca) do
          lca := parent.(!lca)
        done;
        let cycle = ref [ !lca ] in
        let x = ref u0 in
        while !x <> !lca do
          orient g a parent_edge.(!x) ~toward:parent.(!x);
          cycle := !x :: !cycle;
          x := parent.(!x)
        done;
        let y = ref w0 in
        while !y <> !lca do
          orient g a parent_edge.(!y) ~toward:!y;
          cycle := !y :: !cycle;
          y := parent.(!y)
        done;
        orient g a e0 ~toward:u0;
        (* everything else points toward the cycle *)
        let q2 = Queue.create () in
        List.iter
          (fun v ->
            on_tree.(v) <- true;
            depth.(v) <- 0;
            Queue.add v q2)
          !cycle;
        while not (Queue.is_empty q2) do
          let v = Queue.pop q2 in
          if depth.(v) > !max_depth then max_depth := depth.(v);
          List.iter
            (fun e ->
              let w = Graph.other_endpoint g e v in
              if not on_tree.(w) then begin
                on_tree.(w) <- true;
                depth.(w) <- depth.(v) + 1;
                orient g a e ~toward:v;
                Queue.add w q2
              end)
            (Graph.incident_edges g v)
        done
    end
  done;
  (a, !max_depth + 1, !all_cyclic)

let sinkless_compute _params inst =
  match recognize_sinkless inst with
  | None -> fallback inst
  | Some { graph; arity = 3 } ->
    (* strictly below the threshold: leaving every edge unoriented is a
       0-round solution — no edge points anywhere, so no sink event *)
    let a = Assignment.empty (Graph.m graph) in
    for e = 0 to Graph.m graph - 1 do
      Assignment.set_inplace a e 2
    done;
    outcome ~rounds:0 ~detail:[ ("mode", "relaxed") ] a
  | Some { graph; _ } ->
    let a, rounds, all_cyclic = solve_binary graph in
    let detail =
      ("mode", "binary") :: (if all_cyclic then [] else [ ("tree_component", "true") ])
    in
    outcome ~rounds ~detail a

let sinkless_guarantee inst =
  match recognize_sinkless inst with
  | None -> false
  | Some { arity = 3; _ } -> true
  | Some { graph; _ } ->
    (* binary instances are solvable iff every component has a cycle
       (each node needs its own outgoing edge) *)
    let _, _, all_cyclic = solve_binary graph in
    all_cyclic

(* ------------------------------------------------------------------ *)
(* Relaxed weak splitting (min_seen = 2: monochromatic bad events)     *)
(* ------------------------------------------------------------------ *)

(* A structurally recognised instance: [c]-ary variables, scopes of
   size >= 2, and every event occurring (at least) on all-equal scope
   tuples — the shape of [Weak_splitting.instance] with [min_seen = 2].
   The structural check is a cheap necessary condition used to decide
   whether running the repair is worthwhile; it does NOT prove the
   events are exactly the monochromatic ones (scopes can be too large
   to tabulate), so the [guarantees] predicate separately demands
   table-exact semantics. *)
type ws_shape = { colors : int; scopes : int array array }

let recognize_ws inst =
  if Instance.num_events inst = 0 then None
  else
    match uniform_arity inst with
    | Some c when c >= 2 -> (
      let exception Reject in
      try
        let scopes =
          Array.map
            (fun ev ->
              let scope = Event.scope ev in
              if Array.length scope < 2 then raise Reject;
              (* necessary condition: monochromatic tuples are bad *)
              for y = 0 to c - 1 do
                if not (Event.pred_holds ev (fun _ -> y)) then raise Reject
              done;
              scope)
            (Instance.events inst)
        in
        Some { colors = c; scopes }
      with Reject | Invalid_argument _ -> None)
    | _ -> None

(* Exact semantics, for the guarantee: every event's compiled table
   lists precisely the [c] constant tuples. Events whose scope is too
   large to tabulate make the claim unprovable here, so the guarantee
   stays [false] (the engine still solves them best-effort). *)
let ws_semantics_exact inst c =
  let sp = Instance.space inst in
  Array.for_all
    (fun ev ->
      match Space.table_rows sp ev with
      | None -> false
      | Some t ->
        let stride_sum = ref 0 in
        for pos = 0 to Array.length (Event.scope ev) - 1 do
          stride_sum := !stride_sum + t.Space.strides.(t.Space.stride0 + pos)
        done;
        let rec constant_rows y =
          y = c || (t.Space.codes.(t.Space.first + y) = y * !stride_sum && constant_rows (y + 1))
        in
        t.Space.last - t.Space.first = c && constant_rows 0)
    (Instance.events inst)

(* Sequential greedy repair: in id order, give each variable the
   smallest color that no already-monochromatic event (in which it is
   the last scope variable) forces it away from. At most [rank]
   events end at any variable, so [colors > rank] always leaves a free
   color — this pass is provably correct under the guarantee. *)
let ws_sequential shape nu =
  let col = Array.make nu 0 in
  (* events whose max scope var is u, precomputed *)
  let ending = Array.make nu [] in
  Array.iter
    (fun scope ->
      let last = Array.fold_left max scope.(0) scope in
      ending.(last) <- scope :: ending.(last))
    shape.scopes;
  for u = 0 to nu - 1 do
    let forbidden =
      List.filter_map
        (fun scope ->
          let c0 = ref (-1) and mono = ref true in
          Array.iter
            (fun w ->
              if w <> u then
                if !c0 = -1 then c0 := col.(w) else if col.(w) <> !c0 then mono := false)
            scope;
          if !mono && !c0 >= 0 then Some !c0 else None)
        ending.(u)
    in
    let c = ref 0 in
    while List.mem !c forbidden && !c < shape.colors - 1 do
      incr c
    done;
    col.(u) <- !c
  done;
  col

let max_repair_sweeps = 8

let ws_compute params inst =
  match recognize_ws inst with
  | None -> fallback inst
  | Some shape ->
    let domains = params.Solver.domains in
    let nu = Instance.num_vars inst in
    let c = shape.colors in
    let nscopes = Array.length shape.scopes in
    (* round 0: hash the id into the palette *)
    let col = Array.init nu (fun u -> u mod c) in
    (* the repair sweeps are genuine LOCAL rounds, so they fan out
       across the domain pool: per-scope monochromaticity flags, the
       designated-repairer set and the color hops are all disjoint
       per-cell writes (designation is idempotent — same value for the
       same cell), so the sweep is deterministic for any domain count *)
    let mono = Array.make nscopes false in
    let recompute_mono () =
      Lll_local.Par.parallel_for ?domains ~n:nscopes (fun i ->
          let scope = shape.scopes.(i) in
          mono.(i) <- Array.for_all (fun w -> col.(w) = col.(scope.(0))) scope)
    in
    let any_bad () = Array.exists Fun.id mono in
    let designated = Array.make nu false in
    let sweeps = ref 0 in
    recompute_mono ();
    while any_bad () && !sweeps < max_repair_sweeps do
      incr sweeps;
      (* each bad event delegates repair to its largest variable, which
         hops to a deterministically different color *)
      Array.fill designated 0 nu false;
      Lll_local.Par.parallel_for ?domains ~n:nscopes (fun i ->
          if mono.(i) then begin
            let scope = shape.scopes.(i) in
            let last = Array.fold_left max scope.(0) scope in
            designated.(last) <- true
          end);
      Lll_local.Par.parallel_for ?domains ~n:nu (fun u ->
          if designated.(u) then col.(u) <- (col.(u) + 1 + (u mod (c - 1))) mod c);
      recompute_mono ()
    done;
    let col, rounds, detail =
      if not (any_bad ()) then (col, Some !sweeps, [ ("repair_sweeps", string_of_int !sweeps) ])
      else
        (* parallel repair cycled: fall back to the provably-correct
           sequential pass (rounds no longer LOCAL-meaningful) *)
        (ws_sequential shape nu, None, [ ("fallback", "sequential") ])
    in
    let a = Assignment.empty nu in
    Array.iteri (fun u v -> Assignment.set_inplace a u v) col;
    outcome ?rounds ~detail a

let ws_guarantee inst =
  match recognize_ws inst with
  | None -> false
  | Some shape ->
    shape.colors > Instance.rank inst && ws_semantics_exact inst shape.colors

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let registered =
  lazy
    (let (_ : Solver.t) =
       Solver.register ~name:"sinkless-orient"
         ~doc:
           "combinatorial sinkless orientation: recognises Apps.Sinkless instances exactly \
            (compiled-table semantics) and orients each component around a cycle; relaxed \
            ternary instances solved in 0 rounds [BFHKLRSU16]"
         ~caps:
           {
             Solver.max_rank = Some 2;
             exact = true;
             distributed = true;
             randomized = false;
             claims_pstar = false;
           }
         ~guarantees:sinkless_guarantee sinkless_compute
     in
     let (_ : Solver.t) =
       Solver.register ~name:"weak-split-greedy"
         ~doc:
           "combinatorial relaxed weak splitting: recognises Apps.Weak_splitting \
            monochromatic events exactly and repairs an id-hash coloring in O(1) parallel \
            sweeps, with a sequential greedy fallback for colors > rank"
         ~caps:
           {
             Solver.max_rank = None;
             exact = true;
             distributed = true;
             randomized = false;
             claims_pstar = false;
           }
         ~guarantees:ws_guarantee ws_compute
     in
     ())

let ensure_registered () = Lazy.force registered
