(* A genuinely message-passing distributed LLL solver (Corollary 1.4).

   [Distributed.solve_rank3] executes the paper's schedule but drives a
   sequential fixer, only *accounting* rounds. This module runs the whole
   algorithm as a LOCAL protocol on the runtime: every node is an event
   of the instance; what a node knows, it learned from messages (here:
   full-information rounds, which LOCAL permits since messages are
   unbounded).

   Node state:
   - the values of all fixed variables it has heard of;
   - versioned copies of the potential [phi] for the dependency edges it
     cares about (its own incident edges and edges between its
     neighbors — the clique edges of its variables);
   - its 2-hop color, computed distributedly beforehand.

   Knowledge spreads by gossip: each round a node merges its neighbors'
   states, keeping the freshest version of each phi entry and the union
   of fixed values. A node that fixes a variable needs radius-2-fresh
   information (the conditional probability of a neighboring event
   depends on variables owned inside that event's own neighborhood), so
   the schedule allots THREE rounds per color class: fix, then two
   propagation rounds. Total: O(d^2 + log* n) rounds, the corollary's
   bound with our coloring substitution.

   Determinism: class-c owners act on disjoint events and disjoint phi
   edges (they are >= 3 apart), and each calls the sequential fixers'
   own choice rules ([Fixing.choose_rank2_exact], [Fixing.choose_rank3])
   on the same exact phi, in the same per-variable order — so the final
   assignment agrees BIT FOR BIT with [Distributed.solve_rank3] and
   [Distributed.solve_rank2] (the test suite asserts both). *)

module Rat = Lll_num.Rat
module Graph = Lll_graph.Graph
module Network = Lll_local.Network
module Runtime = Lll_local.Runtime
module Flat_state = Lll_local.Flat_state
module Dist_coloring = Lll_local.Dist_coloring
module Metrics = Lll_local.Metrics
module Space = Lll_prob.Space
module Assignment = Lll_prob.Assignment
module Event = Lll_prob.Event

module IntMap = Map.Make (Int)

type state = {
  known : int IntMap.t; (* variable id -> fixed value *)
  phi : ((Rat.t * Rat.t) * int) IntMap.t; (* edge id -> ((side min, side max), version) *)
}

(* merge neighbor knowledge: union of fixed values, freshest phi *)
let merge s s' =
  {
    known = IntMap.union (fun _ a _ -> Some a) s.known s'.known;
    phi =
      IntMap.union
        (fun _ ((_, v1) as a) ((_, v2) as b) -> Some (if v1 >= v2 then a else b))
        s.phi s'.phi;
  }

let phi_side g e v ((lo, hi), _) =
  let u, _ = Graph.endpoints g e in
  if v = u then lo else hi

(* Fix one variable exactly as Fix_rank2 / Fix_rank3 do, against local
   knowledge: the same Fixing choice rules, fed from this node's known
   values and exact phi copies. Returns the chosen value and the phi updates (edge ->
   both sides). *)
let fix_one instance g st ~version vid =
  let space = Instance.space instance in
  let events = Instance.events_of_var instance vid in
  (* [Space.prob_vector] reads only the scopes of [vid]'s events *)
  let fixed = Assignment.empty (Instance.num_vars instance) in
  Array.iter
    (fun ev ->
      Array.iter
        (fun v ->
          match IntMap.find_opt v st.known with
          | Some x -> Assignment.set_inplace fixed v x
          | None -> ())
        (Event.scope (Instance.event instance ev)))
    events;
  let get_phi e v = phi_side g e v (IntMap.find e st.phi) in
  let vector ev =
    Fixing.inc_ratios (Space.prob_vector space (Instance.event instance ev) ~fixed ~var:vid)
  in
  (* the entry of [edge] with [value_at] on [at]'s side *)
  let entry edge ~at ~value_at ~value_other =
    let u0, _ = Graph.endpoints g edge in
    (edge, ((if at = u0 then (value_at, value_other) else (value_other, value_at)), version))
  in
  match events with
  | [||] -> (0, [])
  | [| u |] -> (Fixing.min_inc (vector u), [])
  | [| u; v |] ->
    let e = Graph.find_edge_exn g u v in
    let s = get_phi e u and w = get_phi e v in
    let incs_u = vector u and incs_v = vector v in
    let y, _ = Fixing.choose_rank2_exact incs_u incs_v ~s ~w in
    let up_u = Rat.mul incs_u.(y) s and up_v = Rat.mul incs_v.(y) w in
    (y, [ entry e ~at:u ~value_at:up_u ~value_other:up_v ])
  | [| u; v; w |] ->
    let e = Graph.find_edge_exn g u v in
    let e' = Graph.find_edge_exn g u w in
    let e'' = Graph.find_edge_exn g v w in
    let a = Rat.mul (get_phi e u) (get_phi e' u) in
    let b = Rat.mul (get_phi e v) (get_phi e'' v) in
    let c = Rat.mul (get_phi e' w) (get_phi e'' w) in
    let ch = Fixing.choose_rank3 (vector u) (vector v) (vector w) ~a ~b ~c in
    let d = ch.Fixing.split in
    ( ch.Fixing.value,
      [
        entry e ~at:u ~value_at:d.Srep.a1 ~value_other:d.Srep.b1;
        entry e' ~at:u ~value_at:d.Srep.a2 ~value_other:d.Srep.c2;
        entry e'' ~at:v ~value_at:d.Srep.b3 ~value_other:d.Srep.c3;
      ] )
  | _ -> invalid_arg "Dist_lll: rank > 3"

type result = Distributed.result = {
  assignment : Assignment.t;
  rounds : int;
  coloring_rounds : int;
  sweep_rounds : int;
  colors : int;
}

(* The generic gossiping sweep: [classes] color classes, three rounds per
   class (fix + two propagation rounds for radius-2 freshness);
   [duty me cls] lists the variables node [me] must fix in class [cls],
   in order. Returns the merged assignment and the sweep round count.

   Runs on the flat engine with a payload-only column (the state is a
   pair of persistent maps — genuinely heap-shaped, so it takes the
   payload column rather than int/float fields); [~engine:`Boxed]
   selects the retired boxed engine for ablation runs. Both paths merge
   neighbors in ascending CSR order and fix duties in list order, so
   they agree bit for bit. *)
let run_sweep ?(engine = `Flat) ?domains ?(metrics = Metrics.disabled) instance g net ~classes
    ~duty =
  let init v =
    (* phi entries for my incident edges plus the edges between my
       neighbors (the clique edges of my variables), straight off the
       CSR slices — no intermediate lists *)
    let phi = ref IntMap.empty in
    let add e = phi := IntMap.add e ((Rat.one, Rat.one), 0) !phi in
    Graph.iter_adj g v (fun _ e -> add e);
    Graph.iter_adj g v (fun u _ ->
        Graph.iter_adj g v (fun w _ ->
            if u < w then match Graph.find_edge g u w with Some e -> add e | None -> ()));
    { known = IntMap.empty; phi = !phi }
  in
  let total_rounds = 3 * classes in
  let apply_duty ~me ~round s =
    let cls = round / 3 and phase = round mod 3 in
    if phase <> 0 then s
    else
      List.fold_left
        (fun st vid ->
          if IntMap.mem vid st.known then st
          else begin
            let value, phi_updates = fix_one instance g st ~version:(cls + 1) vid in
            {
              known = IntMap.add vid value st.known;
              phi =
                List.fold_left (fun acc (e, entry) -> IntMap.add e entry acc) st.phi phi_updates;
            }
          end)
        s (duty ~me ~cls)
  in
  if total_rounds = 0 then (Assignment.empty (Instance.num_vars instance), 0)
  else begin
    Metrics.set_phase metrics "sweep";
    let states, rounds =
      match engine with
      | `Flat ->
        let state = Flat_state.create ~n:(Network.n net) ~payload:init () in
        let step ~round ~me ~prev ~cur ~nbrs =
          let col = Flat_state.payload_column prev in
          let s = Array.fold_left (fun acc u -> merge acc col.(u)) col.(me) nbrs in
          Flat_state.set_payload cur me (apply_duty ~me ~round s);
          round + 1 >= total_rounds
        in
        let st, stats = Runtime.run_flat ?domains ~metrics net ~state ~step in
        (Flat_state.payload_column st, stats.Runtime.rounds)
      | `Boxed ->
        let step ~round ~me s nbrs =
          let s = List.fold_left (fun acc (_, s') -> merge acc s') s nbrs in
          (apply_duty ~me ~round s, round + 1 >= total_rounds)
        in
        let states, stats = Runtime.run_full_info_boxed ?domains ~metrics net ~init ~step in
        (states, stats.Runtime.rounds)
    in
    let assignment = Assignment.empty (Instance.num_vars instance) in
    Array.iter
      (fun s -> IntMap.iter (fun vid value -> Assignment.set_inplace assignment vid value) s.known)
      states;
    (assignment, rounds)
  end

let no_events instance =
  {
    assignment = Assignment.empty (Instance.num_vars instance);
    rounds = 0;
    coloring_rounds = 0;
    sweep_rounds = 0;
    colors = 0;
  }

(* The gossiping sweep, then the free variables at 0. *)
let sweep_and_fill ?engine ?domains ~metrics instance g net ~coloring_rounds ~colors ~classes
    ~duty ~free =
  let assignment, sweep_rounds = run_sweep ?engine ?domains ~metrics instance g net ~classes ~duty in
  List.iter (fun vid -> Assignment.set_inplace assignment vid 0) free;
  { assignment; rounds = coloring_rounds + sweep_rounds; coloring_rounds; sweep_rounds; colors }

(* Corollary 1.2 as a message-passing protocol: edge-color the dependency
   graph (variables of rank 2 live on its edges; the smaller endpoint of
   an edge fixes its variables in the edge's class round). Rank <= 1
   variables are fixed by their event in an extra leading class. *)
let solve_rank2 ?engine ?domains ?(metrics = Metrics.disabled) instance =
  if Instance.rank instance > 2 then invalid_arg "Dist_lll.solve_rank2: instance has rank > 2";
  let g = Instance.dep_graph instance in
  let n = Graph.n g in
  if n = 0 then no_events instance
  else begin
    let net = Network.create g in
    let lg = Graph.line_graph g in
    Metrics.set_phase metrics "edge-coloring";
    let ecolors, coloring_rounds =
      if Graph.m g = 0 then ([||], 0) else Dist_coloring.color ?domains ~metrics (Network.create lg)
    in
    let colors = Array.fold_left (fun acc c -> max acc (c + 1)) 0 ecolors in
    (* duty: class 0 = rank <= 1 variables at their owner; class 1+c =
       edge color class c at each edge's smaller endpoint *)
    let small = Array.make n [] in
    let by_edge_owner = Array.make n [] in
    let free = ref [] in
    for vid = Instance.num_vars instance - 1 downto 0 do
      match Array.to_list (Instance.events_of_var instance vid) with
      | [] -> free := vid :: !free
      | [ u ] -> small.(u) <- vid :: small.(u)
      | [ u; v ] ->
        let e = Graph.find_edge_exn g u v in
        by_edge_owner.(min u v) <- (ecolors.(e), vid) :: by_edge_owner.(min u v)
      | _ -> assert false
    done;
    let duty ~me ~cls =
      if cls = 0 then small.(me)
      else List.filter_map (fun (c, vid) -> if c = cls - 1 then Some vid else None) by_edge_owner.(me)
    in
    sweep_and_fill ?engine ?domains ~metrics instance g net ~coloring_rounds ~colors
      ~classes:(colors + 1) ~duty ~free:!free
  end

let solve ?engine ?domains ?(metrics = Metrics.disabled) instance =
  if Instance.rank instance > 3 then invalid_arg "Dist_lll.solve: instance has rank > 3";
  let g = Instance.dep_graph instance in
  let n = Graph.n g in
  if n = 0 then no_events instance
  else begin
    let net = Network.create g in
    (* phase 1: distributed 2-hop coloring *)
    Metrics.set_phase metrics "two-hop-coloring";
    let vcolors, coloring_rounds = Dist_coloring.two_hop_color ?domains ~metrics net in
    let colors = Array.fold_left (fun acc c -> max acc (c + 1)) 0 vcolors in
    let owned, free = Distributed.vars_by_owner instance in
    (* phase 2: the gossiping sweep, three rounds per class *)
    let duty ~me ~cls = if vcolors.(me) = cls then owned.(me) else [] in
    sweep_and_fill ?engine ?domains ~metrics instance g net ~coloring_rounds ~colors
      ~classes:colors ~duty ~free
  end
