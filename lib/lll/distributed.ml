(* Distributed LLL solvers with LOCAL round accounting.

   - [solve_rank2] implements Corollary 1.2: edge-color the dependency
     graph (variables of rank 2 live on its edges), then sweep the color
     classes, fixing all variables of a class in one round. Edges of the
     same color share no endpoint, hence no event; Theorem 1.1 works for
     any order, so the parallel sweep is sound.
   - [solve_rank3] implements Corollary 1.4: 2-hop color the dependency
     graph (one proper coloring of its square), then sweep the classes;
     in its class round a node fixes all of its not-yet-fixed variables.
     Nodes at distance >= 3 own variables with disjoint event sets, so
     simultaneous fixing is again sound.

   The fixing steps are executed by the fixer engines (Theorem 1.1 /
   Theorem 1.3 hold for arbitrary orders); the round count is what the
   LOCAL schedule above would cost: coloring rounds plus one round per
   color class (plus one round for variables affecting at most one
   event, which all nodes fix independently up front). Because the
   members of one class touch pairwise disjoint fixer state (disjoint
   events, phi edges and scope variables — DESIGN.md §11), each class
   round genuinely fans out across the domain pool via [fix_class],
   with one [Metrics.record_sweep] record per class carrying the class
   width and the domains used. The 2-hop schedule takes its fixer as an
   argument: [solve_rank3] and [solve_rankr] are that one driver. *)

module Graph = Lll_graph.Graph
module Network = Lll_local.Network
module Dist_coloring = Lll_local.Dist_coloring
module Metrics = Lll_local.Metrics
module Par = Lll_local.Par
module Assignment = Lll_prob.Assignment

type result = {
  assignment : Assignment.t;
  rounds : int;
  coloring_rounds : int;
  sweep_rounds : int;
  colors : int;
}

(* Variables grouped by the dependency edge they live on (rank 2), plus
   the rank <= 1 leftovers. *)
let vars_by_edge instance =
  let g = Instance.dep_graph instance in
  let by_edge = Array.make (Graph.m g) [] in
  let small = ref [] in
  for vid = Instance.num_vars instance - 1 downto 0 do
    match Array.to_list (Instance.events_of_var instance vid) with
    | [ u; v ] ->
      let e = Graph.find_edge_exn g u v in
      by_edge.(e) <- vid :: by_edge.(e)
    | _ -> small := vid :: !small
  done;
  (by_edge, !small)

(* A fixer as the drivers see it: fix one variable up front, fan one
   color class out, read the assignment back. *)
module type FIXER = sig
  type t

  val create : Instance.t -> t
  val fix_var : t -> int -> unit
  val fix_class : ?domains:int -> t -> int list array -> unit
  val assignment : t -> Assignment.t
end

(* The tail both schedules share: fix the [pre] variables in a leading
   round (if any), sweep the color classes. The per-item duty
   lists ([by_edge] / [by_owner]) are grouped into one duty array per
   color class — item order within a class is ascending item id — and
   each class is one [fix_class] fan-out with one sweep record in
   [metrics]. *)
let sweep_classes (module F : FIXER) ?domains ~metrics instance ~coloring_rounds ~colors
    ~item_colors ~duties ~pre =
  let t = F.create instance in
  List.iter (F.fix_var t) pre;
  Metrics.set_phase metrics "fix-sweep";
  let members = Array.make (max colors 1) [] in
  for i = Array.length duties - 1 downto 0 do
    if duties.(i) <> [] then members.(item_colors.(i)) <- duties.(i) :: members.(item_colors.(i))
  done;
  let resolved = match domains with Some d -> max 1 d | None -> Par.default_domains () in
  for c = 0 to colors - 1 do
    let class_duties = Array.of_list members.(c) in
    let width = Array.length class_duties in
    let t0 = if Metrics.enabled metrics then Metrics.now_ns () else 0 in
    F.fix_class ?domains t class_duties;
    Metrics.record_sweep metrics ~round:c ~total:colors
      ~wall_ns:(if Metrics.enabled metrics then Metrics.now_ns () - t0 else 0)
      ~width ~domains:(min resolved (max 1 width))
  done;
  let assignment = F.assignment t in
  let sweep_rounds = colors + if pre = [] then 0 else 1 in
  {
    assignment;
    rounds = coloring_rounds + sweep_rounds;
    coloring_rounds;
    sweep_rounds;
    colors;
  }

let solve_rank2 ?domains ?(metrics = Metrics.disabled) instance =
  let g = Instance.dep_graph instance in
  let lg = Graph.line_graph g in
  Metrics.set_phase metrics "edge-coloring";
  let ecolors, coloring_rounds =
    if Graph.m g = 0 then ([||], 0) else Dist_coloring.color ?domains ~metrics (Network.create lg)
  in
  let colors = Array.fold_left (fun acc c -> max acc (c + 1)) 0 ecolors in
  let by_edge, small = vars_by_edge instance in
  (* round 0: every node fixes its rank <= 1 variables; then one round
     per edge-color class, class members fanned out *)
  sweep_classes (module Fix_rank2) ?domains ~metrics instance ~coloring_rounds ~colors
    ~item_colors:ecolors ~duties:by_edge ~pre:small

(* Each variable is owned by its smallest event; a node's class round
   fixes all its owned variables. *)
let vars_by_owner instance =
  let by_owner = Array.make (Instance.num_events instance) [] in
  let free = ref [] in
  for vid = Instance.num_vars instance - 1 downto 0 do
    match Instance.events_of_var instance vid with
    | [||] -> free := vid :: !free
    | evs -> by_owner.(evs.(0)) <- vid :: by_owner.(evs.(0))
  done;
  (by_owner, !free)

(* The 2-hop schedule, for any fixer: a variable's events are pairwise
   adjacent, so they all lie in the closed neighborhood of its owner,
   and owners of the same 2-hop color class are at distance >= 3 —
   their variables share no event, for any rank. *)
let solve_two_hop fixer ?domains ?(metrics = Metrics.disabled) instance =
  let g = Instance.dep_graph instance in
  Metrics.set_phase metrics "two-hop-coloring";
  let vcolors, coloring_rounds =
    if Graph.n g = 0 then ([||], 0)
    else Dist_coloring.two_hop_color ?domains ~metrics (Network.create g)
  in
  let colors = Array.fold_left (fun acc c -> max acc (c + 1)) 0 vcolors in
  let by_owner, free = vars_by_owner instance in
  sweep_classes fixer ?domains ~metrics instance ~coloring_rounds ~colors
    ~item_colors:vcolors ~duties:by_owner ~pre:free

let solve_rank3 ?domains ?metrics instance =
  solve_two_hop (module Fix_rank3) ?domains ?metrics instance

let solve_rankr ?domains ?metrics instance =
  solve_two_hop (module Fix_rankr) ?domains ?metrics instance
