(* Moser–Tardos resampling [MT10] — the randomized baseline the paper
   compares against across the threshold.

   - [solve_sequential]: sample everything, then repeatedly resample the
     variables of some occurring bad event; under [ep(d+1) < 1] the
     expected number of resamplings is at most [m / (e*p*(d+1))^-1 - 1]
     flavoured (we only record the count).
   - [solve_parallel]: the standard distributed variant — in each round
     every occurring event that is a local id-minimum among occurring
     dependency neighbors resamples its variables (such events are
     pairwise non-adjacent, hence share no variables). One such round
     costs O(1) LOCAL rounds; the round count is the distributed
     complexity, which is O(log n) w.h.p. under the shattering
     criterion.

   The sequential hot path maintains the set of occurring events
   incrementally: resampling event [e] can only flip the status of [e]
   and its dependency-graph neighbors (they are the only events sharing
   a resampled variable), so each resampling refreshes O(deg) events
   instead of rescanning all [m]. The full rescan survives as
   [solve_sequential_rescan], the ablation baseline benchmarked against
   the incremental set in BENCH_pr4.json. *)

module Graph = Lll_graph.Graph
module Space = Lll_prob.Space
module Event = Lll_prob.Event
module Assignment = Lll_prob.Assignment

type stats = { resamplings : int; rounds : int }

exception Budget_exhausted of { assignment : Assignment.t; stats : stats }

let occurring instance a =
  let space = Instance.space instance in
  Array.to_list (Instance.events instance)
  |> List.filter (fun e -> Space.event_holds space e a)

module ISet = Set.Make (Int)

(* Sequential resampling with an execution log: the sequence of resampled
   event ids, in order — the raw material of the witness-tree analysis
   ([MT10], see {!Witness}). The set of occurring events is kept sorted
   by id, so picking its minimum reproduces the historical "first
   occurring event" selection exactly (same resampling sequence, same
   random stream, same final assignment as the full-rescan baseline). *)
let solve_sequential_log ?(max_resamplings = 1_000_000) ~seed instance =
  let rng = Random.State.make [| seed |] in
  let space = Instance.space instance in
  let g = Instance.dep_graph instance in
  let a = ref (Space.sample_unfixed space rng (Assignment.empty (Instance.num_vars instance))) in
  let count = ref 0 in
  let log = ref [] in
  let holds id = Space.event_holds space (Instance.event instance id) !a in
  let occ =
    ref
      (Array.fold_left
         (fun acc e -> if Space.event_holds space e !a then ISet.add (Event.id e) acc else acc)
         ISet.empty (Instance.events instance))
  in
  let rec loop () =
    match ISet.min_elt_opt !occ with
    | None -> ()
    | Some id ->
      if !count >= max_resamplings then
        raise
          (Budget_exhausted
             { assignment = !a; stats = { resamplings = !count; rounds = !count } });
      incr count;
      log := id :: !log;
      let e = Instance.event instance id in
      a := Space.resample space rng !a (Array.to_list (Event.scope e));
      (* only [id] and its dependency neighbors can change status *)
      List.iter
        (fun u -> occ := if holds u then ISet.add u !occ else ISet.remove u !occ)
        (id :: Graph.neighbors g id);
      loop ()
  in
  loop ();
  (!a, { resamplings = !count; rounds = !count }, Array.of_list (List.rev !log))

let solve_sequential ?max_resamplings ~seed instance =
  let a, stats, _ = solve_sequential_log ?max_resamplings ~seed instance in
  (a, stats)

(* The pre-incremental implementation: rescan all m events to find the
   first occurring one after every resampling. Kept as the benchmark
   baseline for the occurring-set maintenance (identical behaviour). *)
let solve_sequential_rescan ?(max_resamplings = 1_000_000) ~seed instance =
  let rng = Random.State.make [| seed |] in
  let space = Instance.space instance in
  let a = ref (Space.sample_unfixed space rng (Assignment.empty (Instance.num_vars instance))) in
  let count = ref 0 in
  let rec loop () =
    match occurring instance !a with
    | [] -> ()
    | bad :: _ ->
      if !count >= max_resamplings then
        raise
          (Budget_exhausted
             { assignment = !a; stats = { resamplings = !count; rounds = !count } });
      incr count;
      a := Space.resample space rng !a (Array.to_list (Event.scope bad));
      loop ()
  in
  loop ();
  (!a, { resamplings = !count; rounds = !count })

(* Strict local minima of the occurring events under the lexicographic
   order [(priority, id)]. The id tiebreak matters: comparing priorities
   alone blocks BOTH endpoints of an edge whose priorities tie, so a
   fully tied round selects no event yet still burns a round (a livelock
   when the priority source keeps colliding). Lexicographic order is
   total, hence the minima are pairwise non-adjacent and every non-empty
   occurring set selects at least one event. *)
let priority_minima g ~prio occurring_ids =
  let is_bad = Array.make (Array.length prio) false in
  List.iter (fun id -> is_bad.(id) <- true) occurring_ids;
  List.filter
    (fun id ->
      List.for_all
        (fun u ->
          (not is_bad.(u)) || prio.(u) > prio.(id) || (prio.(u) = prio.(id) && u > id))
        (Graph.neighbors g id))
    occurring_ids

(* The parallel rounds: each round, the occurring events that are
   local minima under [(prio rng, id)] — an independent set in the
   dependency graph, so their scopes are disjoint — resample at once. *)
let parallel_rounds ~max_rounds ~seed ~prio instance =
  let rng = Random.State.make [| seed |] in
  let space = Instance.space instance in
  let g = Instance.dep_graph instance in
  let a = ref (Space.sample_unfixed space rng (Assignment.empty (Instance.num_vars instance))) in
  let rounds = ref 0 in
  let resamplings = ref 0 in
  let rec loop () =
    let bad = occurring instance !a in
    if bad <> [] then begin
      if !rounds >= max_rounds then
        raise
          (Budget_exhausted
             {
               assignment = !a;
               stats = { resamplings = !resamplings; rounds = !rounds };
             });
      incr rounds;
      let prio = prio rng in
      let selected = priority_minima g ~prio (List.map Event.id bad) in
      let vars =
        List.concat_map
          (fun id -> Array.to_list (Event.scope (Instance.event instance id)))
          selected
      in
      resamplings := !resamplings + List.length selected;
      a := Space.resample space rng !a vars;
      loop ()
    end
  in
  loop ();
  (!a, { resamplings = !resamplings; rounds = !rounds })

(* CPS-flavoured variant [CPS17]: local minima under FRESH RANDOM
   priorities each round (instead of ids) resample — the symmetry
   breaking Chung-Pettie-Su use to improve the round bound. *)
let solve_parallel_random_priority ?(max_rounds = 100_000) ~seed instance =
  let m = Instance.num_events instance in
  parallel_rounds ~max_rounds ~seed instance ~prio:(fun rng ->
      Array.init m (fun _ -> Random.State.float rng 1.0))

(* Id-minima: with all priorities equal, the id tiebreak decides. *)
let solve_parallel ?(max_rounds = 100_000) ~seed instance =
  let zeros = Array.make (Instance.num_events instance) 0.0 in
  parallel_rounds ~max_rounds ~seed instance ~prio:(fun _ -> zeros)
