(* Synchronous execution engine for the LOCAL model.

   In each round, every non-halted node sees the previous-round state of
   each neighbor and updates its own state. Since messages are unbounded
   in LOCAL, these full-information rounds are equivalent to message
   passing, and they are the natural way to express the paper's
   algorithms; the complexity measure is the number of rounds until every
   node has halted.

   [run_flat] is the one engine: node states live in a record-of-arrays
   [Flat_state.t], and the non-halted nodes of a round are stepped IN
   PARALLEL across OCaml 5 domains ([Par]). All nodes read the same
   immutable snapshot of the previous round and each writes only its own
   row, so the parallel execution is faithful to the synchronous-round
   semantics by construction. Halt bookkeeping and metrics happen in a
   sequential sweep over nodes 0..n-1 after the parallel phase; with
   [~domains:1] no domain is spawned and the engine IS the sequential
   reference, which the differential tests exploit. A protocol may also
   declare a wake set per round ([?wake]): then only the non-halted nodes
   in that set are stepped (and only they may halt), every other row
   carries over, and the halt sweep walks the wake set instead of 0..n-1,
   so a round costs in proportion to the nodes that can act (the KW
   rounds of [Dist_coloring] wake one color slot). [gather_balls] is a
   thin wrapper over it; [run_full_info_boxed] is the retired boxed
   engine (assoc-list neighborhoods), kept as the reference
   implementation [run_flat] is tested against. *)

exception Round_limit_exceeded of int

type stats = { rounds : int }

let default_max_rounds = 1_000_000

(* Per-node neighbor arrays, read straight off the CSR: slices are
   already sorted by neighbor, so every step sees its neighbors in
   ascending order. *)
let neighbor_index net =
  let g = Network.graph net in
  Array.init (Network.n net) (fun v ->
      let deg = Network.Graph.degree g v in
      let a = Array.make deg 0 in
      let i = ref 0 in
      Network.Graph.iter_adj g v (fun u _ ->
          a.(!i) <- u;
          incr i);
      a)

(* The domain count a [?domains] argument resolves to for an [n]-node
   parallel phase — what [Par.fork_join] will actually use, surfaced in
   metrics as the round's [par_width]. *)
let effective_domains ?domains n =
  min (match domains with Some d -> max 1 d | None -> Par.default_domains ()) (max 1 n)

(* One metrics record per round. *)
let emit metrics ~round ~t0 ~stepped ~halted_count ~n ~sample ~par_width =
  if Metrics.enabled metrics then
    Metrics.record metrics
      {
        Metrics.round;
        phase = Metrics.phase metrics;
        wall_ns = Metrics.now_ns () - t0;
        stepped;
        halted_fraction = (if n = 0 then 1.0 else float_of_int halted_count /. float_of_int n);
        state_words = Metrics.state_words sample;
        par_width;
      }

(* ---- the flat full-information engine ----

   The generalized record-of-arrays engine every full-information
   protocol now runs on. State is a [Flat_state.t] (parallel int/float
   columns plus an optional boxed payload column); [prev] is a
   double-buffered snapshot refreshed by column blits at the top of each
   round. A step receives both buffers plus its CSR-aligned neighbor
   slice and the contract is: read anything from [prev], write only row
   [me] of [cur], return the halt request. Halt bookkeeping happens in a
   sequential sweep in node order after the parallel phase, so the
   result is bit-identical for any [domains], asserted by the
   differential tests.

   [wake] (called once per round, after the blit, on the calling
   domain) narrows the round to a strictly ascending set of node ids:
   the parallel phase runs over the set's indices and the halt sweep
   walks the set, so neither touches a node that is asleep. [None]
   wakes every node. *)
let check_wake n ws =
  Array.iteri
    (fun i v ->
      if v >= n || v < (if i = 0 then 0 else ws.(i - 1) + 1) then
        invalid_arg "Runtime.run_flat: wake set must be strictly ascending node ids in [0, n)")
    ws

let run_flat ?(max_rounds = default_max_rounds) ?domains ?(metrics = Metrics.disabled) ?wake net
    ~state ~step =
  let n = Network.n net in
  if Flat_state.n state <> n then invalid_arg "Runtime.run_flat: state/network size mismatch";
  let nbrs = neighbor_index net in
  let cur = state in
  let prev = Flat_state.copy state in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let halt_req = Array.make n false in
  let round = ref 0 in
  let payload = Flat_state.payload_column cur in
  let step_node v =
    if not halted.(v) then halt_req.(v) <- step ~round:!round ~me:v ~prev ~cur ~nbrs:nbrs.(v)
  in
  let stepped = ref 0 in
  let sweep_node v =
    if not halted.(v) then begin
      incr stepped;
      if halt_req.(v) then begin
        halted.(v) <- true;
        incr halted_count
      end
    end
  in
  while !halted_count < n do
    if !round >= max_rounds then raise (Round_limit_exceeded max_rounds);
    let t0 = if Metrics.enabled metrics then Metrics.now_ns () else 0 in
    Flat_state.blit ~src:cur ~dst:prev;
    stepped := 0;
    let woken = match wake with None -> None | Some f -> f ~round:!round ~prev in
    let par_width =
      match woken with
      | None ->
        Par.parallel_for ?domains ~n step_node;
        for v = 0 to n - 1 do
          sweep_node v
        done;
        effective_domains ?domains n
      | Some ws ->
        check_wake n ws;
        let k = Array.length ws in
        Par.parallel_for ?domains ~n:k (fun i -> step_node ws.(i));
        Array.iter sweep_node ws;
        effective_domains ?domains k
    in
    (* sample the payload column when the protocol has one (so
       state-growth protocols like ball gathering stay observable);
       pure column states sample as an immediate, i.e. 0 words *)
    (if Array.length payload > 0 then
       emit metrics ~round:!round ~t0 ~stepped:!stepped ~halted_count:!halted_count ~n
         ~sample:payload.(0) ~par_width
     else
       emit metrics ~round:!round ~t0 ~stepped:!stepped ~halted_count:!halted_count ~n ~sample:0
         ~par_width);
    incr round
  done;
  (cur, { rounds = !round })

(* Full-information rounds: each node's step sees [(neighbor, neighbor's
   state at the start of the round)]. All nodes are stepped against the
   same snapshot, faithfully modelling synchronous rounds — which is also
   exactly what makes the parallel step phase sound.

   This is the RETIRED boxed engine, kept as the reference
   implementation the compatibility shim below, [Mis.luby] and
   [Dist_lll] are tested against. New
   protocols must target [run_flat]; the @flat-lint alias keeps boxed
   calls from creeping back into lib/. *)
let run_full_info_boxed ?(max_rounds = default_max_rounds) ?domains
    ?(metrics = Metrics.disabled) net ~init ~step =
  let n = Network.n net in
  let nbrs = neighbor_index net in
  let states = Array.init n init in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let halt_req = Array.make n false in
  let round = ref 0 in
  while !halted_count < n do
    if !round >= max_rounds then raise (Round_limit_exceeded max_rounds);
    let t0 = if Metrics.enabled metrics then Metrics.now_ns () else 0 in
    let snapshot = Array.copy states in
    Par.parallel_for ?domains ~n (fun v ->
        if not halted.(v) then begin
          let nbr_states =
            Array.to_list (Array.map (fun u -> (u, snapshot.(u))) nbrs.(v))
          in
          let s, h = step ~round:!round ~me:v snapshot.(v) nbr_states in
          states.(v) <- s;
          halt_req.(v) <- h
        end);
    let stepped = ref 0 in
    for v = 0 to n - 1 do
      if not halted.(v) then begin
        incr stepped;
        if halt_req.(v) then begin
          halted.(v) <- true;
          incr halted_count
        end
      end
    done;
    emit metrics ~round:!round ~t0 ~stepped:!stepped ~halted_count:!halted_count ~n
      ~sample:states.(0) ~par_width:(effective_domains ?domains n);
    incr round
  done;
  (states, { rounds = !round })

(* Gather the (node, state) pairs within radius [k] of every node by
   flooding for [k] rounds — the canonical LOCAL primitive: any
   [T]-round algorithm is equivalent to collecting the radius-[T]
   neighborhood and deciding locally.

   Ball states are kept sorted by node id, so merging two balls is one
   linear sweep over the sorted lists instead of the former
   [List.sort_uniq] over their concatenation. Entries for the same node
   are identical pairs ([(v, value v)] originates once, at [v], and is
   only ever copied), so keeping either duplicate is the same pair — the
   merge is bit-identical to the sort_uniq it replaces. *)
let merge_sorted_balls l l' =
  let rec go acc l l' =
    match (l, l') with
    | [], rest | rest, [] -> List.rev_append acc rest
    | ((a, _) as x) :: tl, ((b, _) as y) :: tl' ->
      if a < b then go (x :: acc) tl l'
      else if b < a then go (y :: acc) l tl'
      else go (x :: acc) tl tl'
  in
  go [] l l'

let gather_balls ?(max_rounds = default_max_rounds) ?domains ?(metrics = Metrics.disabled) net
    ~radius ~(value : int -> 'a) : (int * 'a) list array * stats =
  if radius = 0 then
    ( Array.init (Network.n net) (fun v -> [ (v, value v) ]),
      { rounds = 0 } )
  else begin
    let n = Network.n net in
    let state = Flat_state.create ~n ~payload:(fun v -> [ (v, value v) ]) () in
    let step ~round ~me ~prev ~cur ~nbrs =
      let balls = Flat_state.payload_column prev in
      (* ascending CSR slice order — the same merge order as the old
         assoc-list fold, so the result lists are bit-identical *)
      let s' =
        Array.fold_left (fun acc u -> merge_sorted_balls acc balls.(u)) balls.(me) nbrs
      in
      Flat_state.set_payload cur me s';
      round + 1 >= radius
    in
    let st, stats = run_flat ~max_rounds ?domains ~metrics net ~state ~step in
    (Flat_state.payload_column st, stats)
  end
