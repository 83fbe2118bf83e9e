(* Distributed coloring programs on the LOCAL runtime.

   These are genuine message-passing implementations (full-information
   rounds) of Linial's color reduction followed by Kuhn-Wattenhofer block
   reduction to [dmax + 1] colors. All nodes know [n] (an upper bound on
   the ids) and [dmax] — the standard LOCAL assumptions — from which every
   node derives the identical parameter schedule without communication, so
   no global coordination is hidden from the round count.

   One Linial round maps a proper [m]-coloring to a proper [q^2]-coloring
   where [q] is a prime with [q > t * dmax] and [q^(t+1) >= m] for some
   degree bound [t]: each node reads its color as a polynomial of degree
   at most [t] over F_q (base-[q] digits as coefficients) and picks an
   evaluation point [a] at which its polynomial differs from those of all
   neighbors — two distinct degree-[t] polynomials agree on at most [t]
   points, so at most [t * dmax < q] points are forbidden. The new color
   is the pair [(a, p(a))]. This replaces the [FHK16]/[PR01] subroutines
   cited by the paper with the same [O(poly dmax + log* n)] round
   structure (see DESIGN.md). *)

module Graph = Lll_graph.Graph
module Primes = Lll_graph.Primes

(* Integer power saturating at [limit] (never overflows). *)
let pow_sat ~limit b e =
  let rec go acc e = if e = 0 then acc else if acc > limit / b then limit else go (acc * b) (e - 1) in
  go 1 e

(* The smallest [r >= 1] with [r^k >= m], exactly: the float root is off
   by at most one either way, and [pow_sat] settles it. *)
let root_ceil ~k m =
  let fits r = pow_sat ~limit:max_int r k >= m in
  let r = ref (max 1 (int_of_float (Float.pow (float_of_int m) (1. /. float_of_int k)))) in
  while !r > 1 && fits (!r - 1) do decr r done;
  while not (fits !r) do incr r done;
  !r

(* Choose [(q, t)] minimising the resulting color count [q^2], subject to
   [q] prime, [q > t * dmax], [q^(t+1) >= m]. *)
let choose_params ~dmax ~m =
  let dmax = max dmax 1 in
  let best = ref None in
  for t = 1 to 60 do
    (* smallest prime q with q > t*dmax and q^(t+1) >= m; no q below the
       exact root passes the power test, so the walk starts there *)
    let rec search q =
      let q = Primes.next_prime q in
      if pow_sat ~limit:max_int q (t + 1) >= m then q else search (q + 1)
    in
    let q = search (max ((t * dmax) + 1) (root_ceil ~k:(t + 1) m)) in
    match !best with
    | Some (q', _) when q' <= q -> ()
    | _ -> best := Some (q, t)
  done;
  match !best with Some r -> r | None -> assert false

(* The deterministic schedule of (q, t, colors-after) Linial steps starting
   from [m] colors, as derived by every node locally. *)
let schedule ~dmax ~m =
  let rec go m acc =
    let q, t = choose_params ~dmax ~m in
    let m' = q * q in
    if m' >= m then List.rev acc else go m' ((q, t, m') :: acc)
  in
  go m []

(* One Linial step given parameters (q, t): pick the smallest evaluation
   point at which my polynomial differs from every neighbor's.

   The step allocates nothing once its domain's scratch row has grown to
   size. The row holds, in [t + 1]-wide slots: the powers [a^i mod q] of
   the current point [a], then my digits, then each neighbor's digits in
   [nbrs] order — every color is read into digits once per step, not once
   per candidate point. At each point my polynomial is evaluated once and
   each neighbor's at most once, as a dot product with the power slot and
   a single [mod]: every term is below [q^2], and [color] checks that
   [t + 1] of them fit an int ([fits_one_reduction]). *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch len =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < len then r := Array.make (max len (2 * Array.length !r)) 0;
  !r

let fits_one_reduction ~q ~t = q - 1 <= max_int / (t + 1) / (q - 1)

let read_digits row off ~q ~k c =
  let c = ref c in
  for i = 0 to k - 1 do
    let c' = !c / q in
    row.(off + i) <- !c - (c' * q);
    c := c'
  done;
  if !c <> 0 then invalid_arg "Dist_coloring.linial_step: color does not fit the field"

let eval_at row off ~q ~k =
  let s = ref 0 in
  for i = 0 to k - 1 do
    s := !s + (row.(off + i) * row.(i))
  done;
  !s mod q

let linial_step ~q ~t (colors : int array) me (nbrs : int array) =
  let k = t + 1 in
  let deg = Array.length nbrs in
  let row = scratch ((deg + 2) * k) in
  read_digits row k ~q ~k colors.(me);
  for i = 0 to deg - 1 do
    read_digits row ((i + 2) * k) ~q ~k colors.(nbrs.(i))
  done;
  let a = ref 0 and found = ref (-1) in
  while !found < 0 do
    if !a >= q then invalid_arg "Dist_coloring.linial_step: no free point (improper coloring?)";
    let p = ref 1 in
    for i = 0 to k - 1 do
      row.(i) <- !p;
      p := !p * !a mod q
    done;
    let mine = eval_at row k ~q ~k in
    let i = ref 0 in
    while !i < deg && eval_at row ((!i + 2) * k) ~q ~k <> mine do
      incr i
    done;
    if !i = deg then found := (!a * q) + mine else incr a
  done;
  !found

(* The number of Kuhn-Wattenhofer halving phases from [m] colors down to
   [dmax + 1]: each phase costs [dmax + 1] rounds and maps [m] colors to
   [ceil(m / (2*(dmax+1))) * (dmax+1)]. Derivable by every node from
   [m_star] and [dmax] without communication. *)
let kw_phases ~dmax ~m =
  let w = dmax + 1 in
  let rec go m k = if m <= w then k else go (((m + (2 * w) - 1) / (2 * w)) * w) (k + 1) in
  go m 0

(* Distributed (dmax+1)-coloring: Linial phase (schedule length rounds)
   followed by Kuhn-Wattenhofer block reduction ([dmax+1] rounds per
   halving phase). Initial colors are the node ids (assumed < id_bound).
   Returns the coloring and the LOCAL round count, which is
   O(log* id_bound + dmax * log(dmax)) past the Linial fixpoint. *)
let color ?(id_bound = max_int) ?domains ?(metrics = Metrics.disabled) net =
  let g = Network.graph net in
  let n = Graph.n g in
  if n = 0 then ([||], 0)
  else begin
    let dmax = Graph.max_degree g in
    let bound = if id_bound = max_int then n else id_bound in
    let bound = max bound (1 + Array.fold_left max 0 (Network.ids net)) in
    let sched = schedule ~dmax ~m:bound in
    let sched_arr = Array.of_list sched in
    let linial_rounds = Array.length sched_arr in
    let m_star = if linial_rounds = 0 then bound else (fun (_, _, m) -> m) sched_arr.(linial_rounds - 1) in
    let w = dmax + 1 in
    let reduction_rounds = w * kw_phases ~dmax ~m:m_star in
    let total = linial_rounds + reduction_rounds in
    (* whole node state is one int column (the color), so the protocol
       runs straight on the flat engine: neighbor colors are read off
       the [prev] snapshot column at the CSR slice indices, and no
       neighbor array is ever materialised.

       Only nodes that can change are stepped ([wake]). Linial rounds
       and the last round of each KW phase (which compacts the blocks,
       renaming every node) wake everyone. KW round [j] of a phase can
       only recolor the nodes at offset [w + j] of their block, so it
       wakes exactly those: one counting sort at [j = 0] buckets the
       nodes by offset, and the buckets stay exact for the whole phase
       because a node that recolors lands in its block's low window and
       every other node keeps its color until the compaction. *)
    if total = 0 then (Array.init n (fun v -> Network.id net v), 0)
    else begin
      List.iter
        (fun (q, t, _) ->
          if not (fits_one_reduction ~q ~t) then
            invalid_arg "Dist_coloring.color: Linial field too large for one-reduction evaluation")
        sched;
      let state = Flat_state.create ~n ~int_fields:1 () in
      let col0 = Flat_state.int_column state 0 in
      for v = 0 to n - 1 do
        col0.(v) <- Network.id net v
      done;
      let block_size = 2 * w in
      let step ~round ~me ~prev ~cur ~nbrs =
        let colors = Flat_state.int_column prev 0 in
        let color = colors.(me) in
        let color' =
          if round < linial_rounds then begin
            let q, t, _ = sched_arr.(round) in
            linial_step ~q ~t colors me nbrs
          end
          else begin
            (* KW reduction: offset j of the current phase *)
            let r = round - linial_rounds in
            let j = r mod w in
            let base = color / block_size * block_size in
            let color =
              if color - base = w + j then begin
                (* recolor into the block's low window: mark the window
                   colors used by neighbors in a [w]-slot table and take the
                   first free slot (at most [dmax] neighbors < [w] slots, so
                   one is always free) — no sort, no dedup *)
                let used = Array.make w false in
                Array.iter
                  (fun u ->
                    let c = colors.(u) in
                    if c >= base && c < base + w then used.(c - base) <- true)
                  nbrs;
                let rec free k = if used.(k) then free (k + 1) else base + k in
                free 0
              end
              else color
            in
            (* end of phase: compact blocks (local renaming, no cost) *)
            if j = w - 1 then (color / block_size * w) + (color mod block_size) else color
          end
        in
        Flat_state.set_int cur 0 me color';
        round + 1 >= total
      in
      (* [slots.(s)]: the nodes at block offset [w + s] at the start of
         the current KW phase, ascending *)
      let slots = Array.make w [||] in
      let bucket colors =
        let count = Array.make w 0 in
        Array.iter
          (fun c ->
            let s = (c mod block_size) - w in
            if s >= 0 then count.(s) <- count.(s) + 1)
          colors;
        for s = 0 to w - 1 do
          slots.(s) <- Array.make count.(s) 0;
          count.(s) <- 0
        done;
        Array.iteri
          (fun v c ->
            let s = (c mod block_size) - w in
            if s >= 0 then begin
              slots.(s).(count.(s)) <- v;
              count.(s) <- count.(s) + 1
            end)
          colors
      in
      let wake ~round ~prev =
        if round < linial_rounds then None
        else begin
          let j = (round - linial_rounds) mod w in
          if j = w - 1 then None
          else begin
            if j = 0 then bucket (Flat_state.int_column prev 0);
            Some slots.(j)
          end
        end
      in
      let st, stats = Runtime.run_flat ?domains ~metrics ~wake net ~state ~step in
      (Flat_state.int_column st 0, stats.Runtime.rounds)
    end
  end

(* Distributed 2-hop coloring with at most [dmax^2 + 1] colors, obtained by
   running [color] on the square graph. One round on the square graph is
   simulated by two real rounds, which we account for. This is our
   substitute for the [FHK16] conflict-coloring subroutine of
   Corollary 1.4 (see DESIGN.md). *)
let two_hop_color ?domains ?(metrics = Metrics.disabled) net =
  let g = Network.graph net in
  let sq = Graph.square g in
  let net_sq = Network.with_graph net sq in
  let coloring, rounds_sq = color ?domains ~metrics net_sq in
  (coloring, 2 * rounds_sq)
