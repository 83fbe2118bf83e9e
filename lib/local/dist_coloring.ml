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

(* Choose [(q, t)] minimising the resulting color count [q^2], subject to
   [q] prime, [q > t * dmax], [q^(t+1) >= m]. *)
let choose_params ~dmax ~m =
  let dmax = max dmax 1 in
  let best = ref None in
  for t = 1 to 60 do
    (* smallest prime q with q > t*dmax and q^(t+1) >= m *)
    let rec search q =
      let q = Primes.next_prime q in
      if pow_sat ~limit:max_int q (t + 1) >= m then q else search (q + 1)
    in
    let q = search ((t * dmax) + 1) in
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
   point at which my polynomial differs from every neighbor's. *)
let linial_step ~q ~t my_color (nbr_colors : int array) =
  let my_poly = Primes.digits ~base:q ~len:(t + 1) my_color in
  let nbr_polys = Array.map (fun c -> Primes.digits ~base:q ~len:(t + 1) c) nbr_colors in
  let rec find a =
    if a >= q then invalid_arg "Dist_coloring.linial_step: no free point (improper coloring?)"
    else if
      Array.for_all (fun p -> Primes.poly_eval q my_poly a <> Primes.poly_eval q p a) nbr_polys
    then a
    else find (a + 1)
  in
  let a = find 0 in
  (a * q) + Primes.poly_eval q my_poly a

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
       the [prev] snapshot column at the CSR slice indices. KW rounds
       scan the slice in place — no neighbor array is ever materialised;
       only the rare Linial rounds (O(log* n) of them) build one for the
       polynomial step. *)
    if total = 0 then (Array.init n (fun v -> Network.id net v), 0)
    else begin
      let state = Flat_state.create ~n ~int_fields:1 () in
      let col0 = Flat_state.int_column state 0 in
      for v = 0 to n - 1 do
        col0.(v) <- Network.id net v
      done;
      let step ~round ~me ~prev ~cur ~nbrs =
        let colors = Flat_state.int_column prev 0 in
        let color = colors.(me) in
        let color' =
          if round < linial_rounds then begin
            let q, t, _ = sched_arr.(round) in
            linial_step ~q ~t color (Array.map (fun u -> colors.(u)) nbrs)
          end
          else begin
            (* KW reduction: offset j of the current phase *)
            let r = round - linial_rounds in
            let j = r mod w in
            let block_size = 2 * w in
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
      let st, stats = Runtime.run_flat ?domains ~metrics net ~state ~step in
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
  let net_sq = Network.create ~ids:(Network.ids net) sq in
  let coloring, rounds_sq = color ?domains ~metrics net_sq in
  (coloring, 2 * rounds_sq)
