(* An EXACT-arithmetic variant of the rank-3 fixing process.

   {!Fix_rank3} keeps the potential phi in floats because the optimal
   decomposition of Lemma 3.5 involves a square root (the critical point
   x1). This module keeps EVERYTHING rational:

   - candidate values are accepted by the square-root-free exact
     membership test {!Srep.mem_rat};
   - the decomposition searches for a DYADIC RATIONAL split x near the
     float optimum such that the representability constraint
       c * x * (2 - x) <= (2x - a) * (2(2 - x) - b)
     holds exactly (both sides rational). Such an x exists whenever the
     triple is strictly inside S_rep; exactly-on-the-boundary triples
     may admit only the irrational split, in which case this fixer falls
     back to the value minimising the float violation and records that
     exactness was lost (it never happens on the below-threshold families
     of the test suite).

   The payoff: property P* holds EXACTLY (no epsilon) after every step,
   so the final "probability < 1 hence 0" conclusion is a theorem about
   the actual execution, not about a float approximation of it. *)

module Rat = Lll_num.Rat
module Assignment = Lll_prob.Assignment

type t = {
  core : Rat.t Fixing.t;
  mutable fallbacks : int; (* steps where no exact decomposition was found *)
}

let name = "Fix_rank3_exact"
let create instance = { core = Fixing.create ~name ~max_rank:3 Rat.one instance; fallbacks = 0 }
let assignment t = Fixing.assignment t.core
let fallbacks t = t.fallbacks
let phi t e v = t.core.phi.(Fixing.slot t.core.graph e v)

(* exact representability condition for split x (in [a/2, 2-b/2]):
   c * x * (2-x) <= (2x - a) * (2(2-x) - b) *)
let split_ok ~a ~b ~c x =
  let open Rat in
  let two_minus_x = sub two x in
  geq x (div a two) && geq two_minus_x (div b two)
  && leq (mul c (mul x two_minus_x)) (mul (sub (mul two x) a) (sub (mul two two_minus_x) b))

(* dyadic rational nearest to the float, denominator 2^40 *)
let dyadic_of_float x =
  let scale = 1 lsl 40 in
  let n = int_of_float (Float.round (x *. float_of_int scale)) in
  Rat.of_ints (max 1 (min (2 * scale) n)) scale

(* Exact decomposition of a rational triple in S_rep; None when only the
   irrational boundary split would work. *)
let decompose_rat (a, b, c) =
  let open Rat in
  if sign a < 0 || sign b < 0 || sign c < 0 then None
  else if is_zero a && is_zero b then Some (zero, zero, zero, zero, two, div c two)
  else if is_zero a then
    (* c <= 4 - b guaranteed by membership *)
    Some (zero, zero, two, div b two, two, div c two)
  else if is_zero b then Some (two, div a two, zero, zero, div c two, two)
  else if is_zero c then begin
    (* c = 0: any exact split in [a/2, 2 - b/2] works; when a + b = 4 the
       interval degenerates to the single rational point a/2 *)
    let four = of_int 4 in
    if gt (add a b) four then None
    else begin
      let x = if equal (add a b) four then div a two else div (add a (sub four b)) (of_int 4) in
      if split_ok ~a ~b ~c x then begin
        let a1 = x and a2 = div a x in
        let b1 = sub two x in
        let b3 = div b b1 in
        Some (a1, a2, b1, b3, zero, sub two b3)
      end
      else None
    end
  end
  else begin
    (* search dyadic splits near the float optimum, plus the exact
       rational boundary candidates *)
    let xf = Srep.best_x ~a:(to_float a) ~b:(to_float b) in
    let base = dyadic_of_float xf in
    let step = of_ints 1 (1 lsl 20) in
    let in_range x = sign x > 0 && lt x two in
    let boundary_candidates =
      List.filter (fun x -> in_range x && split_ok ~a ~b ~c x)
        [ div a two; sub two (div b two); div (add (div a two) (sub two (div b two))) two ]
    in
    let rec search k =
      if k > 64 then None
      else begin
        let delta = mul (of_int ((k + 1) / 2)) step in
        let x = if k mod 2 = 0 then add base delta else sub base delta in
        if in_range x && split_ok ~a ~b ~c x then Some x else search (k + 1)
      end
    in
    let found = match boundary_candidates with x :: _ -> Some x | [] -> search 0 in
    match found with
    | None -> None
    | Some x ->
      let a1 = x and a2 = div a x in
      let b1 = sub two x in
      let b3 = div b b1 in
      let c3 = sub two b3 in
      let c2 = if is_zero c3 then zero else div c c3 in
      Some (a1, a2, b1, b3, c2, c3)
  end

let fix_rank3_var t vid u v w =
  let c0 = t.core in
  let g = c0.graph in
  let phi = c0.phi in
  let e = Lll_graph.Graph.find_edge_exn g u v in
  let e' = Lll_graph.Graph.find_edge_exn g u w in
  let e'' = Lll_graph.Graph.find_edge_exn g v w in
  let eu = Fixing.slot g e u and e'u = Fixing.slot g e' u in
  let ev = Fixing.slot g e v and e''v = Fixing.slot g e'' v in
  let e'w = Fixing.slot g e' w and e''w = Fixing.slot g e'' w in
  let a = Rat.mul phi.(eu) phi.(e'u) in
  let b = Rat.mul phi.(ev) phi.(e''v) in
  let c = Rat.mul phi.(e'w) phi.(e''w) in
  let incs_u = Fixing.inc_vector c0 u ~var:vid in
  let incs_v = Fixing.inc_vector c0 v ~var:vid in
  let incs_w = Fixing.inc_vector c0 w ~var:vid in
  let arity = Array.length incs_u in
  let triple_of y = (Rat.mul incs_u.(y) a, Rat.mul incs_v.(y) b, Rat.mul incs_w.(y) c) in
  (* exact-first: a value whose scaled triple is exactly representable
     AND admits an exact dyadic decomposition *)
  let chosen = ref None in
  (try
     for y = 0 to arity - 1 do
       let triple = triple_of y in
       if Srep.mem_rat triple then begin
         match decompose_rat triple with
         | Some d ->
           chosen := Some (y, d);
           raise Exit
         | None -> ()
       end
     done
   with Exit -> ());
  match !chosen with
  | Some (y, (a1, a2, b1, b3, c2, c3)) ->
    Lll_prob.Space.Cond_tracker.fix c0.tracker ~var:vid ~value:y;
    phi.(eu) <- a1;
    phi.(e'u) <- a2;
    phi.(ev) <- b1;
    phi.(e''v) <- b3;
    phi.(e'w) <- c2;
    phi.(e''w) <- c3
  | None ->
    (* fallback: float-minimising choice, dyadic-rounded potential;
       exactness is lost for this step (counted) *)
    t.fallbacks <- t.fallbacks + 1;
    let best = ref None in
    for y = 0 to arity - 1 do
      let ta, tb, tc = triple_of y in
      let viol = Srep.violation (Rat.to_float ta, Rat.to_float tb, Rat.to_float tc) in
      match !best with
      | Some (_, viol') when viol' <= viol -> ()
      | _ -> best := Some (y, viol)
    done;
    let y, _ = Option.get !best in
    let ta, tb, tc = triple_of y in
    let d = Srep.decompose (Rat.to_float ta, Rat.to_float tb, Rat.to_float tc) in
    Lll_prob.Space.Cond_tracker.fix c0.tracker ~var:vid ~value:y;
    (* round each side DOWN so the edge-sum constraints stay exact *)
    let down x = Rat.of_ints (int_of_float (Float.max 0. x *. float_of_int (1 lsl 40))) (1 lsl 40) in
    phi.(eu) <- down d.Srep.a1;
    phi.(e'u) <- down d.Srep.a2;
    phi.(ev) <- down d.Srep.b1;
    phi.(e''v) <- down d.Srep.b3;
    phi.(e'w) <- down d.Srep.c2;
    phi.(e''w) <- down d.Srep.c3

let fix_var t vid =
  Fixing.check_unfixed ~name t.core vid;
  match Instance.events_of_var t.core.instance vid with
  | [||] -> Fixing.fix_free t.core vid
  | [| u |] -> ignore (Fixing.fix_rank1 t.core vid u : Rat.t Fixing.choice)
  | [| u; v |] -> ignore (Fixing.fix_rank2_exact t.core vid u v : Rat.t Fixing.choice)
  | [| u; v; w |] -> fix_rank3_var t vid u v w
  | _ -> assert false

(* Property P*, checked EXACTLY — no epsilon anywhere. *)
let pstar_holds_exact t =
  Fixing.pstar_exact t.core ~edge_ok:(fun a b ->
      Rat.sign a >= 0 && Rat.sign b >= 0 && Rat.leq (Rat.add a b) Rat.two)

let solve ?order ?metrics instance =
  let t = create instance in
  Fixing.run t.core ~phase:"fix-rank3-exact" ~fix:(fix_var t) ?order ?metrics ();
  (assignment t, t)
