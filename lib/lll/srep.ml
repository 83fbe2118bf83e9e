(* Representable triples (Definition 3.3) and the geometry of Section 3.2.

   A triple [(a, b, c)] of non-negative reals is representable if it can be
   written as products [a = a1*a2], [b = b1*b3], [c = c2*c3] of values in
   [0, 2] satisfying the three edge constraints [a1 + b1 <= 2],
   [a2 + c2 <= 2], [b3 + c3 <= 2]. Lemma 3.5 characterises the set
   [S_rep] as [{ (a,b,c) | a + b <= 4, c <= f(a,b) }] with

     f(a,b) = 4 + (ab - 2a - 2b - sqrt(ab(4-a)(4-b))) / 2,

   and Lemma 3.6 shows [f] is convex, which makes [S_rep] "incurved"
   (Lemma 3.7) — the property that powers the Variable Fixing Lemma. *)

module Rat = Lll_num.Rat

(* ------------------------------------------------------------------ *)
(* The boundary surface f                                              *)
(* ------------------------------------------------------------------ *)

let f a b =
  if a < 0. || b < 0. || a +. b > 4. +. 1e-9 then invalid_arg "Srep.f: need a,b >= 0, a+b <= 4";
  let disc = Float.max 0. (a *. b *. (4. -. a) *. (4. -. b)) in
  4. +. (0.5 *. ((a *. b) -. (2. *. a) -. (2. *. b) -. sqrt disc))

(* Violation of the Lemma 3.5 constraints: non-positive iff (a,b,c) is in
   S_rep (up to rounding). Used by the fixer to pick the least-bad value;
   Lemma 3.2 guarantees some value has violation <= 0. *)
let violation (a, b, c) =
  if a < 0. || b < 0. || c < 0. then infinity
  else if a +. b > 4. then Float.max (a +. b -. 4.) (c -. 4.)
  else c -. f a b

(* THE float tolerance of the library (see the .mli). Every default
   boundary test at the float layer — [mem], [is_valid_decomposition],
   the fixers' [pstar_holds], [Srep_r.representable] — uses this one
   value; exact decisions go through [mem_rat] / [Verify] instead. *)
let default_eps = 1e-6

let mem ?(eps = default_eps) t = violation t <= eps

(* ------------------------------------------------------------------ *)
(* Exact membership on rationals                                       *)
(* ------------------------------------------------------------------ *)

(* c <= f(a,b)  <=>  s := 8 + ab - 2a - 2b - 2c >= 0  and
   s^2 >= ab(4-a)(4-b): square-root-free, hence decidable exactly. *)
let mem_rat (a, b, c) =
  let open Rat in
  let four = of_int 4 in
  sign a >= 0 && sign b >= 0 && sign c >= 0
  && leq (add a b) four
  &&
  let s =
    sub (add (of_int 8) (mul a b)) (add (add (mul two a) (mul two b)) (mul two c))
  in
  let k = mul (mul a b) (mul (sub four a) (sub four b)) in
  sign s >= 0 && geq (mul s s) k

(* ------------------------------------------------------------------ *)
(* Constructive decomposition (proof of Lemma 3.5)                     *)
(* ------------------------------------------------------------------ *)

type 'a split = { a1 : 'a; a2 : 'a; b1 : 'a; b3 : 'a; c2 : 'a; c3 : 'a }
type decomposition = float split

let products d = (d.a1 *. d.a2, d.b1 *. d.b3, d.c2 *. d.c3)

let is_valid_decomposition ?(eps = default_eps) d =
  let in_range x = x >= -.eps && x <= 2. +. eps in
  in_range d.a1 && in_range d.a2 && in_range d.b1 && in_range d.b3 && in_range d.c2
  && in_range d.c3
  && d.a1 +. d.b1 <= 2. +. eps
  && d.a2 +. d.c2 <= 2. +. eps
  && d.b3 +. d.c3 <= 2. +. eps

let clamp lo hi x = Float.min hi (Float.max lo x)

(* c(x) = (2 - a/x)(2 - b/(2-x)) — the maximal c representable with
   [a1 = x] fixed (proof of Lemma 3.5). Unimodal on [a/2, 2 - b/2]. *)
let c_of_x ~a ~b x =
  if x <= 0. || x >= 2. then 0.
  else begin
    let c2 = 2. -. (a /. x) and c3 = 2. -. (b /. (2. -. x)) in
    if c2 < 0. || c3 < 0. then 0. else c2 *. c3
  end

(* Maximise the unimodal [c_of_x] by ternary search; robust for all
   [a, b > 0] including the [a = b] degeneracy of the closed-form critical
   point x1. A step depends only on [(lo, hi)], so once one leaves both
   bit patterns unchanged every later step would too: stopping there
   returns exactly what all 200 steps return (in practice after 87-104
   steps). *)
let best_x ~a ~b =
  let lo = ref (a /. 2.) and hi = ref (2. -. (b /. 2.)) in
  if !lo > !hi then begin
    let mid = 0.5 *. (!lo +. !hi) in
    lo := mid;
    hi := mid
  end;
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let steps = ref 200 in
  while !steps > 0 do
    let l = !lo and h = !hi in
    let m1 = l +. ((h -. l) /. 3.) and m2 = h -. ((h -. l) /. 3.) in
    if c_of_x ~a ~b m1 < c_of_x ~a ~b m2 then lo := m1 else hi := m2;
    if same l !lo && same h !hi then steps := 0 else decr steps
  done;
  0.5 *. (!lo +. !hi)

(* Decompose a triple of S_rep into witness values. Accepts small
   positive violations (float noise) by clamping [c] to the attainable
   maximum. The returned products are [(a, b, min c (f a b))] up to float
   rounding. *)
let decompose (a, b, c) =
  let a = clamp 0. 4. a and b = clamp 0. 4. b and c = clamp 0. 4. c in
  let b = Float.min b (4. -. a) in
  if a = 0. && b = 0. then { a1 = 0.; a2 = 0.; b1 = 0.; b3 = 0.; c2 = 2.; c3 = c /. 2. }
  else if a = 0. then
    (* c <= f(0,b) = 4 - b; pick c3 = c/2 <= 2 - b/2 *)
    { a1 = 0.; a2 = 0.; b1 = 2.; b3 = b /. 2.; c2 = 2.; c3 = clamp 0. 2. (c /. 2.) }
  else if b = 0. then { a1 = 2.; a2 = a /. 2.; b1 = 0.; b3 = 0.; c2 = clamp 0. 2. (c /. 2.); c3 = 2. }
  else begin
    let x = best_x ~a ~b in
    let x = clamp 1e-12 (2. -. 1e-12) x in
    let a1 = x in
    let a2 = clamp 0. 2. (a /. x) in
    let b1 = 2. -. x in
    let b3 = clamp 0. 2. (b /. (2. -. x)) in
    let c2max = Float.max 0. (2. -. a2) and c3 = Float.max 0. (2. -. b3) in
    let cmax = c2max *. c3 in
    let c = Float.min c cmax in
    let c2 = if cmax > 0. then c2max *. (c /. cmax) else 0. in
    { a1; a2; b1; b3; c2; c3 }
  end

(* ------------------------------------------------------------------ *)
(* Exact dyadic splits (the rank-3 fixer's write-back)                 *)
(* ------------------------------------------------------------------ *)

let dyadic_bits = 40

(* The dyadic rational nearest to [x] with denominator 2^40, kept in
   (0, 2]. *)
let dyadic_of_float x =
  let scale = 1 lsl dyadic_bits in
  let n = int_of_float (Float.round (x *. float_of_int scale)) in
  Rat.of_ints (max 1 (min (2 * scale) n)) scale

(* The sides a split x determines, as in [decompose]: c3 takes what
   edge {v, w} leaves, c2 the rest of c. *)
let split_at ~a ~b ~c x =
  let open Rat in
  let b1 = sub two x in
  let b3 = div b b1 in
  let c3 = sub two b3 in
  { a1 = x; a2 = div a x; b1; b3; c2 = (if is_zero c3 then zero else div c c3); c3 }

(* Definition 3.3, exactly: sides in [0, 2], the three edge sums at
   most 2, products reaching the triple. *)
let is_valid_split (a, b, c) d =
  let open Rat in
  let side x = sign x >= 0 && leq x two in
  let edge x y = leq (add x y) two in
  List.for_all side [ d.a1; d.a2; d.b1; d.b3; d.c2; d.c3 ]
  && edge d.a1 d.b1 && edge d.a2 d.c2 && edge d.b3 d.c3
  && geq (mul d.a1 d.a2) a && geq (mul d.b1 d.b3) b && geq (mul d.c2 d.c3) c

(* Exact split of a rational triple; None exactly when the triple is
   outside S_rep. A zero a or b has the rational witness [decompose]
   uses. Otherwise x = a1 is the first that works of: the dyadic x
   nearest the float optimum [best_x], the dyadic x within 32 steps of
   2^-20 either side of it, a/2, 2 - b/2, their midpoint, and the
   rational maximiser of P below. *)
let decompose_rat ((a, b, c) as t) =
  let open Rat in
  let corner d = if is_valid_split t d then Some d else None in
  if sign a < 0 || sign b < 0 || sign c < 0 then None
  else if is_zero a && is_zero b then
    corner { a1 = zero; a2 = zero; b1 = zero; b3 = zero; c2 = two; c3 = div c two }
  else if is_zero a then corner { a1 = zero; a2 = zero; b1 = two; b3 = div b two; c2 = two; c3 = div c two }
  else if is_zero b then corner { a1 = two; a2 = div a two; b1 = zero; b3 = zero; c2 = div c two; c3 = two }
  else begin
    (* Split x = a1 works iff x is in [a/2, 2 - b/2] and
       c x (2 - x) <= (2x - a)(2(2 - x) - b), i.e. c <= [c_of_x] x,
       i.e. P(x) >= 0 for the quadratic
       P(x) = (c - 4) x^2 + (8 + 2a - 2b - 2c) x + ab - 4a. *)
    let four = of_int 4 in
    let lo = div a two and hi = sub two (div b two) in
    let pa = sub c four and pb = sub (add (of_int 8) (mul two (sub a b))) (mul two c) in
    let pc = mul a (sub b four) in
    let p x = add (mul (add (mul pa x) pb) x) pc in
    let feasible x = geq x lo && leq x hi && sign (p x) >= 0 in
    let base = dyadic_of_float (best_x ~a:(to_float a) ~b:(to_float b)) in
    let step = of_ints 1 (1 lsl 20) in
    let rec search k =
      if k > 64 then None
      else begin
        let delta = mul (of_int ((k + 1) / 2)) step in
        let x = if k mod 2 = 0 then add base delta else sub base delta in
        if feasible x then Some x else search (k + 1)
      end
    in
    (* No split when c >= 4 or a + b > 4. Otherwise P is concave, so its
       maximum on [a/2, 2 - b/2] is at its vertex clamped to that
       interval, [top]. P(top) < 0: no split.
       P(top) = 0 (the triple is on the surface): top is the one split,
       so every search below would end at it. Otherwise top is a split
       the search falls back on. *)
    let x =
      if feasible base then Some base
      else if sign pa >= 0 || gt lo hi then None
      else begin
        let top = max lo (min hi (div pb (mul (of_int (-2)) pa))) in
        match sign (p top) with
        | -1 -> None
        | 0 -> Some top
        | _ -> (
          match search 1 with
          | Some _ as x -> x
          | None -> List.find_opt feasible [ lo; hi; div (add lo hi) two; top ])
      end
    in
    Option.map (split_at ~a ~b ~c) x
  end

(* [decompose] of the triple's float image, each side rounded down to
   the 2^-40 grid: pair sums stay at most 2 exactly, products may fall
   short of the triple. *)
let decompose_down (a, b, c) =
  let scale = 1 lsl dyadic_bits in
  let down x = Rat.of_ints (int_of_float (Float.max 0. x *. float_of_int scale)) scale in
  let d = decompose (Rat.to_float a, Rat.to_float b, Rat.to_float c) in
  { a1 = down d.a1; a2 = down d.a2; b1 = down d.b1; b3 = down d.b3; c2 = down d.c2; c3 = down d.c3 }

(* ------------------------------------------------------------------ *)
(* Hessian of f (appendix, proof of Lemma 3.6) — for the convexity      *)
(* experiment (F1) and property tests                                   *)
(* ------------------------------------------------------------------ *)

(* On the open domain {a, b > 0, a + b < 4}. *)
let hessian a b =
  if a <= 0. || b <= 0. || a +. b >= 4. then invalid_arg "Srep.hessian: open domain only";
  let aa = a *. (4. -. a) and bb = b *. (4. -. b) in
  let faa = 2. /. aa *. sqrt (bb /. aa) in
  let fbb = 2. /. bb *. sqrt (aa /. bb) in
  let fab = 0.5 -. ((2. -. a) *. (2. -. b) /. (2. *. sqrt (aa *. bb))) in
  (faa, fab, fbb)

let hessian_determinant a b =
  let faa, fab, fbb = hessian a b in
  (faa *. fbb) -. (fab *. fab)

(* Grid of the S_rep boundary surface for the Figure 1 reproduction:
   [(a, b, f a b)] over the triangle [a + b <= 4]. *)
let surface_grid ~steps =
  let pts = ref [] in
  for i = 0 to steps do
    for j = 0 to steps do
      let a = 4. *. float_of_int i /. float_of_int steps in
      let b = 4. *. float_of_int j /. float_of_int steps in
      if a +. b <= 4. +. 1e-12 then pts := (a, b, f a (Float.min b (4. -. a))) :: !pts
    done
  done;
  List.rev !pts

(* ------------------------------------------------------------------ *)
(* Random representable triples (for property tests)                    *)
(* ------------------------------------------------------------------ *)

(* Triples hugging the boundary surface: (a, b) uniform in the triangle,
   c = f(a,b) scaled by (1 ± eps). These are the hostile inputs for the
   fuzzer's geometry oracle — mem/decompose must agree right at the
   incurved surface, where float rounding has the least headroom. *)
let random_near_boundary ?(eps = 1e-3) rng =
  let a = Random.State.float rng 4.0 in
  let b = Random.State.float rng (4.0 -. a) in
  let scale = 1.0 +. Random.State.float rng (2.0 *. eps) -. eps in
  let c = Float.max 0. (f a b *. scale) in
  (a, b, c)

(* Sampling witness values directly guarantees representability. *)
let random_representable rng =
  let r2 () = Random.State.float rng 2.0 in
  let a1 = r2 () in
  let b1 = Random.State.float rng (2.0 -. a1) in
  let a2 = r2 () in
  let c2 = Random.State.float rng (2.0 -. a2) in
  let b3 = r2 () in
  let c3 = Random.State.float rng (2.0 -. b3) in
  (a1 *. a2, b1 *. b3, c2 *. c3)
