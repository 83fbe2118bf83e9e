(* Tests for the bignum substrate: Bigint and Rat. *)

module B = Lll_num.Bigint
module R = Lll_num.Rat

let bigint = Alcotest.testable B.pp B.equal
let rat = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_of_int_roundtrip () =
  List.iter
    (fun i -> Alcotest.(check (option int)) "roundtrip" (Some i) (B.to_int_opt (B.of_int i)))
    [ 0; 1; -1; 42; -42; 999_999_999; 1_000_000_000; -1_000_000_001; max_int; min_int + 1 ]

let test_of_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890"; "-999999999999999999999999" ]

let test_of_string_normalises () =
  Alcotest.check bigint "leading zeros" (B.of_int 7) (B.of_string "007");
  Alcotest.check bigint "plus sign" (B.of_int 7) (B.of_string "+7");
  Alcotest.check bigint "minus zero" B.zero (B.of_string "-0")

let test_of_string_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty") (fun () ->
      ignore (B.of_string ""));
  (try
     ignore (B.of_string "12x4");
     Alcotest.fail "accepted garbage"
   with Invalid_argument _ -> ());
  (* a sign is accepted only in the first position *)
  List.iter
    (fun s ->
      try
        ignore (B.of_string s);
        Alcotest.fail (Printf.sprintf "accepted %S" s)
      with Invalid_argument _ -> ())
    [ "1-2"; "--3"; "5-"; "+-5" ]

let test_add_carry () =
  Alcotest.check bigint "carry chain"
    (B.of_string "1000000000000000000")
    (B.add (B.of_string "999999999999999999") B.one)

let test_sub_borrow () =
  Alcotest.check bigint "borrow chain"
    (B.of_string "999999999999999999")
    (B.sub (B.of_string "1000000000000000000") B.one)

let test_mul_big () =
  Alcotest.check bigint "schoolbook"
    (B.of_string "121932631137021795226185032733622923332237463801111263526900")
    (B.mul
       (B.of_string "123456789012345678901234567890")
       (B.of_string "987654321098765432109876543210"))

let test_divmod_exact () =
  let a = B.of_string "121932631137021795226185032733622923332237463801111263526900" in
  let b = B.of_string "123456789012345678901234567890" in
  let q, r = B.divmod a b in
  Alcotest.check bigint "q" (B.of_string "987654321098765432109876543210") q;
  Alcotest.check bigint "r" B.zero r

let test_divmod_signs () =
  (* truncated division, like OCaml's / and mod *)
  let check (x, y, q, r) =
    let q', r' = B.divmod (B.of_int x) (B.of_int y) in
    Alcotest.check bigint (Printf.sprintf "%d/%d q" x y) (B.of_int q) q';
    Alcotest.check bigint (Printf.sprintf "%d/%d r" x y) (B.of_int r) r'
  in
  List.iter check [ (7, 2, 3, 1); (-7, 2, -3, -1); (7, -2, -3, 1); (-7, -2, 3, -1) ]

let test_div_by_zero () =
  Alcotest.check_raises "div0" (Invalid_argument "Bigint.divmod: division by zero") (fun () ->
      ignore (B.divmod B.one B.zero))

let test_ediv_rem () =
  let q, r = B.ediv_rem (B.of_int (-7)) (B.of_int 2) in
  Alcotest.check bigint "eq" (B.of_int (-4)) q;
  Alcotest.check bigint "er" (B.of_int 1) r;
  let q, r = B.ediv_rem (B.of_int (-7)) (B.of_int (-2)) in
  Alcotest.check bigint "eq neg" (B.of_int 4) q;
  Alcotest.check bigint "er neg" (B.of_int 1) r

let test_gcd () =
  Alcotest.check bigint "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  Alcotest.check bigint "gcd 0" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  Alcotest.check bigint "gcd 0 0" B.zero (B.gcd B.zero B.zero)

let test_pow () =
  Alcotest.check bigint "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow B.two 100);
  Alcotest.check bigint "x^0" B.one (B.pow (B.of_int 12345) 0);
  Alcotest.check_raises "neg exp" (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_to_int_overflow () =
  Alcotest.(check (option int)) "too big" None (B.to_int_opt (B.pow B.two 80));
  Alcotest.(check (option int)) "max_int fits" (Some max_int) (B.to_int_opt (B.of_int max_int))

let test_compare_order () =
  let xs = List.map B.of_string [ "-100"; "-1"; "0"; "1"; "99"; "1000000000000" ] in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          Alcotest.(check int)
            (Printf.sprintf "cmp %d %d" i j)
            (compare i j)
            (B.compare x y))
        xs)
    xs

let test_num_digits () =
  Alcotest.(check int) "0" 1 (B.num_digits B.zero);
  Alcotest.(check int) "999999999" 9 (B.num_digits (B.of_int 999_999_999));
  Alcotest.(check int) "10^9" 10 (B.num_digits (B.of_int 1_000_000_000));
  Alcotest.(check int) "2^100" 31 (B.num_digits (B.pow B.two 100))

let test_limb_boundaries () =
  (* carries across the 10^9 limb boundary *)
  let b = B.of_int 999_999_999 in
  Alcotest.check bigint "limb+1" (B.of_int 1_000_000_000) (B.add b B.one);
  Alcotest.check bigint "limb^2" (B.of_string "999999998000000001") (B.mul b b);
  let big = B.of_string "1000000000000000000" in
  Alcotest.check bigint "borrow to limb" b (B.sub big (B.sub big b))

let test_min_max_abs () =
  Alcotest.check bigint "min" (B.of_int (-5)) (B.min (B.of_int (-5)) (B.of_int 3));
  Alcotest.check bigint "max" (B.of_int 3) (B.max (B.of_int (-5)) (B.of_int 3));
  Alcotest.check bigint "abs" (B.of_int 5) (B.abs (B.of_int (-5)));
  Alcotest.(check int) "sign neg" (-1) (B.sign (B.of_int (-7)));
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero)

let test_pow_edge_cases () =
  Alcotest.check bigint "0^0" B.one (B.pow B.zero 0);
  Alcotest.check bigint "0^5" B.zero (B.pow B.zero 5);
  Alcotest.check bigint "(-2)^3" (B.of_int (-8)) (B.pow (B.of_int (-2)) 3);
  Alcotest.check bigint "(-2)^4" (B.of_int 16) (B.pow (B.of_int (-2)) 4)

let test_hash_consistency () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.mul (B.of_string "123456789012345678901234567890") B.one in
  Alcotest.(check bool) "equal values equal hashes" true (B.hash a = B.hash b)

let test_division_fast_vs_slow_path () =
  (* the single-limb fast path must agree with the general path; force
     the general path through a 2-limb divisor with the same value scaled *)
  let a = B.of_string "987654321987654321987654321" in
  let small = B.of_int 97 in
  let q1, r1 = B.divmod a small in
  (* sanity against integer reconstruction *)
  Alcotest.check bigint "reconstruct" a (B.add (B.mul q1 small) r1);
  let multi = B.of_string "1000000007000000009" in
  let q2, r2 = B.divmod a multi in
  Alcotest.check bigint "reconstruct multi" a (B.add (B.mul q2 multi) r2);
  Alcotest.(check bool) "remainder bounded" true (B.lt (B.abs r2) multi)

(* ------------------------------------------------------------------ *)
(* Bigint properties                                                    *)
(* ------------------------------------------------------------------ *)

(* random bigints with up to ~50 decimal digits *)
let gen_bigint =
  QCheck.Gen.(
    let* small = int_range (-1000) 1000 in
    let* big_digits = int_range 1 50 in
    let* digits = list_size (return big_digits) (int_range 0 9) in
    let* neg = bool in
    let* pick = int_range 0 2 in
    match pick with
    | 0 -> return (B.of_int small)
    | _ ->
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if s = "" then "0" else s in
      return (if neg then B.neg (B.of_string s) else B.of_string s))

let arb_bigint = QCheck.make ~print:B.to_string gen_bigint

let prop name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let bigint_props =
  [
    prop "add commutative" 500
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) -> B.equal (B.add a b) (B.add b a));
    prop "add associative" 500
      (QCheck.triple arb_bigint arb_bigint arb_bigint)
      (fun (a, b, c) -> B.equal (B.add (B.add a b) c) (B.add a (B.add b c)));
    prop "mul commutative" 300
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) -> B.equal (B.mul a b) (B.mul b a));
    prop "mul associative" 200
      (QCheck.triple arb_bigint arb_bigint arb_bigint)
      (fun (a, b, c) -> B.equal (B.mul (B.mul a b) c) (B.mul a (B.mul b c)));
    prop "distributivity" 300
      (QCheck.triple arb_bigint arb_bigint arb_bigint)
      (fun (a, b, c) -> B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "sub inverse" 500
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) -> B.equal (B.add (B.sub a b) b) a);
    prop "neg involutive" 500 arb_bigint (fun a -> B.equal a (B.neg (B.neg a)));
    prop "string roundtrip" 500 arb_bigint (fun a -> B.equal a (B.of_string (B.to_string a)));
    prop "divmod law" 500
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r)
        && B.lt (B.abs r) (B.abs b)
        && (B.is_zero r || B.sign r = B.sign a));
    prop "ediv law" 500
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.ediv_rem a b in
        B.equal a (B.add (B.mul q b) r) && B.sign r >= 0 && B.lt r (B.abs b));
    prop "gcd divides" 300
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "compare antisymmetric" 500
      (QCheck.pair arb_bigint arb_bigint)
      (fun (a, b) -> B.compare a b = -B.compare b a);
    prop "to_float sign" 500 arb_bigint (fun a ->
        let f = B.to_float a in
        (B.sign a > 0 && f > 0.) || (B.sign a < 0 && f < 0.) || (B.is_zero a && f = 0.));
  ]

(* ------------------------------------------------------------------ *)
(* Rat unit tests                                                       *)
(* ------------------------------------------------------------------ *)

let test_rat_normalisation () =
  Alcotest.check rat "6/4 = 3/2" (R.of_ints 3 2) (R.of_ints 6 4);
  Alcotest.check rat "neg den" (R.of_ints (-1) 2) (R.of_ints 1 (-2));
  Alcotest.(check string) "printing" "3/2" (R.to_string (R.of_ints 6 4));
  Alcotest.(check string) "integer prints bare" "5" (R.to_string (R.of_ints 5 1))

let test_rat_arith () =
  Alcotest.check rat "1/2 + 1/3" (R.of_ints 5 6) (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.check rat "1/2 * 2/3" (R.of_ints 1 3) (R.mul (R.of_ints 1 2) (R.of_ints 2 3));
  Alcotest.check rat "1/2 - 1/3" (R.of_ints 1 6) (R.sub (R.of_ints 1 2) (R.of_ints 1 3));
  Alcotest.check rat "div" (R.of_ints 3 2) (R.div (R.of_ints 1 2) (R.of_ints 1 3))

let test_rat_pow2 () =
  Alcotest.check rat "2^-3" (R.of_ints 1 8) (R.pow2 (-3));
  Alcotest.check rat "2^4" (R.of_int 16) (R.pow2 4);
  Alcotest.check rat "2^0" R.one (R.pow2 0)

let test_rat_pow () =
  Alcotest.check rat "neg pow" (R.of_ints 9 4) (R.pow (R.of_ints 2 3) (-2));
  Alcotest.check rat "pow 0" R.one (R.pow (R.of_ints 2 3) 0)

let test_rat_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.lt (R.of_ints 1 3) (R.of_ints 1 2));
  Alcotest.(check bool) "-1/2 < 1/3" true (R.lt (R.of_ints (-1) 2) (R.of_ints 1 3));
  Alcotest.(check bool) "2^-d exact" true (R.lt (R.of_ints 1 9) (R.pow2 (-3)))

let test_rat_of_string () =
  Alcotest.check rat "frac" (R.of_ints 22 7) (R.of_string "22/7");
  Alcotest.check rat "int" (R.of_int (-3)) (R.of_string "-3");
  Alcotest.check rat "non-normalised" (R.of_ints 1 2) (R.of_string "50/100")

let test_rat_sum_product () =
  Alcotest.check rat "sum" R.one (R.sum [ R.of_ints 1 2; R.of_ints 1 3; R.of_ints 1 6 ]);
  Alcotest.check rat "product" (R.of_ints 1 6) (R.product [ R.of_ints 1 2; R.of_ints 1 3 ])

let test_rat_guards () =
  Alcotest.check_raises "make 0 den" (Invalid_argument "Rat.make: zero denominator") (fun () ->
      ignore (R.make Lll_num.Bigint.one Lll_num.Bigint.zero));
  Alcotest.check_raises "div 0" (Invalid_argument "Rat.div: division by zero") (fun () ->
      ignore (R.div R.one R.zero));
  Alcotest.check_raises "inv 0" (Invalid_argument "Rat.inv: zero") (fun () -> ignore (R.inv R.zero))

let test_rat_min_max_abs () =
  Alcotest.check rat "min" (R.of_ints (-1) 2) (R.min (R.of_ints (-1) 2) (R.of_ints 1 3));
  Alcotest.check rat "max" (R.of_ints 1 3) (R.max (R.of_ints (-1) 2) (R.of_ints 1 3));
  Alcotest.check rat "abs" (R.of_ints 1 2) (R.abs (R.of_ints (-1) 2));
  Alcotest.check rat "neg" (R.of_ints 1 2) (R.neg (R.of_ints (-1) 2));
  Alcotest.(check int) "sign" (-1) (R.sign (R.of_ints (-3) 7))

let test_rat_negative_denominator () =
  Alcotest.check rat "normalised" (R.of_ints (-2) 3) (R.of_ints 2 (-3));
  Alcotest.(check bool) "den positive" true (Lll_num.Bigint.sign (R.den (R.of_ints 2 (-3))) = 1)

let test_rat_large_pow2 () =
  let p = R.pow2 (-200) in
  Alcotest.(check bool) "tiny but positive" true (R.sign p = 1);
  Alcotest.check rat "inverse" (R.pow2 200) (R.inv p);
  Alcotest.check rat "product" R.one (R.mul p (R.pow2 200))

(* ------------------------------------------------------------------ *)
(* Rat properties                                                       *)
(* ------------------------------------------------------------------ *)

let gen_rat =
  QCheck.Gen.(
    let* n = int_range (-10_000) 10_000 in
    let* d = int_range 1 10_000 in
    return (R.of_ints n d))

let arb_rat = QCheck.make ~print:R.to_string gen_rat

let rat_props =
  [
    prop "field add comm" 500 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        R.equal (R.add a b) (R.add b a));
    prop "field distrib" 300 (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
        R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)));
    prop "mul inverse" 500 arb_rat (fun a ->
        QCheck.assume (not (R.is_zero a));
        R.equal R.one (R.mul a (R.inv a)));
    prop "sub then add" 500 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        R.equal a (R.add (R.sub a b) b));
    prop "den positive" 500 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Lll_num.Bigint.sign (R.den (R.mul a b)) = 1);
    prop "normalised" 500 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        let x = R.add a b in
        Lll_num.Bigint.equal (Lll_num.Bigint.gcd (R.num x) (R.den x)) Lll_num.Bigint.one
        || R.is_zero x);
    prop "to_float approx" 500 arb_rat (fun a ->
        let f = R.to_float a in
        Float.abs (f -. (Lll_num.Bigint.to_float (R.num a) /. Lll_num.Bigint.to_float (R.den a)))
        <= 1e-9 *. (1. +. Float.abs f));
    prop "string roundtrip" 500 arb_rat (fun a -> R.equal a (R.of_string (R.to_string a)));
    prop "compare total order" 300 (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
        (not (R.leq a b && R.leq b c)) || R.leq a c);
    prop "pow2 consistency" 100 (QCheck.make QCheck.Gen.(int_range (-60) 60)) (fun e ->
        R.equal (R.mul (R.pow2 e) (R.pow2 (-e))) R.one);
  ]

(* ------------------------------------------------------------------ *)
(* Rat boundary differential                                            *)
(* ------------------------------------------------------------------ *)

(* A Bigint-only reference: normalised (num, den) pairs, den > 0. Rat
   keeps values that fit native ints in a machine-int form and computes
   on them natively below a 2^30 guard; this model has no such form,
   so every disagreement at the form and guard boundaries shows up. *)
module Ref = struct
  let norm n d =
    let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
    if B.is_zero n then (B.zero, B.one)
    else
      let g = B.gcd n d in
      (B.div n g, B.div d g)

  let of_ints n d = norm (B.of_int n) (B.of_int d)
  let add (a, b) (c, d) = norm (B.add (B.mul a d) (B.mul c b)) (B.mul b d)
  let sub (a, b) (c, d) = norm (B.sub (B.mul a d) (B.mul c b)) (B.mul b d)
  let mul (a, b) (c, d) = norm (B.mul a c) (B.mul b d)
  let div (a, b) (c, d) = norm (B.mul a d) (B.mul b c)
  let compare (a, b) (c, d) = B.compare (B.mul a d) (B.mul c b)
  let pow (a, b) k = if k >= 0 then norm (B.pow a k) (B.pow b k) else norm (B.pow b (-k)) (B.pow a (-k))
  let to_float (a, b) = B.to_float a /. B.to_float b
  let to_string (a, b) = if B.equal b B.one then B.to_string a else B.to_string a ^ "/" ^ B.to_string b
end

let p30 = 1 lsl 30
let p53 = 1 lsl 53

(* numerators and denominators at the form and guard boundaries *)
let boundary_ints =
  let pos = [ 1; p30 - 1; p30; p30 + 1; p53 - 1; p53; p53 + 1; max_int ] in
  (0 :: pos) @ List.map (fun i -> -i) pos @ [ min_int ]

let boundary_dens = [ 1; -1; 3; p30 - 1; p30 + 1; -(p53 + 1); max_int; min_int + 1; min_int ]

(* every boundary fraction, fractions with all sides just past the
   guard (a guard loosened to 2^31 would overflow their cross-product
   sums), and products that cross the guard *)
let boundary_rats =
  let fracs = List.map (fun (n, d) -> (R.of_ints n d, Ref.of_ints n d)) in
  let base = fracs (List.concat_map (fun n -> List.map (fun d -> (n, d)) boundary_dens) boundary_ints) in
  let p31 = 2 * p30 in
  let past_guard = fracs [ (p31 - 1, p31 - 2); (p31 - 3, p31 - 1); (-(p31 - 1), p31 - 2) ] in
  let crossing =
    List.map
      (fun (a, b, c, d) -> (R.mul (R.of_ints a b) (R.of_ints c d), Ref.mul (Ref.of_ints a b) (Ref.of_ints c d)))
      [
        (p30 - 1, 1, p30 - 1, 1);
        (p30 + 1, 3, p30 - 1, 7);
        (1, p30 - 1, 1, p30 + 1);
        (p53 + 1, p30 + 1, p30 + 1, p53 + 1);
        (max_int, 2, 2, max_int);
        (-(p30 - 1), p53 - 1, p30 + 1, 3);
      ]
  in
  base @ past_guard @ crossing

let same_as_ref what r (n, d) =
  if not (B.equal (R.num r) n && B.equal (R.den r) d) then
    Alcotest.failf "%s: got %s, reference %s" what (R.to_string r) (Ref.to_string (n, d))

let test_rat_boundary_unary () =
  List.iter
    (fun (r, ((n, d) as q)) ->
      let what = Ref.to_string q in
      same_as_ref what r q;
      Alcotest.(check string) (what ^ " to_string") (Ref.to_string q) (R.to_string r);
      Alcotest.(check bool) (what ^ " of_string canonical") true (R.of_string (R.to_string r) = r);
      Alcotest.(check bool) (what ^ " num/den round trip") true (R.make (R.num r) (R.den r) = r);
      Alcotest.(check int64)
        (what ^ " to_float bits")
        (Int64.bits_of_float (Ref.to_float q))
        (Int64.bits_of_float (R.to_float r));
      Alcotest.(check (option (pair int int)))
        (what ^ " to_ints_opt")
        (match (B.to_int_opt n, B.to_int_opt d) with Some n, Some d -> Some (n, d) | _ -> None)
        (R.to_ints_opt r);
      (* the same value reached through Bigint gcd must take the same form *)
      let k = B.pow B.two 70 in
      Alcotest.(check bool) (what ^ " canonical via Bigint") true (R.make (B.mul n k) (B.mul d k) = r);
      Alcotest.(check int) (what ^ " hash") (R.hash (R.make (B.mul n k) (B.mul d k))) (R.hash r);
      List.iter
        (fun k ->
          if k >= 0 || not (R.is_zero r) then
            same_as_ref (Printf.sprintf "(%s)^%d" what k) (R.pow r k) (Ref.pow q k))
        [ -2; -1; 0; 1; 2; 3 ])
    boundary_rats

let test_rat_boundary_binary () =
  List.iter
    (fun (x, qx) ->
      List.iter
        (fun (y, qy) ->
          let what op = Printf.sprintf "%s %s %s" (Ref.to_string qx) op (Ref.to_string qy) in
          same_as_ref (what "+") (R.add x y) (Ref.add qx qy);
          same_as_ref (what "-") (R.sub x y) (Ref.sub qx qy);
          same_as_ref (what "*") (R.mul x y) (Ref.mul qx qy);
          if not (R.is_zero y) then begin
            let q = R.div x y in
            same_as_ref (what "/") q (Ref.div qx qy);
            if R.equal x y then Alcotest.(check bool) (what "/ canonical") true (q = R.one)
          end;
          Alcotest.(check int) (what "cmp") (Ref.compare qx qy) (R.compare x y);
          Alcotest.(check bool) (what "=") (Ref.compare qx qy = 0) (R.equal x y);
          Alcotest.(check bool) (what "= structural") (R.equal x y) (x = y))
        boundary_rats)
    boundary_rats

(* [to_float] on the machine-int form must keep the bits of the limb
   formula over the whole int range, not only where ints are exact *)
let prop_to_float_bits =
  prop "to_float bits over the int range" 2000
    (QCheck.pair QCheck.int QCheck.int)
    (fun (n, d) ->
      QCheck.assume (d <> 0);
      Int64.bits_of_float (R.to_float (R.of_ints n d))
      = Int64.bits_of_float (Ref.to_float (Ref.of_ints n d)))

let test_rat_min_int_of_ints () =
  let b = B.of_int min_int in
  Alcotest.(check string) "min_int/1" (B.to_string b) (R.to_string (R.of_ints min_int 1));
  Alcotest.(check (option (pair int int))) "min_int keeps Bigint form" None (R.to_ints_opt (R.of_int min_int));
  Alcotest.(check bool) "min_int/min_int = 1" true (R.of_ints min_int min_int = R.one);
  Alcotest.(check bool) "min_int/2 narrows" true (R.of_ints min_int 2 = R.of_ints (-(1 lsl 61)) 1);
  Alcotest.(check bool) "1/min_int" true (R.of_ints 1 min_int = R.neg (R.make B.one (B.neg b)));
  Alcotest.(check bool) "neg (min_int/1) leaves the int range" true (R.to_ints_opt (R.neg (R.of_int min_int)) = None);
  Alcotest.(check bool) "-max_int - 1 = min_int" true (R.sub (R.of_int (-max_int)) R.one = R.of_int min_int)

let () =
  Alcotest.run "lll_num"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "of_string normalises" `Quick test_of_string_normalises;
          Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
          Alcotest.test_case "add carry" `Quick test_add_carry;
          Alcotest.test_case "sub borrow" `Quick test_sub_borrow;
          Alcotest.test_case "mul big" `Quick test_mul_big;
          Alcotest.test_case "divmod exact" `Quick test_divmod_exact;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "ediv_rem" `Quick test_ediv_rem;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "compare order" `Quick test_compare_order;
          Alcotest.test_case "num_digits" `Quick test_num_digits;
          Alcotest.test_case "limb boundaries" `Quick test_limb_boundaries;
          Alcotest.test_case "min/max/abs/sign" `Quick test_min_max_abs;
          Alcotest.test_case "pow edge cases" `Quick test_pow_edge_cases;
          Alcotest.test_case "hash consistency" `Quick test_hash_consistency;
          Alcotest.test_case "division fast vs slow path" `Quick test_division_fast_vs_slow_path;
        ] );
      ("bigint-properties", bigint_props);
      ( "rat",
        [
          Alcotest.test_case "normalisation" `Quick test_rat_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "pow2" `Quick test_rat_pow2;
          Alcotest.test_case "pow" `Quick test_rat_pow;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "sum/product" `Quick test_rat_sum_product;
          Alcotest.test_case "guards" `Quick test_rat_guards;
          Alcotest.test_case "min/max/abs/neg" `Quick test_rat_min_max_abs;
          Alcotest.test_case "negative denominator" `Quick test_rat_negative_denominator;
          Alcotest.test_case "large pow2" `Quick test_rat_large_pow2;
        ] );
      ("rat-properties", rat_props);
      ( "rat-boundary",
        [
          Alcotest.test_case "unary and conversions vs Bigint model" `Quick test_rat_boundary_unary;
          Alcotest.test_case "binary ops vs Bigint model" `Quick test_rat_boundary_binary;
          Alcotest.test_case "of_ints with min_int" `Quick test_rat_min_int_of_ints;
          prop_to_float_bits;
        ] );
    ]
