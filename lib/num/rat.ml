(* Exact rational numbers over [Bigint], with a machine-int form.

   Invariant: a value is in lowest terms with a strictly positive
   denominator, and its form is canonical —
   - [Small (n, d)] whenever both [n] and [d] fit a native int other
     than [min_int] (zero is [Small (0, 1)]);
   - [Big (num, den)] only when at least one side does not.
   So equal values are structurally equal, and [equal], [compare],
   [to_string] and [hash] read values, not how a value was built.
   [Bigint.to_int_opt] accepts exactly the ints other than [min_int],
   which is how Bigint results are narrowed back to [Small]. *)

type t = Small of int * int | Big of Bigint.t * Bigint.t

let zero = Small (0, 1)
let one = Small (1, 1)
let two = Small (2, 1)
let minus_one = Small (-1, 1)

let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* Normalise a machine-int fraction with native Euclid; [d > 0] and
   neither side is [min_int]. *)
let make_ints n d =
  if n = 0 then zero
  else
    let g = igcd (Stdlib.abs n) d in
    if g = 1 then Small (n, d) else Small (n / g, d / g)

(* The canonical form of a lowest-terms pair with [den > 0]. *)
let narrow num den =
  match (Bigint.to_int_opt num, Bigint.to_int_opt den) with
  | Some n, Some d -> Small (n, d)
  | _ -> Big (num, den)

let make num den =
  if Bigint.is_zero den then invalid_arg "Rat.make: zero denominator";
  match (Bigint.to_int_opt num, Bigint.to_int_opt den) with
  | Some n, Some d -> if d < 0 then make_ints (-n) (-d) else make_ints n d
  | _ ->
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den)
    in
    let g = Bigint.gcd num den in
    (* a side that does not fit still does not fit after a sign flip *)
    if Bigint.equal g Bigint.one then Big (num, den)
    else narrow (Bigint.div num g) (Bigint.div den g)

let of_bigint n = narrow n Bigint.one
let of_int i = if i = min_int then Big (Bigint.of_int i, Bigint.one) else Small (i, 1)

let of_ints n d =
  if d = 0 then invalid_arg "Rat.make: zero denominator"
  else if n = min_int || d = min_int then make (Bigint.of_int n) (Bigint.of_int d)
  else if d < 0 then make_ints (-n) (-d)
  else make_ints n d

let to_ints_opt = function Small (n, d) -> Some (n, d) | Big _ -> None
let num = function Small (n, _) -> Bigint.of_int n | Big (n, _) -> n
let den = function Small (_, d) -> Bigint.of_int d | Big (_, d) -> d
let is_zero = function Small (n, _) -> n = 0 | Big _ -> false
let sign = function Small (n, _) -> Stdlib.compare n 0 | Big (n, _) -> Bigint.sign n

(* [Bigint.to_int_opt] is symmetric in sign, so negation keeps the form *)
let neg = function Small (n, d) -> Small (-n, d) | Big (n, d) -> Big (Bigint.neg n, d)
let abs = function Small (n, d) -> Small (Stdlib.abs n, d) | Big (n, d) -> Big (Bigint.abs n, d)

(* Native path for the ring operations: when all four sides lie below
   the 2^30 guard the cross-products stay below 2^60 (their sum below
   2^61), so native arithmetic and [make_ints]' native gcd replace the
   Bigint round trip. Table weights and tracker sums live in this
   range; anything larger goes through Bigint and [make] narrows the
   result back to [Small] when it fits. *)
let small = 0x4000_0000
let[@inline] guarded n d = -small < n && n < small && d < small

(* Same-denominator fast path: a/d + b/d = (a+b)/d — one gcd over much
   smaller operands than the cross-multiplied form. Probability sums in
   the tracker hot loops overwhelmingly add same-table weights
   (identical denominators), where this saves two multiplications. *)
let add x y =
  match (x, y) with
  | Small (a, b), Small (c, d) when guarded a b && guarded c d ->
    if b = d then make_ints (a + c) b else make_ints ((a * d) + (c * b)) (b * d)
  | _ ->
    let xd = den x and yd = den y in
    if Bigint.equal xd yd then make (Bigint.add (num x) (num y)) xd
    else make (Bigint.add (Bigint.mul (num x) yd) (Bigint.mul (num y) xd)) (Bigint.mul xd yd)

let sub x y = add x (neg y)

let mul x y =
  match (x, y) with
  | Small (a, b), Small (c, d) when guarded a b && guarded c d -> make_ints (a * c) (b * d)
  | _ -> make (Bigint.mul (num x) (num y)) (Bigint.mul (den x) (den y))

let inv x =
  match x with
  | Small (0, _) -> invalid_arg "Rat.inv: zero"
  | Small (n, d) -> if n < 0 then Small (-d, -n) else Small (d, n)
  | Big (n, d) -> make d n

let div x y =
  match (x, y) with
  | _, Small (0, _) -> invalid_arg "Rat.div: division by zero"
  | Small (a, b), Small (c, d) when guarded a b && guarded c d ->
    if c < 0 then make_ints (-(a * d)) (-(b * c)) else make_ints (a * d) (b * c)
  | _ -> make (Bigint.mul (num x) (den y)) (Bigint.mul (den x) (num y))

let compare x y =
  match (x, y) with
  | Small (a, b), Small (c, d) when guarded a b && guarded c d -> Stdlib.compare (a * d) (c * b)
  | _ -> Bigint.compare (Bigint.mul (num x) (den y)) (Bigint.mul (num y) (den x))

let equal x y =
  match (x, y) with
  | Small (a, b), Small (c, d) -> a = c && b = d
  | Big (a, b), Big (c, d) -> Bigint.equal a c && Bigint.equal b d
  | _ -> false

let lt x y = compare x y < 0
let leq x y = compare x y <= 0
let gt x y = compare x y > 0
let geq x y = compare x y >= 0
let min x y = if leq x y then x else y
let max x y = if geq x y then x else y

let pow x n =
  if n >= 0 then narrow (Bigint.pow (num x) n) (Bigint.pow (den x) n)
  else begin
    if is_zero x then invalid_arg "Rat.pow: zero to negative power";
    make (Bigint.pow (den x) (-n)) (Bigint.pow (num x) (-n))
  end

let sum = List.fold_left add zero
let product = List.fold_left mul one

(* [float_of_int] gives the bits of [Bigint.to_float] on every int
   other than [min_int]: the limb formula (l2·10^9 + l1)·10^9 + l0 is
   exact up to its last addition, because (l2·10^9 + l1)·5^9 < 2^53,
   so it rounds once, to nearest, just as [float_of_int] does. *)
let to_float = function
  | Small (n, d) -> float_of_int n /. float_of_int d
  | Big (n, d) -> Bigint.to_float n /. Bigint.to_float d

let to_string = function
  | Small (n, 1) -> string_of_int n
  | Small (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big (n, d) ->
    if Bigint.equal d Bigint.one then Bigint.to_string n
    else Bigint.to_string n ^ "/" ^ Bigint.to_string d

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
    make (Bigint.of_string (String.sub s 0 i)) (Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let pp fmt x = Format.pp_print_string fmt (to_string x)

(* canonical forms: structural hashing is a hash of the value *)
let hash (x : t) = Hashtbl.hash x

(* 2^-e as a rational, e >= 0 *)
let pow2 e =
  if e >= 0 then of_bigint (Bigint.pow Bigint.two e) else narrow Bigint.one (Bigint.pow Bigint.two (-e))
