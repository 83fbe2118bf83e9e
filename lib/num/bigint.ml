(* Arbitrary-precision signed integers.

   Representation: sign-magnitude. The magnitude is a little-endian array of
   base-[base] limbs ([base] = 10^9), with no trailing zero limb; zero is the
   empty array with sign [0]. All limbs fit comfortably in OCaml's native
   63-bit integers, so limb products ([< 10^18]) never overflow. *)

type t = { sign : int; (* -1, 0 or 1 *) mag : int array (* little-endian, no trailing 0 *) }

let base = 1_000_000_000
let base_digits = 9

let zero = { sign = 0; mag = [||] }
let is_zero x = x.sign = 0
let sign x = x.sign

(* ---- normalisation helpers ---- *)

let trim mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = trim mag in
  if Array.length mag = 0 then zero else { sign; mag }

(* ---- construction ---- *)

(* At most three limbs ([max_int] < 10^27). [min_int] has no positive
   counterpart, so each limb is negated separately: [i mod base] and
   [i / base] keep the sign of [i]. *)
let of_int i =
  if i = 0 then zero
  else begin
    let sign = if i < 0 then -1 else 1 in
    let l0 = abs (i mod base) and i = i / base in
    if i = 0 then { sign; mag = [| l0 |] }
    else
      let l1 = abs (i mod base) and i = i / base in
      if i = 0 then { sign; mag = [| l0; l1 |] } else { sign; mag = [| l0; l1; abs i |] }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

(* ---- magnitude comparisons and arithmetic ---- *)

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = !carry + (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) in
    if s >= base then begin
      r.(i) <- s - base;
      carry := 1
    end
    else begin
      r.(i) <- s;
      carry := 0
    end
  done;
  trim r

(* requires |a| >= |b| *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - !borrow - (if i < lb then b.(i) else 0) in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  trim r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur mod base;
        carry := cur / base
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur mod base;
        carry := cur / base;
        incr k
      done
    done;
    trim r
  end

(* magnitude times a small non-negative int (< base) *)
let mag_mul_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur mod base;
      carry := cur / base
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry mod base;
      carry := !carry / base;
      incr k
    done;
    trim r
  end

(* ---- signed arithmetic ---- *)

let neg x = if x.sign = 0 then zero else { x with sign = -x.sign }

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (mag_add x.mag y.mag)
  else begin
    let c = mag_compare x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then make x.sign (mag_sub x.mag y.mag)
    else make y.sign (mag_sub y.mag x.mag)
  end

let sub x y = add x (neg y)
let mul x y = if x.sign = 0 || y.sign = 0 then zero else make (x.sign * y.sign) (mag_mul x.mag y.mag)

let compare x y =
  if x.sign <> y.sign then Stdlib.compare x.sign y.sign
  else if x.sign >= 0 then mag_compare x.mag y.mag
  else mag_compare y.mag x.mag

let equal x y = compare x y = 0
let lt x y = compare x y < 0
let leq x y = compare x y <= 0
let gt x y = compare x y > 0
let geq x y = compare x y >= 0
let abs x = if x.sign < 0 then neg x else x
let min x y = if leq x y then x else y
let max x y = if geq x y then x else y

(* ---- division ----

   Schoolbook long division processing limbs most-significant first; each
   quotient limb is found by binary search, which keeps the code simple and
   obviously correct at the cost of a [log base] factor. Our integers stay
   small (hundreds of digits), so this is plenty fast. *)

(* Fast path: divisor fits in one limb — classic long division with native
   arithmetic (the remainder [r * base + digit] stays below [base^2], well
   within 63-bit ints). *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r * base) + a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (trim q, if !r = 0 then [||] else [| !r |])

let mag_divmod a b =
  if Array.length b = 0 then invalid_arg "Bigint: division by zero";
  if mag_compare a b < 0 then ([||], a)
  else if Array.length b = 1 then mag_divmod_small a b.(0)
  else begin
    let la = Array.length a in
    let q = Array.make la 0 in
    let rem = ref [||] in
    for i = la - 1 downto 0 do
      (* rem := rem * base + a.(i) *)
      let shifted =
        let lr = Array.length !rem in
        let r = Array.make (lr + 1) 0 in
        Array.blit !rem 0 r 1 lr;
        r.(0) <- a.(i);
        trim r
      in
      rem := shifted;
      (* binary search for the largest d with b * d <= rem *)
      let lo = ref 0 and hi = ref (base - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if mag_compare (mag_mul_small b mid) !rem <= 0 then lo := mid else hi := mid - 1
      done;
      q.(i) <- !lo;
      if !lo > 0 then rem := mag_sub !rem (mag_mul_small b !lo)
    done;
    (trim q, !rem)
  end

(* Truncated division (rounds toward zero), like OCaml's [/] and [mod]. *)
let divmod x y =
  if y.sign = 0 then invalid_arg "Bigint.divmod: division by zero";
  let q, r = mag_divmod x.mag y.mag in
  (make (x.sign * y.sign) q, make x.sign r)

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

(* Euclidean: remainder always non-negative *)
let ediv_rem x y =
  let q, r = divmod x y in
  if r.sign >= 0 then (q, r)
  else if y.sign > 0 then (sub q one, add r y)
  else (add q one, sub r y)

(* native-int Euclid once both magnitudes fit in a machine word *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let to_int_abs_opt x =
  let rec go acc i =
    if i < 0 then Some acc
    else
      let limb = x.mag.(i) in
      if acc > (max_int - limb) / base then None else go ((acc * base) + limb) (i - 1)
  in
  go 0 (Array.length x.mag - 1)

let rec gcd x y =
  let x = abs x and y = abs y in
  if is_zero y then x
  else begin
    match (to_int_abs_opt x, to_int_abs_opt y) with
    | Some a, Some b -> of_int (gcd_int (Stdlib.max a b) (Stdlib.min a b))
    | _ -> gcd y (rem x y)
  end

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n = if n = 0 then acc else if n land 1 = 1 then go (mul acc b) (mul b b) (n asr 1) else go acc (mul b b) (n asr 1) in
  go one x n

(* ---- conversions ---- *)

let to_int_opt x =
  (* fits iff |x| <= max_int *)
  let rec go acc i =
    if i < 0 then Some acc
    else
      let limb = x.mag.(i) in
      if acc > (max_int - limb) / base then None else go ((acc * base) + limb) (i - 1)
  in
  match go 0 (Array.length x.mag - 1) with
  | None -> None
  | Some m -> Some (if x.sign < 0 then -m else m)

let to_int_exn x =
  match to_int_opt x with Some i -> i | None -> failwith "Bigint.to_int_exn: out of range"

let to_float x =
  let m = Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) x.mag 0.0 in
  if x.sign < 0 then -.m else m

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let b = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char b '-';
    let n = Array.length x.mag in
    Buffer.add_string b (string_of_int x.mag.(n - 1));
    for i = n - 2 downto 0 do
      Buffer.add_string b (Printf.sprintf "%0*d" base_digits x.mag.(i))
    done;
    Buffer.contents b
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let sign, start = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  (* a sign is accepted only in the first position *)
  for i = start to len - 1 do
    if not (s.[i] >= '0' && s.[i] <= '9') then invalid_arg "Bigint.of_string: bad char"
  done;
  (* parse 9 digits at a time from the right *)
  let ndigits = len - start in
  let nlimbs = (ndigits + base_digits - 1) / base_digits in
  let mag = Array.make nlimbs 0 in
  let pos = ref len in
  for i = 0 to nlimbs - 1 do
    let lo = Stdlib.max start (!pos - base_digits) in
    mag.(i) <- int_of_string (String.sub s lo (!pos - lo));
    pos := lo
  done;
  make sign mag

let pp fmt x = Format.pp_print_string fmt (to_string x)

let hash x = Hashtbl.hash (x.sign, x.mag)

(* number of decimal digits, for size heuristics *)
let num_digits x =
  let n = Array.length x.mag in
  if n = 0 then 1 else ((n - 1) * base_digits) + String.length (string_of_int x.mag.(n - 1))
