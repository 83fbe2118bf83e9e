(* Finite discrete random variables with exact rational distributions.

   Values are encoded as indices [0 .. arity-1]; [probs.(i)] is the
   probability of value [i]. Probabilities are strictly positive (values
   with probability zero must simply be omitted — the paper's argument
   iterates over values "occurring with positive probabilities") and sum
   to exactly 1. *)

module Rat = Lll_num.Rat

type t = { id : int; name : string; probs : Rat.t array }

let make ~id ~name probs =
  if Array.length probs = 0 then invalid_arg "Var.make: empty distribution";
  Array.iter (fun p -> if Rat.sign p <= 0 then invalid_arg "Var.make: probabilities must be positive") probs;
  let total = Array.fold_left Rat.add Rat.zero probs in
  if not (Rat.equal total Rat.one) then invalid_arg "Var.make: probabilities must sum to 1";
  { id; name; probs = Array.copy probs }

(* The distribution array is immutable behind this interface, so
   variables with one law may share it: no copy, no second check. *)
let same_distribution ~id ~name v = { id; name; probs = v.probs }

let uniform ~id ~name k =
  if k < 1 then invalid_arg "Var.uniform: arity >= 1";
  make ~id ~name (Array.make k (Rat.of_ints 1 k))

let bernoulli ~id ~name p =
  if Rat.sign p <= 0 || Rat.geq p Rat.one then invalid_arg "Var.bernoulli: need 0 < p < 1";
  (* value 0 = false, value 1 = true *)
  make ~id ~name [| Rat.sub Rat.one p; p |]

let id v = v.id
let name v = v.name
let arity v = Array.length v.probs
let prob v i = v.probs.(i)
let probs v = Array.copy v.probs

let pp fmt v =
  Format.fprintf fmt "%s(id=%d, arity=%d)" v.name v.id (arity v)
