(* Small prime utilities for Linial's set-system construction: the
   field size [q] of each Linial round is a prime. *)

let is_prime n =
  if n < 2 then false
  else if n < 4 then true
  else if n mod 2 = 0 then false
  else begin
    let rec go d = if d * d > n then true else if n mod d = 0 then false else go (d + 2) in
    go 3
  end

let next_prime n =
  let rec go k = if is_prime k then k else go (k + 1) in
  go (max n 2)
