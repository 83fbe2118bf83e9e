(** Prime helpers backing Linial's coloring
    construction. *)

val is_prime : int -> bool
val next_prime : int -> int
(** Smallest prime [>= max n 2]. *)
