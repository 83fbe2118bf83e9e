(** Proper vertex colorings: checking and exact colorability. *)

type t = int array
(** Node index to color ([>= 0]). *)

val is_proper : Graph.t -> t -> bool

val num_colors : t -> int
(** One plus the largest color used. *)

val colorable : ?budget:int -> Graph.t -> int -> bool option
(** Exact [c]-colorability by bounded backtracking: [Some true/false] if
    decided within the budget of search nodes, [None] otherwise. *)

val chromatic_number : ?budget:int -> Graph.t -> int option
(** Exact chromatic number by iterative deepening on {!colorable};
    [None] when the budget runs out. Exponential — small graphs only. *)
