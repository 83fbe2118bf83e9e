(** Record-of-arrays protocol state for the flat LOCAL engine.

    Per-node protocol state split into parallel flat columns: int
    fields, float fields, and an optional boxed payload column for
    protocols that genuinely need heap structure. ['p] is the payload
    type; payload-free protocols leave it polymorphic. *)

type 'p t

val create :
  n:int -> ?int_fields:int -> ?float_fields:int -> ?payload:(int -> 'p) -> unit -> 'p t
(** [create ~n ~int_fields ~float_fields ~payload ()] allocates columns
    for [n] nodes. Int columns start at [0], float columns at [0.];
    [payload] (when given) initializes node [v]'s payload cell to
    [payload v]. Omitting [payload] yields a payload-free state. *)

val n : 'p t -> int

val int_fields : 'p t -> int

val float_fields : 'p t -> int

val get_int : 'p t -> int -> int -> int
(** [get_int t field v] — row [v] of int column [field]. *)

val set_int : 'p t -> int -> int -> int -> unit

val get_float : 'p t -> int -> int -> float

val set_float : 'p t -> int -> int -> float -> unit

val set_payload : 'p t -> int -> 'p -> unit

val int_column : 'p t -> int -> int array
(** The raw column (not a copy): CSR-aligned, indexable by node id. *)

val float_column : 'p t -> int -> float array

val payload_column : 'p t -> 'p array
(** The raw payload column ([[||]] for payload-free states). *)

val copy : 'p t -> 'p t
(** Fresh columns; payload cells shared as in [Array.copy]. *)

val blit : src:'p t -> dst:'p t -> unit
(** Column-wise overwrite of [dst] with [src] (same shape required). *)
