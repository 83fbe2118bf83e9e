(** Length-framed wire protocol: [u32 LE length] + payload, payload =
    one [key=value] header line + '\n' + raw byte body. See the
    implementation header for the request/response vocabulary. *)

exception Protocol_error of string

type frame = { header : (string * string) list; body : string }

val max_frame : unit -> int
(** Current frame-size bound in bytes (default [2^30]). {!read_frame}
    rejects a length header past it before reading the body;
    {!write_frame} refuses to emit past it. *)

val set_max_frame : int -> unit
(** @raise Invalid_argument below 4096 bytes. *)

val max_batch : int
(** Bound on an explicit batch's [count]: 4096. *)

val encode : frame -> string
val decode : string -> frame

val write_frame : out_channel -> frame -> unit
(** Write and flush one frame. *)

val read_frame : in_channel -> frame option
(** [None] on clean EOF before a frame starts.
    @raise Protocol_error on a truncated or oversized frame. *)

val get : frame -> string -> string option
val get_exn : frame -> string -> string
val get_int : frame -> string -> int option
val get_bool : frame -> string -> bool
(** Absent and ["0"] are [false]; any other value is [true]. *)
