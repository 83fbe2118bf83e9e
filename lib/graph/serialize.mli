(** Textual weighted tables (the "p wtable" block of the LLL instance
    format) and the binary v3 container with its graph codec. *)

exception Parse_error of { line : int; message : string }

type weighted_table = {
  arities : int array;
  rows : (int array * Lll_num.Rat.t) list;
      (** satisfying tuples (scope-order values) with exact weights *)
}
(** Textual form of a compiled event table: the "p wtable" block.
    Embeds into larger line-oriented formats (the LLL instance format). *)

val weighted_table_to_string : weighted_table -> string

val weighted_table_of_lines :
  next_line:(unit -> string) -> fail:(string -> exn) -> weighted_table
(** Parse one block out of a caller-driven line stream: [next_line] must
    yield successive payload (non-blank, non-comment) lines; [fail] builds
    the exception to raise on malformed input (the caller keeps its own
    line-number bookkeeping). *)

val weighted_table_of_string : string -> weighted_table
(** Standalone parse (skips blank lines and 'c'/'#' comments).
    @raise Parse_error on malformed input. *)

(** The v3 sectioned binary container: magic ["LLL3"], i64 LE format
    version, a kind string, a payload checksum, then length-prefixed
    tagged sections. Loading is bounds-checked blits — no tokenizing,
    no re-derivation. Higher layers ({!graph_to_binary},
    [Lll.Serial.to_binary_string]) define their section vocabularies on
    top of this container. *)
module Bin : sig
  exception Corrupt of string
  (** Raised on any malformed binary input: bad magic, version skew,
      kind mismatch, truncated section, checksum mismatch, or a decoder
      running past its section. *)

  type writer

  val make_writer : kind:string -> writer
  val section : writer -> string -> unit
  (** Start a new section; subsequent [add_*] calls append to it. *)

  val add_int : writer -> int -> unit

  val add_int_array : writer -> int array -> unit
  (** Width-packed: elements are stored at the narrowest of u8, u16, i32
      or i64 that fits the whole array. *)

  val add_int_sub : writer -> int array -> pos:int -> len:int -> unit
  (** {!add_int_array} of the [len] elements from [pos]: the same bytes
      as adding that slice as an array of its own. *)

  val add_string : writer -> string -> unit
  val add_rat : writer -> Lll_num.Rat.t -> unit

  val add_rat_array : writer -> Lll_num.Rat.t array -> unit
  (** Run-length encoded: consecutive equal rationals are stored once
      with a repeat count. Probability columns are mostly constant, so
      this collapses them to a handful of entries. *)

  val add_rat_sub : writer -> Lll_num.Rat.t array -> pos:int -> len:int -> unit
  (** {!add_rat_array} of the [len] elements from [pos]. *)

  val contents : writer -> string
  (** Assemble header + checksum + sections into the final blob. *)

  type source
  (** Bytes a reader decodes from: an offset and length into a
      bigstring. Every multi-byte value is one unaligned little-endian
      load at its offset, behind the reader's bounds check. Windows
      slice without copying, so nested containers decode zero-copy. *)

  val source_of_path : string -> source
  (** Map the file read-only: the checksum pass touches each page once,
      but the bytes stay in the OS page cache, shared with every process
      mapping the same file — no per-process copy of the container.
      @raise Unix.Unix_error on an unreadable path. *)

  val source_of_string : string -> source
  (** Copy an in-heap blob (a frame body, a freshly written container)
      once into a fresh bigstring. *)

  type reader

  val open_reader : kind:string -> source -> reader
  (** Validate magic, version, kind, section bounds and checksum.
      @raise Corrupt on any violation. *)

  val fingerprint_file : string -> string option
  (** Cheap identity of a container file — kind, stored checksum and
      byte length from the mapped file's header, decoded by the same
      code as {!open_reader}; the payload is never read. [None] when
      the file is missing or its header is not a v3 container's. *)

  val enter : reader -> string -> unit
  (** Advance to the next section, which must carry the given tag and
      the previous section must be fully consumed. *)

  val read_int : reader -> int
  val read_int_array : reader -> int array

  val read_int_array_into : reader -> int array ref -> pos:int -> int
  (** Decode the next int array into [!dst] from index [pos] on and
      return its length. When it does not fit, [!dst] is first replaced
      by a copy at least twice as long that keeps its first [pos]
      elements: columns of many arrays fill without a per-array
      allocation. *)

  val read_string : reader -> string

  val read_blob : reader -> source
  (** Like {!read_string} but returns a window into the backing bytes
      instead of copying — the zero-copy path for nested containers. *)

  val read_rat : reader -> Lll_num.Rat.t
  val read_rat_array : reader -> Lll_num.Rat.t array

  val read_rat_array_into : reader -> Lll_num.Rat.t array ref -> pos:int -> int
  (** {!read_int_array_into} for a run-length encoded rational array. *)

  val close : reader -> unit
  (** Assert every section was consumed in full. *)
end

val graph_to_binary : Graph.t -> string
(** v3 binary graph: raw CSR columns in a {!Bin} container. *)

val graph_of_binary_src : Bin.source -> Graph.t
(** Decode and structurally re-validate (via [Graph.of_csr]) from any
    byte source (e.g. a {!Bin.read_blob} window or a mapped file).
    @raise Bin.Corrupt on malformed input. *)
