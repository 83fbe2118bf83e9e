(** Textual serialization of LLL instances (exact: truth tables over
    event scopes, rational distributions). See the format description in
    the implementation; round trips preserve probabilities, scopes and
    bad sets verbatim. *)

exception Parse_error of { line : int; message : string }

val to_string : Instance.t -> string
(** @raise Invalid_argument if an event's scope table exceeds [2^20]
    entries. *)

val of_string : string -> Instance.t
(** @raise Parse_error on malformed input. *)

val save : string -> Instance.t -> unit

val bad_tuples : Lll_prob.Space.t -> Lll_prob.Event.t -> int list list
(** The value tuples (in scope order) on which the event occurs —
    enumerated exactly. *)

(** {1 v3 binary format}

    A {!Lll_graph.Serialize.Bin} container (magic, version, checksum,
    length-prefixed sections) holding the variable distributions, each
    event's satisfying row codes and weights verbatim, and the
    dependency graph's raw CSR columns. Loading rebuilds the instance
    without recompiling tables or re-enumerating dependency pairs — the
    fast path for repeated loads of large instances. Cross-conversion
    with the text format is lossless; a binary round trip solves
    identically to a text round trip (tested). Binary decoding raises
    {!Lll_graph.Serialize.Bin.Corrupt} on malformed input. *)

val to_binary_string : Instance.t -> string
val of_binary_string : string -> Instance.t

val save_binary : string -> Instance.t -> unit

val load_binary_mmap : string -> Instance.t
(** Load a [.lllbin] container straight off a read-only file mapping,
    without copying the container into a heap string — the store's
    disk-tier path. *)

val binary_fingerprint : string -> string option
(** Cheap identity of a binary container file (kind, stored checksum,
    byte length — header only, no payload read). [None] when the file is
    missing or not a v3 container. Two files with equal fingerprints
    decode to identical instances up to checksum collision. *)

val is_binary : string -> bool
(** Does the blob (or a file's first bytes) carry the binary magic? *)

val of_any_string : string -> Instance.t
(** Dispatch on the magic: binary v3 or text v2. *)

val load_any : string -> Instance.t
(** Load a file in either format (the CLI's default loader): a binary
    container through {!load_binary_mmap}, a text file through
    {!of_string}. *)
