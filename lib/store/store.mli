(** The content-addressed instance artifact store: the one acquisition
    path from generation specs to built instances, shared by the
    scenario runner, the solve service, the CLI, perfbench and fuzz.

    Tiering: memory (the build-once LRU {!Memcache}) over disk
    (checksummed [.lllbin] v3 containers named by spec digest, loaded
    via mmap) over generation ({!Spec.build}, then an atomic
    temp-and-rename artifact write). Concurrent requests for one
    missing key materialize it exactly once; a corrupt or truncated
    artifact is quarantined (renamed to [.bad]) and regenerated instead
    of crashing the caller.

    Key schema: [spec:<digest>] for generator-described instances
    (digest of the canonical {!Spec.to_string} line), [blob:<md5>] for
    uploaded bodies, [file-v3:<fingerprint>] / [file:<md5>] for ad-hoc
    server-local files — except that a file naming a store artifact
    ([<digest>.lllbin] with its [.spec] sidecar) converges onto the
    [spec:] key of its sidecar, so [file=] and [spec=] requests share
    one cache entry. *)

type t

type source = [ `Mem | `Disk | `Built ]
(** Where a fetch was satisfied: memory tier (or another thread's
    in-flight build), disk artifact, or fresh generation. *)

type descr =
  | Of_spec of Spec.t  (** generator-described *)
  | Of_blob of string  (** serialized instance bytes (text or binary) *)
  | Of_file of string  (** server-local file path *)

type stats = {
  st_mem : Memcache.stats;
  st_built : int;  (** fresh generations run *)
  st_disk_hits : int;  (** artifact loads *)
  st_quarantined : int;  (** artifacts renamed to [.bad] *)
  st_girth : Lll_graph.Generators.girth_stats;
      (** girth-sampler work accumulated over every generation *)
}

type entry = { e_digest : string; e_spec : string option; e_bytes : int }

type gc_result = { gc_removed : int; gc_bytes : int; gc_kept : int }

val create : ?dir:string -> ?capacity:int -> unit -> t
(** [dir] is the artifact directory (created if missing); without it the
    store is memory-only (generation still runs build-once, nothing
    persists). [capacity] bounds the memory tier. Girth-sampler work
    of every generation accumulates into {!stats}' [st_girth]. *)

val dir : t -> string option

val fetch : t -> Spec.t -> Lll_core.Instance.t * source
(** The acquisition path. Memory hit, else artifact mmap load, else
    generate-and-publish. Thread-safe; concurrent misses on one spec
    build once. *)

type keyed = private { descr : descr; key : string }
(** A description paired with the content key it resolves to (see the
    key schema above) — the identity under which results are cached and
    memoized. Only {!keyed} builds one, so a fetch cannot run under a
    key computed from another description. A file naming a store
    artifact is resolved to its sidecar's [Of_spec]. *)

val keyed : descr -> keyed
(** Resolve and key a description; digests a blob or file once. *)

val fetch_descr : t -> keyed -> Lll_core.Instance.t * source
(** {!fetch} generalised to the serve layer's three description kinds,
    under the description's precomputed key. Blob and non-artifact file
    descriptions use the memory tier only; decode errors on files the
    store does not own propagate unchanged (no quarantine). *)

val materialize : t -> Spec.t -> string
(** Ensure the artifact exists on disk and return its path.
    @raise Invalid_argument on a store without a directory. *)

val put_blob : t -> Lll_core.Instance.t -> string
(** Persist an already-built instance (fuzz reproducers) as a
    content-addressed artifact; returns the digest. The artifact has no
    spec sidecar — it is addressed by blob content, and [file=] requests
    against it key by container fingerprint. *)

val ls : t -> entry list
val verify : t -> (string * [ `Ok | `Corrupt of string ]) list
(** Decode every artifact through the same checksummed path as a fetch;
    read-only (no quarantine). *)

val gc : ?all:bool -> t -> gc_result
(** Remove quarantined [.bad] files and stray temp files; with [all]
    also every artifact and sidecar. Unlinking does not disturb a
    reader that already mapped an artifact — it keeps its pages and
    loses only the name. *)

val stats : t -> stats
