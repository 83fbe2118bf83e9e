(** Minimal deterministic fork-join parallelism over OCaml 5 [Domain]s.

    [parallel_for] splits [0, n) into [domains] contiguous chunks (a
    static split depending only on [(domains, n)]) and runs them on
    [domains - 1] spawned domains plus the calling one. For bodies with
    independent iterations the outcome is identical to the sequential
    loop, which is what makes the parallel LOCAL runtime differentially
    testable against the sequential engine. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_domains : unit -> int
(** The domain count used when [?domains] is omitted: {!recommended}. *)

val chunks : domains:int -> n:int -> (int * int) array
(** The static [(lo, hi)] inclusive chunk bounds used by
    {!parallel_for} (exposed for tests); chunks are contiguous, disjoint
    and cover [0, n). *)

val parallel_for : ?domains:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~domains ~n f] runs [f i] for [i = 0..n-1], chunked
    across domains. With [domains = 1] (or [n <= 1]) no domain is
    spawned. All spawned domains are joined before returning; if any
    iteration raised, the exception of the lowest-numbered raising chunk
    is re-raised. The body must only perform writes that are disjoint
    across iterations (e.g. cell [i] of an array). *)
