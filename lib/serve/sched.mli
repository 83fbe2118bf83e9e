(** The batching scheduler: executes request batches against the shared
    LRU instance cache and domain pool, streaming metrics frames and
    emitting result frames in request order. Thread-safe — one
    scheduler is shared by every connection of a worker-pool server.
    See the implementation header for the grouping, ordering and
    memoization contracts. *)

type t

val create :
  ?capacity:int -> ?memo_capacity:int -> ?domains:int -> ?store_dir:string -> unit -> t
(** [capacity] bounds the store's memory tier (default 32);
    [memo_capacity] bounds the solved-response memo cache (default
    256); [domains] is the default domain count for requests that do
    not set one; [store_dir] backs the scheduler's store with an
    artifact directory (without it instances live in memory only, as
    before PR 10). *)

val store : t -> Lll_store.Store.t
(** The scheduler's store — the single acquisition path every request
    description resolves through. *)

val store_stats : t -> Lll_store.Store.stats

val memo_stats : t -> Lll_store.Memcache.stats
(** Solved-response memo-cache counters. *)

val handle_batch :
  t -> Protocol.frame list -> emit:(Protocol.frame -> unit) -> [ `Continue | `Shutdown ]
(** Execute one batch. Every response frame (streamed metrics, then one
    result per request in id order) goes through [emit]. Returns
    [`Shutdown] when the batch contained a shutdown request. A raising
    request produces a [status=error] result for its id only. *)
