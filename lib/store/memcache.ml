(* The mutex-guarded build-once LRU: the store's memory tier, and the
   response memo behind the solve service.

   Keys are content identifiers: for generator-described instances the
   canonical parameter spec, for uploaded blobs an MD5 digest of the
   bytes ([content_key]), for server-local files the container
   fingerprint. Values are whatever the scheduler wants to reuse — the
   instance cache stores fully built [Instance.t]s (space with installed
   tables, dependency graph, hypergraph), the response cache stores
   finished solve results — so a hit skips every parse/compile/rebuild
   step; that is the "zero instance-rebuild work" the service promises
   for repeat requests.

   Concurrency discipline (the worker pool makes every operation
   multi-threaded):

   - One cache-wide [Mutex.t] guards the table, the logical clock and
     the counters. It is held only for table bookkeeping, never while a
     value is being built.
   - A miss installs a [Pending] slot and runs [build] OUTSIDE the
     lock. Every other thread asking for the same key while the build
     is in flight blocks on the slot's condition variable instead of
     duplicating the build — two connections requesting the same
     uncached instance build it exactly once, the per-key build lock of
     DESIGN §13.
   - A failing build removes its slot, wakes the waiters, and each
     waiter re-raises the builder's exception (a later request retries
     from scratch).

   Eviction is by minimum last-use tick over the [Ready] entries (an
   O(capacity) scan — capacities are tens of instances, each worth
   megabytes, so the scan never matters). [Pending] slots are never
   evicted: threads are parked on them. *)

type 'v slot =
  | Ready of { mutable value : 'v; mutable tick : int }
  | Pending of 'v pending

and 'v pending = {
  cond : Condition.t;
  mutable outcome : ('v, exn) result option; (* None while the build runs *)
}

type 'v t = {
  capacity : int;
  mutex : Mutex.t;
  tbl : (string, 'v slot) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable waits : int; (* threads that parked on an in-flight build *)
}

type stats = {
  s_size : int;
  s_capacity : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_waits : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    capacity;
    mutex = Mutex.create ();
    tbl = Hashtbl.create 16;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    waits = 0;
  }

let content_key blob = "blob:" ^ Digest.to_hex (Digest.string blob)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* callers hold [t.mutex] *)
let ready_size t =
  Hashtbl.fold (fun _ s n -> match s with Ready _ -> n + 1 | Pending _ -> n) t.tbl 0

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key slot ->
      match slot with
      | Pending _ -> ()
      | Ready e -> (
        match !victim with
        | Some (_, best) when best <= e.tick -> ()
        | _ -> victim := Some (key, e.tick)))
    t.tbl;
  match !victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.tbl key;
    t.evictions <- t.evictions + 1

(* [`Hit] means the value came straight out of the cache (or out of a
   build another thread was already running) — this thread ran no build;
   [`Miss] means this thread ran [build] (and the result is now
   cached). *)
let find_or_build t ~key ~build =
  let action =
    locked t (fun () ->
        t.clock <- t.clock + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some (Ready e) ->
          e.tick <- t.clock;
          t.hits <- t.hits + 1;
          `Return e.value
        | Some (Pending p) ->
          t.waits <- t.waits + 1;
          `Wait p
        | None ->
          let p = { cond = Condition.create (); outcome = None } in
          Hashtbl.add t.tbl key (Pending p);
          t.misses <- t.misses + 1;
          `Build p)
  in
  match action with
  | `Return v -> (v, `Hit)
  | `Wait p ->
    let outcome =
      locked t (fun () ->
          while p.outcome = None do
            Condition.wait p.cond t.mutex
          done;
          (match p.outcome with Some (Ok _) -> t.hits <- t.hits + 1 | _ -> ());
          Option.get p.outcome)
    in
    (match outcome with Ok v -> (v, `Hit) | Error e -> raise e)
  | `Build p -> (
    let built = try Ok (build ()) with e -> Error e in
    locked t (fun () ->
        p.outcome <- Some built;
        (match built with
        | Ok v ->
          if ready_size t >= t.capacity then evict_lru t;
          Hashtbl.replace t.tbl key (Ready { value = v; tick = t.clock })
        | Error _ -> Hashtbl.remove t.tbl key);
        Condition.broadcast p.cond);
    match built with Ok v -> (v, `Miss) | Error e -> raise e)

let stats t =
  locked t (fun () ->
      {
        s_size = ready_size t;
        s_capacity = t.capacity;
        s_hits = t.hits;
        s_misses = t.misses;
        s_evictions = t.evictions;
        s_waits = t.waits;
      })
