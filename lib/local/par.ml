(* A minimal deterministic fork-join pool over OCaml 5 [Domain]s.

   The LOCAL model is embarrassingly parallel within a synchronous round:
   every node steps against the same snapshot, so the per-round work is a
   pure data-parallel loop over node indices. This module provides exactly
   that loop. The index range [0, n) is split into [domains] contiguous
   chunks of (nearly) equal size; chunk 0 runs on the calling domain and
   the remaining chunks each run on a freshly spawned domain, joined in
   chunk order. The split depends only on [(domains, n)], never on timing,
   so for a body whose iterations are independent the result is identical
   to the sequential loop — the differential tests in
   [test/test_runtime_par.ml] assert this bit-for-bit on the runtime.

   No domainslib dependency: [Domain.spawn]/[Domain.join] from the stdlib
   are all we need, and spawning a handful of domains per parallel region
   is cheap relative to a round's work at the graph sizes where
   parallelism pays (>= 10^4 nodes). With [domains = 1] (the default on
   single-core hosts) no domain is ever spawned and the loop is a plain
   [for] — the sequential reference path. *)

let recommended () = Domain.recommended_domain_count ()

(* Read once at startup; [parallel_for] consults it on every call that
   omits [?domains]. *)
let default = recommended ()

let default_domains () = default

(* Chunk [j] of [k] over [0, n): indices [j*n/k, (j+1)*n/k). Contiguous,
   disjoint, covering; empty chunks possible only when [k > n]. *)
let chunks ~domains ~n =
  let k = max 1 domains in
  Array.init k (fun j -> (j * n / k, ((j + 1) * n / k) - 1))

(* Run [f lo hi] for every chunk, chunk 0 inline, the rest on spawned
   domains. All domains are joined before returning; if any chunk raised,
   the exception of the lowest-numbered raising chunk is re-raised (a
   deterministic choice, matching the sequential loop's "first index
   raises" behavior at chunk granularity). *)
let fork_join ~domains ~n f =
  let k = min (max 1 domains) (max 1 n) in
  if k <= 1 then f 0 (n - 1)
  else begin
    let bounds = chunks ~domains:k ~n in
    let workers =
      List.init (k - 1) (fun j ->
          let lo, hi = bounds.(j + 1) in
          Domain.spawn (fun () -> f lo hi))
    in
    let first_exn = (try f (fst bounds.(0)) (snd bounds.(0)); None with e -> Some e) in
    let exns =
      List.map (fun d -> try Domain.join d; None with e -> Some e) workers
    in
    match List.filter_map Fun.id (first_exn :: exns) with
    | [] -> ()
    | e :: _ -> raise e
  end

let parallel_for ?domains ~n f =
  if n > 0 then begin
    let domains = match domains with Some d -> max 1 d | None -> default in
    fork_join ~domains ~n (fun lo hi ->
        for i = lo to hi do
          f i
        done)
  end
