(* The content-addressed instance artifact store (see store.mli).

   Tiers, inner to outer:

   1. Memory: a [Memcache.t] (the build-once LRU that previously lived
      as the serve layer's [Cache]) keyed by content key. Concurrent
      requests for one missing key run the tiers below exactly once;
      late arrivals park on the pending slot.
   2. Disk (when the store has a directory): checksummed binary v3
      containers named [<digest>.lllbin] with a [<digest>.spec] sidecar
      holding the canonical spec line. Hits load through the mmap read
      path, so a large artifact is shared page cache across processes.
   3. Generation: [Spec.build], after which the artifact is written
      atomically (temp file + rename) so a concurrent writer or a crash
      never leaves a half-written artifact under a live name.

   Corruption discipline: a failed checksum or decode on tier 2
   quarantines the artifact (rename to [.bad], kept for post-mortem)
   and falls through to tier 3 — a torn write or bit rot costs one
   regeneration, never a crash. Files outside the store directory
   (ad-hoc [file=] workloads) are NOT quarantined: the store does not
   own them, so decode errors propagate to the caller unchanged.

   [gc] unlinks artifacts with plain [Sys.remove]; a reader that already
   mapped the container keeps reading its pages (POSIX unlink semantics),
   it only loses the name — tested. *)

module Serial = Lll_core.Serial
module Instance = Lll_core.Instance
module Bin = Lll_graph.Serialize.Bin
module Gen = Lll_graph.Generators

type source = [ `Mem | `Disk | `Built ]

type descr =
  | Of_spec of Spec.t
  | Of_blob of string
  | Of_file of string

type t = {
  dir : string option;
  mem : Instance.t Memcache.t;
  lock : Mutex.t; (* counters + girth totals *)
  girth : Gen.girth_stats; (* accumulated across every generation *)
  mutable built : int;
  mutable disk_hits : int;
  mutable quarantined : int;
  mutable tmp_seq : int;
}

type stats = {
  st_mem : Memcache.stats;
  st_built : int;
  st_disk_hits : int;
  st_quarantined : int;
  st_girth : Gen.girth_stats;
}

type entry = { e_digest : string; e_spec : string option; e_bytes : int }

let create ?dir ?(capacity = 32) () =
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) dir;
  {
    dir;
    mem = Memcache.create ~capacity;
    lock = Mutex.create ();
    girth = Gen.fresh_girth_stats ();
    built = 0;
    disk_hits = 0;
    quarantined = 0;
    tmp_seq = 0;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let artifact_path ~dir digest = Filename.concat dir (digest ^ ".lllbin")
let sidecar_path ~dir digest = Filename.concat dir (digest ^ ".spec")

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publication: write under a unique temp name in the same
   directory, then rename over the final name. Two processes racing on
   one digest both succeed; bytes are identical by content addressing. *)
let publish t ~dir ~digest ~blob ~spec_line =
  let seq = locked t (fun () -> t.tmp_seq <- t.tmp_seq + 1; t.tmp_seq) in
  let tmp = Filename.concat dir (Printf.sprintf ".tmp-%d-%d-%s" (Unix.getpid ()) seq digest) in
  write_file tmp blob;
  Sys.rename tmp (artifact_path ~dir digest);
  match spec_line with
  | None -> ()
  | Some line ->
    let tmp_s = tmp ^ ".spec" in
    write_file tmp_s (line ^ "\n");
    Sys.rename tmp_s (sidecar_path ~dir digest)

let quarantine t path =
  (try Sys.rename path (path ^ ".bad") with Sys_error _ -> ());
  locked t (fun () -> t.quarantined <- t.quarantined + 1)

(* girth-sampler work accumulates into [t.girth]; callers read it back
   through [stats] *)
let note_generation t (gs : Gen.girth_stats) =
  locked t (fun () ->
      t.built <- t.built + 1;
      t.girth.Gen.gs_attempts <- t.girth.Gen.gs_attempts + gs.Gen.gs_attempts;
      t.girth.Gen.gs_swaps <- t.girth.Gen.gs_swaps + gs.Gen.gs_swaps;
      t.girth.Gen.gs_reverts <- t.girth.Gen.gs_reverts + gs.Gen.gs_reverts;
      t.girth.Gen.gs_rejects <- t.girth.Gen.gs_rejects + gs.Gen.gs_rejects)

let generate t spec =
  let gs = Gen.fresh_girth_stats () in
  let inst = Spec.build ~gen_stats:gs spec in
  note_generation t gs;
  inst

(* Tier 2 + 3 for a spec-described instance; runs inside the memcache's
   per-key build-once slot. *)
let acquire t spec source =
  match t.dir with
  | None ->
    source := `Built;
    generate t spec
  | Some dir -> (
    let digest = Spec.digest spec in
    let path = artifact_path ~dir digest in
    let from_disk () =
      if not (Sys.file_exists path) then None
      else
        match Serial.load_binary_mmap path with
        | inst ->
          locked t (fun () -> t.disk_hits <- t.disk_hits + 1);
          source := `Disk;
          Some inst
        | exception (Bin.Corrupt _ | Serial.Parse_error _ | Sys_error _ | End_of_file | Unix.Unix_error _) ->
          quarantine t path;
          None
    in
    match from_disk () with
    | Some inst -> inst
    | None ->
      source := `Built;
      let inst = generate t spec in
      publish t ~dir ~digest ~blob:(Serial.to_binary_string inst)
        ~spec_line:(Some (Spec.to_string spec));
      inst)

let fetch t spec =
  let source = ref `Mem in
  let inst, _ = Memcache.find_or_build t.mem ~key:(Spec.key spec) ~build:(fun () ->
      acquire t spec source)
  in
  (inst, !source)

(* [file=] convergence: a path that names a store artifact (basename
   [<digest>.lllbin] with a spec sidecar next to it) is keyed by its
   spec, so file- and spec-described requests share one cache entry. *)
let spec_of_artifact path =
  if Filename.check_suffix path ".lllbin" then begin
    let side = Filename.chop_suffix path ".lllbin" ^ ".spec" in
    if Sys.file_exists side then
      match String.trim (read_file side) with
      | line -> ( match Spec.of_string line with s -> Some s | exception Spec.Malformed _ -> None)
      | exception Sys_error _ -> None
    else None
  end
  else None

let file_key path =
  match Serial.binary_fingerprint path with
  | Some fp -> "file-v3:" ^ fp
  | None -> "file:" ^ Digest.to_hex (Digest.file path)

type keyed = { descr : descr; key : string }

(* An artifact file resolves to its sidecar's spec here, so the sidecar
   is read once and the fetch takes the spec path. *)
let keyed descr =
  match descr with
  | Of_spec spec -> { descr; key = Spec.key spec }
  | Of_blob blob -> { descr; key = Memcache.content_key blob }
  | Of_file path -> (
    match spec_of_artifact path with
    | Some spec -> { descr = Of_spec spec; key = Spec.key spec }
    | None -> { descr; key = file_key path })

(* Blobs and non-artifact files use the memory tier only. *)
let build_in_memory t ~key build =
  let source = ref `Mem in
  let inst, _ =
    Memcache.find_or_build t.mem ~key ~build:(fun () ->
        source := `Built;
        build ())
  in
  (inst, !source)

let fetch_descr t { descr; key } =
  match descr with
  | Of_spec spec -> fetch t spec
  | Of_blob blob -> build_in_memory t ~key (fun () -> Serial.of_any_string blob)
  | Of_file path -> build_in_memory t ~key (fun () -> Serial.load_any path)

let require_dir t what =
  match t.dir with
  | Some dir -> dir
  | None -> invalid_arg (Printf.sprintf "Store.%s: store has no directory" what)

let materialize t spec =
  let dir = require_dir t "materialize" in
  let digest = Spec.digest spec in
  let path = artifact_path ~dir digest in
  if not (Sys.file_exists path) then ignore (fetch t spec : Instance.t * source);
  path

let put_blob t inst =
  let dir = require_dir t "put_blob" in
  let blob = Serial.to_binary_string inst in
  let digest = Digest.to_hex (Digest.string blob) in
  publish t ~dir ~digest ~blob ~spec_line:None;
  digest

let artifacts dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".lllbin" then Some (Filename.chop_suffix f ".lllbin")
         else None)
  |> List.sort String.compare

let ls t =
  let dir = require_dir t "ls" in
  List.map
    (fun digest ->
      let spec =
        let side = sidecar_path ~dir digest in
        if Sys.file_exists side then Some (String.trim (read_file side)) else None
      in
      let bytes = try (Unix.stat (artifact_path ~dir digest)).Unix.st_size with _ -> 0 in
      { e_digest = digest; e_spec = spec; e_bytes = bytes })
    (artifacts dir)

let verify t =
  let dir = require_dir t "verify" in
  List.map
    (fun digest ->
      let path = artifact_path ~dir digest in
      let status =
        match Serial.load_binary_mmap path with
        | (_ : Instance.t) -> `Ok
        | exception Bin.Corrupt msg -> `Corrupt msg
        | exception e -> `Corrupt (Printexc.to_string e)
      in
      (digest, status))
    (artifacts dir)

type gc_result = { gc_removed : int; gc_bytes : int; gc_kept : int }

let gc ?(all = false) t =
  let dir = require_dir t "gc" in
  let removed = ref 0 and bytes = ref 0 and kept = ref 0 in
  let rm path =
    (try
       bytes := !bytes + (Unix.stat path).Unix.st_size;
       Sys.remove path;
       incr removed
     with Unix.Unix_error _ | Sys_error _ -> ())
  in
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let base = Filename.basename f in
      let junk =
        Filename.check_suffix base ".bad"
        || String.length base > 4 && String.sub base 0 4 = ".tmp"
      in
      if junk then rm path
      else if Filename.check_suffix base ".lllbin" || Filename.check_suffix base ".spec" then
        if all then rm path else incr kept)
    (Sys.readdir dir);
  { gc_removed = !removed; gc_bytes = !bytes; gc_kept = !kept }

let stats t =
  let mem = Memcache.stats t.mem in
  locked t (fun () ->
      {
        st_mem = mem;
        st_built = t.built;
        st_disk_hits = t.disk_hits;
        st_quarantined = t.quarantined;
        st_girth =
          {
            Gen.gs_attempts = t.girth.Gen.gs_attempts;
            gs_swaps = t.girth.Gen.gs_swaps;
            gs_reverts = t.girth.Gen.gs_reverts;
            gs_rejects = t.girth.Gen.gs_rejects;
          };
      })
