(* Tests for the content-addressed artifact store: the canonical spec
   codec (round trips, canonicality rejection, the qcheck injectivity
   law the store keys depend on), the three-tier fetch path
   (memory / disk artifact / generation), build-once behaviour under
   concurrent domains, quarantine-and-regenerate on corrupt artifacts,
   gc semantics under a live mmap reader, and the key convergence of
   file-addressed requests onto spec keys. *)

module Spec = Lll_store.Spec
module Store = Lll_store.Store
module Memcache = Lll_store.Memcache
module Instance = Lll_core.Instance
module Serial = Lll_core.Serial

let with_tmpdir f =
  let dir = Filename.temp_file "lll_store" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Spec codec                                                           *)
(* ------------------------------------------------------------------ *)

let sample_specs =
  [
    Spec.Ring { n = 24; seed = 1; arity = 4; at = true };
    Spec.Ring { n = 24; seed = 1; arity = 4; at = false };
    Spec.Rank { n = 48; seed = 2; rank = 3; delta = 2; arity = 8; at = true };
    Spec.Rank { n = 48; seed = 2; rank = 4; delta = 2; arity = 16; at = false };
    Spec.Sinkless { n = 24; seed = 1; degree = 3; girth = 6; relaxed = false };
    Spec.Sinkless { n = 24; seed = 1; degree = 3; girth = 0; relaxed = true };
    Spec.Hyper { n = 24; seed = 3; rank = 3; degree = 2 };
    Spec.Weak_split { n = 24; seed = 1; degree = 3 };
  ]

let test_spec_roundtrip () =
  List.iter
    (fun s ->
      let line = Spec.to_string s in
      Alcotest.(check bool)
        (Printf.sprintf "round trip %s" line)
        true
        (Spec.of_string line = s))
    sample_specs

let test_spec_rejects_noncanonical () =
  let reject what line =
    try
      ignore (Spec.of_string line);
      Alcotest.fail (what ^ " accepted")
    with Spec.Malformed _ -> ()
  in
  reject "empty" "";
  reject "bad version" "specv0:ring;n=24;s=1;a=4;at=1";
  reject "unknown family" "specv1:torus;n=24;s=1";
  reject "reordered fields" "specv1:ring;s=1;n=24;a=4;at=1";
  reject "missing field" "specv1:ring;n=24;s=1;a=4";
  reject "trailing junk" "specv1:ring;n=24;s=1;a=4;at=1;x=9";
  reject "non-numeric" "specv1:ring;n=two;s=1;a=4;at=1"

let test_spec_keys () =
  List.iter
    (fun s ->
      let k = Spec.key s in
      Alcotest.(check bool) "spec: schema" true (String.length k = 37 && String.sub k 0 5 = "spec:");
      Alcotest.(check string) "key is digest" ("spec:" ^ Spec.digest s) k)
    sample_specs

let test_of_family_params () =
  let mk family = Spec.of_family_params ~family ~n:24 ~degree:3 ~seed:1 ~at_threshold:true in
  List.iter
    (fun family ->
      let s = mk family in
      Alcotest.(check int) (family ^ " size") 24 (Spec.size s);
      Alcotest.(check int) (family ^ " seed") 1 (Spec.seed s))
    Spec.families;
  (match mk "sinkless" with
  | Spec.Sinkless { relaxed = false; _ } -> ()
  | _ -> Alcotest.fail "sinkless family");
  (match mk "sinkless-relaxed" with
  | Spec.Sinkless { relaxed = true; _ } -> ()
  | _ -> Alcotest.fail "sinkless-relaxed family");
  (try
     ignore (mk "moebius");
     Alcotest.fail "unknown family accepted"
   with Invalid_argument _ -> ())

(* the store's whole addressing scheme rests on this: distinct specs
   render distinct canonical strings (hence distinct digests) *)
let arb_spec =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.map3
          (fun n seed (arity, at) -> Spec.Ring { n; seed; arity; at })
          (Gen.int_range 4 200) (Gen.int_range 0 50)
          (Gen.pair (Gen.int_range 2 8) Gen.bool);
        Gen.map3
          (fun n seed (rank, at) ->
            Spec.Rank { n; seed; rank; delta = 2; arity = 1 lsl rank; at })
          (Gen.int_range 6 200) (Gen.int_range 0 50)
          (Gen.pair (Gen.int_range 2 5) Gen.bool);
        Gen.map3
          (fun n seed (girth, relaxed) ->
            Spec.Sinkless { n; seed; degree = 3; girth; relaxed })
          (Gen.int_range 24 400) (Gen.int_range 0 50)
          (Gen.pair (Gen.oneofl [ 0; 4; 6 ]) Gen.bool);
        Gen.map2
          (fun n seed -> Spec.Hyper { n; seed; rank = 3; degree = 2 })
          (Gen.int_range 6 200) (Gen.int_range 0 50);
        Gen.map2
          (fun n seed -> Spec.Weak_split { n; seed; degree = 3 })
          (Gen.int_range 4 200) (Gen.int_range 0 50);
      ]
  in
  make ~print:Spec.to_string gen

let injectivity_law =
  QCheck.Test.make ~name:"digest injective on distinct specs" ~count:300
    (QCheck.pair arb_spec arb_spec) (fun (a, b) ->
      (* equal specs must agree, distinct specs must separate, and the
         canonical string must survive its own parser *)
      Spec.of_string (Spec.to_string a) = a
      && if a = b then Spec.digest a = Spec.digest b
         else Spec.to_string a <> Spec.to_string b && Spec.digest a <> Spec.digest b)

(* ------------------------------------------------------------------ *)
(* Fetch tiering                                                        *)
(* ------------------------------------------------------------------ *)

let ring_spec = Spec.Ring { n = 20; seed = 1; arity = 4; at = true }

let test_fetch_memory_only () =
  let st = Store.create () in
  Alcotest.(check bool) "no dir" true (Store.dir st = None);
  let i1, s1 = Store.fetch st ring_spec in
  let i2, s2 = Store.fetch st ring_spec in
  Alcotest.(check bool) "first is built" true (s1 = `Built);
  Alcotest.(check bool) "second is memory" true (s2 = `Mem);
  Alcotest.(check bool) "same boxed instance" true (i1 == i2);
  Alcotest.(check int) "one generation" 1 (Store.stats st).Store.st_built

let test_fetch_disk_tier () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let i1, s1 = Store.fetch st ring_spec in
      Alcotest.(check bool) "cold miss builds" true (s1 = `Built);
      (* a fresh store over the same directory must load, not rebuild *)
      let st2 = Store.create ~dir () in
      let i2, s2 = Store.fetch st2 ring_spec in
      Alcotest.(check bool) "warm store loads from disk" true (s2 = `Disk);
      Alcotest.(check int) "no regeneration" 0 (Store.stats st2).Store.st_built;
      Alcotest.(check bool) "bit-identical payload" true
        (Serial.to_binary_string i1 = Serial.to_binary_string i2);
      let _, s3 = Store.fetch st2 ring_spec in
      Alcotest.(check bool) "then memory" true (s3 = `Mem))

let test_materialize_and_ls () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      Alcotest.(check bool) "artifact exists" true (Sys.file_exists path);
      Alcotest.(check string) "named by digest" (Spec.digest ring_spec ^ ".lllbin")
        (Filename.basename path);
      match Store.ls st with
      | [ e ] ->
        Alcotest.(check string) "entry digest" (Spec.digest ring_spec) e.Store.e_digest;
        Alcotest.(check (option string)) "sidecar spec" (Some (Spec.to_string ring_spec))
          e.Store.e_spec;
        Alcotest.(check bool) "non-empty" true (e.Store.e_bytes > 0)
      | l -> Alcotest.fail (Printf.sprintf "expected one entry, got %d" (List.length l)))

let test_materialize_requires_dir () =
  let st = Store.create () in
  try
    ignore (Store.materialize st ring_spec);
    Alcotest.fail "materialize without a directory accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Quarantine                                                           *)
(* ------------------------------------------------------------------ *)

let corrupt_artifact path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  Bytes.set s (len - 1) (Char.chr (Char.code (Bytes.get s (len - 1)) lxor 0x5a));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let test_corrupt_artifact_quarantined () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      corrupt_artifact path;
      (* a fresh store (cold memory tier) must hit the bad artifact,
         quarantine it and regenerate rather than crash *)
      let st2 = Store.create ~dir () in
      let inst, src = Store.fetch st2 ring_spec in
      Alcotest.(check bool) "regenerated" true (src = `Built);
      Alcotest.(check int) "quarantined once" 1 (Store.stats st2).Store.st_quarantined;
      Alcotest.(check bool) "bad file parked" true (Sys.file_exists (path ^ ".bad"));
      Alcotest.(check bool) "artifact republished" true (Sys.file_exists path);
      (* the republished artifact is valid again *)
      let st3 = Store.create ~dir () in
      let inst', src' = Store.fetch st3 ring_spec in
      Alcotest.(check bool) "clean reload" true (src' = `Disk);
      Alcotest.(check bool) "same payload" true
        (Serial.to_binary_string inst = Serial.to_binary_string inst'))

let test_truncated_artifact_quarantined () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      let ic = open_in_bin path in
      let keep = in_channel_length ic / 2 in
      let s = really_input_string ic keep in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let st2 = Store.create ~dir () in
      let _, src = Store.fetch st2 ring_spec in
      Alcotest.(check bool) "regenerated" true (src = `Built);
      Alcotest.(check int) "quarantined" 1 (Store.stats st2).Store.st_quarantined)

let test_verify_flags_corruption () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      ignore (Store.materialize st (Spec.Ring { n = 28; seed = 1; arity = 4; at = true }));
      corrupt_artifact path;
      let report = Store.verify st in
      let ok, bad =
        List.partition (fun (_, v) -> v = `Ok) report
      in
      Alcotest.(check int) "one ok" 1 (List.length ok);
      (match bad with
      | [ (d, `Corrupt _) ] ->
        Alcotest.(check string) "corrupt digest" (Spec.digest ring_spec) d
      | _ -> Alcotest.fail "expected exactly one corrupt entry");
      (* verify is read-only: nothing quarantined, file still there *)
      Alcotest.(check int) "no quarantine" 0 (Store.stats st).Store.st_quarantined;
      Alcotest.(check bool) "file untouched" true (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* gc                                                                   *)
(* ------------------------------------------------------------------ *)

let test_gc_under_live_reader () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      ignore (Store.materialize st ring_spec);
      (* a second store maps the artifact and keeps the instance live *)
      let reader = Store.create ~dir () in
      let inst, src = Store.fetch reader ring_spec in
      Alcotest.(check bool) "reader mapped the artifact" true (src = `Disk);
      let res = Store.gc ~all:true st in
      Alcotest.(check bool) "artifacts removed" true (res.Store.gc_removed >= 1);
      (* unlink removes the name, not the reader's pages: the mapped
         instance must remain fully usable *)
      let expected = Spec.build ring_spec in
      Alcotest.(check int) "live instance intact" (Instance.num_events expected)
        (Instance.num_events inst);
      Alcotest.(check bool) "payload intact" true
        (Serial.to_binary_string inst = Serial.to_binary_string expected);
      (* and a fresh fetch regenerates *)
      let st2 = Store.create ~dir () in
      let _, src2 = Store.fetch st2 ring_spec in
      Alcotest.(check bool) "post-gc fetch rebuilds" true (src2 = `Built))

let test_gc_removes_quarantine () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      corrupt_artifact path;
      let st2 = Store.create ~dir () in
      ignore (Store.fetch st2 ring_spec);
      Alcotest.(check bool) ".bad present" true (Sys.file_exists (path ^ ".bad"));
      let res = Store.gc st2 in
      Alcotest.(check bool) ".bad collected" false (Sys.file_exists (path ^ ".bad"));
      Alcotest.(check bool) "artifact kept by default gc" true (Sys.file_exists path);
      Alcotest.(check bool) "counted" true (res.Store.gc_removed >= 1 && res.Store.gc_kept >= 1))

(* ------------------------------------------------------------------ *)
(* Concurrency                                                          *)
(* ------------------------------------------------------------------ *)

let test_concurrent_fetch_builds_once () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let doms =
        List.init 2 (fun _ -> Domain.spawn (fun () -> fst (Store.fetch st ring_spec)))
      in
      let values = List.map Domain.join doms in
      Alcotest.(check int) "one generation" 1 (Store.stats st).Store.st_built;
      (match values with
      | [ a; b ] -> Alcotest.(check bool) "shared instance" true (a == b)
      | _ -> assert false);
      (* exactly one artifact, no leftover temp files *)
      Alcotest.(check int) "one artifact" 1 (List.length (Store.ls st));
      let strays =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f -> not (Filename.check_suffix f ".lllbin"
                                      || Filename.check_suffix f ".spec"))
      in
      Alcotest.(check (list string)) "no temp droppings" [] strays)

(* ------------------------------------------------------------------ *)
(* Descriptions: blobs and files converge on content keys               *)
(* ------------------------------------------------------------------ *)

let test_blob_descr () =
  let st = Store.create () in
  let inst = Spec.build ring_spec in
  let blob = Serial.to_binary_string inst in
  let d = Store.Of_blob blob in
  Alcotest.(check string) "blob key schema" (Memcache.content_key blob) (Store.keyed d).Store.key;
  let got, src = Store.fetch_descr st (Store.keyed d) in
  Alcotest.(check bool) "decoded" true (src = `Built);
  Alcotest.(check int) "payload" (Instance.num_events inst) (Instance.num_events got)

let test_file_descr_converges_on_spec_key () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let path = Store.materialize st ring_spec in
      (* a file= request naming a store artifact resolves to the spec
         key, so it shares the cache entry of the spec= request *)
      Alcotest.(check string) "file converges on spec key" (Spec.key ring_spec)
        (Store.keyed (Store.Of_file path)).Store.key;
      ignore (Store.fetch_descr st (Store.keyed (Store.Of_file path)));
      let _, src = Store.fetch_descr st (Store.keyed (Store.Of_spec ring_spec)) in
      Alcotest.(check bool) "shared cache entry" true (src = `Mem))

let test_put_blob_artifact () =
  with_tmpdir (fun dir ->
      let st = Store.create ~dir () in
      let inst = Spec.build ring_spec in
      let digest = Store.put_blob st inst in
      let path = Filename.concat dir (digest ^ ".lllbin") in
      Alcotest.(check bool) "artifact written" true (Sys.file_exists path);
      Alcotest.(check bool) "no spec sidecar" false (Sys.file_exists (Filename.concat dir (digest ^ ".spec")));
      (* content-addressed: same instance, same digest *)
      Alcotest.(check string) "idempotent" digest (Store.put_blob st inst);
      (* loadable through the file path, keyed by container identity
         (not a spec key — there is no sidecar) *)
      let k = (Store.keyed (Store.Of_file path)).Store.key in
      Alcotest.(check bool) "not a spec key" false
        (String.length k >= 5 && String.sub k 0 5 = "spec:");
      let got, _ = Store.fetch_descr st (Store.keyed (Store.Of_file path)) in
      Alcotest.(check int) "round trip" (Instance.num_events inst) (Instance.num_events got))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "lll_store"
    [
      ( "spec",
        [
          tc "round trip" test_spec_roundtrip;
          tc "rejects non-canonical" test_spec_rejects_noncanonical;
          tc "keys" test_spec_keys;
          tc "of_family_params" test_of_family_params;
          QCheck_alcotest.to_alcotest injectivity_law;
        ] );
      ( "fetch",
        [
          tc "memory only" test_fetch_memory_only;
          tc "disk tier" test_fetch_disk_tier;
          tc "materialize + ls" test_materialize_and_ls;
          tc "materialize requires dir" test_materialize_requires_dir;
        ] );
      ( "quarantine",
        [
          tc "corrupt artifact" test_corrupt_artifact_quarantined;
          tc "truncated artifact" test_truncated_artifact_quarantined;
          tc "verify is read-only" test_verify_flags_corruption;
        ] );
      ( "gc",
        [
          tc "live reader survives gc" test_gc_under_live_reader;
          tc "collects quarantine" test_gc_removes_quarantine;
        ] );
      ("concurrency", [ tc "two domains build once" test_concurrent_fetch_builds_once ]);
      ( "descr",
        [
          tc "blob" test_blob_descr;
          tc "file converges on spec key" test_file_descr_converges_on_spec_key;
          tc "put_blob" test_put_blob_artifact;
        ] );
    ]
