(* Instance descriptions the service understands.

   A request names an instance by generator spec (family + parameters —
   the same families the CLI generates), by uploading a serialized blob
   (text v2 or binary v3) in the frame body, or by a server-local
   [file=PATH] header. This module only maps frames onto store
   descriptions: canonicalisation, content keys, build and load logic
   all live in [Lll_store] (one codec, one acquisition path), so a
   description resolves to the same key — and the same materialized
   artifact — whether it arrives here, at the CLI, or in the scenario
   runner. *)

module Store = Lll_store.Store
module Spec = Lll_store.Spec

let families = Spec.families

(* A non-empty body wins over a [file=] header, which wins over spec
   fields. *)
let of_frame (frame : Protocol.frame) =
  if frame.Protocol.body <> "" then Store.Of_blob frame.Protocol.body
  else
    match Protocol.get frame "file" with
    | Some path ->
      if not (Sys.file_exists path) then
        raise (Protocol.Protocol_error (Printf.sprintf "file not found: %s" path));
      Store.Of_file path
    | None ->
      let get_int key default =
        match Protocol.get_int frame key with Some v -> v | None -> default
      in
      let family = Option.value (Protocol.get frame "family") ~default:"ring" in
      if not (List.mem family families) then
        raise (Protocol.Protocol_error (Printf.sprintf "unknown family %S" family));
      Store.Of_spec
        (Spec.of_family_params ~family ~n:(get_int "n" 30) ~degree:(get_int "degree" 3)
           ~seed:(get_int "gen-seed" (get_int "seed" 1))
           ~at_threshold:(Protocol.get_bool frame "at-threshold"))
