(* Record-of-arrays protocol state for the flat LOCAL engine.

   A protocol's per-node state is split into parallel flat columns:
   [int_fields] int arrays, [float_fields] float arrays, and an optional
   boxed [payload] column for protocols whose state genuinely needs heap
   structure (gossip maps, gathered balls). Field-major layout keeps the
   hot engines allocation-free per round — snapshotting a state is one
   copy per column instead of one boxed record per node — and
   lets a step function read a neighbor's field straight out of a column
   at the CSR-aligned node index.

   Columns are exposed read-write: the runtime's determinism contract
   (see Runtime.run_flat) is that a step writes only its own row of the
   current buffer and reads anything from the snapshot buffer. *)

type 'p t = {
  n : int;
  ints : int array array;  (* ints.(field).(node) *)
  floats : float array array;  (* floats.(field).(node) *)
  payload : 'p array;  (* length n, or 0 when the protocol is payload-free *)
}

let create ~n ?(int_fields = 0) ?(float_fields = 0) ?payload () =
  if n < 0 then invalid_arg "Flat_state.create: negative n";
  {
    n;
    ints = Array.init int_fields (fun _ -> Array.make n 0);
    floats = Array.init float_fields (fun _ -> Array.make n 0.);
    payload = (match payload with None -> [||] | Some init -> Array.init n init);
  }

let n t = t.n

let int_fields t = Array.length t.ints

let float_fields t = Array.length t.floats

let get_int t f v = t.ints.(f).(v)

let set_int t f v x = t.ints.(f).(v) <- x

let get_float t f v = t.floats.(f).(v)

let set_float t f v x = t.floats.(f).(v) <- x

let set_payload t v x = t.payload.(v) <- x

let int_column t f = t.ints.(f)

let float_column t f = t.floats.(f)

let payload_column t = t.payload

(* Deep copy with fresh columns (payload cells are shared, as in
   [Array.copy]) — used by the runtime to seed its snapshot buffer. *)
let copy t =
  {
    n = t.n;
    ints = Array.map Array.copy t.ints;
    floats = Array.map Array.copy t.floats;
    payload = Array.copy t.payload;
  }

(* Column-wise blit of every field from [src] into [dst]: the per-round
   snapshot. Shapes must match ([copy] of the same state). Int columns
   are copied by a loop over [int array]s, which compiles to plain
   stores: [Array.blit] cannot assume the elements are immediates and
   runs the write barrier on each one once [dst] is in the major heap,
   2-3x slower on a 12000-row column. *)
let blit_ints (src : int array) (dst : int array) n =
  for v = 0 to n - 1 do
    dst.(v) <- src.(v)
  done

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Flat_state.blit: size mismatch";
  Array.iteri (fun f col -> blit_ints col dst.ints.(f) src.n) src.ints;
  Array.iteri (fun f col -> Array.blit col 0 dst.floats.(f) 0 src.n) src.floats;
  if Array.length src.payload > 0 then Array.blit src.payload 0 dst.payload 0 src.n
