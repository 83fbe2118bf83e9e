(* Textual weighted tables and the binary v3 container.

   The text side is the "p wtable" block the LLL instance format embeds
   ('c'/'#' comment lines allowed when parsed standalone); the binary
   side is the checksummed sectioned container every artifact and graph
   blob travels in, plus the graph codec on top of it. *)

exception Parse_error of { line : int; message : string }

let parse_fail line message = raise (Parse_error { line; message })

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* ---- weighted tables ----

   The textual form of a compiled event (its rows in the space's table
   store): the satisfying scope tuples with their exact rational
   weights. One block:

     p wtable <k> <nrows>
     a <arity_1> ... <arity_k>
     w <x_1> ... <x_k> <weight>     (one line per satisfying tuple)

   The block embeds into larger line-oriented formats (the LLL instance
   format feeds its own line stream in via [weighted_table_of_lines]), so
   the parser is callback-driven. *)

type weighted_table = {
  arities : int array;
  rows : (int array * Lll_num.Rat.t) list; (* (scope-order values, weight) *)
}

let weighted_table_to_string (wt : weighted_table) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "p wtable %d %d\n" (Array.length wt.arities) (List.length wt.rows));
  Buffer.add_string buf "a";
  Array.iter (fun a -> Buffer.add_string buf (Printf.sprintf " %d" a)) wt.arities;
  Buffer.add_char buf '\n';
  List.iter
    (fun (xs, w) ->
      Buffer.add_string buf "w";
      Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %d" x)) xs;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Lll_num.Rat.to_string w);
      Buffer.add_char buf '\n')
    wt.rows;
  Buffer.contents buf

(* Parse one block out of a line stream. [next_line] yields the next
   non-empty payload line; [fail] builds the caller's error (with its
   own position bookkeeping). *)
let weighted_table_of_lines ~next_line ~(fail : string -> exn) =
  let die msg = raise (fail msg) in
  let expect_int tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> die (Printf.sprintf "expected integer, got %S" tok)
  in
  let k, nrows =
    match tokens (next_line ()) with
    | [ "p"; "wtable"; k; nrows ] -> (expect_int k, expect_int nrows)
    | _ -> die "expected 'p wtable <k> <nrows>'"
  in
  if k < 0 || nrows < 0 then die "negative wtable dimensions";
  let arities =
    match tokens (next_line ()) with
    | "a" :: toks when List.length toks = k -> Array.of_list (List.map expect_int toks)
    | _ -> die "expected 'a <arities>'"
  in
  Array.iter (fun a -> if a <= 0 then die "arities must be positive") arities;
  let rows =
    List.init nrows (fun _ ->
        match tokens (next_line ()) with
        | "w" :: toks when List.length toks = k + 1 ->
          let xs =
            Array.of_list (List.map expect_int (List.filteri (fun j _ -> j < k) toks))
          in
          Array.iteri
            (fun j x -> if x < 0 || x >= arities.(j) then die "tuple value out of range")
            xs;
          let w =
            try Lll_num.Rat.of_string (List.nth toks k)
            with Parse_error _ as e -> raise e | _ -> die "bad rational weight"
          in
          (* joint probabilities of satisfying tuples are strictly
             positive, so a zero or negative weight is always a
             corrupted row — reject it before any consumer divides by
             or compares against it *)
          if Lll_num.Rat.sign w <= 0 then die "row weight must be positive";
          (xs, w)
        | _ -> die "expected 'w <values> <weight>'")
  in
  { arities; rows }

let weighted_table_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  let lineno = ref 0 in
  let next_line () =
    let rec go () =
      match !lines with
      | [] -> parse_fail !lineno "unexpected end of input"
      | l :: rest ->
        incr lineno;
        lines := rest;
        let l = String.trim l in
        if l = "" || l.[0] = 'c' || l.[0] = '#' then go () else l
    in
    go ()
  in
  weighted_table_of_lines ~next_line ~fail:(fun msg ->
      Parse_error { line = !lineno; message = msg })

(* ---- binary container (v3) ----

   The v3 binary format is a sectioned container:

     "LLL3"                            magic (4 bytes)
     i64 LE  format version            (currently 3)
     i64 LE  kind length, kind bytes   ("graph", "instance", ...)
     i64 LE  checksum                  (over the whole payload below)
     payload:
       i64 LE  section count
       per section: i64 tag length, tag bytes, i64 body length, body

   All integers are i64 LE; rationals carry a one-byte tag (0 = both
   parts fit a native int and follow as two i64s; 1 = decimal strings).
   The checksum folds the payload 8 bytes at a time into a 63-bit
   djb2-xor accumulator — cheap enough to never dominate a load, strong
   enough to catch flipped bytes. Readers validate magic, version, kind,
   section bounds and checksum before any section is consumed, so a
   decoder past [open_reader] only ever sees structurally intact data
   (semantic validation, e.g. {!Graph.of_csr}, still reruns on load). *)

module Bin = struct
  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
  let magic = "LLL3"
  let format_version = 3

  (* ---- byte sources ----

     A reader decodes from a [source]: a window into a bigstring, which
     is either an mmap-ed file (Unix.map_file + Bigarray — the blob's
     bytes stay OS page cache shared across every process mapping the
     same file, instead of a per-process copy of the whole container)
     or a one-off copy of an in-heap blob. Windows carry an offset and
     length so nested blobs (the DEPG graph container inside an
     instance container) slice without copying. *)

  type bigstring = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
  type source = { buf : bigstring; off : int; len : int }

  (* Unchecked loads and stores at any byte offset, one machine access
     each; the boxed int32/int64 results unbox straight into the
     [Int32.to_int]/[Int64.to_int] around every use. They read in host
     byte order, and the container is little-endian: this code assumes
     a little-endian host. Every call sits behind a bounds check the
     caller makes against its section or window. *)
  external get16u : bigstring -> int -> int = "%caml_bigstring_get16u"
  external get32u : bigstring -> int -> int32 = "%caml_bigstring_get32u"
  external get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"
  external set64u : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"

  let of_bigstring (buf : bigstring) = { buf; off = 0; len = Bigarray.Array1.dim buf }

  let map_file path : bigstring =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]))

  let source_of_path path = of_bigstring (map_file path)

  (* one copy into a fresh bigstring, eight bytes per store while whole
     words remain *)
  let source_of_string s =
    let len = String.length s in
    let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
    for j = 0 to (len / 8) - 1 do
      set64u buf (8 * j) (String.get_int64_ne s (8 * j))
    done;
    for i = 8 * (len / 8) to len - 1 do
      Bigarray.Array1.unsafe_set buf i (String.unsafe_get s i)
    done;
    of_bigstring buf

  (* all accessors are offset-relative to the window *)
  let src_byte src i = Char.code (Bigarray.Array1.unsafe_get src.buf (src.off + i))
  let src_i64 src i = Int64.to_int (get64u src.buf (src.off + i))
  let src_sub src pos len = { src with off = src.off + pos; len }

  let src_string { buf; off; _ } pos len =
    let b = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get buf (off + pos + i))
    done;
    Bytes.unsafe_to_string b

  let mix h w = ((h lsl 5) + h) lxor w

  (* [Int64.to_int] drops the top bit of each word; the format defines
     the checksum over those 63-bit truncations *)
  let checksum_src { buf; off; _ } pos len =
    let base = off + pos in
    let words = len / 8 in
    let h = ref 0x1505 in
    for i = 0 to words - 1 do
      h := mix !h (Int64.to_int (get64u buf (base + (8 * i))))
    done;
    for i = base + (8 * words) to base + len - 1 do
      h := mix !h (Char.code (Bigarray.Array1.unsafe_get buf i))
    done;
    !h land max_int

  (* The same fold over an in-heap string, read in place: the writer's
     payload needs no bigstring copy to be checksummed. *)
  let checksum_string s =
    let len = String.length s in
    let words = len / 8 in
    let h = ref 0x1505 in
    for i = 0 to words - 1 do
      h := mix !h (Int64.to_int (String.get_int64_le s (8 * i)))
    done;
    for i = 8 * words to len - 1 do
      h := mix !h (Char.code (String.unsafe_get s i))
    done;
    !h land max_int

  (* -- writer -- *)

  type writer = {
    w_kind : string;
    mutable w_done : (string * Buffer.t) list; (* finished sections, reversed *)
    mutable w_cur : (string * Buffer.t) option;
  }

  let make_writer ~kind = { w_kind = kind; w_done = []; w_cur = None }

  let flush_cur w =
    match w.w_cur with
    | None -> ()
    | Some sec ->
      w.w_done <- sec :: w.w_done;
      w.w_cur <- None

  let section w tag =
    flush_cur w;
    w.w_cur <- Some (tag, Buffer.create 256)

  let cur w =
    match w.w_cur with
    | Some (_, b) -> b
    | None -> invalid_arg "Serialize.Bin: add outside a section"

  let buf_i64 b i = Buffer.add_int64_le b (Int64.of_int i)
  let add_int w i = buf_i64 (cur w) i

  (* Arrays pack to the narrowest of four widths (u8/u16/i32/i64, one
     tag byte) — column payloads are mostly small non-negative ints, and
     the narrower rows halve both the container and the decode's memory
     traffic. *)
  let add_int_sub w a ~pos ~len =
    let b = cur w in
    buf_i64 b len;
    let lo = ref 0 and hi = ref 0 in
    for j = pos to pos + len - 1 do
      let i = a.(j) in
      if i < !lo then lo := i;
      if i > !hi then hi := i
    done;
    let each f =
      for j = pos to pos + len - 1 do
        f a.(j)
      done
    in
    if !lo >= 0 && !hi < 0x100 then begin
      Buffer.add_char b '\001';
      each (fun i -> Buffer.add_char b (Char.unsafe_chr i))
    end
    else if !lo >= 0 && !hi < 0x1_0000 then begin
      Buffer.add_char b '\002';
      each (fun i -> Buffer.add_uint16_le b i)
    end
    else if !lo >= -0x8000_0000 && !hi < 0x8000_0000 then begin
      Buffer.add_char b '\004';
      each (fun i -> Buffer.add_int32_le b (Int32.of_int i))
    end
    else begin
      Buffer.add_char b '\008';
      each (fun i -> buf_i64 b i)
    end

  let add_int_array w a = add_int_sub w a ~pos:0 ~len:(Array.length a)

  let add_string w s =
    let b = cur w in
    buf_i64 b (String.length s);
    Buffer.add_string b s

  let add_rat w q =
    let b = cur w in
    let open Lll_num in
    match Rat.to_ints_opt q with
    | Some (n, d) ->
      Buffer.add_char b '\000';
      buf_i64 b n;
      buf_i64 b d
    | _ ->
      Buffer.add_char b '\001';
      let ns = Bigint.to_string (Rat.num q) and ds = Bigint.to_string (Rat.den q) in
      buf_i64 b (String.length ns);
      Buffer.add_string b ns;
      buf_i64 b (String.length ds);
      Buffer.add_string b ds

  (* Run-length encoding: (count, value) pairs until the declared total
     is reached. Probability and weight columns repeat a handful of
     values, so most arrays collapse to one or two runs. *)
  let add_rat_sub w qs ~pos ~len =
    add_int w len;
    let stop = pos + len in
    let i = ref pos in
    while !i < stop do
      let j = ref (!i + 1) in
      while !j < stop && Lll_num.Rat.equal qs.(!j) qs.(!i) do
        incr j
      done;
      add_int w (!j - !i);
      add_rat w qs.(!i);
      i := !j
    done

  let add_rat_array w qs = add_rat_sub w qs ~pos:0 ~len:(Array.length qs)

  let contents w =
    flush_cur w;
    let sections = List.rev w.w_done in
    let p = Buffer.create 4096 in
    buf_i64 p (List.length sections);
    List.iter
      (fun (tag, body) ->
        buf_i64 p (String.length tag);
        Buffer.add_string p tag;
        buf_i64 p (Buffer.length body);
        Buffer.add_buffer p body)
      sections;
    let payload = Buffer.contents p in
    let h = Buffer.create (String.length payload + 64) in
    Buffer.add_string h magic;
    buf_i64 h format_version;
    buf_i64 h (String.length w.w_kind);
    Buffer.add_string h w.w_kind;
    buf_i64 h (checksum_string payload);
    Buffer.add_string h payload;
    Buffer.contents h

  (* -- reader -- *)

  let header_i64 src pos what =
    if pos + 8 > src.len then corrupt "truncated header (%s)" what;
    src_i64 src pos

  (* The fixed-layout header: magic, version, kind, stored checksum.
     Returns the kind, the stored checksum and the payload offset. *)
  let read_header src =
    if src.len < 4 || src_string src 0 4 <> magic then corrupt "bad magic";
    let version = header_i64 src 4 "version" in
    if version <> format_version then
      corrupt "unsupported version %d (expected %d)" version format_version;
    let klen = header_i64 src 12 "kind" in
    if klen < 0 || klen > src.len - 20 then corrupt "truncated header (kind)";
    (src_string src 20 klen, header_i64 src (20 + klen) "checksum", 28 + klen)

  type reader = {
    r_data : source;
    mutable r_pos : int; (* cursor within the current section *)
    mutable r_limit : int; (* end of the current section *)
    mutable r_cur_tag : string;
    mutable r_next : (string * int * int) list; (* (tag, start, length) *)
    mutable r_rat : (int * int * Lll_num.Rat.t) option; (* last small rational *)
  }

  let open_reader ~kind src =
    let len = src.len in
    let k, stored, payload_pos = read_header src in
    if k <> kind then corrupt "kind mismatch: expected %s, got %s" kind k;
    let pos = ref payload_pos in
    let rd_i64 what =
      let v = header_i64 src !pos what in
      pos := !pos + 8;
      v
    in
    (* walk the section table first so truncation reports as such; the
       checksum then vouches for the body bytes *)
    let count = rd_i64 "section count" in
    if count < 0 then corrupt "negative section count";
    let sections = ref [] in
    for _ = 1 to count do
      let tlen = rd_i64 "section tag" in
      if tlen < 0 || tlen > len - !pos then corrupt "truncated section table";
      let tag = src_string src !pos tlen in
      pos := !pos + tlen;
      let blen = rd_i64 "section length" in
      if blen < 0 || blen > len - !pos then corrupt "truncated section %s" tag;
      sections := (tag, !pos, blen) :: !sections;
      pos := !pos + blen
    done;
    if !pos <> len then corrupt "trailing bytes after last section";
    if checksum_src src payload_pos (len - payload_pos) <> stored then
      corrupt "checksum mismatch";
    {
      r_data = src;
      r_pos = 0;
      r_limit = 0;
      r_cur_tag = "<none>";
      r_next = List.rev !sections;
      r_rat = None;
    }

  (* A cheap identity for a container file without decoding (or even
     touching) its payload: kind, stored checksum, and byte length from
     the header. [None] when the file is not a v3 container. *)
  let fingerprint_file path =
    match source_of_path path with
    | exception Unix.Unix_error _ -> None
    | src -> (
      match read_header src with
      | exception Corrupt _ -> None
      | kind, stored, _ ->
        Some (Printf.sprintf "%s:v%d:%x:%d" kind format_version stored src.len))

  let enter r tag =
    if r.r_pos <> r.r_limit then
      corrupt "section %s: %d unread bytes" r.r_cur_tag (r.r_limit - r.r_pos);
    match r.r_next with
    | [] -> corrupt "missing section %s" tag
    | (t, start, blen) :: rest ->
      if t <> tag then corrupt "expected section %s, found %s" tag t;
      r.r_next <- rest;
      r.r_pos <- start;
      r.r_limit <- start + blen;
      r.r_cur_tag <- t

  let read_int r =
    if r.r_pos + 8 > r.r_limit then corrupt "section %s: truncated value" r.r_cur_tag;
    let v = src_i64 r.r_data r.r_pos in
    r.r_pos <- r.r_pos + 8;
    v

  (* [!dst] with room for [need] elements: itself, or a copy at least
     twice as long holding its first [keep] elements. *)
  let reserve dst ~keep ~need fill =
    if need > Array.length !dst then begin
      let a = Array.make (max need (2 * Array.length !dst)) fill in
      Array.blit !dst 0 a 0 keep;
      dst := a
    end

  let read_int_array_into r dst ~pos =
    let n = read_int r in
    if n < 0 || r.r_pos >= r.r_limit then
      corrupt "section %s: truncated array" r.r_cur_tag;
    let width = src_byte r.r_data r.r_pos in
    r.r_pos <- r.r_pos + 1;
    (match width with
    | 1 | 2 | 4 | 8 -> ()
    | _ -> corrupt "section %s: bad array width %d" r.r_cur_tag width);
    if n > (r.r_limit - r.r_pos) / width then
      corrupt "section %s: truncated array" r.r_cur_tag;
    reserve dst ~keep:pos ~need:(pos + n) 0;
    let a = !dst in
    let { buf; off; _ } = r.r_data in
    let b0 = off + r.r_pos in
    (match width with
    | 1 ->
      for i = 0 to n - 1 do
        a.(pos + i) <- Char.code (Bigarray.Array1.unsafe_get buf (b0 + i))
      done
    | 2 ->
      for i = 0 to n - 1 do
        a.(pos + i) <- get16u buf (b0 + (2 * i))
      done
    | 4 ->
      for i = 0 to n - 1 do
        a.(pos + i) <- Int32.to_int (get32u buf (b0 + (4 * i)))
      done
    | _ ->
      for i = 0 to n - 1 do
        a.(pos + i) <- Int64.to_int (get64u buf (b0 + (8 * i)))
      done);
    r.r_pos <- r.r_pos + (n * width);
    n

  let read_int_array r =
    let a = ref [||] in
    ignore (read_int_array_into r a ~pos:0);
    !a

  let read_string r =
    let n = read_int r in
    if n < 0 || n > r.r_limit - r.r_pos then corrupt "section %s: truncated string" r.r_cur_tag;
    let s = src_string r.r_data r.r_pos n in
    r.r_pos <- r.r_pos + n;
    s

  (* Like {!read_string} but yields a window into the reader's backing
     bytes instead of copying them out — the zero-copy path for nested
     containers (an instance's DEPG section holds a whole graph
     container). *)
  let read_blob r =
    let n = read_int r in
    if n < 0 || n > r.r_limit - r.r_pos then corrupt "section %s: truncated blob" r.r_cur_tag;
    let s = src_sub r.r_data r.r_pos n in
    r.r_pos <- r.r_pos + n;
    s

  (* A '\000'-tagged rational: bulk payloads repeat a handful of values
     (uniform probs, equal table weights), so the previous one is reused
     when it recurs. *)
  let small_rat r n d =
    if d = 0 then corrupt "zero rational denominator";
    match r.r_rat with
    | Some (n', d', q) when n = n' && d = d' -> q
    | _ ->
      let q = Lll_num.Rat.of_ints n d in
      r.r_rat <- Some (n, d, q);
      q

  let read_rat r =
    if r.r_pos >= r.r_limit then corrupt "section %s: truncated rational" r.r_cur_tag;
    let tag = Char.chr (src_byte r.r_data r.r_pos) in
    r.r_pos <- r.r_pos + 1;
    let open Lll_num in
    match tag with
    | '\000' ->
      let n = read_int r in
      small_rat r n (read_int r)
    | '\001' -> (
      let ns = read_string r in
      let ds = read_string r in
      try Rat.make (Bigint.of_string ns) (Bigint.of_string ds)
      with Invalid_argument _ -> corrupt "bad rational")
    | c -> corrupt "bad rational tag %d" (Char.code c)

  let read_rat_array_into r dst ~pos =
    let n = read_int r in
    if n < 0 then corrupt "section %s: negative rational count" r.r_cur_tag;
    reserve dst ~keep:pos ~need:(pos + n) Lll_num.Rat.one;
    let a = !dst in
    let filled = ref 0 in
    let checked_run run =
      if run <= 0 || run > n - !filled then corrupt "section %s: bad rational run" r.r_cur_tag;
      run
    in
    let fill run q =
      Array.fill a (pos + !filled) run q;
      filled := !filled + run
    in
    (* Probability columns are long sequences of fixed-size 25-byte
       small-rational run records (run i64, tag '\000', num i64, den
       i64): decode those with one bounds check per record. Big-integer
       entries, truncated tails and foreign tags take the generic
       reader, which raises the same [Corrupt] on damage. *)
    while !filled < n do
      let p = r.r_pos in
      if p + 25 <= r.r_limit && src_byte r.r_data (p + 8) = 0 then begin
        r.r_pos <- p + 25;
        let run = checked_run (src_i64 r.r_data p) in
        fill run (small_rat r (src_i64 r.r_data (p + 9)) (src_i64 r.r_data (p + 17)))
      end
      else
        let run = checked_run (read_int r) in
        fill run (read_rat r)
    done;
    n

  let read_rat_array r =
    let a = ref [||] in
    ignore (read_rat_array_into r a ~pos:0);
    !a

  let close r =
    if r.r_pos <> r.r_limit then
      corrupt "section %s: %d unread bytes" r.r_cur_tag (r.r_limit - r.r_pos);
    match r.r_next with
    | [] -> ()
    | (tag, _, _) :: _ -> corrupt "unconsumed section %s" tag
end

(* ---- binary graph codec ---- *)

let graph_bin_kind = "graph"

let graph_to_binary g =
  let { Graph.csr_n; csr_ends; csr_offsets; csr_neighbors; csr_edge_ids } = Graph.csr g in
  let w = Bin.make_writer ~kind:graph_bin_kind in
  Bin.section w "GRPH";
  Bin.add_int w csr_n;
  Bin.section w "EDGE";
  Bin.add_int_array w csr_ends;
  Bin.section w "COFF";
  Bin.add_int_array w csr_offsets;
  Bin.section w "CNBR";
  Bin.add_int_array w csr_neighbors;
  Bin.section w "CEID";
  Bin.add_int_array w csr_edge_ids;
  Bin.contents w

let graph_of_binary_src src =
  let r = Bin.open_reader ~kind:graph_bin_kind src in
  Bin.enter r "GRPH";
  let n = Bin.read_int r in
  Bin.enter r "EDGE";
  let ends = Bin.read_int_array r in
  if Array.length ends land 1 <> 0 then raise (Bin.Corrupt "odd edge endpoint array");
  Bin.enter r "COFF";
  let off = Bin.read_int_array r in
  Bin.enter r "CNBR";
  let nbr = Bin.read_int_array r in
  Bin.enter r "CEID";
  let eid = Bin.read_int_array r in
  Bin.close r;
  try
    Graph.of_csr
      {
        Graph.csr_n = n;
        csr_ends = ends;
        csr_offsets = off;
        csr_neighbors = nbr;
        csr_edge_ids = eid;
      }
  with Invalid_argument msg -> raise (Bin.Corrupt msg)
