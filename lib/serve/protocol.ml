(* The length-framed wire protocol of the solve service.

   A frame is [u32 LE payload length][payload]. The payload is one
   header line — space-separated [key=value] tokens, values
   percent-escaped — followed by '\n' and an arbitrary byte body
   (serialized instances, JSON metrics, report text). Both requests and
   responses are frames:

     request:   op=solve family=ring n=64 solver=fix3 seed=7 stream=1
     request:   op=solve body=1 ...\n<serialized instance bytes>
     response:  frame=metrics id=0 ...\n<one JSON round record>
     response:  frame=result id=0 status=ok cache=hit rounds=3 ...\n<report text>

   Batches are explicit: [op=batch count=K] followed by K request
   frames; the scheduler answers with response frames tagged by each
   request's position [id] in the batch (metrics frames stream as they
   are produced; result frames arrive in request order). A lone request
   is a batch of one. *)

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* Frames above this size are assumed hostile/corrupt, not legitimate.
   The bound is configurable (a fleet fronting huge uploaded blobs may
   raise it; a hardened public endpoint may shrink it) but never drops
   below one page of header room, so legitimate control frames always
   fit. [read_frame] allocates incrementally while the body arrives, so
   a hostile length header costs the peer bytes-on-the-wire, not a
   server-side [Bytes.create] of the advertised size. *)
let min_max_frame = 4096
let default_max_frame = 1 lsl 30
let max_frame_ref = ref default_max_frame
let max_frame () = !max_frame_ref

let set_max_frame n =
  if n < min_max_frame then
    invalid_arg (Printf.sprintf "Protocol.set_max_frame: need >= %d bytes" min_max_frame);
  max_frame_ref := n

(* batches above this count are rejected before any frame is read *)
let max_batch = 4096

type frame = { header : (string * string) list; body : string }

(* ---- header token escaping ---- *)

let escape_value v =
  let needs_escape = ref false in
  String.iter
    (fun c -> match c with ' ' | '\n' | '\r' | '=' | '%' -> needs_escape := true | _ -> ())
    v;
  if not !needs_escape then v
  else begin
    let b = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        match c with
        | ' ' | '\n' | '\r' | '=' | '%' -> Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c))
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b
  end

let unescape_value v =
  if not (String.contains v '%') then v
  else begin
    let b = Buffer.create (String.length v) in
    let n = String.length v in
    let i = ref 0 in
    while !i < n do
      (if v.[!i] = '%' && !i + 2 < n then begin
         match int_of_string_opt ("0x" ^ String.sub v (!i + 1) 2) with
         | Some c ->
           Buffer.add_char b (Char.chr c);
           i := !i + 2
         | None -> Buffer.add_char b v.[!i]
       end
       else Buffer.add_char b v.[!i]);
      incr i
    done;
    Buffer.contents b
  end

(* ---- frame encode/decode ---- *)

let encode { header; body } =
  let b = Buffer.create (256 + String.length body) in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (escape_value v))
    header;
  Buffer.add_char b '\n';
  Buffer.add_string b body;
  Buffer.contents b

let decode payload =
  let header_line, body =
    match String.index_opt payload '\n' with
    | Some i -> (String.sub payload 0 i, String.sub payload (i + 1) (String.length payload - i - 1))
    | None -> (payload, "")
  in
  let header =
    String.split_on_char ' ' header_line
    |> List.filter (fun t -> t <> "")
    |> List.map (fun tok ->
           match String.index_opt tok '=' with
           | Some i ->
             ( String.sub tok 0 i,
               unescape_value (String.sub tok (i + 1) (String.length tok - i - 1)) )
           | None -> fail "malformed header token %S" tok)
  in
  { header; body }

let write_frame oc frame =
  let payload = encode frame in
  let len = String.length payload in
  if len > !max_frame_ref then fail "frame too large (%d bytes)" len;
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int len);
  output_bytes oc hdr;
  output_string oc payload;
  flush oc

(* Read [len] body bytes in bounded chunks: the buffer grows with the
   bytes that actually arrive, so a length header lying about a huge
   body cannot drive one giant allocation up front. *)
let read_chunk = 1 lsl 20

let read_payload ic len =
  if len <= read_chunk then really_input_string ic len
  else begin
    let buf = Buffer.create read_chunk in
    let remaining = ref len in
    while !remaining > 0 do
      let take = min read_chunk !remaining in
      Buffer.add_string buf (really_input_string ic take);
      remaining := !remaining - take
    done;
    Buffer.contents buf
  end

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | hdr ->
    (* the length is a u32 on the wire: decode unsigned so a hostile
       high bit reports as oversized, not as a negative length *)
    let len = Int32.to_int (String.get_int32_le hdr 0) land 0xFFFF_FFFF in
    if len > !max_frame_ref then
      fail "frame length %d exceeds the %d-byte limit" len !max_frame_ref;
    (match read_payload ic len with
    | payload -> Some (decode payload)
    | exception End_of_file -> fail "truncated frame (wanted %d bytes)" len)

(* ---- header accessors ---- *)

let get frame key = List.assoc_opt key frame.header

let get_exn frame key =
  match get frame key with Some v -> v | None -> fail "missing header field %S" key

let get_int frame key =
  match get frame key with
  | None -> None
  | Some v -> (
    match int_of_string_opt v with
    | Some i -> Some i
    | None -> fail "field %S is not an integer: %S" key v)

let get_bool frame key =
  match get frame key with None | Some "0" -> false | Some _ -> true
