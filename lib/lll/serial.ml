(* Textual serialization of LLL instances.

   An event's exact content is its satisfying set over its scope, so a
   dump writes each event as a table. This is intended for the bounded
   scopes of LLL instances (the format guards against accidentally
   exploding tables). Distributions are written as exact rationals
   ("n" or "n/d").

   Each event is written as its compiled weighted table (the "p wtable"
   block of {!Lll_graph.Serialize}): satisfying tuples WITH their exact
   joint probabilities, emitted straight from the space's table cache
   when available. The loader re-derives each weight from the variable
   distributions and rejects any mismatch, so a file is self-checking.
   Line oriented, '#' comments and blank lines allowed:

     lll-instance v2
     vars <count>
     var <id> <name> <arity> <p_0> <p_1> ... <p_{arity-1}>
     events <count>
     event <id> <name> <scope size> <v_1> ... <v_k>
     p wtable <scope size> <row count>
     a <arity_1> ... <arity_k>
     w <x_1> ... <x_k> <weight>   (one line per satisfying tuple)

   Round trips exactly: probabilities, scopes and satisfying sets are
   preserved verbatim (tested). *)

module Rat = Lll_num.Rat
module Var = Lll_prob.Var
module Event = Lll_prob.Event
module Space = Lll_prob.Space
module Serialize = Lll_graph.Serialize

let max_table = 1 lsl 20

exception Parse_error of { line : int; message : string }

let parse_fail line message = raise (Parse_error { line; message })

(* Enumerate the bad tuples of an event by brute force over its scope. *)
let bad_tuples space event =
  let scope = Event.scope event in
  let arities = Array.map (fun v -> Var.arity (Space.var space v)) scope in
  let total = Array.fold_left (fun acc a -> acc * a) 1 arities in
  if total > max_table then
    invalid_arg
      (Printf.sprintf "Serial: event %s has a %d-entry table (limit %d)" (Event.name event)
         total max_table);
  let k = Array.length scope in
  let tuple = Array.make k 0 in
  let acc = ref [] in
  let lookup vid =
    let rec find j = if scope.(j) = vid then tuple.(j) else find (j + 1) in
    find 0
  in
  let rec go i =
    if i = k then begin
      if Event.pred_holds event lookup then acc := Array.to_list (Array.copy tuple) :: !acc
    end
    else
      for x = 0 to arities.(i) - 1 do
        tuple.(i) <- x;
        go (i + 1)
      done
  in
  go 0;
  List.rev !acc

(* ---- emitting ---- *)

(* names are single tokens in the format *)
let sanitize name =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' then '_' else c) name

(* The weighted table of an event: straight from the space's table
   store when it has the event's rows, otherwise by brute-force
   enumeration with the joint probabilities recomputed. *)
let weighted_table space e =
  let scope = Event.scope e in
  let k = Array.length scope in
  let arities = Array.map (fun v -> Var.arity (Space.var space v)) scope in
  match Space.table_rows space e with
  | Some t ->
    let value code pos = code / t.Space.strides.(t.Space.stride0 + pos) mod arities.(pos) in
    let rows =
      List.init (t.Space.last - t.Space.first) (fun r ->
          let j = t.Space.first + r in
          (Array.init k (value t.Space.codes.(j)), t.Space.weights.(j)))
    in
    { Serialize.arities; rows }
  | None ->
    let rows =
      List.map
        (fun tuple ->
          let xs = Array.of_list tuple in
          let w = ref Rat.one in
          Array.iteri
            (fun j x -> w := Rat.mul !w (Var.prob (Space.var space scope.(j)) x))
            xs;
          (xs, !w))
        (bad_tuples space e)
    in
    { Serialize.arities; rows }

let emit out instance =
  let space = Instance.space instance in
  let pf fmt = Printf.ksprintf out fmt in
  pf "lll-instance v2\n";
  pf "vars %d\n" (Instance.num_vars instance);
  Array.iter
    (fun v ->
      pf "var %d %s %d" (Var.id v) (sanitize (Var.name v)) (Var.arity v);
      Array.iter (fun q -> pf " %s" (Rat.to_string q)) (Var.probs v);
      pf "\n")
    (Space.vars space);
  pf "events %d\n" (Instance.num_events instance);
  Array.iter
    (fun e ->
      let scope = Event.scope e in
      pf "event %d %s %d" (Event.id e) (sanitize (Event.name e)) (Array.length scope);
      Array.iter (fun v -> pf " %d" v) scope;
      pf "\n";
      out (Serialize.weighted_table_to_string (weighted_table space e)))
    (Instance.events instance)

let to_string instance =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) instance;
  Buffer.contents buf

let save path instance =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit (output_string oc) instance)

(* ---- parsing ---- *)

let tokens_of_line line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* Parse from a numbered stream of non-empty, non-comment lines. *)
let parse_lines lines =
  let lines = ref lines in
  let lineno = ref 0 in
  let next_line () =
    let rec go () =
      match !lines with
      | [] -> parse_fail !lineno "unexpected end of input"
      | l :: rest ->
        incr lineno;
        lines := rest;
        let l = String.trim l in
        if l = "" || l.[0] = '#' then go () else l
    in
    go ()
  in
  let expect_int tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> parse_fail !lineno (Printf.sprintf "expected integer, got %S" tok)
  in
  (match next_line () with
  | "lll-instance v2" -> ()
  | l -> parse_fail !lineno (Printf.sprintf "bad header %S" l));
  let nvars =
    match tokens_of_line (next_line ()) with
    | [ "vars"; n ] -> expect_int n
    | _ -> parse_fail !lineno "expected 'vars <count>'"
  in
  let vars =
    Array.init nvars (fun i ->
        match tokens_of_line (next_line ()) with
        | "var" :: id :: name :: arity :: probs ->
          let id = expect_int id in
          if id <> i then parse_fail !lineno "variable ids must be consecutive";
          let arity = expect_int arity in
          if List.length probs <> arity then parse_fail !lineno "wrong number of probabilities";
          let prob tok =
            try Rat.of_string tok
            with Invalid_argument _ -> parse_fail !lineno (Printf.sprintf "bad probability %S" tok)
          in
          let probs = Array.of_list (List.map prob probs) in
          (try Var.make ~id ~name probs with Invalid_argument msg -> parse_fail !lineno msg)
        | _ -> parse_fail !lineno "expected 'var ...'")
  in
  let nevents =
    match tokens_of_line (next_line ()) with
    | [ "events"; n ] -> expect_int n
    | _ -> parse_fail !lineno "expected 'events <count>'"
  in
  let events =
    Array.init nevents (fun i ->
        match tokens_of_line (next_line ()) with
        | "event" :: id :: name :: k :: rest ->
          let id = expect_int id in
          if id <> i then parse_fail !lineno "event ids must be consecutive";
          let k = expect_int k in
          if List.length rest <> k then parse_fail !lineno "bad event line";
          let scope = Array.of_list (List.map expect_int rest) in
          Array.iter
            (fun v -> if v < 0 || v >= nvars then parse_fail !lineno "scope outside space")
            scope;
          let wt =
            Serialize.weighted_table_of_lines ~next_line ~fail:(fun message ->
                Parse_error { line = !lineno; message })
          in
          if Array.length wt.Serialize.arities <> k then
            parse_fail !lineno "wtable scope size mismatch";
          Array.iteri
            (fun j a ->
              if a <> Var.arity vars.(scope.(j)) then
                parse_fail !lineno "wtable arity disagrees with variable")
            wt.Serialize.arities;
          (* weights are redundant given the distributions — re-derive
             and reject any disagreement, making the file self-checking *)
          List.iter
            (fun (xs, w) ->
              let expected = ref Rat.one in
              Array.iteri
                (fun j x -> expected := Rat.mul !expected (Var.prob vars.(scope.(j)) x))
                xs;
              if not (Rat.equal w !expected) then
                parse_fail !lineno "wtable weight disagrees with distributions")
            wt.Serialize.rows;
          Event.of_bad_set ~id ~name ~scope
            (List.map (fun (xs, _) -> Array.to_list xs) wt.Serialize.rows)
        | _ -> parse_fail !lineno "expected 'event ...'")
  in
  Instance.create (Space.create vars) events

let of_string s = parse_lines (String.split_on_char '\n' s)

(* ---- v3 binary format ----

   A {!Lll_graph.Serialize.Bin} container of kind "instance":

     VARS  nvars, then per variable: name, probs (run-length encoded)
     EVTS  nevents, then per event: name, scope, occurring row codes
           (ascending mixed-radix, width-packed), weights (run-length
           encoded)
     DEPG  the dependency graph as a nested binary graph blob

   Loading is the fast path the text format cannot take. Each event's
   row codes and weights decode straight into two flat columns, which
   [Space.load_tables] checks and keeps as the space's table store (it
   derives strides and bitmaps and makes each event's predicate its
   bitmap — the same closure replacement the text loader performs via
   [of_bad_set], so tables and enumeration solve identically); nothing
   is recompiled, and no per-event table is built. A variable whose
   distribution equals the previous one's shares it unchecked. The
   dependency graph decodes through [Graph.of_csr]'s structural
   validation, and [Instance.of_precomputed] skips the O(Σ deg²) pair
   enumeration. Unlike the self-checking text v2 loader, weights are
   trusted verbatim: the container checksum guards transport
   corruption, which is what re-derivation caught in practice — that
   skip is most of the speed win. Cross-conversion with text v2 is
   lossless (same vars, scopes, satisfying sets, weights). *)

module Bin = Serialize.Bin

let binary_kind = "instance"

let to_binary_string instance =
  let space = Instance.space instance in
  let w = Bin.make_writer ~kind:binary_kind in
  Bin.section w "VARS";
  Bin.add_int w (Instance.num_vars instance);
  Array.iter
    (fun v ->
      Bin.add_string w (Var.name v);
      Bin.add_rat_array w (Var.probs v))
    (Space.vars space);
  Bin.section w "EVTS";
  Bin.add_int w (Instance.num_events instance);
  Array.iter
    (fun e ->
      Bin.add_string w (Event.name e);
      Bin.add_int_array w (Event.scope e);
      match Space.table_rows space e with
      | Some t ->
        let len = t.Space.last - t.Space.first in
        Bin.add_int_sub w t.Space.codes ~pos:t.Space.first ~len;
        Bin.add_rat_sub w t.Space.weights ~pos:t.Space.first ~len
      | None ->
        (* no rows in the store (a scope too large to tabulate): enumerate.
           Nested ascending enumeration yields ascending codes. *)
        let wt = weighted_table space e in
        let k = Array.length wt.Serialize.arities in
        let strides = Array.make (max k 1) 1 in
        for i = k - 2 downto 0 do
          strides.(i) <- strides.(i + 1) * wt.Serialize.arities.(i + 1)
        done;
        let code_of xs =
          let c = ref 0 in
          Array.iteri (fun i x -> c := !c + (x * strides.(i))) xs;
          !c
        in
        let rows = Array.of_list wt.Serialize.rows in
        Bin.add_int_array w (Array.map (fun (xs, _) -> code_of xs) rows);
        Bin.add_rat_array w (Array.map snd rows))
    (Instance.events instance);
  Bin.section w "DEPG";
  Bin.add_string w (Serialize.graph_to_binary (Instance.dep_graph instance));
  Bin.contents w

let of_binary_source src =
  let corrupt msg = raise (Bin.Corrupt msg) in
  let guard f = try f () with Invalid_argument msg -> corrupt msg in
  let r = Bin.open_reader ~kind:binary_kind src in
  Bin.enter r "VARS";
  let nvars = Bin.read_int r in
  if nvars < 0 then corrupt "negative variable count";
  (* probabilities decode into one scratch column; a variable with the
     previous variable's distribution shares it, so the check runs once
     per run of equal distributions *)
  let probs = ref [||] in
  let vars = Array.make nvars (Var.uniform ~id:0 ~name:"" 1) in
  let same_as prev k =
    Var.arity prev = k
    &&
    let p = !probs and y = ref 0 in
    while !y < k && Rat.equal (Var.prob prev !y) p.(!y) do
      incr y
    done;
    !y = k
  in
  for i = 0 to nvars - 1 do
    let name = Bin.read_string r in
    let k = Bin.read_rat_array_into r probs ~pos:0 in
    vars.(i) <-
      (if i > 0 && same_as vars.(i - 1) k then Var.same_distribution ~id:i ~name vars.(i - 1)
       else guard (fun () -> Var.make ~id:i ~name (Array.sub !probs 0 k)))
  done;
  Bin.enter r "EVTS";
  let nevents = Bin.read_int r in
  if nevents < 0 then corrupt "negative event count";
  let names = Array.make nevents "" and scopes = Array.make nevents [||] in
  let row_off = Array.make (nevents + 1) 0 in
  let codes = ref (Array.make (2 * nevents) 0) in
  let weights = ref (Array.make (2 * nevents) Rat.zero) in
  for i = 0 to nevents - 1 do
    names.(i) <- Bin.read_string r;
    scopes.(i) <- Bin.read_int_array r;
    let lo = row_off.(i) in
    let nc = Bin.read_int_array_into r codes ~pos:lo in
    let nw = Bin.read_rat_array_into r weights ~pos:lo in
    if nw <> nc then corrupt "codes/weights count mismatch";
    row_off.(i + 1) <- lo + nc
  done;
  Bin.enter r "DEPG";
  (* the nested graph container decodes straight out of the parent's
     backing bytes — no copy of the (dominant) DEPG section *)
  let gblob = Bin.read_blob r in
  Bin.close r;
  let dep_graph = Serialize.graph_of_binary_src gblob in
  let space = guard (fun () -> Space.create vars) in
  let events =
    guard (fun () ->
        Space.load_tables space ~names ~scopes ~row_off ~codes:!codes ~weights:!weights)
  in
  guard (fun () -> Instance.of_precomputed space events ~dep_graph)

let of_binary_string s = of_binary_source (Bin.source_of_string s)

let load_binary_mmap path =
  of_binary_source (Bin.source_of_path path)

let binary_fingerprint path = Bin.fingerprint_file path

let save_binary path instance =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_binary_string instance))

let is_binary s = String.length s >= 4 && String.sub s 0 4 = "LLL3"
let of_any_string s = if is_binary s then of_binary_string s else of_string s

(* binary containers are mapped, never read into the heap; only text
   files are slurped *)
let load_any path =
  let text =
    In_channel.with_open_bin path (fun ic ->
        let head = really_input_string ic (min 4 (in_channel_length ic)) in
        if is_binary head then None else Some (head ^ In_channel.input_all ic))
  in
  match text with None -> load_binary_mmap path | Some s -> of_string s
