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

(* The weighted table of an event: straight from the space's compiled
   cache when it has one, otherwise by brute-force enumeration with the
   joint probabilities recomputed. *)
let weighted_table space e =
  let scope = Event.scope e in
  let k = Array.length scope in
  let arities = Array.map (fun v -> Var.arity (Space.var space v)) scope in
  match Space.compiled_table space e with
  | Some tab ->
    let rows =
      Array.to_list
        (Array.mapi
           (fun j code ->
             (Array.init k (fun pos -> Event.value_at tab ~pos ~code), tab.Event.weights.(j)))
           tab.Event.codes)
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

   Loading is the fast path the text format cannot take: variables and
   events are rebuilt directly from the stored columns
   ([Event.of_table] re-derives strides and the sat bitmap and installs
   the bitmap as the event's predicate — the same closure replacement
   the text loader performs via [of_bad_set], so tables and enumeration
   solve identically), tables are installed into the space without
   recompiling, the dependency graph decodes through [Graph.of_csr]'s
   structural validation, and [Instance.of_precomputed] skips the
   O(Σ deg²) pair enumeration. Unlike the self-checking text v2 loader,
   weights are trusted verbatim: the container checksum guards
   transport corruption, which is what re-derivation caught in
   practice — that skip is most of the speed win. Cross-conversion with
   text v2 is lossless (same vars, scopes, satisfying sets, weights). *)

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
      match Space.compiled_table space e with
      | Some tab ->
        Bin.add_int_array w tab.Event.codes;
        Bin.add_rat_array w tab.Event.weights
      | None ->
        (* no cached table (a scope too large to tabulate): enumerate.
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
  let vars =
    Array.init nvars (fun i ->
        let name = Bin.read_string r in
        let probs = Bin.read_rat_array r in
        guard (fun () -> Var.make ~id:i ~name probs))
  in
  Bin.enter r "EVTS";
  let nevents = Bin.read_int r in
  if nevents < 0 then corrupt "negative event count";
  let compiled =
    Array.init nevents (fun i ->
        let name = Bin.read_string r in
        let scope = Bin.read_int_array r in
        Array.iter (fun vid -> if vid < 0 || vid >= nvars then corrupt "scope outside space") scope;
        let arities = Array.map (fun vid -> Var.arity vars.(vid)) scope in
        let codes = Bin.read_int_array r in
        let weights = Bin.read_rat_array r in
        if Array.length weights <> Array.length codes then
          corrupt "codes/weights count mismatch";
        guard (fun () -> Event.of_table ~id:i ~name ~scope ~arities ~codes ~weights))
  in
  Bin.enter r "DEPG";
  (* the nested graph container decodes straight out of the parent's
     backing bytes — no copy of the (dominant) DEPG section *)
  let gblob = Bin.read_blob r in
  Bin.close r;
  let dep_graph = Serialize.graph_of_binary_src gblob in
  let space = guard (fun () -> Space.create vars) in
  Array.iter (fun (e, tab) -> Space.install_table space e tab) compiled;
  let events = Array.map fst compiled in
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
