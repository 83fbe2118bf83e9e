(* Round-count regression baselines (see baseline.mli).

   The artifact is JSON so humans can review re-baselining diffs; the
   repo carries no JSON dependency, so both the emitter and the (small,
   schema-specific) recursive-descent parser live here, following the
   precedent of Metrics.to_json. *)

type band = { lo : int; hi : int }
type entry = { e_family : string; e_engine : string; e_n : int; band : band }
type witness = { w_family : string; w_engine : string }
type growth_note = { g_family : string; g_engine : string; g_growth : string }

type t = {
  version : int;
  tolerance : float;
  o1_cap : int;
  grid : int list;
  seeds : int list;
  entries : entry list;
  witnesses : witness list;
  growth : growth_note list;
}

let default_tolerance = 0.25

(* The randomized parallel Moser–Tardos witnesses saturate at 7 rounds
   by n = 960 on the PR 10 grid (they sat under 6 on the PR 6 grid,
   which stopped at 96); one round of slack on top. At-threshold
   deterministic series cross this ceiling well before n = 96, so the
   cap still separates the sides. *)
let default_o1_cap = 8

(* ------------------------------------------------------------------ *)
(* Derivation                                                          *)
(* ------------------------------------------------------------------ *)

(* rounds per (family, engine, n) across seeds *)
let collect ms =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (m : Run.measurement) ->
      match m.Run.rounds with
      | None -> ()
      | Some r ->
        let key = (m.Run.family, m.Run.engine, m.Run.n) in
        let cur = try Hashtbl.find tbl key with Not_found -> [] in
        Hashtbl.replace tbl key (r :: cur))
    ms;
  tbl

let of_measurements ?(tolerance = default_tolerance) ?(o1_cap = default_o1_cap) ~grid ~seeds
    ms fits =
  let tbl = collect ms in
  let entries =
    Hashtbl.fold
      (fun (fam, eng, n) rounds acc ->
        let lo = List.fold_left min max_int rounds in
        let hi = List.fold_left max 0 rounds in
        let slack = max 1 (int_of_float (ceil (tolerance *. float_of_int hi))) in
        { e_family = fam; e_engine = eng; e_n = n; band = { lo = max 0 (lo - slack); hi = hi + slack } }
        :: acc)
      tbl []
    |> List.sort (fun a b -> compare (a.e_family, a.e_engine, a.e_n) (b.e_family, b.e_engine, b.e_n))
  in
  (* every Below-side family needs an engine that stays O(1) on the grid *)
  let witnesses =
    List.filter_map
      (fun (f : Corpus.family) ->
        if f.Corpus.side <> Corpus.Below then None
        else begin
          let worst = Hashtbl.create 8 in
          Hashtbl.iter
            (fun (fam, eng, _) rounds ->
              if fam = f.Corpus.name then begin
                let cur = try Hashtbl.find worst eng with Not_found -> 0 in
                Hashtbl.replace worst eng (List.fold_left max cur rounds)
              end)
            tbl;
          let best =
            Hashtbl.fold
              (fun eng w acc ->
                match acc with
                | Some (_, w') when w' <= w -> acc
                | _ -> Some (eng, w))
              worst None
          in
          match best with
          | Some (eng, w) when w <= o1_cap ->
            Some { w_family = f.Corpus.name; w_engine = eng }
          | _ ->
            failwith
              (Printf.sprintf
                 "Baseline.of_measurements: sub-threshold family %s has no O(1) witness \
                  (cap %d rounds)"
                 f.Corpus.name o1_cap)
        end)
      Corpus.all
  in
  let growth =
    List.map
      (fun (f : Run.fit) ->
        {
          g_family = f.Run.f_family;
          g_engine = f.Run.f_engine;
          g_growth = Run.growth_to_string f.Run.f_growth;
        })
      fits
  in
  { version = 1; tolerance; o1_cap; grid; seeds; entries; witnesses; growth }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let check t ms =
  let tbl = collect ms in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (m : Run.measurement) ->
      Option.iter
        (fail "%s/%s n=%d seed=%d: engine crashed: %s" m.Run.family m.Run.engine m.Run.n
           m.Run.seed)
        m.Run.crashed)
    ms;
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl (e.e_family, e.e_engine, e.e_n) with
      | None ->
        fail "%s/%s n=%d: no measured round count (engine gone or rounds dropped)" e.e_family
          e.e_engine e.e_n
      | Some rounds ->
        List.iter
          (fun r ->
            if r < e.band.lo || r > e.band.hi then
              fail "%s/%s n=%d: %d rounds outside band [%d, %d]" e.e_family e.e_engine e.e_n
                r e.band.lo e.band.hi)
          rounds)
    t.entries;
  List.iter
    (fun w ->
      let worst = ref (-1) in
      Hashtbl.iter
        (fun (fam, eng, _) rounds ->
          if fam = w.w_family && eng = w.w_engine then
            worst := List.fold_left max !worst rounds)
        tbl;
      if !worst < 0 then
        fail "%s: O(1) witness engine %s reports no rounds anymore" w.w_family w.w_engine
      else if !worst > t.o1_cap then
        fail "%s: no longer O(1)-round-solvable by %s (%d rounds > cap %d)" w.w_family
          w.w_engine !worst t.o1_cap)
    t.witnesses;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let esc s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"version\": %d,\n" t.version;
  add "  \"tolerance\": %g,\n" t.tolerance;
  add "  \"o1_cap\": %d,\n" t.o1_cap;
  add "  \"grid\": [%s],\n" (String.concat ", " (List.map string_of_int t.grid));
  add "  \"seeds\": [%s],\n" (String.concat ", " (List.map string_of_int t.seeds));
  add "  \"witnesses\": [\n";
  List.iteri
    (fun i w ->
      add "    {\"family\": \"%s\", \"engine\": \"%s\"}%s\n" (esc w.w_family) (esc w.w_engine)
        (if i = List.length t.witnesses - 1 then "" else ","))
    t.witnesses;
  add "  ],\n";
  add "  \"growth\": [\n";
  List.iteri
    (fun i g ->
      add "    {\"family\": \"%s\", \"engine\": \"%s\", \"growth\": \"%s\"}%s\n"
        (esc g.g_family) (esc g.g_engine) (esc g.g_growth)
        (if i = List.length t.growth - 1 then "" else ","))
    t.growth;
  add "  ],\n";
  add "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      add "    {\"family\": \"%s\", \"engine\": \"%s\", \"n\": %d, \"lo\": %d, \"hi\": %d}%s\n"
        (esc e.e_family) (esc e.e_engine) e.e_n e.band.lo e.band.hi
        (if i = List.length t.entries - 1 then "" else ","))
    t.entries;
  add "  ]\n";
  add "}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON parsing (restricted to the schema above)                       *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnum of float
  | Jstr of string
  | Jlist of json list
  | Jobj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let error msg = failwith (Printf.sprintf "Baseline.of_json: %s at offset %d" msg !pos) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'
        | Some c -> Buffer.add_char b c
        | None -> error "dangling escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    if !pos = start then error "expected number";
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_list ()
    | Some ('0' .. '9' | '-') -> Jnum (parse_number ())
    | _ -> error "expected value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Jobj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ((key, v) :: acc)
        | Some '}' ->
          advance ();
          List.rev ((key, v) :: acc)
        | _ -> error "expected , or }"
      in
      Jobj (members [])
    end
  and parse_list () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Jlist []
    end
    else begin
      let rec elements acc =
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          elements (v :: acc)
        | Some ']' ->
          advance ();
          List.rev (v :: acc)
        | _ -> error "expected , or ]"
      in
      Jlist (elements [])
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then error "trailing input";
  v

let field obj key =
  match obj with
  | Jobj kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Baseline.of_json: missing field %S" key))
  | _ -> failwith "Baseline.of_json: expected an object"

let as_int = function
  | Jnum f -> int_of_float f
  | _ -> failwith "Baseline.of_json: expected a number"

let as_float = function Jnum f -> f | _ -> failwith "Baseline.of_json: expected a number"
let as_str = function Jstr s -> s | _ -> failwith "Baseline.of_json: expected a string"
let as_list = function Jlist l -> l | _ -> failwith "Baseline.of_json: expected a list"

let of_json s =
  let j = parse_json s in
  {
    version = as_int (field j "version");
    tolerance = as_float (field j "tolerance");
    o1_cap = as_int (field j "o1_cap");
    grid = List.map as_int (as_list (field j "grid"));
    seeds = List.map as_int (as_list (field j "seeds"));
    witnesses =
      List.map
        (fun w -> { w_family = as_str (field w "family"); w_engine = as_str (field w "engine") })
        (as_list (field j "witnesses"));
    growth =
      List.map
        (fun g ->
          {
            g_family = as_str (field g "family");
            g_engine = as_str (field g "engine");
            g_growth = as_str (field g "growth");
          })
        (as_list (field j "growth"));
    entries =
      List.map
        (fun e ->
          {
            e_family = as_str (field e "family");
            e_engine = as_str (field e "engine");
            e_n = as_int (field e "n");
            band = { lo = as_int (field e "lo"); hi = as_int (field e "hi") };
          })
        (as_list (field j "entries"));
  }

let save path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_json s
