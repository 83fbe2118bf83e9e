(* Bad events.

   An event has a scope (the ids of the variables it depends on) and a
   predicate evaluated on values of exactly those variables; the predicate
   receives a lookup function defined on the scope. The event "occurs" on
   an assignment iff the predicate is true.

   The closure is the AUTHORING interface. For computation, an event can
   be COMPILED against the distributions of its scope variables into a
   weighted satisfying-assignment table: one row per scope tuple on which
   the predicate holds, carrying the exact joint probability of that
   tuple. The table makes the event plain data — conditional
   probabilities become filtered row sums (see [Space]), and the
   satisfying set serializes without the closure. Tables are cached by
   the owning [Space] (not here), so one event used against two different
   spaces can never pick up the wrong weights. *)

module Rat = Lll_num.Rat

type t = {
  id : int;
  name : string;
  scope : int array; (* sorted distinct variable ids *)
  pred : (int -> int) -> bool;
}

(* A compiled event: the satisfying scope tuples, mixed-radix encoded.
   [codes] lists the satisfying row codes in increasing order;
   [weights.(j)] is the exact joint probability of row [codes.(j)] under
   the distributions the table was compiled against. [sat] is a dense
   membership bitmap over all [total] codes for O(1) "does this complete
   tuple satisfy the event" checks. *)
type table = {
  tscope : int array; (* = the event's scope *)
  arities : int array; (* arity of each scope variable, by position *)
  strides : int array; (* code = sum_i value_i * strides.(i) *)
  total : int; (* product of arities *)
  codes : int array;
  weights : Rat.t array;
  sat : Bytes.t;
}

let make ~id ~name ~scope pred =
  let scope = List.sort_uniq compare (Array.to_list scope) in
  { id; name; scope = Array.of_list scope; pred }

let id e = e.id
let name e = e.name
let scope e = e.scope
let depends_on e var_id = Array.exists (fun v -> v = var_id) e.scope

(* Apply the predicate to an explicit lookup function (used by the exact
   enumeration in [Space]). *)
let pred_holds e lookup = e.pred lookup

(* Evaluate on a complete-enough assignment (all scope variables fixed). *)
let holds e (a : Assignment.t) =
  e.pred (fun var_id ->
      if not (depends_on e var_id) then
        invalid_arg (Printf.sprintf "Event.holds: %s looked up out-of-scope variable %d" e.name var_id);
      Assignment.value_exn a var_id)

(* ---- compiled tables ---- *)

let default_max_rows = 1 lsl 20

let value_at tab ~pos ~code = code / tab.strides.(pos) mod tab.arities.(pos)

let table_mem tab code =
  Char.code (Bytes.get tab.sat (code lsr 3)) land (1 lsl (code land 7)) <> 0

(* Position of a variable id in the (sorted) compiled scope, by binary
   search; -1 when absent. *)
let scope_pos tab var_id =
  let lo = ref 0 and hi = ref (Array.length tab.tscope) in
  let res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = tab.tscope.(mid) in
    if v = var_id then begin
      res := mid;
      lo := !hi
    end
    else if v < var_id then lo := mid + 1
    else hi := mid
  done;
  !res

(* Mixed-radix code of a complete scope valuation. *)
let code_of tab lookup =
  let c = ref 0 in
  Array.iteri (fun i v -> c := !c + (lookup v * tab.strides.(i))) tab.tscope;
  !c

let compile ~arity_of ~prob_of ?(max_rows = default_max_rows) e =
  let k = Array.length e.scope in
  let arities = Array.map arity_of e.scope in
  let total =
    Array.fold_left (fun acc a -> if acc > max_rows then acc else acc * a) 1 arities
  in
  if total > max_rows then None
  else begin
    let strides = Array.make k 1 in
    for i = k - 2 downto 0 do
      strides.(i) <- strides.(i + 1) * arities.(i + 1)
    done;
    let tab =
      { tscope = e.scope; arities; strides; total; codes = [||]; weights = [||];
        sat = Bytes.make ((total + 7) / 8) '\000' }
    in
    (* enumerate every scope tuple; keep the satisfying ones with their
       exact joint probabilities *)
    let vals = Array.make k 0 in
    let lookup vid =
      let pos = scope_pos tab vid in
      if pos < 0 then
        invalid_arg (Printf.sprintf "Event.compile: %s looked up out-of-scope variable %d" e.name vid);
      vals.(pos)
    in
    let codes = ref [] and weights = ref [] and nrows = ref 0 in
    for code = total - 1 downto 0 do
      for i = 0 to k - 1 do
        vals.(i) <- code / strides.(i) mod arities.(i)
      done;
      if e.pred lookup then begin
        let w = ref Rat.one in
        for i = 0 to k - 1 do
          w := Rat.mul !w (prob_of e.scope.(i) vals.(i))
        done;
        codes := code :: !codes;
        weights := !w :: !weights;
        incr nrows;
        Bytes.set tab.sat (code lsr 3)
          (Char.chr (Char.code (Bytes.get tab.sat (code lsr 3)) lor (1 lsl (code land 7))))
      end
    done;
    Some { tab with codes = Array.of_list !codes; weights = Array.of_list !weights }
  end

(* Rebuild an event and its compiled table from stored parts (the v3
   binary instance loader). Only [codes]/[weights]/[arities] travel;
   strides, total and the sat bitmap are re-derived here, and the event's
   predicate is the bitmap itself — the same replacement [of_bad_set]
   performs for the text loader, so tables and enumeration see one
   semantics. *)
let of_table ~id ~name ~scope ~arities ~codes ~weights =
  let fail msg = invalid_arg ("Event.of_table: " ^ msg) in
  let k = Array.length scope in
  if Array.length arities <> k then fail "scope/arities length mismatch";
  for i = 1 to k - 1 do
    if scope.(i - 1) >= scope.(i) then fail "scope must be strictly increasing"
  done;
  Array.iter (fun v -> if v < 0 then fail "negative variable id") scope;
  Array.iter (fun a -> if a <= 0 then fail "arities must be positive") arities;
  let total =
    Array.fold_left
      (fun acc a ->
        if acc > max_int / a then fail "arity product overflow";
        acc * a)
      1 arities
  in
  let strides = Array.make k 1 in
  for i = k - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * arities.(i + 1)
  done;
  let nrows = Array.length codes in
  if Array.length weights <> nrows then fail "codes/weights length mismatch";
  let sat = Bytes.make ((total + 7) / 8) '\000' in
  for j = 0 to nrows - 1 do
    let code = codes.(j) in
    if code < 0 || code >= total then fail "row code out of range";
    if j > 0 && codes.(j - 1) >= code then fail "row codes must be strictly increasing";
    if Rat.sign weights.(j) <= 0 then fail "row weight must be positive";
    Bytes.set sat (code lsr 3)
      (Char.chr (Char.code (Bytes.get sat (code lsr 3)) lor (1 lsl (code land 7))))
  done;
  let tab = { tscope = scope; arities; strides; total; codes; weights; sat } in
  let ev =
    { id; name; scope; pred = (fun lookup -> table_mem tab (code_of tab lookup)) }
  in
  (ev, tab)

(* Common constructions *)

let never ~id ~name = { id; name; scope = [||]; pred = (fun _ -> false) }

let all_equal ~id ~name ~scope =
  make ~id ~name ~scope (fun lookup ->
      match Array.to_list scope with
      | [] -> true
      | v0 :: rest ->
        let x = lookup v0 in
        List.for_all (fun v -> lookup v = x) rest)

let all_value ~id ~name ~scope ~value =
  make ~id ~name ~scope (fun lookup -> Array.for_all (fun v -> lookup v = value) scope)

let of_bad_set ~id ~name ~scope bad =
  (* [bad] lists the value tuples (in scope order) on which the event
     occurs *)
  let table = Hashtbl.create (List.length bad) in
  List.iter (fun tuple -> Hashtbl.replace table tuple ()) bad;
  make ~id ~name ~scope (fun lookup -> Hashtbl.mem table (Array.to_list (Array.map lookup scope)))

(* Boolean combinators. The scope is the union of the operand scopes;
   operand predicates only ever probe their own scopes, which are subsets
   of the union. *)

let conj ~id ~name e1 e2 =
  make ~id ~name ~scope:(Array.append e1.scope e2.scope) (fun lookup ->
      e1.pred lookup && e2.pred lookup)

let disj ~id ~name e1 e2 =
  make ~id ~name ~scope:(Array.append e1.scope e2.scope) (fun lookup ->
      e1.pred lookup || e2.pred lookup)

let negate ~id ~name e = make ~id ~name ~scope:e.scope (fun lookup -> not (e.pred lookup))

let pp fmt e = Format.fprintf fmt "%s(id=%d, |scope|=%d)" e.name e.id (Array.length e.scope)
