(* Bad events.

   An event has a scope (the ids of the variables it depends on) and a
   predicate evaluated on values of exactly those variables; the predicate
   receives a lookup function defined on the scope. The event "occurs" on
   an assignment iff the predicate is true.

   The closure is the AUTHORING interface. For computation, the owning
   [Space] compiles an event against the distributions of its scope
   variables into rows of its table store: one row per scope tuple on
   which the predicate holds, carrying the exact joint probability of
   that tuple. Conditional probabilities become filtered row sums, and
   the satisfying set serializes without the closure. The rows live in
   the space (not here), so one event used against two different spaces
   can never pick up the wrong weights. *)

type t = {
  id : int;
  name : string;
  scope : int array; (* sorted distinct variable ids *)
  pred : (int -> int) -> bool;
}

let make ~id ~name ~scope pred =
  let scope = List.sort_uniq compare (Array.to_list scope) in
  { id; name; scope = Array.of_list scope; pred }

(* A scope that is already sorted and distinct is kept as given: the
   binary loader builds one array per event and hands it over. *)
let of_sorted_scope ~id ~name ~scope pred =
  for i = 1 to Array.length scope - 1 do
    if scope.(i - 1) >= scope.(i) then
      invalid_arg "Event.of_sorted_scope: scope must be strictly increasing"
  done;
  if Array.length scope > 0 && scope.(0) < 0 then
    invalid_arg "Event.of_sorted_scope: negative variable id";
  { id; name; scope; pred }

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
