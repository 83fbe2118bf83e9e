(* Product probability spaces and exact conditional probabilities.

   A space is a family of independent discrete variables (ids must equal
   their index). Probabilities of events conditioned on a partial
   assignment are computed exactly, in one of two ways:

   - enumeration: enumerate the joint values of the event's *unfixed*
     scope variables through the closure predicate (the fallback for
     events without a table, and everything an {!enumerating} reference
     space computes);
   - table: sum rows of the event's compiled weighted table
     ({!Event.compile}) that are consistent with the fixed scope
     variables, and divide once by the probability of the fixed part.

   Both paths produce the same rational, exactly: the table rows carry
   full-scope joint probabilities [w = Π_scope p_i(x_i)], so the sum of
   consistent rows equals [Π_fixed p_i(x_i) · Σ_unfixed-tuples w'] and
   dividing by [norm = Π_fixed p_i(x_i)] (never zero — [Var.make]
   requires strictly positive probabilities) recovers the enumerated sum
   term for term in ℚ. [Rat] normalizes, so the equality is structural.

   Tables are cached here, keyed by event id and validated by physical
   equality against the compiled event, so a stale cache (same id,
   different event or different space) silently falls back to
   enumeration rather than returning wrong weights.

   {!Cond_tracker} maintains conditional probabilities *incrementally*
   across a sequence of variable fixings: each event keeps its live
   (consistent-so-far) table rows, and fixing a variable only filters
   the tables of the events depending on it — O(live rows) per affected
   event instead of a fresh enumeration of the unfixed scope. *)

module Rat = Lll_num.Rat

(* The table cache sits in its own record so that a space and its
   {!enumerating} reference share one cache, whenever it is filled. *)
type cache = { mutable tables : (Event.t * Event.table) option array (* keyed by event id *) }

type t = {
  vars : Var.t array;
  cache : cache;
  enumerate : bool; (* conditionals and membership never read a table *)
}

let create vars =
  Array.iteri
    (fun i v ->
      if Var.id v <> i then invalid_arg "Space.create: variable id must equal its index")
    vars;
  { vars; cache = { tables = [||] }; enumerate = false }

let enumerating t = { t with enumerate = true }

let num_vars t = Array.length t.vars
let var t id = t.vars.(id)
let vars t = t.vars

(* ---- compiled-table cache ---- *)

let ensure_table_capacity t id =
  let c = t.cache in
  let n = Array.length c.tables in
  if id >= n then begin
    let grown = Array.make (max (id + 1) ((2 * n) + 1)) None in
    Array.blit c.tables 0 grown 0 n;
    c.tables <- grown
  end

let compile_event t e =
  let id = Event.id e in
  if id < 0 then invalid_arg "Space.compile_event: negative event id";
  ensure_table_capacity t id;
  match
    Event.compile
      ~arity_of:(fun vid -> Var.arity t.vars.(vid))
      ~prob_of:(fun vid v -> Var.prob t.vars.(vid) v)
      e
  with
  | Some tab -> t.cache.tables.(id) <- Some (e, tab)
  | None -> () (* scope too large to tabulate; enumeration handles it *)

let compile_events t events = Array.iter (compile_event t) events

(* Install a pre-built table (the binary instance loader) instead of
   recompiling. The caller vouches that [tab] was built against this
   space's distributions — [Event.of_table] re-validates structure, and
   the binary container's checksum covers transport. *)
let install_table t e tab =
  let id = Event.id e in
  if id < 0 then invalid_arg "Space.install_table: negative event id";
  if not (Event.scope e == tab.Event.tscope) then
    invalid_arg "Space.install_table: table does not belong to the event";
  ensure_table_capacity t id;
  t.cache.tables.(id) <- Some (e, tab)

(* The cached table for exactly this event value, also on an
   enumerating space (serialization and the apps' shape checks read it
   there too). *)
let compiled_table t e =
  let tables = t.cache.tables in
  let id = Event.id e in
  if id >= 0 && id < Array.length tables then
    match tables.(id) with
    | Some (e', tab) when e' == e -> Some tab
    | _ -> None
  else None

(* The table the conditionals may read: none on an enumerating space. *)
let find_table t e = if t.enumerate then None else compiled_table t e

(* ---- exact enumeration (fallback + the enumerating reference) ---- *)

(* Enumerate the assignments of the unfixed scope variables of [e],
   folding [f acc weight lookup] over each joint value, where [weight] is
   the joint probability and [lookup] resolves every scope variable. The
   scratch state is a value array indexed by scope POSITION (the scope is
   sorted, so lookups are a binary search) — no per-call Hashtbl. *)
let fold_scope_assignments t e (fixed : Assignment.t) f acc =
  let scope = Event.scope e in
  let k = Array.length scope in
  let vals = Array.make (max k 1) 0 in
  let unfixed = Array.make (max k 1) 0 in
  let nu = ref 0 in
  Array.iteri
    (fun pos id ->
      match Assignment.get fixed id with
      | Some v -> vals.(pos) <- v
      | None ->
        unfixed.(!nu) <- pos;
        incr nu)
    scope;
  let pos_of id =
    let lo = ref 0 and hi = ref k and res = ref (-1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if scope.(mid) = id then begin
        res := mid;
        lo := !hi
      end
      else if scope.(mid) < id then lo := mid + 1
      else hi := mid
    done;
    !res
  in
  let lookup id =
    let pos = pos_of id in
    if pos < 0 then invalid_arg "Space.fold_scope_assignments: lookup outside scope";
    vals.(pos)
  in
  let n = !nu in
  let rec go i weight acc =
    if i = n then f acc weight lookup
    else begin
      let pos = unfixed.(i) in
      let v = t.vars.(scope.(pos)) in
      let acc = ref acc in
      for value = 0 to Var.arity v - 1 do
        vals.(pos) <- value;
        acc := go (i + 1) (Rat.mul weight (Var.prob v value)) !acc
      done;
      !acc
    end
  in
  go 0 Rat.one acc

let enum_prob t e ~(fixed : Assignment.t) =
  fold_scope_assignments t e fixed
    (fun acc weight lookup -> if Event.pred_holds e lookup then Rat.add acc weight else acc)
    Rat.zero

(* ---- table-backed conditionals ---- *)

(* Fixed scope positions and the probability of the fixed part. Returns
   [(fixed_positions, fixed_values, count, norm)]. *)
let table_fixed_part t (tab : Event.table) (fixed : Assignment.t) =
  let k = Array.length tab.Event.tscope in
  let fpos = Array.make (max k 1) 0 in
  let fval = Array.make (max k 1) 0 in
  let nf = ref 0 in
  let norm = ref Rat.one in
  Array.iteri
    (fun pos vid ->
      match Assignment.get fixed vid with
      | Some v ->
        fpos.(!nf) <- pos;
        fval.(!nf) <- v;
        incr nf;
        norm := Rat.mul !norm (Var.prob t.vars.(vid) v)
      | None -> ())
    tab.Event.tscope;
  (fpos, fval, !nf, !norm)

let row_consistent (tab : Event.table) fpos fval nf code =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < nf do
    if Event.value_at tab ~pos:fpos.(!i) ~code <> fval.(!i) then ok := false;
    incr i
  done;
  !ok

let table_prob t tab (fixed : Assignment.t) =
  let fpos, fval, nf, norm = table_fixed_part t tab fixed in
  let sum = ref Rat.zero in
  let codes = tab.Event.codes and weights = tab.Event.weights in
  for j = 0 to Array.length codes - 1 do
    if row_consistent tab fpos fval nf codes.(j) then sum := Rat.add !sum weights.(j)
  done;
  Rat.div !sum norm

(* Exact Pr[e | fixed]. The fixed variables outside the scope are
   irrelevant; fixed scope variables are substituted. *)
let prob t e ~(fixed : Assignment.t) =
  match find_table t e with
  | Some tab -> table_prob t tab fixed
  | None -> enum_prob t e ~fixed

(* All conditional probabilities of [e] after additionally fixing [var],
   in ONE pass: bucket each consistent tuple's weight by its value of
   [var], then divide bucket [y] by [Pr[var = y]] (and, on the table
   path, by the fixed part's probability). Returns
   [(per-value conditionals, Pr[e | fixed])]. The fixers use this to
   evaluate all candidate values of a variable at the cost of a single
   pass. *)
let prob_vector t e ~(fixed : Assignment.t) ~var =
  if Assignment.is_fixed fixed var then invalid_arg "Space.prob_vector: var already fixed";
  let v = t.vars.(var) in
  let k = Var.arity v in
  if not (Event.depends_on e var) then begin
    let p = prob t e ~fixed in
    (Array.make k p, p)
  end
  else begin
    match find_table t e with
    | Some tab ->
      let fpos, fval, nf, norm = table_fixed_part t tab fixed in
      let vpos = Event.scope_pos tab var in
      let buckets = Array.make k Rat.zero in
      let codes = tab.Event.codes and weights = tab.Event.weights in
      for j = 0 to Array.length codes - 1 do
        let code = codes.(j) in
        if row_consistent tab fpos fval nf code then begin
          let y = Event.value_at tab ~pos:vpos ~code in
          buckets.(y) <- Rat.add buckets.(y) weights.(j)
        end
      done;
      let before = Rat.div (Array.fold_left Rat.add Rat.zero buckets) norm in
      (Array.mapi (fun y w -> Rat.div w (Rat.mul norm (Var.prob v y))) buckets, before)
    | None ->
      let buckets = Array.make k Rat.zero in
      let () =
        fold_scope_assignments t e fixed
          (fun () weight lookup ->
            if Event.pred_holds e lookup then begin
              let y = lookup var in
              buckets.(y) <- Rat.add buckets.(y) weight
            end)
          ()
      in
      let before = Array.fold_left Rat.add Rat.zero buckets in
      (Array.mapi (fun y w -> Rat.div w (Var.prob v y)) buckets, before)
  end

(* The paper's Inc(t, y): ratio of the conditional probability of [e] after
   additionally fixing [var := value] to the one before. By the paper's
   convention, [Inc = 0] when the denominator is zero. *)
let inc t e ~(fixed : Assignment.t) ~var ~value =
  let before = prob t e ~fixed in
  if Rat.is_zero before then Rat.zero
  else begin
    let after = prob t e ~fixed:(Assignment.set fixed var value) in
    Rat.div after before
  end

(* Does the event occur on a complete-enough assignment? O(1) via the
   compiled bitmap when a table is live. *)
let event_holds t e (a : Assignment.t) =
  match find_table t e with
  | Some tab -> Event.table_mem tab (Event.code_of tab (fun vid -> Assignment.value_exn a vid))
  | None -> Event.holds e a

(* ---- incremental conditional probabilities ---- *)

module Cond_tracker = struct
  (* Per event: the live table rows (consistent with every fixing so
     far), their running weight sum divided by the probability of the
     fixed scope part, i.e. the current conditional probability.
     Fixing a variable filters only the live rows of the events that
     depend on it. Events whose table did not compile (scope too large)
     are recomputed by enumeration on each affected fixing — same
     values, just slower. *)
  type entry = {
    ev : Event.t;
    tab : Event.table option;
    mutable live_codes : int array;
    mutable live_weights : Rat.t array;
    mutable nlive : int;
    mutable norm : Rat.t; (* Π_{fixed scope vars} P[var = value] *)
    mutable live_sum : Rat.t; (* Σ live_weights (table entries only) *)
    mutable cur : Rat.t; (* current Pr[ev | fixed] = live_sum / norm *)
  }

  type tracker = {
    tspace : t;
    fixed : Assignment.t;
    entries : entry array; (* indexed by event id *)
    var_entries : int array array; (* variable id -> event ids depending on it *)
  }

  let create space events =
    Array.iteri
      (fun i e ->
        if Event.id e <> i then
          invalid_arg "Cond_tracker.create: event id must equal its index")
      events;
    let fixed = Assignment.empty (num_vars space) in
    let entries =
      Array.map
        (fun e ->
          (* on an enumerating space the tracker degrades to per-fixing
             enumeration throughout *)
          match find_table space e with
          | Some tab ->
            let sum = Array.fold_left Rat.add Rat.zero tab.Event.weights in
            {
              ev = e;
              tab = Some tab;
              live_codes = Array.copy tab.Event.codes;
              live_weights = Array.copy tab.Event.weights;
              nlive = Array.length tab.Event.codes;
              norm = Rat.one;
              live_sum = sum;
              cur = sum;
            }
          | None ->
            {
              ev = e;
              tab = None;
              live_codes = [||];
              live_weights = [||];
              nlive = 0;
              norm = Rat.one;
              live_sum = Rat.zero;
              cur = enum_prob space e ~fixed;
            })
        events
    in
    let nv = num_vars space in
    let var_events_l = Array.make nv [] in
    for i = Array.length events - 1 downto 0 do
      Array.iter
        (fun vid -> var_events_l.(vid) <- i :: var_events_l.(vid))
        (Event.scope events.(i))
    done;
    { tspace = space; fixed; entries; var_entries = Array.map Array.of_list var_events_l }

  let space tr = tr.tspace
  let assignment tr = tr.fixed
  let prob tr ev = tr.entries.(ev).cur

  (* Per-value weight sums [b_y] of [ev]'s live rows, bucketed by their
     value of [var]. *)
  let buckets en tab ~var k =
    let vpos = Event.scope_pos tab var in
    let b = Array.make k Rat.zero in
    for j = 0 to en.nlive - 1 do
      let y = Event.value_at tab ~pos:vpos ~code:en.live_codes.(j) in
      b.(y) <- Rat.add b.(y) en.live_weights.(j)
    done;
    b

  (* Conditional probabilities of [ev] for every candidate value of the
     unfixed variable [var], from the live rows in one pass — the
     incremental counterpart of {!Space.prob_vector}. *)
  let prob_vector tr ev ~var =
    if Assignment.is_fixed tr.fixed var then
      invalid_arg "Cond_tracker.prob_vector: var already fixed";
    let en = tr.entries.(ev) in
    let v = tr.tspace.vars.(var) in
    let k = Var.arity v in
    if not (Event.depends_on en.ev var) then (Array.make k en.cur, en.cur)
    else begin
      match en.tab with
      | Some tab ->
        let b = buckets en tab ~var k in
        (Array.mapi (fun y w -> Rat.div w (Rat.mul en.norm (Var.prob v y))) b, en.cur)
      | None -> prob_vector tr.tspace en.ev ~fixed:tr.fixed ~var
    end

  (* Inc(ev, y) for every value [y] of [var], in one pass:
     [Pr[ev | fixed, var = y] / Pr[ev | fixed]] is
     [(b_y / (norm · p_y)) / (S / norm) = b_y / (p_y · S)], with [S]
     the live weight sum, and [0] when [S = 0]. [Rat] is canonical, so
     this is structurally the two-step ratio. *)
  let inc_vector tr ev ~var =
    if Assignment.is_fixed tr.fixed var then
      invalid_arg "Cond_tracker.inc_vector: var already fixed";
    let en = tr.entries.(ev) in
    let v = tr.tspace.vars.(var) in
    let k = Var.arity v in
    if Rat.is_zero en.cur then Array.make k Rat.zero
    else if not (Event.depends_on en.ev var) then Array.make k Rat.one
    else
      match en.tab with
      | Some tab ->
        let s = en.live_sum in
        Array.mapi (fun y w -> Rat.div w (Rat.mul (Var.prob v y) s)) (buckets en tab ~var k)
      | None ->
        let after, before = prob_vector tr ev ~var in
        Array.map (fun a -> Rat.div a before) after

  (* Fix [var := value]: update the partial assignment and refresh the
     conditional probability of every event depending on [var] by
     filtering its live rows — O(live rows of affected events). *)
  let fix tr ~var ~value =
    if Assignment.is_fixed tr.fixed var then invalid_arg "Cond_tracker.fix: var already fixed";
    Assignment.set_inplace tr.fixed var value;
    let pv = Var.prob tr.tspace.vars.(var) value in
    Array.iter
      (fun ev ->
        let en = tr.entries.(ev) in
        match en.tab with
        | Some tab ->
          let vpos = Event.scope_pos tab var in
          let kept = ref 0 in
          let sum = ref Rat.zero in
          for j = 0 to en.nlive - 1 do
            let code = en.live_codes.(j) in
            if Event.value_at tab ~pos:vpos ~code = value then begin
              en.live_codes.(!kept) <- code;
              en.live_weights.(!kept) <- en.live_weights.(j);
              sum := Rat.add !sum en.live_weights.(j);
              incr kept
            end
          done;
          en.nlive <- !kept;
          en.norm <- Rat.mul en.norm pv;
          en.live_sum <- !sum;
          en.cur <- Rat.div !sum en.norm
        | None -> en.cur <- enum_prob tr.tspace en.ev ~fixed:tr.fixed)
      tr.var_entries.(var)
end

(* Sample values for all unfixed variables (floats suffice here — sampling
   is only used by randomized baselines, never by correctness checks). *)
let sample_unfixed t rng (fixed : Assignment.t) =
  let a = Assignment.copy fixed in
  Array.iteri
    (fun id v ->
      if not (Assignment.is_fixed a id) then begin
        let r = Random.State.float rng 1.0 in
        let k = Var.arity v in
        let rec pick i acc =
          if i = k - 1 then i
          else begin
            let acc = acc +. Rat.to_float (Var.prob v i) in
            if r < acc then i else pick (i + 1) acc
          end
        in
        Assignment.set_inplace a id (pick 0 0.0)
      end)
    t.vars;
  a

let resample t rng (a : Assignment.t) ids =
  let a = Assignment.copy a in
  List.iter
    (fun id ->
      let v = t.vars.(id) in
      let r = Random.State.float rng 1.0 in
      let k = Var.arity v in
      let rec pick i acc =
        if i = k - 1 then i
        else begin
          let acc = acc +. Rat.to_float (Var.prob v i) in
          if r < acc then i else pick (i + 1) acc
        end
      in
      Assignment.set_inplace a id (pick 0 0.0))
    ids;
  a
