(* Product probability spaces and exact conditional probabilities.

   A space is a family of independent discrete variables (ids must equal
   their index). Probabilities of events conditioned on a partial
   assignment are computed exactly, in one of two ways:

   - enumeration: enumerate the joint values of the event's *unfixed*
     scope variables through the closure predicate (the fallback for
     events without a table, and everything an {!enumerating} reference
     space computes);
   - table: sum the event's rows in the table store that are consistent
     with the fixed scope variables, and divide once by the probability
     of the fixed part.

   Both paths produce the same rational, exactly: the rows carry
   full-scope joint probabilities [w = Π_scope p_i(x_i)], so the sum of
   consistent rows equals [Π_fixed p_i(x_i) · Σ_unfixed-tuples w'] and
   dividing by [norm = Π_fixed p_i(x_i)] (never zero — [Var.make]
   requires strictly positive probabilities) recovers the enumerated sum
   term for term in ℚ. [Rat] normalizes, so the equality is structural.

   THE TABLE STORE holds every compiled table of the space in flat
   columns, one window per event id: the satisfying row codes
   (mixed-radix over the scope, strictly increasing within a window) in
   one int column, their exact weights in one [Rat.t] column, the
   strides in a column parallel to the scopes, and the membership
   bitmaps in one byte string. It is filled in one pass, by
   {!compile_events} (generation) or {!load_tables} (the binary loader).
   An owner column records the event value each window was built for; a
   table is used only for that physically identical event, so a stale
   store (same id, different event or different space) silently falls
   back to enumeration rather than returning wrong weights.

   {!Cond_tracker} maintains conditional probabilities *incrementally*
   across a sequence of variable fixings: it copies the two row columns
   once and filters each event's live rows in place inside its window,
   so fixing a variable touches only the events depending on it —
   O(live rows) per affected event instead of a fresh enumeration of the
   unfixed scope. *)

module Rat = Lll_num.Rat

(* Scopes with more tuples than this are not tabulated; their events are
   enumerated on demand. *)
let max_table_rows = 1 lsl 20

(* An event's window as readers outside this module see it. *)
type table_rows = {
  codes : int array;
  weights : Rat.t array;
  first : int;
  last : int;
  strides : int array;
  stride0 : int;
}

type store = {
  owner : Event.t array; (* by event id: the event its window was built for *)
  row_off : int array; (* event i's rows are row_off.(i) .. row_off.(i+1) - 1 *)
  codes : int array; (* may run past the last window *)
  weights : Rat.t array;
  stride_off : int array; (* event i's strides start here, one per scope position *)
  strides : int array; (* code = Σ value_pos · strides.(stride_off.(i) + pos) *)
  sat_off : int array; (* event i's bitmap is bytes sat_off.(i) .. sat_off.(i+1) - 1 *)
  sat : Bytes.t;
}

let no_store =
  {
    owner = [||];
    row_off = [| 0 |];
    codes = [||];
    weights = [||];
    stride_off = [| 0 |];
    strides = [||];
    sat_off = [| 0 |];
    sat = Bytes.empty;
  }

(* The owner of a window kept out of the store: no event is physically
   this one. *)
let untabulated = Event.never ~id:(-1) ~name:"untabulated"

(* The store sits in its own record so that a space and its
   {!enumerating} reference share one store, whenever it is filled. *)
type cache = { mutable store : store }

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
  { vars; cache = { store = no_store }; enumerate = false }

let enumerating t = { t with enumerate = true }

let num_vars t = Array.length t.vars
let var t id = t.vars.(id)
let vars t = t.vars
let arity t vid = Var.arity t.vars.(vid)

(* ---- the table store ---- *)

(* The store window of exactly this event value: its id, or -1. *)
let slot s e =
  let id = Event.id e in
  if id >= 0 && id < Array.length s.owner && s.owner.(id) == e then id else -1

(* The window the conditionals may read: none on an enumerating space. *)
let table_slot t e = if t.enumerate then -1 else slot t.cache.store e

(* Position of a variable id in a sorted scope, by binary search; -1
   when absent. *)
let scope_pos (scope : int array) vid =
  let lo = ref 0 and hi = ref (Array.length scope) and res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = scope.(mid) in
    if v = vid then begin
      res := mid;
      lo := !hi
    end
    else if v < vid then lo := mid + 1
    else hi := mid
  done;
  !res

(* Mixed-radix code of a complete scope valuation. *)
let code_in strides so scope lookup =
  let c = ref 0 in
  for pos = 0 to Array.length scope - 1 do
    c := !c + (lookup scope.(pos) * strides.(so + pos))
  done;
  !c

(* Is [code] set in the bitmap occupying bytes [lo, hi) of [sat]? *)
let sat_mem sat lo hi code =
  let b = lo + (code lsr 3) in
  if code < 0 || b >= hi then invalid_arg "Space: value tuple outside the event's table";
  Char.code (Bytes.get sat b) land (1 lsl (code land 7)) <> 0

let sat_set sat lo code =
  let b = lo + (code lsr 3) in
  Bytes.set sat b (Char.chr (Char.code (Bytes.get sat b) lor (1 lsl (code land 7))))

(* The number of tuples of a scope, or -1 when it exceeds [limit]. *)
let scope_total t scope ~limit =
  let total = ref 1 in
  for pos = 0 to Array.length scope - 1 do
    let a = arity t scope.(pos) in
    if !total >= 0 then total := if !total > limit / a then -1 else !total * a
  done;
  !total

(* Stride and bitmap columns for events with these scopes and tuple
   counts; [totals.(i) < 0] keeps event [i] out of the store. *)
let layout t scopes totals =
  let n = Array.length scopes in
  let stride_off = Array.make (n + 1) 0 and sat_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let tab = totals.(i) >= 0 in
    stride_off.(i + 1) <- (stride_off.(i) + if tab then Array.length scopes.(i) else 0);
    sat_off.(i + 1) <- (sat_off.(i) + if tab then (totals.(i) + 7) / 8 else 0)
  done;
  let strides = Array.make stride_off.(n) 1 in
  for i = 0 to n - 1 do
    if totals.(i) >= 0 then begin
      let scope = scopes.(i) and so = stride_off.(i) in
      for pos = Array.length scope - 2 downto 0 do
        strides.(so + pos) <- strides.(so + pos + 1) * arity t scope.(pos + 1)
      done
    end
  done;
  (stride_off, strides, sat_off, Bytes.make sat_off.(n) '\000')

(* Compile every event whose scope is small enough: enumerate its scope
   tuples in ascending code order and append the satisfying ones, with
   their exact joint probabilities, to the row columns. *)
let compile_events t events =
  let n = Array.length events in
  Array.iteri
    (fun i e ->
      if Event.id e <> i then invalid_arg "Space.compile_events: event id must equal its index")
    events;
  let scopes = Array.map Event.scope events in
  let totals = Array.map (fun scope -> scope_total t scope ~limit:max_table_rows) scopes in
  let stride_off, strides, sat_off, sat = layout t scopes totals in
  let row_off = Array.make (n + 1) 0 in
  let codes = ref (Array.make (max 16 n) 0) and weights = ref (Array.make (max 16 n) Rat.zero) in
  let len = ref 0 in
  let push code w =
    if !len = Array.length !codes then begin
      let cap = 2 * !len in
      let c = Array.make cap 0 and ws = Array.make cap Rat.zero in
      Array.blit !codes 0 c 0 !len;
      Array.blit !weights 0 ws 0 !len;
      codes := c;
      weights := ws
    end;
    !codes.(!len) <- code;
    !weights.(!len) <- w;
    incr len
  in
  Array.iteri
    (fun i e ->
      if totals.(i) >= 0 then begin
        let scope = scopes.(i) in
        let k = Array.length scope in
        let vals = Array.make (max k 1) 0 in
        let lookup vid =
          let pos = scope_pos scope vid in
          if pos < 0 then
            invalid_arg
              (Printf.sprintf "Space.compile_events: %s looked up out-of-scope variable %d"
                 (Event.name e) vid);
          vals.(pos)
        in
        for code = 0 to totals.(i) - 1 do
          (* [vals] counts in mixed radix: the last position has stride 1 *)
          if code > 0 then begin
            let pos = ref (k - 1) in
            while vals.(!pos) + 1 = arity t scope.(!pos) do
              vals.(!pos) <- 0;
              decr pos
            done;
            vals.(!pos) <- vals.(!pos) + 1
          end;
          if Event.pred_holds e lookup then begin
            let w = ref Rat.one in
            for pos = 0 to k - 1 do
              w := Rat.mul !w (Var.prob t.vars.(scope.(pos)) vals.(pos))
            done;
            push code !w;
            sat_set sat sat_off.(i) code
          end
        done
      end;
      row_off.(i + 1) <- !len)
    events;
  let owner = Array.mapi (fun i e -> if totals.(i) >= 0 then e else untabulated) events in
  t.cache.store <-
    { owner; row_off; codes = !codes; weights = !weights; stride_off; strides; sat_off; sat }

(* The binary loader's entry: the row columns arrive decoded, and this
   checks them, derives strides and bitmaps, and makes the events, whose
   predicate is their bitmap — the same closure replacement the text
   loader performs via [Event.of_bad_set], so tables and enumeration
   see one semantics. The weights are trusted to match the
   distributions; the container checksum guards their transport. *)
let load_tables t ~names ~scopes ~row_off ~codes ~weights =
  let fail msg = invalid_arg ("Space.load_tables: " ^ msg) in
  let n = Array.length scopes in
  if Array.length names <> n || Array.length row_off <> n + 1 then fail "column lengths disagree";
  let nv = num_vars t in
  let totals =
    Array.map
      (fun scope ->
        (* [Event.of_sorted_scope] below rejects a scope out of order *)
        for pos = 0 to Array.length scope - 1 do
          if scope.(pos) < 0 || scope.(pos) >= nv then fail "scope outside space"
        done;
        let total = scope_total t scope ~limit:max_int in
        if total < 0 then fail "arity product overflow";
        total)
      scopes
  in
  let stride_off, strides, sat_off, sat = layout t scopes totals in
  if row_off.(0) <> 0 then fail "rows must start at 0";
  for i = 0 to n - 1 do
    let lo = row_off.(i) and hi = row_off.(i + 1) in
    if hi < lo || hi > Array.length codes || hi > Array.length weights then
      fail "row offsets out of range";
    for j = lo to hi - 1 do
      let code = codes.(j) in
      if code < 0 || code >= totals.(i) then fail "row code out of range";
      if j > lo && codes.(j - 1) >= code then fail "row codes must be strictly increasing";
      if Rat.sign weights.(j) <= 0 then fail "row weight must be positive";
      sat_set sat sat_off.(i) code
    done
  done;
  let events =
    Array.init n (fun i ->
        let scope = scopes.(i) and so = stride_off.(i) in
        let lo = sat_off.(i) and hi = sat_off.(i + 1) in
        Event.of_sorted_scope ~id:i ~name:names.(i) ~scope (fun lookup ->
            sat_mem sat lo hi (code_in strides so scope lookup)))
  in
  t.cache.store <- { owner = events; row_off; codes; weights; stride_off; strides; sat_off; sat };
  events

(* The rows of exactly this event value, also on an enumerating space
   (serialization and the apps' shape checks read them there too). *)
let table_rows t e =
  let s = t.cache.store in
  let i = slot s e in
  if i < 0 then None
  else
    Some
      ({
         codes = s.codes;
         weights = s.weights;
         first = s.row_off.(i);
         last = s.row_off.(i + 1);
         strides = s.strides;
         stride0 = s.stride_off.(i);
       }
        : table_rows)

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
  let lookup id =
    let pos = scope_pos scope id in
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

(* The fixed scope positions of window [i]: their strides, arities and
   values, their count, and the probability of the fixed part. *)
let table_fixed_part t s i scope (fixed : Assignment.t) =
  let k = Array.length scope in
  let fstride = Array.make (max k 1) 0 in
  let farity = Array.make (max k 1) 1 in
  let fval = Array.make (max k 1) 0 in
  let nf = ref 0 in
  let norm = ref Rat.one in
  Array.iteri
    (fun pos vid ->
      match Assignment.get fixed vid with
      | Some v ->
        fstride.(!nf) <- s.strides.(s.stride_off.(i) + pos);
        farity.(!nf) <- arity t vid;
        fval.(!nf) <- v;
        incr nf;
        norm := Rat.mul !norm (Var.prob t.vars.(vid) v)
      | None -> ())
    scope;
  (fstride, farity, fval, !nf, !norm)

let row_consistent fstride farity fval nf code =
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < nf do
    if code / fstride.(!i) mod farity.(!i) <> fval.(!i) then ok := false;
    incr i
  done;
  !ok

let table_prob t i e (fixed : Assignment.t) =
  let s = t.cache.store in
  let fstride, farity, fval, nf, norm = table_fixed_part t s i (Event.scope e) fixed in
  let sum = ref Rat.zero in
  for j = s.row_off.(i) to s.row_off.(i + 1) - 1 do
    if row_consistent fstride farity fval nf s.codes.(j) then sum := Rat.add !sum s.weights.(j)
  done;
  Rat.div !sum norm

(* Exact Pr[e | fixed]. The fixed variables outside the scope are
   irrelevant; fixed scope variables are substituted. *)
let prob t e ~(fixed : Assignment.t) =
  let i = table_slot t e in
  if i >= 0 then table_prob t i e fixed else enum_prob t e ~fixed

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
    let i = table_slot t e in
    if i >= 0 then begin
      let s = t.cache.store in
      let scope = Event.scope e in
      let fstride, farity, fval, nf, norm = table_fixed_part t s i scope fixed in
      let vstride = s.strides.(s.stride_off.(i) + scope_pos scope var) in
      let buckets = Array.make k Rat.zero in
      for j = s.row_off.(i) to s.row_off.(i + 1) - 1 do
        let code = s.codes.(j) in
        if row_consistent fstride farity fval nf code then begin
          let y = code / vstride mod k in
          buckets.(y) <- Rat.add buckets.(y) s.weights.(j)
        end
      done;
      let before = Rat.div (Array.fold_left Rat.add Rat.zero buckets) norm in
      (Array.mapi (fun y w -> Rat.div w (Rat.mul norm (Var.prob v y))) buckets, before)
    end
    else begin
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
   stored bitmap when a table is live. *)
let event_holds t e (a : Assignment.t) =
  let i = table_slot t e in
  if i < 0 then Event.holds e a
  else begin
    let s = t.cache.store in
    let code = code_in s.strides s.stride_off.(i) (Event.scope e) (Assignment.value_exn a) in
    sat_mem s.sat s.sat_off.(i) s.sat_off.(i + 1) code
  end

(* ---- incremental conditional probabilities ---- *)

module Cond_tracker = struct
  (* One copy of the store's two row columns; event [i]'s live rows
     (consistent with every fixing so far) are the first [nlive.(i)]
     rows of its window, filtered in place. Per event, flat arrays hold
     the live weight sum, the probability of the fixed scope part, and
     their quotient, the current conditional probability. Fixing a
     variable filters only the windows of the events that depend on it.
     Events without a table (scope too large, or an enumerating space)
     are recomputed by enumeration on each affected fixing — same
     values, just slower. *)
  type tracker = {
    tspace : t;
    events : Event.t array;
    fixed : Assignment.t;
    store : store; (* the windows [live_codes] and [live_weights] follow *)
    tabulated : bool array;
    live_codes : int array;
    live_weights : Rat.t array;
    nlive : int array;
    norm : Rat.t array; (* Π_{fixed scope vars} P[var = value] *)
    live_sum : Rat.t array; (* Σ live weights (tabulated events only) *)
    cur : Rat.t array; (* current Pr[event | fixed] = live_sum / norm *)
    var_off : int array; (* variable v's events: var_ev.(var_off.(v) .. var_off.(v+1) - 1) *)
    var_ev : int array;
  }

  let create space events =
    Array.iteri
      (fun i e ->
        if Event.id e <> i then
          invalid_arg "Cond_tracker.create: event id must equal its index")
      events;
    let n = Array.length events in
    let s = space.cache.store in
    let tabulated = Array.map (fun e -> table_slot space e >= 0) events in
    (* windows lie in id order, so the last tabulated one ends the rows
       the tracker needs *)
    let rows = ref 0 in
    Array.iteri (fun i tab -> if tab then rows := s.row_off.(i + 1)) tabulated;
    let live_codes = Array.sub s.codes 0 !rows in
    let live_weights = Array.sub s.weights 0 !rows in
    let fixed = Assignment.empty (num_vars space) in
    let nlive = Array.make n 0 in
    let live_sum = Array.make n Rat.zero and cur = Array.make n Rat.zero in
    for i = 0 to n - 1 do
      if tabulated.(i) then begin
        let lo = s.row_off.(i) and hi = s.row_off.(i + 1) in
        let sum = ref Rat.zero in
        for j = lo to hi - 1 do
          sum := Rat.add !sum live_weights.(j)
        done;
        nlive.(i) <- hi - lo;
        live_sum.(i) <- !sum;
        cur.(i) <- !sum
      end
      else cur.(i) <- enum_prob space events.(i) ~fixed
    done;
    let nv = num_vars space in
    let var_off = Array.make (nv + 1) 0 in
    Array.iter
      (fun e -> Array.iter (fun vid -> var_off.(vid + 1) <- var_off.(vid + 1) + 1) (Event.scope e))
      events;
    for v = 0 to nv - 1 do
      var_off.(v + 1) <- var_off.(v + 1) + var_off.(v)
    done;
    let var_ev = Array.make var_off.(nv) 0 in
    let next = Array.sub var_off 0 nv in
    Array.iteri
      (fun i e ->
        Array.iter
          (fun vid ->
            var_ev.(next.(vid)) <- i;
            next.(vid) <- next.(vid) + 1)
          (Event.scope e))
      events;
    {
      tspace = space;
      events;
      fixed;
      store = s;
      tabulated;
      live_codes;
      live_weights;
      nlive;
      norm = Array.make n Rat.one;
      live_sum;
      cur;
      var_off;
      var_ev;
    }

  let space tr = tr.tspace
  let assignment tr = tr.fixed
  let prob tr ev = tr.cur.(ev)

  (* The stride of [var] in [ev]'s window. *)
  let stride_of tr ev var =
    let s = tr.store in
    s.strides.(s.stride_off.(ev) + scope_pos (Event.scope tr.events.(ev)) var)

  (* Per-value weight sums [b_y] of [ev]'s live rows, bucketed by their
     value of [var]. *)
  let buckets tr ev ~var k =
    let stride = stride_of tr ev var in
    let b = Array.make k Rat.zero in
    let lo = tr.store.row_off.(ev) in
    for j = lo to lo + tr.nlive.(ev) - 1 do
      let y = tr.live_codes.(j) / stride mod k in
      b.(y) <- Rat.add b.(y) tr.live_weights.(j)
    done;
    b

  (* Conditional probabilities of [ev] for every candidate value of the
     unfixed variable [var], from the live rows in one pass — the
     incremental counterpart of {!Space.prob_vector}. *)
  let prob_vector tr ev ~var =
    if Assignment.is_fixed tr.fixed var then
      invalid_arg "Cond_tracker.prob_vector: var already fixed";
    let v = tr.tspace.vars.(var) in
    let k = Var.arity v in
    let cur = tr.cur.(ev) in
    if not (Event.depends_on tr.events.(ev) var) then (Array.make k cur, cur)
    else if tr.tabulated.(ev) then begin
      let norm = tr.norm.(ev) in
      (Array.mapi (fun y w -> Rat.div w (Rat.mul norm (Var.prob v y))) (buckets tr ev ~var k), cur)
    end
    else prob_vector tr.tspace tr.events.(ev) ~fixed:tr.fixed ~var

  (* Inc(ev, y) for every value [y] of [var], in one pass:
     [Pr[ev | fixed, var = y] / Pr[ev | fixed]] is
     [(b_y / (norm · p_y)) / (S / norm) = b_y / (p_y · S)], with [S]
     the live weight sum, and [0] when [S = 0]. [Rat] is canonical, so
     this is structurally the two-step ratio. *)
  let inc_vector tr ev ~var =
    if Assignment.is_fixed tr.fixed var then
      invalid_arg "Cond_tracker.inc_vector: var already fixed";
    let v = tr.tspace.vars.(var) in
    let k = Var.arity v in
    if Rat.is_zero tr.cur.(ev) then Array.make k Rat.zero
    else if not (Event.depends_on tr.events.(ev) var) then Array.make k Rat.one
    else if tr.tabulated.(ev) then begin
      let s = tr.live_sum.(ev) in
      Array.mapi (fun y w -> Rat.div w (Rat.mul (Var.prob v y) s)) (buckets tr ev ~var k)
    end
    else begin
      let after, before = prob_vector tr ev ~var in
      Array.map (fun a -> Rat.div a before) after
    end

  (* Fix [var := value]: update the partial assignment and refresh the
     conditional probability of every event depending on [var] by
     filtering its live rows in place — O(live rows of affected
     events). *)
  let fix tr ~var ~value =
    if Assignment.is_fixed tr.fixed var then invalid_arg "Cond_tracker.fix: var already fixed";
    Assignment.set_inplace tr.fixed var value;
    let pv = Var.prob tr.tspace.vars.(var) value in
    let k = Var.arity tr.tspace.vars.(var) in
    for idx = tr.var_off.(var) to tr.var_off.(var + 1) - 1 do
      let ev = tr.var_ev.(idx) in
      if tr.tabulated.(ev) then begin
        let stride = stride_of tr ev var in
        let lo = tr.store.row_off.(ev) in
        let kept = ref lo in
        let sum = ref Rat.zero in
        for j = lo to lo + tr.nlive.(ev) - 1 do
          let code = tr.live_codes.(j) in
          if code / stride mod k = value then begin
            let w = tr.live_weights.(j) in
            tr.live_codes.(!kept) <- code;
            tr.live_weights.(!kept) <- w;
            sum := Rat.add !sum w;
            incr kept
          end
        done;
        let norm = Rat.mul tr.norm.(ev) pv in
        tr.nlive.(ev) <- !kept - lo;
        tr.norm.(ev) <- norm;
        tr.live_sum.(ev) <- !sum;
        tr.cur.(ev) <- Rat.div !sum norm
      end
      else tr.cur.(ev) <- enum_prob tr.tspace tr.events.(ev) ~fixed:tr.fixed
    done
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
