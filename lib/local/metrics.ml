(* Round-level observability for the LOCAL runtime.

   The runtime records one [round_record] per synchronous round into a
   [sink]. The disabled sink is a constant constructor, so the runtime's
   fast path pays a single branch per round and allocates nothing —
   metrics are strictly opt-in. A buffering sink accumulates records
   across multiple runtime invocations (e.g. the coloring phase and the
   sweep phase of a distributed LLL solve), tagged with a caller-set
   phase label so a dump can be sliced per phase. *)

type round_record = {
  round : int;  (* round index within its runtime invocation *)
  phase : string;  (* caller-set label, e.g. "coloring" / "sweep" *)
  wall_ns : int;  (* wall-clock nanoseconds spent on the round *)
  stepped : int;  (* nodes that executed their step function *)
  halted_fraction : float;  (* fraction of nodes halted after the round *)
  state_words : int;  (* heap words of a sampled node state (size proxy) *)
  par_width : int;  (* domains driving the round / sweep (0 = sequential unit) *)
}

type buffer = { mutable phase : string; mutable recs : round_record list (* newest first *) }

(* A streaming sink: each record is handed to the callback the moment it
   is produced (the serve layer uses this to push per-round JSON frames
   to a client while the solve is still running). Nothing accumulates;
   [records] on a callback sink is []. *)
type callback_sink = { mutable cb_phase : string; cb_emit : round_record -> unit }

type sink = Disabled | Buffer of buffer | Callback of callback_sink

let disabled = Disabled

let buffer () = Buffer { phase = ""; recs = [] }

let callback f = Callback { cb_phase = ""; cb_emit = f }

let enabled = function Disabled -> false | Buffer _ | Callback _ -> true

let set_phase sink p =
  match sink with Disabled -> () | Buffer b -> b.phase <- p | Callback c -> c.cb_phase <- p

let phase = function Disabled -> "" | Buffer b -> b.phase | Callback c -> c.cb_phase

let record sink r =
  match sink with
  | Disabled -> ()
  | Buffer b -> b.recs <- r :: b.recs
  | Callback c -> c.cb_emit r

let step_record ~phase ~round ~total ~wall_ns ~state =
  {
    round;
    phase;
    wall_ns;
    stepped = 1;
    halted_fraction = (if total = 0 then 1. else float_of_int (round + 1) /. float_of_int total);
    state_words =
      (let r = Obj.repr state in
       if Obj.is_int r then 0 else Obj.reachable_words r);
    par_width = 0;
  }

let record_step sink ~round ~total ~wall_ns ~state =
  match sink with
  | Disabled -> ()
  | Buffer b -> b.recs <- step_record ~phase:b.phase ~round ~total ~wall_ns ~state :: b.recs
  | Callback c -> c.cb_emit (step_record ~phase:c.cb_phase ~round ~total ~wall_ns ~state)

(* One record per color-class sweep of a distributed fixer: [stepped]
   carries the class size (how many owners fixed concurrently) and
   [par_width] the domains actually used, so a dump can report parallel
   efficiency (width / par_width) next to round counts. *)
let sweep_record ~phase ~round ~total ~wall_ns ~width ~domains =
  {
    round;
    phase;
    wall_ns;
    stepped = width;
    halted_fraction = (if total = 0 then 1. else float_of_int (round + 1) /. float_of_int total);
    state_words = 0;
    par_width = domains;
  }

let record_sweep sink ~round ~total ~wall_ns ~width ~domains =
  match sink with
  | Disabled -> ()
  | Buffer b -> b.recs <- sweep_record ~phase:b.phase ~round ~total ~wall_ns ~width ~domains :: b.recs
  | Callback c -> c.cb_emit (sweep_record ~phase:c.cb_phase ~round ~total ~wall_ns ~width ~domains)

let records = function Disabled | Callback _ -> [] | Buffer b -> List.rev b.recs

let clear = function Disabled | Callback _ -> () | Buffer b -> b.recs <- []

let now_ns () = Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* Heap words reachable from a sampled state value — a cheap proxy for
   per-node state growth (e.g. ball gathering doubles it every round).
   Immediate values (ints, constant constructors) report 0. *)
let state_words (v : 'a) =
  let r = Obj.repr v in
  if Obj.is_int r then 0 else Obj.reachable_words r

(* ---- JSON dump (hand-rolled: no JSON library in the tree) ---- *)

let escape s =
  let b = Stdlib.Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Stdlib.Buffer.add_string b "\\\""
      | '\\' -> Stdlib.Buffer.add_string b "\\\\"
      | '\n' -> Stdlib.Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Stdlib.Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Stdlib.Buffer.add_char b c)
    s;
  Stdlib.Buffer.contents b

let record_to_json r =
  Printf.sprintf
    "{\"round\":%d,\"phase\":\"%s\",\"wall_ns\":%d,\"stepped\":%d,\"halted_fraction\":%.6f,\"state_words\":%d,\"par_width\":%d}"
    r.round (escape r.phase) r.wall_ns r.stepped r.halted_fraction r.state_words r.par_width

let to_json recs =
  let b = Stdlib.Buffer.create 4096 in
  Stdlib.Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Stdlib.Buffer.add_string b ",\n";
      Stdlib.Buffer.add_string b "  ";
      Stdlib.Buffer.add_string b (record_to_json r))
    recs;
  Stdlib.Buffer.add_string b "\n]\n";
  Stdlib.Buffer.contents b

let write_json path recs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json recs))

(* ---- aggregates (for quick textual reports) ---- *)

let total_wall_ns recs = List.fold_left (fun acc r -> acc + r.wall_ns) 0 recs

let pp fmt recs =
  Format.fprintf fmt "%-6s %-14s %10s %10s %8s %12s %5s@." "round" "phase" "wall_us" "stepped"
    "halted" "state_words" "par";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-6d %-14s %10.1f %10d %8.3f %12d %5d@." r.round r.phase
        (float_of_int r.wall_ns /. 1e3)
        r.stepped r.halted_fraction r.state_words r.par_width)
    recs
