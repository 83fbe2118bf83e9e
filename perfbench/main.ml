(* The repository benchmark: three closed-loop workloads over the real
   acquisition -> solve -> verify -> serve path.

     main.exe --workload solve-large|corpus-cold|serve-mixed
              --seed N --seconds S --trace 0|1 [--cli EXE] [--work-dir DIR] [--tiny]

   Every input is generated from --seed; every output is checked; the last
   stdout line is one JSON object {correct, attempted, failed, metrics}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   run spends half its seconds untraced and half traced, and reports the
   per-layer split. Spans are recorded here, around calls into each
   module's public functions, never inside lib/. A layer nested inside a
   black-box call (generation and compile inside Store.fetch, the mmap
   decode inside a disk fetch) is measured by a probe: the same public call
   on the same input, made right after the operation and outside its
   timing window, and recorded as a child of the span it estimates.
   BENCHMARK.json names every metric; run.py checks that the printed names
   equal them. *)

module Spec = Lll_store.Spec
module Store = Lll_store.Store
module Instance = Lll_core.Instance
module Serial = Lll_core.Serial
module Solver = Lll_core.Solver
module Verify = Lll_core.Verify
module Metrics = Lll_local.Metrics
module Corpus = Lll_scenario.Corpus
module Run = Lll_scenario.Run
module Protocol = Lll_serve.Protocol

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced_run = ref false
let cli = ref "_build/default/bin/lll_cli.exe"
let work_dir = ref ".perfbench_run"
let tiny = ref false

let parse_args () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME solve-large | corpus-cold | serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Int (fun s -> seconds := float_of_int s), "S timed-phase length");
      ("--trace", Arg.Int (fun t -> traced_run := t <> 0), "0|1 end-to-end or per-layer run");
      ("--cli", Arg.Set_string cli, "EXE lll_cli executable (serve-mixed server)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch root (temp stores, span dumps)");
      ("--tiny", Arg.Set tiny, " smoke-test sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let mean_of sum count = if count = 0 then 0. else sum /. float_of_int count

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* one seeded permutation of [0, len) per round of [len] operations, so
   each class keeps its exact share of every completed round *)
let round_slot ~salt ~len i =
  let rng = Random.State.make [| !seed; salt; i / len |] in
  (shuffle rng (Array.init len Fun.id)).(i mod len)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Fresh per-run scratch directory under the work dir, removed at exit. *)
let run_dirs = ref []
let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let d =
    Filename.concat !work_dir (Printf.sprintf "run-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf d;
  mkdir_p d;
  run_dirs := d :: !run_dirs;
  d

let drop_dir d =
  (try rm_rf d with _ -> ());
  run_dirs := List.filter (fun x -> x <> d) !run_dirs

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_proc path =
  (* /proc files report length 0: read to EOF *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* utime + stime of a child, in seconds (Linux /proc, 100 ticks/s) *)
let cpu_of_pid pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* peak resident set (VmHWM) in kB of "self" or a pid *)
let vm_hwm_kb who =
  let s = read_proc (Printf.sprintf "/proc/%s/status" who) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> float_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
      | _ -> acc)
    0. (String.split_on_char '\n' s)

let assignment_csv (a : Lll_prob.Assignment.t) =
  String.concat ","
    (Array.to_list (Array.map (function Some v -> string_of_int v | None -> "") a))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    id : int;
    layer : string;  (** ["op"], a layer, or ["<layer>.<part>"] *)
    start : float;
    stop : float;
    parent : int;  (** 0 at top level *)
    op : int;  (** operation id; -1 outside the timed operations *)
    alloc_w : float;  (** words allocated by the calling domain *)
    probe : bool;  (** measured outside the parent's window (see header) *)
  }

  let on = ref false
  let lock = Mutex.create ()
  let spans : span list ref = ref []
  let next_id = Atomic.make 1

  (* per-domain (current parent span, current operation) *)
  let ctx = Domain.DLS.new_key (fun () -> (0, -1))

  let alloc_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  let push s =
    Mutex.lock lock;
    spans := s :: !spans;
    Mutex.unlock lock

  (* a child measured inside its parent's call by other means (the
     solver's Metrics sink); only its duration is meaningful *)
  let record ~parent ~layer ~seconds =
    let _, op = Domain.DLS.get ctx in
    let id = Atomic.fetch_and_add next_id 1 in
    let start = now () in
    push { id; layer; start; stop = start +. seconds; parent; op; alloc_w = 0.; probe = false }

  (* [with_id layer f] runs [f id] inside a span; [id] lets the caller
     attach probes or phase children afterwards. *)
  let with_id layer f =
    if not !on then f 0
    else begin
      let parent, op = Domain.DLS.get ctx in
      let id = Atomic.fetch_and_add next_id 1 in
      Domain.DLS.set ctx (id, op);
      let a0 = alloc_words () in
      let t0 = now () in
      let finish () =
        let t1 = now () in
        let a1 = alloc_words () in
        Domain.DLS.set ctx (parent, op);
        push { id; layer; start = t0; stop = t1; parent; op; alloc_w = a1 -. a0; probe = false }
      in
      match f id with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let span layer f = with_id layer (fun _ -> f ())

  (* the span around one timed operation; its direct children are the
     layer calls, the rest of its duration is the untraced remainder *)
  let op i f =
    if not !on then f ()
    else begin
      let saved = Domain.DLS.get ctx in
      Domain.DLS.set ctx (0, i);
      Fun.protect ~finally:(fun () -> Domain.DLS.set ctx saved) (fun () -> span "op" f)
    end

  (* a probe: the same public call re-made outside the operation window,
     recorded as a child of the span whose nested work it estimates *)
  let probe ~parent ~op layer f =
    if not !on || parent = 0 then (f (), 0)
    else begin
      let saved = Domain.DLS.get ctx in
      Domain.DLS.set ctx (parent, op);
      let a0 = alloc_words () in
      let t0 = now () in
      let v = Fun.protect ~finally:(fun () -> Domain.DLS.set ctx saved) f in
      let t1 = now () in
      let a1 = alloc_words () in
      let id = Atomic.fetch_and_add next_id 1 in
      push { id; layer; start = t0; stop = t1; parent; op; alloc_w = a1 -. a0; probe = true };
      (v, id)
    end

  (* per-workload counters: name -> (sum, samples) *)
  let counters : (string, float * int) Hashtbl.t = Hashtbl.create 32

  let count name v =
    if !on then begin
      Mutex.lock lock;
      let s, n = Option.value (Hashtbl.find_opt counters name) ~default:(0., 0) in
      Hashtbl.replace counters name (s +. v, n + 1);
      Mutex.unlock lock
    end

  let counter_sum name = fst (Option.value (Hashtbl.find_opt counters name) ~default:(0., 0))

  let counter_mean name =
    let s, n = Option.value (Hashtbl.find_opt counters name) ~default:(0., 0) in
    mean_of s n

  let dump path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"op\":%d,\"alloc_w\":%.0f,\"probe\":%b}\n"
          s.id s.layer s.start s.stop s.parent s.op s.alloc_w s.probe)
      (List.rev !spans);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type phase = {
  lats : float list;  (** per-operation latency, seconds *)
  failed : int;
  wall : float;  (** first start to last completion, seconds *)
  probe_s : float;  (** seconds spent in probes (traced phases only) *)
  segs : (float * float * int) list;
      (** (wall s, CPU s, operations) per segment: a round of the
          in-process loops, a one-second window of serve-mixed *)
}

let probe_seconds () =
  List.fold_left
    (fun acc (s : Trace.span) -> if s.Trace.probe then acc +. (s.Trace.stop -. s.Trace.start) else acc)
    0. !Trace.spans

(* One caller; [op i] returns (latency, ok). The loop stops at the first
   round boundary past the deadline, and records each round as a
   segment. *)
let closed_loop ~seconds ~round ~first op =
  let p0 = probe_seconds () in
  let t0 = now () in
  let c0 = cpu_self () in
  let deadline = t0 +. seconds in
  let lats = ref [] and failed = ref 0 and i = ref first in
  let segs = ref [] and seg_t = ref t0 and seg_c = ref c0 in
  while now () < deadline || (!i - first) mod round <> 0 do
    if !i > first && (!i - first) mod round = 0 then begin
      let t = now () and c = cpu_self () in
      segs := (t -. !seg_t, c -. !seg_c, round) :: !segs;
      seg_t := t;
      seg_c := c
    end;
    let s = now () in
    (match op !i with
     | lat, ok ->
       lats := lat :: !lats;
       if not ok then incr failed
     | exception e ->
       Printf.eprintf "perfbench: operation %d raised %s\n%!" !i (Printexc.to_string e);
       lats := (now () -. s) :: !lats;
       incr failed);
    incr i
  done;
  {
    lats = !lats;
    failed = !failed;
    wall = now () -. t0;
    probe_s = probe_seconds () -. p0;
    segs = (now () -. !seg_t, cpu_self () -. !seg_c, round) :: !segs;
  }

(* ------------------------------------------------------------------ *)
(* Layer calls shared by the workloads                                 *)
(* ------------------------------------------------------------------ *)

(* Generation probes for a spec whose build ran nested inside the span
   [parent]: Spec.build (with its Instance.create compile as a child
   probe: the same compile re-run on the built space and events) and the
   v3 encode of the result. *)
let probe_build ~parent ~op spec =
  if !Trace.on && parent <> 0 then begin
    let inst, spec_id = Trace.probe ~parent ~op "spec" (fun () -> Spec.build spec) in
    let _, _ =
      Trace.probe ~parent:spec_id ~op "instance" (fun () ->
          Instance.create (Instance.space inst) (Instance.events inst))
    in
    let blob, _ = Trace.probe ~parent ~op "serial.encode" (fun () -> Serial.to_binary_string inst) in
    Trace.count "serial.artifact_bytes" (float_of_int (String.length blob))
  end

(* Store.materialize under a "store.materialize" span (a set-up call,
   kept apart from the operations' "store" fetches), with generation
   probes. *)
let materialize st spec =
  let _, op = Domain.DLS.get Trace.ctx in
  let path, sid = Trace.with_id "store.materialize" (fun id -> (Store.materialize st spec, id)) in
  probe_build ~parent:sid ~op spec;
  path

let solve_params sink = { Solver.default_params with Solver.domains = Some 1; metrics = sink }

let is_coloring phase =
  let n = String.length phase and k = String.length "coloring" in
  n >= k && String.sub phase (n - k) k = "coloring"

let is_sweep phase = phase = "fix-sweep" || phase = "sweep"

(* Solver.solve under a "solver" span; in a traced run the Metrics sink's
   per-round records give its coloring and sweep phases as children. *)
let solve engine inst =
  let sink = if !Trace.on then Metrics.buffer () else Metrics.disabled in
  Trace.with_id "solver" (fun sid ->
      let report = Solver.solve ~params:(solve_params sink) engine inst in
      if !Trace.on then begin
        let sum pred =
          List.fold_left
            (fun acc (r : Metrics.round_record) ->
              if pred r.Metrics.phase then acc + r.Metrics.wall_ns else acc)
            0 (Metrics.records sink)
        in
        let add layer ns =
          if ns > 0 then Trace.record ~parent:sid ~layer ~seconds:(float_of_int ns /. 1e9)
        in
        add "solver.coloring" (sum is_coloring);
        add "solver.sweep" (sum is_sweep);
        Trace.count "solver.rounds"
          (float_of_int (Option.value report.Solver.outcome.Solver.rounds ~default:0))
      end;
      report)

let count_store_stats (s : Store.stats) =
  Trace.count "store.built" (float_of_int s.Store.st_built);
  Trace.count "store.disk_hits" (float_of_int s.Store.st_disk_hits);
  Trace.count "store.mem_hits" (float_of_int s.Store.st_mem.Lll_store.Memcache.s_hits);
  Trace.count "store.quarantined" (float_of_int s.Store.st_quarantined)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  setups : float list;  (** seconds per set-up repetition *)
  main : phase;  (** the end-to-end (untraced) phase *)
  traced : phase option;
  rss_kb : float;  (** summed peak resident sets *)
  digest : string;
  extra_failed : int;  (** failures found by checks after the timed phase *)
  layer_extra : (string * float) list;  (** per-layer values not derived from spans *)
}

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Set up [reps] times (three in an end-to-end run, for a median set-up
   time; one in a traced run, whose set-up spans are recorded) and keep
   the last; [teardown] undoes the earlier ones. *)
let repeat_setup ~setup ~teardown =
  Trace.on := !traced_run;
  let reps = if !traced_run then 1 else 3 in
  let times = ref [] and kept = ref None in
  for _ = 1 to reps do
    Option.iter teardown !kept;
    (* each repetition starts from a compacted heap, not its
       predecessor's garbage *)
    Gc.compact ();
    let t0 = now () in
    let r = setup () in
    times := (now () -. t0) :: !times;
    kept := Some r
  done;
  Trace.on := false;
  (* start the timed phase from a compacted heap, not set-up garbage *)
  Gc.compact ();
  (List.rev !times, Option.get !kept)

(* ------------------------------------------------------------------ *)
(* solve-large                                                          *)
(* ------------------------------------------------------------------ *)

(* Paper engines at n = 1.2e4 (one decade past the corpus grid top):
   rank-2 below threshold, rank-3 below, and sinkless orientation at
   threshold, where the Omega(log n) deterministic lower bound lives. *)
let sl_families = [| ("ring-below", "dist2"); ("rank3-below", "dist3"); ("sinkless-at", "sinkless-orient") |]
let sl_seeds = 3

let solve_large () =
  let n = if !tiny then 600 else 12000 in
  let pool =
    Array.init (Array.length sl_families * sl_seeds) (fun k ->
        let fam, eng = sl_families.(k mod Array.length sl_families) in
        let f = Option.get (Corpus.find fam) in
        let gen_seed = 1 + (1000 * abs !seed) + (k / Array.length sl_families) in
        (f.Corpus.spec ~seed:gen_seed n, Solver.find_exn eng))
  in
  let setup () =
    let dir = fresh_dir () in
    let st = Store.create ~dir () in
    let paths = Array.map (fun (spec, _) -> materialize st spec) pool in
    (dir, paths)
  in
  let setups, (dir, paths) = repeat_setup ~setup ~teardown:(fun (d, _) -> drop_dir d) in
  (* per pool entry: output digest of the first solve, and whether the
     engine's theorem covers the instance *)
  let first_out = Array.make (Array.length pool) None in
  let guaranteed = Array.make (Array.length pool) None in
  let len = Array.length pool in
  let op i =
    let j = round_slot ~salt:1 ~len i in
    let spec, engine = pool.(j) in
    let t0 = now () in
    let (inst, src, stats, sid), report, v =
      Trace.op i (fun () ->
          let fetched =
            Trace.with_id "store" (fun sid ->
                let st = Store.create ~dir () in
                let inst, src = Store.fetch st spec in
                (inst, src, Store.stats st, sid))
          in
          let inst, _, _, _ = fetched in
          let report = solve engine inst in
          let v =
            Trace.span "verify" (fun () -> Verify.check inst report.Solver.outcome.Solver.assignment)
          in
          (fetched, report, v))
    in
    let lat = now () -. t0 in
    if !Trace.on then begin
      count_store_stats stats;
      ignore (Trace.probe ~parent:sid ~op:i "serial.decode" (fun () -> Serial.load_binary_mmap paths.(j)))
    end;
    let g =
      match guaranteed.(j) with
      | Some g -> g
      | None ->
        let g = Solver.guarantees engine inst in
        guaranteed.(j) <- Some g;
        g
    in
    let out =
      digest_of
        [
          Solver.name engine;
          (match report.Solver.outcome.Solver.rounds with Some r -> string_of_int r | None -> "-");
          assignment_csv report.Solver.outcome.Solver.assignment;
        ]
    in
    let same = match first_out.(j) with None -> first_out.(j) <- Some out; true | Some o -> o = out in
    let ok = v.Verify.ok && src = `Disk && ((not g) || report.Solver.ok) && same in
    if not ok then
      Printf.eprintf "perfbench: solve-large op %d (%s on %s) failed: verify=%b src-disk=%b ok=%b same=%b\n%!"
        i (Solver.name engine) (Spec.to_string spec) v.Verify.ok (src = `Disk) report.Solver.ok same;
    (lat, ok)
  in
  let secs = if !traced_run then !seconds /. 2. else !seconds in
  let main = closed_loop ~seconds:secs ~round:len ~first:0 op in
  let traced =
    if !traced_run then begin
      Trace.on := true;
      let p = closed_loop ~seconds:secs ~round:len ~first:1_000_000 op in
      Trace.on := false;
      Some p
    end
    else None
  in
  (* the run digest: every pool entry's output, in pool order *)
  let digest =
    digest_of (Array.to_list (Array.map (fun o -> Option.value o ~default:"unsolved") first_out))
  in
  drop_dir dir;
  {
    setups;
    main;
    traced;
    rss_kb = vm_hwm_kb "self";
    digest;
    extra_failed = 0;
    layer_extra = [ ("store.bytes_written", 0.) ];
  }

(* ------------------------------------------------------------------ *)
(* corpus-cold                                                          *)
(* ------------------------------------------------------------------ *)

(* One Run.measure cell per operation over all nine corpus families, the
   weak-split family twice per round of ten: its cells are the slowest,
   and at 2/10 of a round p90 falls inside that class instead of on the
   edge between it and rank-4 (p50 sits inside the rank-3 class). *)
let cc_slots =
  Array.of_list (Corpus.all @ [ Option.get (Corpus.find "weak-split-below") ])

let corpus_cold () =
  let n = if !tiny then 48 else 480 in
  let len = Array.length cc_slots in
  let setup () =
    let dir = fresh_dir () in
    let st = Store.create ~dir () in
    (* fault in every engine's code path on a throwaway in-memory store *)
    ignore (Run.measure ~grid:[ 24 ] ~seeds:[ 1 ] ~store:(Store.create ()) () : Run.measurement list);
    (dir, st)
  in
  let setups, (_, st) = repeat_setup ~setup ~teardown:(fun (d, _) -> drop_dir d) in
  let store = ref st in
  let digest_parts = ref [] in
  let digest_ops = 10 in
  let op i =
    let f = cc_slots.(round_slot ~salt:2 ~len i) in
    (* a never-seen cell seed per operation keeps every fetch cold *)
    let s = 1 + (100_000 * abs !seed) + i in
    let spec = f.Corpus.spec ~seed:s n in
    let t0 = now () in
    let sid, ms =
      Trace.op i (fun () ->
          let sid = Trace.with_id "store" (fun sid -> ignore (Store.fetch !store spec); sid) in
          let ms =
            Trace.span "scenario" (fun () ->
                Run.measure ~grid:[ n ] ~seeds:[ s ] ~families:[ f ] ~store:!store ())
          in
          (sid, ms))
    in
    let lat = now () -. t0 in
    probe_build ~parent:sid ~op:i spec;
    let bad = List.filter (fun (m : Run.measurement) -> m.Run.guaranteed && not m.Run.ok) ms in
    List.iter
      (fun (m : Run.measurement) ->
        Printf.eprintf "perfbench: corpus-cold %s n=%d seed=%d: guaranteed %s run not ok\n%!"
          m.Run.family m.Run.n m.Run.seed m.Run.engine)
      bad;
    if !Trace.on then begin
      let c pred = float_of_int (List.length (List.filter pred ms)) in
      Trace.count "scenario.engine_runs" (c (fun _ -> true));
      Trace.count "scenario.guaranteed_runs" (c (fun m -> m.Run.guaranteed));
      Trace.count "scenario.refused_runs"
        (c (fun m -> m.Run.rounds = None && not m.Run.guaranteed))
    end;
    if i < digest_ops then
      digest_parts :=
        String.concat ";"
          (List.map
             (fun (m : Run.measurement) ->
               Printf.sprintf "%s/%s/%d/%d/%s/%b/%b" m.Run.family m.Run.engine m.Run.n m.Run.seed
                 (match m.Run.rounds with Some r -> string_of_int r | None -> "-")
                 m.Run.ok m.Run.guaranteed)
             ms)
        :: !digest_parts;
    (lat, ms <> [] && bad = [])
  in
  let secs = if !traced_run then !seconds /. 2. else !seconds in
  let main = closed_loop ~seconds:secs ~round:len ~first:0 op in
  let traced, layer_extra =
    if !traced_run then begin
      (* a fresh empty store, so the traced phase is cold too and its
         writes are its own *)
      let dir = fresh_dir () in
      store := Store.create ~dir ();
      Trace.on := true;
      let p = closed_loop ~seconds:secs ~round:len ~first:1_000_000 op in
      Trace.on := false;
      let ops = float_of_int (List.length p.lats) in
      let bytes = List.fold_left (fun a e -> a + e.Store.e_bytes) 0 (Store.ls !store) in
      let ss = Store.stats !store in
      ( Some p,
        [
          ("store.bytes_written", float_of_int bytes /. ops);
          ("store.built", float_of_int ss.Store.st_built /. ops);
          ("store.disk_hits", float_of_int ss.Store.st_disk_hits /. ops);
          ("store.mem_hits", float_of_int ss.Store.st_mem.Lll_store.Memcache.s_hits /. ops);
          ("store.quarantined", float_of_int ss.Store.st_quarantined /. ops);
        ] )
    end
    else (None, [])
  in
  List.iter drop_dir !run_dirs;
  {
    setups;
    main;
    traced;
    rss_kb = vm_hwm_kb "self";
    digest = digest_of (List.rev !digest_parts);
    extra_failed = 0;
    layer_extra;
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                          *)
(* ------------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close_conn c = close_out_noerr c.oc

(* One request/response round trip, split into frame encode, the
   client-observed round trip (transport + server), and frame decode. *)
let round_trip c frame =
  let payload = Trace.span "protocol.encode" (fun () -> Protocol.encode frame) in
  let resp =
    Trace.span "serve" (fun () ->
        let hdr = Bytes.create 4 in
        Bytes.set_int32_le hdr 0 (Int32.of_int (String.length payload));
        output_bytes c.oc hdr;
        output_string c.oc payload;
        flush c.oc;
        let h = really_input_string c.ic 4 in
        really_input_string c.ic (Int32.to_int (String.get_int32_le h 0) land 0xFFFF_FFFF))
  in
  let f = Trace.span "protocol.decode" (fun () -> Protocol.decode resp) in
  (f, String.length payload + 4, String.length resp + 4)

let servers = ref []

let reap pid =
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  servers := List.filter (fun p -> p <> pid) !servers

let kill_servers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !servers;
  servers := []

(* [--cache 32] holds the 8 hot instances plus the most recent fresh
   ones: a hot instance is touched every ~36 requests, a fresh one
   arrives every ~33, so no hot entry is evicted; one that were would
   answer cache=disk and fail the run's output checks. *)
let spawn_server ~sock ~store_dir =
  let args =
    [|
      !cli; "serve"; "--socket"; sock; "--workers"; "2"; "--domains"; "1"; "--store"; store_dir;
      "--cache"; "32";
    |]
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process !cli args null Unix.stderr Unix.stderr in
  Unix.close null;
  servers := pid :: !servers;
  let deadline = now () +. 20. in
  let rec wait () =
    match connect sock with
    | c -> close_conn c
    | exception (Unix.Unix_error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         servers := List.filter (fun p -> p <> pid) !servers;
         failwith "serve-mixed: server exited during start-up");
      if now () > deadline then raise e;
      Unix.sleepf 0.005;
      wait ()
  in
  wait ();
  pid

let stop_server ~sock pid =
  (try
     let c = connect sock in
     ignore (round_trip c { Protocol.header = [ ("op", "shutdown") ]; body = "" });
     close_conn c
   with _ -> ());
  reap pid

(* The 8-spec hot set, n in 1000..3000: one sinkless and one ring spec
   and six rank-3 specs, so that the memo-off class (12% of requests,
   quantiles 0.85..0.97) is a rank-3 continuum at p90. *)
let hot_defs =
  [|
    ("sinkless", 3000, "sinkless-orient");
    ("ring", 3000, "dist2");
    ("rank3", 1500, "dist3");
    ("rank3", 1800, "dist3");
    ("rank3", 2100, "dist3");
    ("rank3", 2400, "dist3");
    ("rank3", 2700, "dist3");
    ("rank3", 3000, "dist3");
  |]

type hot = { h_family : string; h_n : int; h_gen : int; h_solver : string; h_spec : Spec.t }

type golden = { g_body : string; g_rounds : string; g_ok : string }

let spec_fields ~family ~n ~gen =
  [ ("family", family); ("n", string_of_int n); ("gen-seed", string_of_int gen); ("at-threshold", "0") ]

let solve_frame ?(memo = true) ~family ~n ~gen ~solver () =
  {
    Protocol.header =
      (("op", "solve") :: spec_fields ~family ~n ~gen)
      @ [ ("solver", solver); ("seed", "1") ]
      @ if memo then [] else [ ("memo", "0") ];
    body = "";
  }

(* Request classes, as slots of a 100-request deck reshuffled per deck. *)
type cls = Hit | Verify_req | Solve_memo_off | Fresh

let deck =
  Array.concat
    [ Array.make 75 Hit; Array.make 10 Verify_req; Array.make 12 Solve_memo_off; Array.make 3 Fresh ]

let cls_name = function
  | Hit -> "hit"
  | Verify_req -> "verify"
  | Solve_memo_off -> "solve"
  | Fresh -> "fresh"

let stats_of c =
  let f, _, _ = round_trip c { Protocol.header = [ ("op", "stats") ]; body = "" } in
  fun key -> float_of_int (Option.value (Protocol.get_int f key) ~default:0)

let serve_mixed () =
  let scale = if !tiny then 10 else 1 in
  let hot =
    Array.mapi
      (fun k (family, n, solver) ->
        let n = n / scale - (n / scale mod 6) in
        let gen = 1 + (100 * abs !seed) + k in
        {
          h_family = family;
          h_n = n;
          h_gen = gen;
          h_solver = solver;
          h_spec = Spec.of_family_params ~family ~n ~degree:3 ~seed:gen ~at_threshold:false;
        })
      hot_defs
  in
  let check_solve (h : hot) (g : golden) f =
    Protocol.get f "status" = Some "ok"
    && f.Protocol.body = g.g_body
    && Option.value (Protocol.get f "rounds") ~default:"-" = g.g_rounds
    && Protocol.get f "ok" = Some g.g_ok
    && Protocol.get f "solver" = Some h.h_solver
  in
  let setup () =
    let dir = fresh_dir () in
    let store_dir = Filename.concat dir "store" in
    let sock = Filename.concat dir "srv.sock" in
    let st = Store.create ~dir:store_dir () in
    let paths = Array.map (fun h -> materialize st h.h_spec) hot in
    (* golden outputs: the in-process solve of each hot spec, loaded from
       the artifact the server will load *)
    let goldens =
      Array.mapi
        (fun k h ->
          let (inst, _), sid =
            Trace.with_id "store" (fun sid ->
                (Store.fetch (Store.create ~dir:store_dir ()) h.h_spec, sid))
          in
          ignore (Trace.probe ~parent:sid ~op:(-1) "serial.decode" (fun () ->
              Serial.load_binary_mmap paths.(k)));
          let r = solve (Solver.find_exn h.h_solver) inst in
          {
            g_body = assignment_csv r.Solver.outcome.Solver.assignment;
            g_rounds =
              (match r.Solver.outcome.Solver.rounds with Some x -> string_of_int x | None -> "-");
            g_ok = (if r.Solver.ok then "1" else "0");
          })
        hot
    in
    let pid = spawn_server ~sock ~store_dir in
    (* fill the response memo with the hot set *)
    let c = connect sock in
    Array.iteri
      (fun k h ->
        let f, _, _ =
          round_trip c (solve_frame ~family:h.h_family ~n:h.h_n ~gen:h.h_gen ~solver:h.h_solver ())
        in
        if not (check_solve h goldens.(k) f) then
          failwith (Printf.sprintf "serve-mixed: priming response for hot spec %d differs from golden" k))
      hot;
    close_conn c;
    (dir, store_dir, sock, pid, goldens)
  in
  let setups, (dir, store_dir, sock, pid, goldens) =
    repeat_setup ~setup ~teardown:(fun (d, _, sock, pid, _) ->
        stop_server ~sock pid;
        drop_dir d)
  in
  let results_lock = Mutex.create () in
  let fresh_results = ref [] in
  let rtts = ref [] in
  let completed = Atomic.make 0 in
  (* one closed-loop client: its own connection, deck and spec cycles *)
  let client ~phase ~cid ~deadline () =
    let c = connect sock in
    let lats = ref [] and failed = ref 0 in
    let rng = Random.State.make [| !seed; phase; cid |] in
    let d = ref (shuffle rng (Array.copy deck)) and pos = ref 0 in
    let cycle = Array.init 4 (fun _ -> (shuffle rng (Array.init (Array.length hot) Fun.id), ref 0)) in
    let next_hot cl =
      let perm, k =
        cycle.(match cl with Hit -> 0 | Verify_req -> 1 | Solve_memo_off -> 2 | Fresh -> 3)
      in
      let j = perm.(!k mod Array.length perm) in
      incr k;
      j
    in
    let nfresh = ref 0 in
    let i = ref 0 in
    while now () < deadline do
      if !pos = Array.length !d then begin
        d := shuffle rng (Array.copy deck);
        pos := 0
      end;
      let cl = !d.(!pos) in
      incr pos;
      let op_id = (phase * 1_000_000) + (cid * 100_000) + !i in
      incr i;
      let j = next_hot cl in
      let h = hot.(j) and g = goldens.(j) in
      let frame, fresh =
        match cl with
        | Hit -> (solve_frame ~family:h.h_family ~n:h.h_n ~gen:h.h_gen ~solver:h.h_solver (), None)
        | Solve_memo_off ->
          (solve_frame ~memo:false ~family:h.h_family ~n:h.h_n ~gen:h.h_gen ~solver:h.h_solver (), None)
        | Verify_req ->
          ( {
              Protocol.header = ("op", "verify") :: spec_fields ~family:h.h_family ~n:h.h_n ~gen:h.h_gen;
              body = g.g_body;
            },
            None )
        | Fresh ->
          (* never-seen rank-3 spec: store miss, generate, publish, solve *)
          let gen = 10_000_000 + (1_000_000 * phase) + (100_000 * cid) + (100 * abs !seed) + !nfresh in
          incr nfresh;
          let n = 999 / scale - (999 / scale mod 3) in
          (solve_frame ~family:"rank3" ~n ~gen ~solver:"dist3" (), Some (n, gen))
      in
      let t0 = now () in
      let outcome =
        match Trace.op op_id (fun () -> round_trip c frame) with
        | r -> Ok r
        | exception e -> Error e
      in
      let lat = now () -. t0 in
      lats := lat :: !lats;
      Atomic.incr completed;
      let ok =
        match outcome with
        | Error e ->
          Printf.eprintf "perfbench: serve-mixed %s request raised %s\n%!" (cls_name cl)
            (Printexc.to_string e);
          false
        | Ok (f, req_b, resp_b) ->
          if !Trace.on then begin
            Mutex.lock results_lock;
            rtts := (cl, lat) :: !rtts;
            Mutex.unlock results_lock;
            Trace.count "protocol.req_bytes" (float_of_int req_b);
            Trace.count "protocol.resp_bytes" (float_of_int resp_b)
          end;
          let ok =
            match cl with
            | Hit -> check_solve h g f && Protocol.get f "memo" = Some "1"
            | Solve_memo_off ->
              check_solve h g f && Protocol.get f "memo" = None && Protocol.get f "cache" = Some "hit"
            | Verify_req ->
              Protocol.get f "status" = Some "ok"
              && Protocol.get f "cache" = Some "hit"
              && Protocol.get f "ok" = Some "1"
              && Protocol.get f "violated" = Some ""
            | Fresh -> (
              match fresh with
              | Some (n, gen) when Protocol.get f "status" = Some "ok" && Protocol.get f "ok" = Some "1" ->
                Mutex.lock results_lock;
                fresh_results := (n, gen, f.Protocol.body) :: !fresh_results;
                Mutex.unlock results_lock;
                true
              | _ -> false)
          in
          if not ok then
            Printf.eprintf "perfbench: serve-mixed %s response check failed: %s\n%!" (cls_name cl)
              (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) f.Protocol.header));
          ok
      in
      if not ok then incr failed
    done;
    close_conn c;
    (!lats, !failed)
  in
  (* Both clients run in their own domains while this one samples
     one-second windows: completed operations, this process's CPU
     (Unix.times covers both clients) plus the server's (from /proc). *)
  let run_phase ~phase ~secs =
    let p0 = probe_seconds () in
    let cpu () = cpu_self () +. cpu_of_pid pid in
    let c0 = cpu () in
    let t0 = now () in
    let deadline = t0 +. secs in
    let ds = List.init 2 (fun cid -> Domain.spawn (client ~phase ~cid ~deadline)) in
    let segs = ref [] and seg_t = ref t0 and seg_c = ref c0 and seg_n = ref 0 in
    while now () +. 1. <= deadline do
      Unix.sleepf (Float.max 0. (!seg_t +. 1. -. now ()));
      let t = now () and c = cpu () and n = Atomic.get completed in
      segs := (t -. !seg_t, c -. !seg_c, n - !seg_n) :: !segs;
      seg_t := t;
      seg_c := c;
      seg_n := n
    done;
    let rs = List.map Domain.join ds in
    {
      lats = List.concat_map fst rs;
      failed = List.fold_left (fun a (_, f) -> a + f) 0 rs;
      wall = now () -. t0;
      probe_s = probe_seconds () -. p0;
      segs = !segs;
    }
  in
  let secs = if !traced_run then !seconds /. 2. else !seconds in
  let main = run_phase ~phase:0 ~secs in
  let traced, layer_extra =
    if !traced_run then begin
      let c = connect sock in
      let before = stats_of c in
      let ls () = Store.ls (Store.create ~dir:store_dir ()) in
      let bytes0 = List.fold_left (fun a e -> a + e.Store.e_bytes) 0 (ls ()) in
      Trace.on := true;
      let p = run_phase ~phase:1 ~secs in
      Trace.on := false;
      let after = stats_of c in
      close_conn c;
      let d k = after k -. before k in
      let ops = float_of_int (List.length p.lats) in
      let frac a b = if a +. b > 0. then a /. (a +. b) else 0. in
      let bytes = List.fold_left (fun a e -> a + e.Store.e_bytes) 0 (ls ()) - bytes0 in
      let rtt cl = 1000. *. median (List.filter_map (fun (c, l) -> if c = cl then Some l else None) !rtts) in
      ( Some p,
        [
          ("store.built", d "store-built" /. ops);
          ("store.disk_hits", d "store-disk-hits" /. ops);
          ("store.mem_hits", d "hits" /. ops);
          ("store.quarantined", d "store-quarantined" /. ops);
          ("store.bytes_written", float_of_int bytes /. ops);
          ("serve.hit_rtt_ms", rtt Hit);
          ("serve.verify_rtt_ms", rtt Verify_req);
          ("serve.solve_rtt_ms", rtt Solve_memo_off);
          ("serve.fresh_rtt_ms", rtt Fresh);
          ("sched.memo_hit_frac", frac (d "memo-hits") (d "memo-misses"));
          ("sched.mem_hit_frac", frac (d "hits") (d "misses"));
          ("sched.build_waits", d "waits" /. ops);
        ] )
    end
    else (None, [])
  in
  let rss_kb = vm_hwm_kb "self" +. vm_hwm_kb (string_of_int pid) in
  stop_server ~sock pid;
  Trace.on := !traced_run;
  (* re-verify every fresh-spec assignment off the artifact the server
     published, after the timed phase so checking costs no latency *)
  let st = Store.create ~dir:store_dir () in
  let extra_failed =
    List.fold_left
      (fun acc (n, gen, body) ->
        let spec = Spec.of_family_params ~family:"rank3" ~n ~degree:3 ~seed:gen ~at_threshold:false in
        let ok =
          try
            match Trace.span "store" (fun () -> Store.fetch st spec) with
            | inst, `Disk ->
              let a =
                Array.of_list
                  (List.map
                     (fun s -> if s = "" then None else Some (int_of_string s))
                     (String.split_on_char ',' body))
              in
              Array.length a = Instance.num_vars inst
              && (Trace.span "verify" (fun () -> Verify.check inst a)).Verify.ok
            | _, _ -> false
          with e ->
            Printf.eprintf "perfbench: fresh re-verify raised %s\n%!" (Printexc.to_string e);
            false
        in
        if not ok then
          Printf.eprintf "perfbench: fresh spec rank3 n=%d gen=%d failed re-verification\n%!" n gen;
        if ok then acc else acc + 1)
      0 !fresh_results
  in
  Trace.on := false;
  drop_dir dir;
  {
    setups;
    main;
    traced;
    rss_kb;
    digest = digest_of (Array.to_list (Array.map (fun g -> g.g_rounds ^ "|" ^ g.g_body) goldens));
    extra_failed;
    layer_extra;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer report                                                     *)
(* ------------------------------------------------------------------ *)

let layers = [ "spec"; "instance"; "serial"; "store"; "solver"; "verify"; "scenario"; "protocol"; "serve" ]

let top_layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Attribute every operation's duration to layers by self time. A child
   (nested span, phase child or probe) gets at most what its parent has
   left, so the self times of an operation's spans plus its remainder
   add up to the operation's duration exactly. *)
let layer_report (p : phase) untraced_tput =
  let spans = List.rev !Trace.spans in
  let children = Hashtbl.create 1024 in
  List.iter (fun (s : Trace.span) -> Hashtbl.add children s.Trace.parent s) spans;
  let kids id = List.rev (Hashtbl.find_all children id) in
  let self_t = Hashtbl.create 16 and self_a = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.) in
  let op_total = ref 0. and remainder = ref 0. and nops = ref 0 in
  let rec attribute (s : Trace.span) budget alloc_budget =
    let left = ref budget and aleft = ref alloc_budget in
    List.iter
      (fun (c : Trace.span) ->
        let d = min (c.Trace.stop -. c.Trace.start) !left in
        let a = min c.Trace.alloc_w !aleft in
        left := !left -. d;
        aleft := !aleft -. a;
        attribute c d a)
      (kids s.Trace.id);
    if s.Trace.layer = "op" then remainder := !remainder +. !left
    else begin
      add self_t (top_layer s.Trace.layer) !left;
      add self_a (top_layer s.Trace.layer) (max 0. !aleft)
    end
  in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.layer = "op" && s.Trace.parent = 0 then begin
        incr nops;
        let d = s.Trace.stop -. s.Trace.start in
        op_total := !op_total +. d;
        attribute s d s.Trace.alloc_w
      end)
    spans;
  let nops_f = float_of_int (max 1 !nops) in
  (* per-call means over every span of a kind, set-up and checks included *)
  let calls = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let sum, n, a = Option.value (Hashtbl.find_opt calls s.Trace.layer) ~default:(0., 0, 0.) in
      Hashtbl.replace calls s.Trace.layer (sum +. (s.Trace.stop -. s.Trace.start), n + 1, a +. s.Trace.alloc_w))
    spans;
  let call_ms layer =
    let sum, n, _ = Option.value (Hashtbl.find_opt calls layer) ~default:(0., 0, 0.) in
    1000. *. mean_of sum n
  in
  let call_mw layer =
    let _, n, a = Option.value (Hashtbl.find_opt calls layer) ~default:(0., 0, 0.) in
    mean_of a n /. 1e6
  in
  (* solver phases: mean per solve *)
  let solver_n = let _, n, _ = Option.value (Hashtbl.find_opt calls "solver") ~default:(0., 0, 0.) in n in
  let phase_ms layer =
    let sum, _, _ = Option.value (Hashtbl.find_opt calls layer) ~default:(0., 0, 0.) in
    1000. *. mean_of sum solver_n
  in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0. in
  let traced_tput = float_of_int (List.length p.lats) /. max 1e-9 (p.wall -. p.probe_s) in
  let per_op name = Trace.counter_sum name /. nops_f in
  [
    ("solver.sweep_ms", phase_ms "solver.sweep", "ms");
    ("solver.coloring_ms", phase_ms "solver.coloring", "ms");
    ("solver.other_ms", call_ms "solver" -. phase_ms "solver.sweep" -. phase_ms "solver.coloring", "ms");
    ("solver.rounds", Trace.counter_mean "solver.rounds", "count");
    ("solver.alloc_mw", call_mw "solver", "Mw");
    ("serial.decode_ms", call_ms "serial.decode", "ms");
    ("serial.encode_ms", call_ms "serial.encode", "ms");
    ("serial.artifact_bytes", Trace.counter_mean "serial.artifact_bytes", "B");
    ("spec.build_ms", call_ms "spec", "ms");
    ("instance.compile_ms", call_ms "instance", "ms");
    ("instance.alloc_mw", call_mw "instance", "Mw");
    ("store.fetch_ms", call_ms "store", "ms");
    ("store.built", per_op "store.built", "1/op");
    ("store.disk_hits", per_op "store.disk_hits", "1/op");
    ("store.mem_hits", per_op "store.mem_hits", "1/op");
    ("store.bytes_written", 0., "B/op");
    ("store.quarantined", per_op "store.quarantined", "1/op");
    ("verify.check_ms", call_ms "verify", "ms");
    ("scenario.cell_ms", call_ms "scenario", "ms");
    ("scenario.engine_runs", per_op "scenario.engine_runs", "1/op");
    ("scenario.guaranteed_runs", per_op "scenario.guaranteed_runs", "1/op");
    ("scenario.refused_runs", per_op "scenario.refused_runs", "1/op");
    ("protocol.encode_us", 1000. *. call_ms "protocol.encode", "us");
    ("protocol.decode_us", 1000. *. call_ms "protocol.decode", "us");
    ("protocol.req_bytes", Trace.counter_mean "protocol.req_bytes", "B");
    ("protocol.resp_bytes", Trace.counter_mean "protocol.resp_bytes", "B");
    ("serve.hit_rtt_ms", 0., "ms");
    ("serve.verify_rtt_ms", 0., "ms");
    ("serve.solve_rtt_ms", 0., "ms");
    ("serve.fresh_rtt_ms", 0., "ms");
    ("sched.memo_hit_frac", 0., "frac");
    ("sched.mem_hit_frac", 0., "frac");
    ("sched.build_waits", 0., "1/op");
  ]
  @ List.concat_map
      (fun l ->
        [
          ("layer." ^ l ^ ".self_ms", 1000. *. get self_t l /. nops_f, "ms");
          ("layer." ^ l ^ ".share", (if !op_total > 0. then get self_t l /. !op_total else 0.), "frac");
          ("layer." ^ l ^ ".alloc_mw", get self_a l /. nops_f /. 1e6, "Mw");
        ])
      layers
  @ [
      ("trace.op_ms", 1000. *. !op_total /. nops_f, "ms");
      ("trace.remainder_ms", 1000. *. !remainder /. nops_f, "ms");
      ("trace.remainder_share", (if !op_total > 0. then !remainder /. !op_total else 0.), "frac");
      ("trace.untraced_ops_s", untraced_tput, "1/s");
      ("trace.traced_ops_s", traced_tput, "1/s");
      ("trace.overhead_frac", 1. -. (traced_tput /. untraced_tput), "frac");
      ("trace.ops", float_of_int !nops, "count");
      ("trace.spans", float_of_int (List.length spans), "count");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_metric (name, v, unit) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let () =
  parse_args ();
  Lll_serve.Serve.ignore_sigpipe ();
  at_exit (fun () ->
      kill_servers ();
      List.iter (fun d -> try rm_rf d with _ -> ()) !run_dirs);
  let run =
    match !workload with
    | "solve-large" -> solve_large
    | "corpus-cold" -> corpus_cold
    | "serve-mixed" -> serve_mixed
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  mkdir_p !work_dir;
  let r = run () in
  let attempted = List.length r.main.lats + match r.traced with Some p -> List.length p.lats | None -> 0 in
  let failed =
    r.main.failed + r.extra_failed + match r.traced with Some p -> p.failed | None -> 0
  in
  let ops = List.length r.main.lats in
  let tput = float_of_int ops /. r.main.wall in
  (* throughput and CPU per operation are medians over the phase's
     segments, so a burst of load from outside the run moves them less *)
  let seg_median f = median (List.map f r.main.segs) in
  Printf.printf "perfbench: workload=%s seed=%d samples=%d output-digest=%s\n" !workload !seed ops
    r.digest;
  let metrics =
    match r.traced with
    | None ->
      let ms = List.map (fun l -> 1000. *. l) r.main.lats in
      [
        ("setup_s", median r.setups, "s");
        ("latency_p50_ms", quantile ms 0.5, "ms");
        ("latency_p90_ms", quantile ms 0.9, "ms");
        ("throughput_ops_s", seg_median (fun (w, _, n) -> float_of_int n /. w), "1/s");
        ("cpu_ms_per_op", seg_median (fun (_, c, n) -> 1000. *. c /. float_of_int (max 1 n)), "ms");
        ("peak_rss_mb", r.rss_kb /. 1024., "MB");
        ("success_frac", 1. -. (float_of_int failed /. float_of_int (max 1 attempted)), "frac");
      ]
    | Some p ->
      let base = layer_report p tput in
      let path =
        Filename.concat !work_dir (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
      in
      Trace.dump path;
      Printf.printf "perfbench: %d spans written to %s\n" (List.length !Trace.spans) path;
      List.map
        (fun (name, v, unit) ->
          match List.assoc_opt name r.layer_extra with Some v' -> (name, v', unit) | None -> (name, v, unit))
        base
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map json_metric metrics));
  exit (if failed = 0 then 0 else 1)
