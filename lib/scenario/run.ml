(* The scenario measurement driver (see run.mli).

   One instance per (family, n, seed), acquired through the artifact
   store and shared by every engine — the runner regenerates nothing
   itself; a measurement run against a warm store directory is pure
   mmap loads. One fresh Metrics sink per solve so the per-round
   records of the LOCAL runtime engines are counted into the
   measurement. *)

module Metrics = Lll_local.Metrics
module Instance = Lll_core.Instance
module Solver = Lll_core.Solver
module Store = Lll_store.Store

type measurement = {
  family : string;
  engine : string;
  n : int;
  seed : int;
  rounds : int option;
  ok : bool;
  guaranteed : bool;
  round_records : int;
  max_sweep_width : int;
  crashed : string option;
}

type growth = Constant | Log_log | Log

let growth_to_string = function Constant -> "O(1)" | Log_log -> "loglog" | Log -> "log"

type fit = {
  f_family : string;
  f_engine : string;
  f_growth : growth;
  coeff : float;
  residual : float;
}

let round_engines () =
  List.filter (fun s -> (Solver.caps s).Solver.distributed) (Solver.all ())

(* The message-passing engines gossip persistent maps of fixed values
   and phi copies every round, so their cost per round grows with the
   neighborhood's knowledge; past this size they dominate a sweep while
   adding no envelope information (their round counts equal dist2's and
   dist3's). The cutoff is part of the measurement definition:
   [measure] applies it identically when recording and when checking
   baselines, so bands for these engines simply stop at the cutoff. *)
let heavy_engines = [ "mp2"; "mp3" ]
let heavy_cutoff = 96

let engine_included ~engine ~n = n <= heavy_cutoff || not (List.mem engine heavy_engines)

(* runtime rounds also carry [par_width > 0]; the phase label singles
   out the color-class fixer sweeps recorded via [Metrics.record_sweep] *)
let max_sweep_width records =
  List.fold_left
    (fun acc (r : Metrics.round_record) ->
      if r.Metrics.par_width > 0 && r.Metrics.phase = "fix-sweep" then
        Stdlib.max acc r.Metrics.stepped
      else acc)
    0 records

let measure ?(grid = Corpus.default_grid) ?(seeds = Corpus.default_seeds)
    ?(families = Corpus.all) ?(domains = Some 1) ?store () =
  let store = match store with Some s -> s | None -> Store.create () in
  let engines = round_engines () in
  List.concat_map
    (fun (f : Corpus.family) ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun seed ->
              let inst, _ = Store.fetch store (f.Corpus.spec ~seed n) in
              List.filter_map
                (fun s ->
                  if not (engine_included ~engine:(Solver.name s) ~n) then None
                  else if not (Solver.applicable s inst) then None
                  else begin
                    let sink = Metrics.buffer () in
                    (* domains defaults to [Some 1]: baselines must not
                       depend on the machine's core count. Overriding it
                       must not change any round count (the determinism
                       contract) — only the recorded sweep widths. *)
                    let params =
                      {
                        Solver.default_params with
                        Solver.seed;
                        metrics = sink;
                        domains;
                      }
                    in
                    let rounds, ok, crashed =
                      match Solver.solve ~params s inst with
                      | report -> (report.Solver.outcome.Solver.rounds, report.Solver.ok, None)
                      | exception e -> (None, false, Some (Printexc.to_string e))
                    in
                    Some
                      {
                        family = f.Corpus.name;
                        engine = Solver.name s;
                        n;
                        seed;
                        rounds;
                        ok;
                        guaranteed = Solver.guarantees s inst;
                        round_records = List.length (Metrics.records sink);
                        max_sweep_width = max_sweep_width (Metrics.records sink);
                        crashed;
                      }
                  end)
                engines)
            seeds)
        grid)
    families

(* ------------------------------------------------------------------ *)
(* Growth fits                                                         *)
(* ------------------------------------------------------------------ *)

let envelope = function
  | Constant -> fun _ -> 1.0
  | Log_log -> fun n -> log (log (float_of_int n))
  | Log -> fun n -> log (float_of_int n)

(* least squares through the origin: a = sum(y f) / sum(f^2);
   residual normalized by the series' mass so fits are comparable *)
let fit_one points g =
  let f = envelope g in
  let sfy = List.fold_left (fun acc (n, y) -> acc +. (f n *. y)) 0.0 points in
  let sff = List.fold_left (fun acc (n, _) -> acc +. (f n *. f n)) 0.0 points in
  let a = if sff > 0.0 then sfy /. sff else 0.0 in
  let sq = List.fold_left (fun acc (n, y) -> acc +. (((a *. f n) -. y) ** 2.0)) 0.0 points in
  let mass = List.fold_left (fun acc (_, y) -> acc +. (y *. y)) 0.0 points in
  (a, if mass > 0.0 then sqrt (sq /. mass) else sqrt sq)

let fit_growth ms =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun m ->
      match m.rounds with
      | None -> ()
      | Some r ->
        let key = (m.family, m.engine) in
        let cur = try Hashtbl.find tbl key with Not_found -> [] in
        Hashtbl.replace tbl key ((m.n, float_of_int r) :: cur))
    ms;
  Hashtbl.fold
    (fun (fam, eng) pts acc ->
      (* mean rounds per distinct n *)
      let ns = List.sort_uniq compare (List.map fst pts) in
      if List.length ns < 2 then acc
      else begin
        let points =
          List.map
            (fun n ->
              let ys = List.filter_map (fun (n', y) -> if n' = n then Some y else None) pts in
              (n, List.fold_left ( +. ) 0.0 ys /. float_of_int (List.length ys)))
            ns
        in
        let best =
          List.map
            (fun g ->
              let coeff, residual = fit_one points g in
              { f_family = fam; f_engine = eng; f_growth = g; coeff; residual })
            [ Constant; Log_log; Log ]
          |> List.sort (fun a b -> compare a.residual b.residual)
          |> List.hd
        in
        best :: acc
      end)
    tbl []
  |> List.sort (fun a b -> compare (a.f_family, a.f_engine) (b.f_family, b.f_engine))

let pp_measurements ppf ms =
  Format.fprintf ppf "%-18s %-18s %6s %5s %7s %-5s %-5s %6s %5s@." "family" "engine" "n"
    "seed" "rounds" "ok" "guar" "metric" "width";
  List.iter
    (fun m ->
      Format.fprintf ppf "%-18s %-18s %6d %5d %7s %-5b %-5b %6d %5d%s@." m.family m.engine
        m.n m.seed
        (match (m.crashed, m.rounds) with
        | Some _, _ -> "CRASH"
        | None, Some r -> string_of_int r
        | None, None -> "-")
        m.ok m.guaranteed m.round_records m.max_sweep_width
        (match m.crashed with Some e -> "  crashed: " ^ e | None -> ""))
    ms

let pp_fits ppf fits =
  Format.fprintf ppf "%-18s %-18s %-7s %9s %9s@." "family" "engine" "growth" "coeff"
    "residual";
  List.iter
    (fun f ->
      Format.fprintf ppf "%-18s %-18s %-7s %9.3f %9.3f@." f.f_family f.f_engine
        (growth_to_string f.f_growth) f.coeff f.residual)
    fits
