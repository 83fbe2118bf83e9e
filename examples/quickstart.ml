(* Quickstart: build an LLL instance by hand, check which criteria hold,
   pick an engine from the solver registry, and read the verified report
   (every run ends in the exact Verify.check post-condition).

   Run with: dune exec examples/quickstart.exe *)

module Rat = Lll_num.Rat
module Var = Lll_prob.Var
module Event = Lll_prob.Event
module Space = Lll_prob.Space
module Instance = Lll_core.Instance
module Criteria = Lll_core.Criteria
module Solver = Lll_core.Solver
module Verify = Lll_core.Verify

let () =
  (* Three friends pick a meeting slot (shared 4-valued variable) and each
     also flips a private coin. Friend i is unhappy (bad event i) iff the
     group picks slot i AND their coin lands on 1. Every bad event has
     probability 1/8; each event shares the slot variable with the other
     two (d = 2, r = 3), and 1/8 < 2^-2: strictly below the paper's sharp
     threshold, so the deterministic fixing process must succeed. *)
  let vars =
    [|
      Var.uniform ~id:0 ~name:"slot" 4;
      Var.uniform ~id:1 ~name:"coin-a" 2;
      Var.uniform ~id:2 ~name:"coin-b" 2;
      Var.uniform ~id:3 ~name:"coin-c" 2;
    |]
  in
  let unhappy i =
    Event.make ~id:i ~name:(Printf.sprintf "unhappy-%d" i) ~scope:[| 0; i + 1 |]
      (fun lookup -> lookup 0 = i && lookup (i + 1) = 1)
  in
  let instance = Instance.create (Space.create vars) [| unhappy 0; unhappy 1; unhappy 2 |] in

  Format.printf "== instance ==@.%a@.@." Instance.pp instance;
  let report = Criteria.evaluate instance in
  Format.printf "== criteria ==@.%a@." Criteria.pp_report report;
  Format.printf "recommended: %s@.@." (Criteria.best_algorithm report);

  Format.printf "engines accepting this instance: %s@.@."
    (String.concat ", " (List.map Solver.name (Solver.applicable_to instance)));

  let report = Solver.solve (Solver.find_exn "fix3") instance in
  Format.printf "== deterministic fixing (Theorem 1.3, via the solver registry) ==@.";
  List.iter
    (fun (s : Solver.step) ->
      Format.printf "  fixed %s := %d  (S_rep violation %.2e)@."
        (Var.name (Space.var (Instance.space instance) s.Solver.var))
        s.Solver.value
        (Option.value ~default:nan s.Solver.srep_violation))
    report.Solver.outcome.Solver.trace;
  Format.printf "assignment: %a@." Lll_prob.Assignment.pp
    report.Solver.outcome.Solver.assignment;
  Format.printf "P* maintained: %b@." (report.Solver.outcome.Solver.pstar = Some true);
  Format.printf "all bad events avoided (exact check): %b@." report.Solver.verify.Verify.ok;
  Format.printf "@.%a@." Solver.pp_report report
