(* The benchmark builds its workload configurations itself so it can hand
   its own closures to the program. This checks that they reproduce the
   scenarios they stand for: [Scenarios.Fig3.run] and
   [Scenarios.Incast.run_cell] give the same per-flow results, drops,
   utilization and agent statistics.

     match_scenarios.exe SEED   (exit 1 on the first mismatch) *)

open Ccp_util
open Ccp_core
open Perfbench

let same_result what (a : Experiment.result) (b : Experiment.result) =
  let flow (f : Experiment.flow_result) =
    (f.flow_id, f.delivered_bytes, f.retransmits, f.final_cwnd, f.segments_sent, f.timeouts, f.recoveries)
  in
  let checks =
    [
      ("flows", List.map flow a.Experiment.flows = List.map flow b.Experiment.flows);
      ("drops", a.Experiment.drops = b.Experiment.drops);
      ("utilization", Float.equal a.Experiment.utilization b.Experiment.utilization);
      ("p99_rtt", Time_ns.equal a.Experiment.p99_rtt b.Experiment.p99_rtt);
      ("agent_stats", a.Experiment.agent_stats = b.Experiment.agent_stats);
    ]
  in
  List.iter
    (fun (field, ok) ->
      if not ok then begin
        Printf.printf "FAIL %s: %s differs from the scenario\n" what field;
        exit 1
      end)
    checks;
  Printf.printf "ok   %s\n%!" what

let () =
  let seed = match Sys.argv with [| _; s |] -> int_of_string s | _ -> 42 in
  let bench w =
    let obs () = if Workload.telemetry_on w then Some (Workload.telemetry_obs ()) else None in
    List.map (fun (r : Workload.run) -> r.Workload.result) (Workload.run (Workload.plain ~obs) w ~seed)
  in
  (match bench Workload.Fig3_cubic_1g with
  | [ ccp; native ] ->
    let cmp = Scenarios.Fig3.run ~duration:Workload.duration ~seed:Workload.fig3_seed () in
    same_result "fig3-cubic-1g ccp" ccp cmp.Scenarios.ccp;
    same_result "fig3-cubic-1g native" native cmp.Scenarios.native
  | _ -> assert false);
  List.iter
    (fun (w, arrival, algo) ->
      let cell =
        Scenarios.Incast.run_cell ~with_telemetry:(Workload.telemetry_on w)
          ~rate_bps:Scenarios.Incast.default_rate_bps ~base_rtt:Scenarios.Incast.default_base_rtt
          ~duration:Workload.duration ~batching:true ~seed ~n:(Workload.incast_n w) ~arrival ~algo ()
      in
      match bench w with
      | [ r ] -> same_result (Workload.name w) r cell.Scenarios.Incast.result
      | _ -> assert false)
    [
      (Workload.Incast_reno_sync, Scenarios.Incast.Synchronized, "ccp-reno");
      (Workload.Incast_aggregate, Scenarios.Incast.Staggered, "ccp-aggregate");
    ]
