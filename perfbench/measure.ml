(* What one workload run produced: the simulated-output digest, the
   control-plane counters read through the public accessors, the
   simulated end-to-end statistics, and the exact identities a clean
   channel must satisfy. *)

open Ccp_util
open Ccp_core
module J = Ccp_obs.Json

type counters = {
  reports : int;  (** reports the agent dispatched *)
  urgents : int;
  installs_sent : int;
  installs_admitted : int;
  installs_refused : int;
  reports_shed : int;
  decode_failures : int;
  handler_errors : int;
  dp_reports_sent : int;
  dp_urgents_sent : int;
  frames_up : int;  (** datapath -> agent wire frames *)
  frames_down : int;
  bytes_up : int;
  bytes_down : int;
  batches : int;
  reports_batched : int;
}

let zero =
  {
    reports = 0;
    urgents = 0;
    installs_sent = 0;
    installs_admitted = 0;
    installs_refused = 0;
    reports_shed = 0;
    decode_failures = 0;
    handler_errors = 0;
    dp_reports_sent = 0;
    dp_urgents_sent = 0;
    frames_up = 0;
    frames_down = 0;
    bytes_up = 0;
    bytes_down = 0;
    batches = 0;
    reports_batched = 0;
  }

let counters_of_run (r : Workload.run) =
  match (r.Workload.handles, r.Workload.result.Experiment.agent_stats) with
  | Some h, Some s ->
    let open Ccp_ipc in
    let ch = h.Experiment.h_channel in
    {
      reports = s.Experiment.reports;
      urgents = s.Experiment.urgents;
      installs_sent = s.Experiment.installs;
      installs_admitted = s.Experiment.installs_admitted;
      installs_refused = s.Experiment.installs_refused;
      reports_shed = s.Experiment.reports_shed;
      decode_failures = s.Experiment.decode_failures;
      handler_errors = s.Experiment.handler_errors;
      dp_reports_sent = Ccp_datapath.Ccp_ext.reports_sent h.Experiment.h_datapath;
      dp_urgents_sent = Ccp_datapath.Ccp_ext.urgents_sent h.Experiment.h_datapath;
      frames_up = Channel.messages_sent ch Channel.Datapath_end;
      frames_down = Channel.messages_sent ch Channel.Agent_end;
      bytes_up = Channel.bytes_sent ch Channel.Datapath_end;
      bytes_down = Channel.bytes_sent ch Channel.Agent_end;
      batches = Channel.batches_sent ch;
      reports_batched = Channel.reports_batched ch;
    }
  | _ -> zero

let add a b =
  {
    reports = a.reports + b.reports;
    urgents = a.urgents + b.urgents;
    installs_sent = a.installs_sent + b.installs_sent;
    installs_admitted = a.installs_admitted + b.installs_admitted;
    installs_refused = a.installs_refused + b.installs_refused;
    reports_shed = a.reports_shed + b.reports_shed;
    decode_failures = a.decode_failures + b.decode_failures;
    handler_errors = a.handler_errors + b.handler_errors;
    dp_reports_sent = a.dp_reports_sent + b.dp_reports_sent;
    dp_urgents_sent = a.dp_urgents_sent + b.dp_urgents_sent;
    frames_up = a.frames_up + b.frames_up;
    frames_down = a.frames_down + b.frames_down;
    bytes_up = a.bytes_up + b.bytes_up;
    bytes_down = a.bytes_down + b.bytes_down;
    batches = a.batches + b.batches;
    reports_batched = a.reports_batched + b.reports_batched;
  }

let counters runs = List.fold_left (fun acc r -> add acc (counters_of_run r)) zero runs

let counter_fields c =
  [
    ("reports", c.reports);
    ("urgents", c.urgents);
    ("installs_sent", c.installs_sent);
    ("installs_admitted", c.installs_admitted);
    ("installs_refused", c.installs_refused);
    ("reports_shed", c.reports_shed);
    ("decode_failures", c.decode_failures);
    ("handler_errors", c.handler_errors);
    ("datapath.reports_sent", c.dp_reports_sent);
    ("datapath.urgents_sent", c.dp_urgents_sent);
    ("frames_up", c.frames_up);
    ("frames_down", c.frames_down);
    ("bytes_up", c.bytes_up);
    ("bytes_down", c.bytes_down);
    ("batches", c.batches);
    ("reports_batched", c.reports_batched);
  ]

(* Digest of the simulated outputs: per flow delivered bytes,
   retransmits and final window (plus the other per-flow counters), the
   bottleneck drops, and the agent and channel counters of each run. *)
let digest runs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Workload.run) ->
      let res = r.Workload.result in
      Buffer.add_string b (if r.Workload.ccp then "ccp\n" else "native\n");
      List.iter
        (fun (f : Experiment.flow_result) ->
          Printf.bprintf b "%d %d %d %d %d %d %d\n" f.flow_id f.delivered_bytes f.retransmits
            f.final_cwnd f.segments_sent f.timeouts f.recoveries)
        res.Experiment.flows;
      Printf.bprintf b "drops %d ecn %d\n" res.Experiment.drops res.Experiment.ecn_marks;
      List.iter (fun (k, v) -> Printf.bprintf b "%s %d\n" k v) (counter_fields (counters_of_run r)))
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Exact on a clean channel: every report the datapath sent was either
   dispatched or shed, and every install the agent sent was either
   admitted or refused. [Error field] names the first that fails. *)
let check_identities c =
  if c.reports + c.reports_shed <> c.dp_reports_sent then
    Error
      (Printf.sprintf "reports_received + reports_shed (%d + %d) <> datapath.reports_sent (%d)"
         c.reports c.reports_shed c.dp_reports_sent)
  else if c.installs_admitted + c.installs_refused <> c.installs_sent then
    Error
      (Printf.sprintf "installs_admitted + installs_refused (%d + %d) <> installs_sent (%d)"
         c.installs_admitted c.installs_refused c.installs_sent)
  else Ok ()

let live (h : Experiment.handles) =
  let a = h.Experiment.h_agent and d = h.Experiment.h_datapath in
  {
    zero with
    reports = Ccp_agent.Agent.reports_received a;
    reports_shed = Ccp_agent.Agent.reports_shed a;
    dp_reports_sent = Ccp_datapath.Ccp_ext.reports_sent d;
    installs_sent = Ccp_agent.Agent.installs_sent a;
    installs_admitted = Ccp_datapath.Ccp_ext.installs_accepted d;
    installs_refused = Ccp_datapath.Ccp_ext.installs_rejected d;
  }

(* The identities hold only at an instant with nothing in flight, and a
   run's last instant may still have a report or install on the wire.
   Step each run's own simulator past [duration] to the first such
   instant, within 10 ms of simulated time. Call this after everything
   else is read: the run keeps going. A count that overshoots never
   comes back, so it fails at once. *)
let settle_identities runs =
  let settle (r : Workload.run) =
    match r.Workload.handles with
    | None -> Ok ()
    | Some h ->
      let sim = h.Experiment.h_sim in
      let limit = Time_ns.add Workload.duration (Time_ns.ms 10) in
      let rec go () =
        let c = live h in
        match check_identities c with
        | Ok () -> Ok ()
        | Error e ->
          if
            c.reports + c.reports_shed > c.dp_reports_sent
            || c.installs_admitted + c.installs_refused > c.installs_sent
            || Time_ns.compare (Ccp_eventsim.Sim.now sim) limit >= 0
            || not (Ccp_eventsim.Sim.step sim)
          then Error e
          else go ()
      in
      go ()
  in
  List.fold_left (fun acc r -> Result.bind acc (fun () -> settle r)) (Ok ()) runs

let ccp_runs runs = List.filter (fun (r : Workload.run) -> r.Workload.ccp) runs

let mean f = function
  | [] -> 0.0
  | l -> List.fold_left (fun acc x -> acc +. f x) 0.0 l /. float_of_int (List.length l)

let hist_of (r : Workload.run) name =
  match r.Workload.result.Experiment.config.Experiment.obs with
  | Some obs -> Some (Ccp_obs.Metrics.histogram obs.Ccp_obs.Obs.metrics name)
  | None -> None

let counter_of (r : Workload.run) name =
  match r.Workload.result.Experiment.config.Experiment.obs with
  | Some obs ->
    Ccp_obs.Metrics.counter_value (Ccp_obs.Metrics.counter obs.Ccp_obs.Obs.metrics name)
  | None -> 0

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Simulated end-to-end statistics; they repeat exactly for a seed. *)
let sim_metrics w runs =
  let c = counters runs in
  let ccp = ccp_runs runs in
  let res (r : Workload.run) = r.Workload.result in
  let per_report x = float_of_int x /. float_of_int (max 1 c.reports) in
  let orphaned = sum (fun r -> counter_of r "trace.spans_orphaned") ccp in
  let failed =
    c.reports_shed + c.installs_refused + c.decode_failures + c.handler_errors + orphaned
  in
  let fidelity =
    match (w, runs) with
    | Workload.Fig3_cubic_1g, [ a; b ] ->
      let cmp = { Scenarios.ccp = res a; native = res b } in
      [
        ( "fidelity_util_gap",
          Float.abs ((res b).Experiment.utilization -. (res a).Experiment.utilization) );
        ("fidelity_cwnd_rmse", (Scenarios.fidelity cmp).Ccp_obs.Fidelity.cwnd_rmse);
      ]
    | _ -> []
  in
  let reaction =
    match List.filter_map (fun r -> hist_of r "trace.reaction_us") ccp with
    | h :: _ when Ccp_obs.Metrics.observations h > 0 ->
      [ ("reaction_p99_us", Ccp_obs.Metrics.quantile h 0.99) ]
    | _ -> []
  in
  [
    ("goodput_frac", mean (fun r -> (res r).Experiment.utilization) ccp);
    ("rtt_p99_ms", mean (fun r -> Time_ns.to_float_ms (res r).Experiment.p99_rtt) ccp);
    ( "rtt_p99_over_base",
      mean
        (fun r ->
          Time_ns.to_float_ms (res r).Experiment.p99_rtt
          /. Time_ns.to_float_ms (res r).Experiment.config.Experiment.base_rtt)
        ccp );
    ("jain_index", mean (fun r -> (res r).Experiment.jain_index) ccp);
    ("ctl_frames_per_report", per_report (c.frames_up + c.frames_down));
    ("ctl_bytes_per_report", per_report (c.bytes_up + c.bytes_down));
    ("ctl_failed_frac", float_of_int failed /. float_of_int (max 1 (c.reports + c.installs_sent)));
  ]
  @ fidelity @ reaction

let sim_seconds runs = float_of_int (List.length runs) *. Time_ns.to_float_sec Workload.duration
let wall_seconds runs = List.fold_left (fun acc (r : Workload.run) -> acc +. r.Workload.wall_s) 0.0 runs

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_of_pairs pairs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) pairs)

let json_of_counters c =
  J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) (counter_fields c))
