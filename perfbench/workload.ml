(* The three benchmark workloads, built from the same public pieces the
   scenarios use so the benchmark can hand its own closures (native
   controller factories, algorithm [make], [inspect]) to the program.
   [test/match_scenarios.ml] checks that these configurations reproduce
   [Scenarios.Fig3.run] and [Scenarios.Incast.run_cell] exactly. *)

open Ccp_util
open Ccp_core

type t = Fig3_cubic_1g | Incast_reno_sync | Incast_aggregate

let all = [ Fig3_cubic_1g; Incast_reno_sync; Incast_aggregate ]

let name = function
  | Fig3_cubic_1g -> "fig3-cubic-1g"
  | Incast_reno_sync -> "incast-reno-sync"
  | Incast_aggregate -> "incast-aggregate"

let of_name s = List.find_opt (fun w -> name w = s) all

(* One simulated second everywhere: long enough that Figure 3's CCP-Cubic
   stall (it starts within the first simulated second) is in every run. *)
let duration = Time_ns.sec 1

(* Whether the workload itself runs with the telemetry bundle armed, as
   [ccp_sim incast --timeline] arms it. *)
let telemetry_on = function Incast_reno_sync -> true | Fig3_cubic_1g | Incast_aggregate -> false

(* The arming [Scenarios.Incast.run_cell ~with_telemetry:true] uses. The
   traced run passes a real clock so the existing ns rows fill in. *)
let telemetry_obs ?(clock = fun () -> 0.0) () =
  Ccp_obs.Obs.create ~tracer:true ~telemetry:true ~topk_k:64 ~clock ()

(* What the benchmark hands to the program. The untraced run passes
   [plain]; the traced run wraps each closure. *)
type hooks = {
  native : (unit -> Ccp_datapath.Congestion_iface.t) -> unit -> Ccp_datapath.Congestion_iface.t;
  algorithm : Ccp_agent.Algorithm.t -> Ccp_agent.Algorithm.t;
  inspect : Experiment.handles -> unit;
  obs : unit -> Ccp_obs.Obs.t option;  (** a fresh bundle (or none) per run *)
}

let plain ~obs =
  {
    native = Fun.id;
    algorithm = Fun.id;
    inspect = ignore;
    obs;
  }

type run = {
  ccp : bool;
  result : Experiment.result;
  handles : Experiment.handles option;
  wall_s : float;  (** [Experiment.run], wiring through collection *)
  returned_at : float;  (** [Unix.gettimeofday] as [Experiment.run] returned *)
}

let run_one hooks config ~ccp =
  let handles = ref None in
  let config =
    {
      config with
      Experiment.obs = hooks.obs ();
      inspect =
        Some
          (fun h ->
            handles := Some h;
            hooks.inspect h);
    }
  in
  let t0 = Unix.gettimeofday () in
  let result = Experiment.run config in
  let returned_at = Unix.gettimeofday () in
  { ccp; result; handles = !handles; wall_s = returned_at -. t0; returned_at }

(* Scenarios.Fig3: 1 Gbit/s, 10 ms, 1 BDP of buffer, 10 % warmup. *)
let fig3_config ~seed cc =
  let base =
    Experiment.default_config ~rate_bps:Scenarios.Fig3.rate_bps
      ~base_rtt:Scenarios.Fig3.base_rtt ~duration
  in
  { base with Experiment.seed; warmup = Time_ns.scale duration 0.1; flows = [ Experiment.flow cc ] }

(* Scenarios.Incast.run_cell, batching on, with the flow list built here. *)
let incast_config ~seed ~n ~arrival flows =
  let rate_bps = Scenarios.Incast.default_rate_bps in
  let base_rtt = Scenarios.Incast.default_base_rtt in
  let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
  let bdp_bytes = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
  let start_at i =
    match arrival with
    | Scenarios.Incast.Synchronized -> Time_ns.zero
    | Scenarios.Incast.Staggered ->
      Time_ns.scale duration (0.25 *. float_of_int i /. float_of_int (max 1 n))
  in
  {
    base with
    Experiment.seed;
    buffer_bytes = max 9000 (int_of_float (bdp_bytes /. 4.0));
    warmup = Time_ns.scale duration 0.1;
    flows = List.init n (fun i -> Experiment.flow ~start_at:(start_at i) (flows i));
    ipc_batching = Some Scenarios.Incast.default_batching;
    agent_flow_pool = Some (max 16 n);
    datapath =
      { Ccp_datapath.Ccp_ext.default_config with Ccp_datapath.Ccp_ext.flow_capacity = max 16 n };
  }

let incast_n = function Incast_reno_sync -> 1024 | Fig3_cubic_1g | Incast_aggregate -> 256

(* Figure 3 runs at simulator seed 42 whatever the benchmark seed. The
   CCP-Cubic stall is bimodal in the seed: at 1 s simulated, seeds 3, 5
   and 42 stall (goodput 0.58-0.65, 7-9 s of wall time) while 1, 2 and 4
   do not (0.97, 2-4 s). A seed-dependent Figure 3 would make every one
   of its metrics bimodal; the pinned seed keeps the stall in every run. *)
let fig3_seed = 42

(* Runs in order; for Figure 3 the CCP run comes first, as in
   [Scenarios.Fig3.run]. *)
let run hooks w ~seed =
  match w with
  | Fig3_cubic_1g ->
    let seed = fig3_seed in
    let ccp =
      run_one hooks ~ccp:true
        (fig3_config ~seed (Experiment.Ccp_cc (hooks.algorithm (Ccp_algorithms.Ccp_cubic.create ()))))
    in
    let native =
      run_one hooks ~ccp:false
        (fig3_config ~seed (Experiment.Native_cc (hooks.native Ccp_algorithms.Native_cubic.create)))
    in
    [ ccp; native ]
  | Incast_reno_sync ->
    let flows _ = Experiment.Ccp_cc (hooks.algorithm (Ccp_algorithms.Ccp_reno.create ())) in
    [
      run_one hooks ~ccp:true
        (incast_config ~seed ~n:(incast_n w) ~arrival:Scenarios.Incast.Synchronized flows);
    ]
  | Incast_aggregate ->
    let algo =
      hooks.algorithm
        (Ccp_algorithms.Ccp_aggregate.algorithm (Ccp_algorithms.Ccp_aggregate.create ()))
    in
    [
      run_one hooks ~ccp:true
        (incast_config ~seed ~n:(incast_n w) ~arrival:Scenarios.Incast.Staggered (fun _ ->
             Experiment.Ccp_cc algo));
    ]
