(* Who drives a flow: the datapath extension hands each flow to exactly
   one owner at a time — the agent's program, a watchdog fallback, or a
   guard quarantine — and these tests pin every hand-over.

   [owner.transitions] drives one flow through a fake controller and a
   real channel, in both stand-in modes ([Clamp] and [Native]), and
   checks after each step what the accessors report, which [ctl] calls
   the step made, and what a dup-ACK loss and an RTO do at that point.
   [owner.golden] byte-freezes the native fallback ([Scenarios.Degraded])
   and quarantine ([Scenarios.Hostile]) scenarios at seed 42, which the
   other goldens do not reach. *)

open Ccp_util
open Ccp_eventsim
open Ccp_datapath
open Ccp_core

(* --- ownership transitions ------------------------------------------- *)

(* A fake controller that logs every knob write, run-length encoded:
   "cwnd=1448x5" is five consecutive writes of the same window. *)
let logging_ctl sim ~flow =
  let cwnd = ref 14_480 and rate = ref 0.0 in
  let log = ref [] in
  let note entry =
    match !log with
    | (e, n) :: rest when String.equal e entry -> log := (e, n + 1) :: rest
    | l -> log := (entry, 1) :: l
  in
  let ctl : Congestion_iface.ctl =
    {
      flow;
      mss = 1448;
      now = (fun () -> Sim.now sim);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd =
        (fun b ->
          note (Printf.sprintf "cwnd=%d" b);
          cwnd := b);
      get_rate = (fun () -> !rate);
      set_rate =
        (fun r ->
          note (Printf.sprintf "rate=%g" r);
          rate := r);
      srtt = (fun () -> Some (Time_ns.ms 10));
      latest_rtt = (fun () -> Some (Time_ns.ms 11));
      min_rtt = (fun () -> Some (Time_ns.ms 10));
      inflight = (fun () -> 0);
      send_rate_ewma = (fun () -> None);
      delivery_rate_ewma = (fun () -> None);
    }
  in
  let take_log () =
    let entries =
      List.rev_map (fun (e, n) -> if n = 1 then e else Printf.sprintf "%sx%d" e n) !log
    in
    log := [];
    String.concat " " entries
  in
  (ctl, cwnd, take_log)

type mode = Clamp_mode | Native_mode

let mode_name = function Clamp_mode -> "clamp" | Native_mode -> "native"

let stand_in = function
  | Clamp_mode -> Ccp_ext.Clamp { cwnd_segments = 2 }
  | Native_mode -> Ccp_ext.Native Ccp_algorithms.Native_reno.create

(* The watchdog and the quarantine share the stand-in: 50 ms of agent
   silence enters fallback, 5 guard incidents enter quarantine. *)
let owner_config mode =
  {
    Ccp_ext.default_config with
    fallback = Some { Ccp_ext.after = Time_ns.ms 50; mode = stand_in mode };
    guard =
      { Ccp_ext.default_guard with quarantine_after = 5; quarantine_mode = Some (stand_in mode) };
  }

(* One flow (id 1) on the extension, with the agent end of the channel
   reduced to a mailbox: nothing answers, so silence is the default. *)
type env = {
  sim : Sim.t;
  channel : Ccp_ipc.Channel.t;
  ext : Ccp_ext.t;
  cc : Congestion_iface.t;
  ctl : Congestion_iface.ctl;
}

let create_env ~config make_ctl =
  let sim = Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end ignore;
  let ext = Ccp_ext.create ~sim ~channel ~config () in
  let cc = Ccp_ext.congestion_control ext in
  let ctl, cwnd, take_log = make_ctl sim ~flow:1 in
  cc.Congestion_iface.on_init ctl;
  ({ sim; channel; ext; cc; ctl }, cwnd, take_log)

let from_agent e msg = Ccp_ipc.Channel.send e.channel ~from:Ccp_ipc.Channel.Agent_end msg
let install e program = from_agent e (Ccp_ipc.Message.Install { flow = 1; program })
let set_cwnd e bytes = from_agent e (Ccp_ipc.Message.Set_cwnd { flow = 1; bytes })

(* What a loss does to the flow at one step: whether the datapath sends
   the agent an urgent, and whether the window collapses to one segment. *)
type loss_effect = { urgent : bool; collapse : bool }

let ccp_path = ({ urgent = true; collapse = false }, { urgent = true; collapse = true })
let stand_in_path = ({ urgent = false; collapse = false }, { urgent = false; collapse = true })

(* [ccp_path]: the CCP loss path sends an urgent on both kinds and
   collapses the window on an RTO in the datapath itself. [stand_in_path]:
   no urgent; a native stand-in (NewReno) halves on dup ACKs and
   collapses on an RTO, a clamp quarantine keeps only the RTO collapse.
   A clamp fallback stays on the CCP path. *)
type step = {
  name : string;
  act : env -> unit;
  until_ms : int;
  owner : Ccp_ext.controller;
  program : bool;  (** installed_program / has_compiled_program *)
  silent_watchdog : bool;
      (** the watchdog found the agent silent during the step but must
          only have probed with Ready, never entered fallback *)
  ctl_calls : mode -> string;  (** knob writes made during the step *)
  losses : mode -> loss_effect * loss_effect;  (** (dup ACKs, RTO) *)
}

let steps =
  let same s _ = s in
  [
    {
      name = "1 install accepted";
      act = (fun e -> install e Test_guard.sane_program);
      until_ms = 10;
      owner = Ccp_ext.Agent_program;
      program = true;
      silent_watchdog = false;
      ctl_calls = same "cwnd=14480";
      losses = same ccp_path;
    };
    {
      name = "2 watchdog silence";
      act = ignore;
      until_ms = 110;
      owner = Ccp_ext.Native_fallback;
      program = false;
      silent_watchdog = false;
      ctl_calls =
        (function
        | Clamp_mode -> "cwnd=14480x9 rate=0 cwnd=2896 rate=0"
        | Native_mode -> "cwnd=14480x9 rate=0");
      losses =
        (function Clamp_mode -> ccp_path | Native_mode -> stand_in_path);
    };
    {
      name = "3 agent set_cwnd";
      act = (fun e -> set_cwnd e 30_000);
      until_ms = 111;
      owner = Ccp_ext.Awaiting_agent;
      program = false;
      silent_watchdog = false;
      ctl_calls = same "cwnd=30000";
      losses = same ccp_path;
    };
    {
      name = "4 install accepted";
      act = (fun e -> install e Test_guard.sane_program);
      until_ms = 120;
      owner = Ccp_ext.Agent_program;
      program = true;
      silent_watchdog = false;
      ctl_calls = same "cwnd=14480";
      losses = same ccp_path;
    };
    {
      name = "5 guard quarantine";
      act = (fun e -> install e Scenarios.Hostile.zero_cwnd);
      until_ms = 260;
      owner = Ccp_ext.Quarantined;
      program = false;
      silent_watchdog = true;
      ctl_calls =
        (function
        | Clamp_mode -> "cwnd=1448x5 rate=0 cwnd=2896"
        | Native_mode -> "cwnd=1448x5 rate=0");
      losses = same stand_in_path;
    };
    {
      name = "6 set_cwnd ignored";
      act = (fun e -> set_cwnd e 60_000);
      until_ms = 261;
      owner = Ccp_ext.Quarantined;
      program = false;
      silent_watchdog = false;
      ctl_calls = same "";
      losses = same stand_in_path;
    };
    {
      name = "7 rejected install";
      act = (fun e -> install e Scenarios.Hostile.wait_too_short);
      until_ms = 262;
      owner = Ccp_ext.Quarantined;
      program = false;
      silent_watchdog = false;
      ctl_calls = same "";
      losses = same stand_in_path;
    };
    {
      name = "8 install accepted";
      act = (fun e -> install e Test_guard.sane_program);
      until_ms = 270;
      owner = Ccp_ext.Agent_program;
      program = true;
      silent_watchdog = false;
      ctl_calls = same "cwnd=14480";
      losses = same ccp_path;
    };
  ]

let controller_name = function
  | Ccp_ext.Agent_program -> "agent-program"
  | Ccp_ext.Native_fallback -> "fallback"
  | Ccp_ext.Quarantined -> "quarantined"
  | Ccp_ext.Awaiting_agent -> "awaiting-agent"

(* Fire one loss of [kind] from a 20-segment window and report its
   effect; the window is restored afterwards so the probe leaves the
   step's own state as it found it. *)
let probe_loss e cwnd kind =
  let saved = !cwnd in
  cwnd := 20 * 1448;
  let urgents = Ccp_ext.urgents_sent e.ext in
  e.cc.Congestion_iface.on_loss e.ctl
    { Congestion_iface.kind; at = Sim.now e.sim; bytes_lost_estimate = 1448 };
  let effect =
    { urgent = Ccp_ext.urgents_sent e.ext > urgents; collapse = !cwnd = 1448 }
  in
  cwnd := saved;
  effect

let show_effect { urgent; collapse } = Printf.sprintf "urgent=%b collapse=%b" urgent collapse

let run_transitions mode () =
  let env, cwnd, take_log = create_env ~config:(owner_config mode) logging_ctl in
  ignore (take_log ());
  List.iter
    (fun s ->
      let where what = Printf.sprintf "%s/%s: %s" (mode_name mode) s.name what in
      let fallbacks = Ccp_ext.fallbacks_triggered env.ext in
      let probes = Ccp_ext.fallback_probes_sent env.ext in
      s.act env;
      Sim.run ~until:(Time_ns.ms s.until_ms) env.sim;
      Alcotest.(check string) (where "ctl calls") (s.ctl_calls mode) (take_log ());
      Alcotest.(check (option string)) (where "controller")
        (Some (controller_name s.owner))
        (Option.map controller_name (Ccp_ext.controller env.ext ~flow:1));
      Alcotest.(check bool) (where "in_fallback")
        (s.owner = Ccp_ext.Native_fallback)
        (Ccp_ext.in_fallback env.ext ~flow:1);
      Alcotest.(check bool) (where "in_quarantine")
        (s.owner = Ccp_ext.Quarantined)
        (Ccp_ext.in_quarantine env.ext ~flow:1);
      Alcotest.(check bool) (where "installed_program") s.program
        (Ccp_ext.installed_program env.ext ~flow:1 <> None);
      Alcotest.(check bool) (where "has_compiled_program") s.program
        (Ccp_ext.has_compiled_program env.ext ~flow:1);
      (* Quarantine supersedes the watchdog: a long silence in quarantine
         never enters fallback, but the watchdog still probes with Ready. *)
      if s.silent_watchdog then begin
        Alcotest.(check int) (where "no fallback from quarantine") fallbacks
          (Ccp_ext.fallbacks_triggered env.ext);
        Alcotest.(check bool) (where "watchdog still probes") true
          (Ccp_ext.fallback_probes_sent env.ext > probes)
      end;
      let dup, rto = s.losses mode in
      Alcotest.(check string) (where "dup-ACK loss") (show_effect dup)
        (show_effect (probe_loss env cwnd Congestion_iface.Dup_acks));
      Alcotest.(check string) (where "RTO") (show_effect rto)
        (show_effect (probe_loss env cwnd Congestion_iface.Rto));
      ignore (take_log ()))
    steps;
  Alcotest.(check int) "one fallback episode" 1 (Ccp_ext.fallbacks_triggered env.ext);
  Alcotest.(check int) "one quarantine" 1 (Ccp_ext.quarantines_triggered env.ext);
  Alcotest.(check int) "installs accepted" 4 (Ccp_ext.installs_accepted env.ext);
  Alcotest.(check int) "installs rejected" 1 (Ccp_ext.installs_rejected env.ext)

(* --- golden: native fallback and quarantine scenarios ------------------ *)

let f = Printf.sprintf "%.17g"

let result_lines label (r : Experiment.result) =
  let open Experiment in
  let head =
    Printf.sprintf
      "%s utilization=%s median_rtt=%d p95_rtt=%d p99_rtt=%d drops=%d ecn_marks=%d jain=%s \
       sender_cpu=%b receiver_cpu=%b perturb_stats=%b"
      label (f r.utilization) r.median_rtt r.p95_rtt r.p99_rtt r.drops r.ecn_marks
      (f r.jain_index) (r.sender_cpu <> None) (r.receiver_cpu <> None)
      (r.perturb_stats <> None)
  in
  let flows =
    List.map
      (fun (x : flow_result) ->
        Printf.sprintf
          "%s flow=%d cc=%s delivered=%d goodput=%s mean_rtt=%d segments=%d retx=%d \
           timeouts=%d recoveries=%d final_cwnd=%d"
          label x.flow_id x.cc_name x.delivered_bytes (f x.goodput_bps) x.mean_rtt
          x.segments_sent x.retransmits x.timeouts x.recoveries x.final_cwnd)
      r.flows
  in
  let agent =
    match r.agent_stats with
    | None -> [ label ^ " agent_stats=none" ]
    | Some s ->
      let q = s.ipc_faults in
      [
        Printf.sprintf
          "%s reports=%d urgents=%d installs=%d handler_errors=%d ipc_up=%d ipc_down=%d \
           fallbacks=%d fallback_probes=%d dropped=%d duplicated=%d delayed=%d reordered=%d \
           partition_dropped=%d installs_admitted=%d installs_refused=%d quarantines=%d \
           guard_incidents=%d decode_failures=%d reports_shed=%d degradations=%d \
           checkpoints=%d warm_restores=%d max_queue_wait=%d"
          label s.reports s.urgents s.installs s.handler_errors s.ipc_bytes_to_agent
          s.ipc_bytes_to_datapath s.fallbacks s.fallback_probes q.Ccp_ipc.Channel.dropped
          q.Ccp_ipc.Channel.duplicated q.Ccp_ipc.Channel.delayed q.Ccp_ipc.Channel.reordered
          q.Ccp_ipc.Channel.partition_dropped s.installs_admitted s.installs_refused
          s.quarantines s.guard_incidents s.decode_failures s.reports_shed s.degradations
          s.checkpoints_taken s.warm_restores s.max_queue_wait;
      ]
  in
  let series =
    List.map
      (fun name ->
        let points = Ccp_net.Trace.series r.trace name in
        let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 points in
        let last =
          match List.rev points with [] -> "-" | (at, v) :: _ -> Printf.sprintf "%d:%s" at (f v)
        in
        Printf.sprintf "%s series=%s points=%d sum=%s last=%s" label name
          (List.length points) (f sum) last)
      (List.sort compare (Ccp_net.Trace.series_names r.trace))
  in
  (head :: flows) @ agent @ series

let golden_datapath_lines () =
  let hostile =
    List.map
      (fun (p : Scenarios.Hostile.point) ->
        Printf.sprintf
          "hostile name=%s utilization=%s admitted=%d refused=%d quarantines=%d incidents=%d \
           recovered=%b min_cwnd=%d"
          p.name (f p.utilization) p.installs_admitted p.installs_refused p.quarantines
          p.guard_incidents p.recovered p.min_cwnd_seen)
      (Scenarios.Hostile.sweep ~duration:(Time_ns.sec 1) ~seed:42 ())
  in
  let crash =
    Scenarios.Degraded.crash_restart ~crash_at:(Time_ns.ms 1000) ~restart_at:(Time_ns.ms 2000)
      ~duration:(Time_ns.sec 3) ~seed:42 ()
  in
  let lossy =
    List.map
      (fun (p : Scenarios.Degraded.lossy_point) ->
        Printf.sprintf "lossy drop=%s utilization=%s median_rtt=%d dropped=%d fallbacks=%d"
          (f p.drop_probability) (f p.utilization) p.median_rtt p.messages_dropped p.fallbacks)
      (Scenarios.Degraded.lossy_ipc ~duration:(Time_ns.sec 2) ~seed:42 ())
  in
  hostile
  @ result_lines "crash.clean" crash.Scenarios.Degraded.clean
  @ result_lines "crash.without_fallback" crash.Scenarios.Degraded.without_fallback
  @ result_lines "crash.with_fallback" crash.Scenarios.Degraded.with_fallback
  @ lossy

let golden_path () =
  if Sys.file_exists "golden_datapath.expected" then "golden_datapath.expected"
  else "test/golden_datapath.expected"

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (go []) in
  close_in ic;
  lines

let test_golden_datapath () =
  let actual = golden_datapath_lines () in
  (* Regenerate with CCP_REGEN_DATAPATH=path/to/golden_datapath.expected
     after an intentional dynamics change. *)
  match Sys.getenv_opt "CCP_REGEN_DATAPATH" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    Printf.printf "regenerated %s\n" path
  | None ->
    let expected = read_lines (golden_path ()) in
    Alcotest.(check int) "golden datapath line count" (List.length expected)
      (List.length actual);
    List.iteri
      (fun i (e, a) ->
        if not (String.equal e a) then
          Alcotest.failf "golden datapath diverges at line %d:\n  expected %s\n  actual   %s"
            (i + 1) e a)
      (List.combine expected actual)

let suite =
  [
    ( "owner.transitions",
      [
        Alcotest.test_case "clamp stand-in" `Quick (run_transitions Clamp_mode);
        Alcotest.test_case "native stand-in" `Quick (run_transitions Native_mode);
      ] );
    ("owner.golden", [ Alcotest.test_case "fallback and quarantine scenarios" `Slow test_golden_datapath ]);
  ]
