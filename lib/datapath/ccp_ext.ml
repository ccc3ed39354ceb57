open Ccp_util
open Ccp_eventsim
open Ccp_lang
open Ccp_ipc

type fallback_mode =
  | Clamp of { cwnd_segments : int }
  | Native of (unit -> Congestion_iface.t)

type fallback = {
  after : Time_ns.t;
  mode : fallback_mode;
}

let clamp_fallback ~after ~cwnd_segments = { after; mode = Clamp { cwnd_segments } }
let native_fallback ~after make_cc = { after; mode = Native make_cc }

type guard_envelope = {
  min_cwnd_segments : int;
  max_cwnd_bytes : int;
  max_rate_bytes_per_sec : float;
  min_report_interval : Time_ns.t;
  quarantine_after : int;
  quarantine_mode : fallback_mode option;
}

let default_guard =
  {
    min_cwnd_segments = 1;
    max_cwnd_bytes = 1 lsl 30;
    max_rate_bytes_per_sec = 125e9 (* 1 Tbit/s *);
    min_report_interval = Time_ns.us 10;
    quarantine_after = 50;
    quarantine_mode = None;
  }

(* Guard bounds that are fixed rather than configured. *)

(* Floor on computed waits: a shorter one would spin the datapath at one
   timestamp. *)
let min_wait = Time_ns.us 1

(* Program steps per tick. *)
let max_eval_steps = 10_000

(* Divisions by zero per incident point: isolated div-by-zero is
   tolerated, a sustained storm scores. *)
let div_storm_unit = 50

(* Fold state magnitude bound. *)
let divergence_limit = 1e18

type guard_incidents = {
  mutable cwnd_clamped : int;
  mutable rate_clamped : int;
  mutable wait_clamped : int;
  mutable non_finite : int;
  mutable div_storms : int;
  mutable report_throttled : int;
  mutable fold_divergence : int;
  mutable eval_budget : int;
}

let fresh_guard_incidents () =
  {
    cwnd_clamped = 0;
    rate_clamped = 0;
    wait_clamped = 0;
    non_finite = 0;
    div_storms = 0;
    report_throttled = 0;
    fold_divergence = 0;
    eval_budget = 0;
  }

let guard_total g =
  g.cwnd_clamped + g.rate_clamped + g.wait_clamped + g.non_finite + g.div_storms
  + g.report_throttled + g.fold_divergence + g.eval_budget

(* Every counter with its setter and wire kind, in reporting order. *)
let incident_counters =
  [
    ((fun g -> g.cwnd_clamped), (fun g n -> g.cwnd_clamped <- n), Message.Cwnd_clamped);
    ((fun g -> g.rate_clamped), (fun g n -> g.rate_clamped <- n), Message.Rate_clamped);
    ((fun g -> g.wait_clamped), (fun g n -> g.wait_clamped <- n), Message.Wait_clamped);
    ((fun g -> g.non_finite), (fun g n -> g.non_finite <- n), Message.Non_finite);
    ((fun g -> g.div_storms), (fun g n -> g.div_storms <- n), Message.Div_by_zero_storm);
    ( (fun g -> g.report_throttled),
      (fun g n -> g.report_throttled <- n),
      Message.Report_throttled );
    ((fun g -> g.fold_divergence), (fun g n -> g.fold_divergence <- n), Message.Fold_divergence);
    ((fun g -> g.eval_budget), (fun g n -> g.eval_budget <- n), Message.Eval_budget_exhausted);
  ]

(* The most frequent kind; ties go to the earliest in reporting order. *)
let dominant_incident g : Message.incident_kind =
  snd
    (List.fold_left
       (fun (best, kind) (get, _, k) -> if get g > best then (get g, k) else (best, kind))
       (-1, Message.Cwnd_clamped) incident_counters)

type config = {
  urgent_on_loss : bool;
  urgent_on_ecn : bool;
  validate_installs : bool;
  flow_capacity : int;
  fallback : fallback option;
  guard : guard_envelope;
}

let default_config =
  {
    urgent_on_loss = true;
    urgent_on_ecn = false;
    validate_installs = true;
    flow_capacity = 8;
    fallback = None;
    guard = default_guard;
  }

(* WaitRtts base (and ECN urgent spacing) before the first RTT sample. *)
let default_wait = Time_ns.ms 10

(* Vector-mode memory bound; overflow rows are dropped and counted. *)
let max_vector_rows = 4096

type measurement =
  | No_measurement
  | Fold_state of Compile.Fold.t
  | Vector of {
      columns : string array;
      col_idx : int array;
      mutable rows : float array list;
      mutable count : int;
    }

(* An admitted program: the source AST (for [installed_program]), the
   compiled form actually run with its preallocated machine, and where
   it is in its primitive list. *)
type running = {
  program : Ast.program;
  code : Compile.program;
  machine : Compile.machine;
  mutable pc : int;
  mutable measurement : measurement;
}

(* Who drives a flow. A stand-in is the native controller of a [Native]
   mode, [None] in [Clamp] mode. *)
type owner =
  | Awaiting_agent
  | Agent_program of running
  | Fallback of Congestion_iface.t option
  | Quarantined of Congestion_iface.t option

type flow_state = {
  ctl : Congestion_iface.ctl;
  mutable owner : owner;
  mutable wait_timer : Sim.timer option;
  last_rtt_us : float array;
      (* 1-element cell: a [mutable float] in this mixed record would box
         on every store, and this is written on every ACK *)
  mutable last_ecn_urgent : Time_ns.t;
  mutable last_agent_contact : Time_ns.t;
  incidents : Eval.incident_counter;
  mutable last_report_at : Time_ns.t option;
  mutable div_baseline : int;
      (* raw eval div-by-zero count at the last guard reset *)
  mutable nonfinite_baseline : int;
  guard : guard_incidents;
}

(* Pre-resolved metric handles: the per-ACK path must not do name lookups,
   and with [obs = None] it must not allocate at all. *)
type obs_handles = {
  obs : Ccp_obs.Obs.t;
  o_reports : Ccp_obs.Metrics.counter;
  o_urgents : Ccp_obs.Metrics.counter;
  o_installs_accepted : Ccp_obs.Metrics.counter;
  o_installs_rejected : Ccp_obs.Metrics.counter;
  o_guard_incidents : Ccp_obs.Metrics.counter;
  o_quarantines : Ccp_obs.Metrics.counter;
  o_fallbacks : Ccp_obs.Metrics.counter;
  o_acks : Ccp_obs.Metrics.counter;
  o_fold_ns : Ccp_obs.Metrics.histogram;
  (* Per-flow heavy-hitter sketches; [None] when telemetry is off. *)
  tk_reports : Ccp_obs.Topk.sketch option;
  tk_guard : Ccp_obs.Topk.sketch option;
}

let make_obs_handles obs =
  let open Ccp_obs in
  let m = obs.Obs.metrics in
  {
    obs;
    o_reports = Metrics.counter m ~unit_:"msgs" "datapath.reports_sent";
    o_urgents = Metrics.counter m ~unit_:"msgs" "datapath.urgents_sent";
    o_installs_accepted = Metrics.counter m ~unit_:"msgs" "datapath.installs_accepted";
    o_installs_rejected = Metrics.counter m ~unit_:"msgs" "datapath.installs_rejected";
    o_guard_incidents = Metrics.counter m ~unit_:"events" "datapath.guard_incidents";
    o_quarantines = Metrics.counter m ~unit_:"events" "datapath.quarantines";
    o_fallbacks = Metrics.counter m ~unit_:"events" "datapath.fallbacks";
    o_acks = Metrics.counter m ~unit_:"acks" "datapath.acks_processed";
    o_fold_ns = Metrics.histogram m ~unit_:"ns" "datapath.fold_step_ns";
    tk_reports = Obs.flow_sketch obs "flow.reports";
    tk_guard = Obs.flow_sketch obs "flow.guard_incidents";
  }

type t = {
  sim : Sim.t;
  channel : Channel.t;
  config : config;
  flows : (int, flow_state) Hashtbl.t;
  mutable reports_sent : int;
  mutable urgents_sent : int;
  mutable installs_accepted : int;
  mutable installs_rejected : int;
  mutable vector_rows_dropped : int;
  mutable fallbacks_triggered : int;
  mutable fallback_probes_sent : int;
  mutable quarantines : int;
  retired_guard : guard_incidents;
      (* incidents from guard windows closed by an accepted re-install *)
  obs : obs_handles option;
  tracer : Ccp_obs.Tracer.t option;
}

(* Bump one of the pre-resolved counters, when observability is on. *)
let obs_incr t counter = match t.obs with Some h -> Ccp_obs.Metrics.incr (counter h) | None -> ()

let obs_record t event =
  match t.obs with
  | None -> ()
  | Some h -> Ccp_obs.Obs.record h.obs ~at:(Sim.now t.sim) event

(* Bump a counter and credit the event to the flow's heavy-hitter sketch. *)
let obs_touch t counter sketch flow =
  match t.obs with
  | None -> ()
  | Some h -> (
    Ccp_obs.Metrics.incr (counter h);
    match sketch h with Some s -> Ccp_obs.Topk.touch s flow | None -> ())

let obs_guard_incident t fs =
  obs_touch t (fun h -> h.o_guard_incidents) (fun h -> h.tk_guard) fs.ctl.Congestion_iface.flow

(* --- slot tables ---

   Compiled code reads flow variables and packet fields from the
   machine's preallocated [float array]s instead of string-keyed
   environments. The slot layout is fixed by {!Compile}; we resolve it
   once at module initialisation and refresh only the slots the code
   about to run actually reads (its [flow_mask]). *)

(* [Time_ns.to_float_us] is a cross-module call; without flambda its
   float result comes back boxed, which would put an allocation on the
   per-ACK path. [Time_ns.t] is transparently [int], so convert inline. *)
let[@inline always] us_of_ns (ns : Time_ns.t) = float_of_int ns /. 1e3
let[@inline always] us_of_opt o = match o with Some d -> us_of_ns d | None -> 0.0

let fslot_cwnd = Compile.flow_index_exn "cwnd"
let fslot_rate = Compile.flow_index_exn "rate"
let fslot_mss = Compile.flow_index_exn "mss"
let fslot_srtt_us = Compile.flow_index_exn "srtt_us"
let fslot_rtt_us = Compile.flow_index_exn "rtt_us"
let fslot_minrtt_us = Compile.flow_index_exn "minrtt_us"
let fslot_inflight = Compile.flow_index_exn "inflight_bytes"
let fslot_now_us = Compile.flow_index_exn "now_us"
let pslot_rtt_us = Compile.pkt_index_exn "rtt_us"
let pslot_bytes_acked = Compile.pkt_index_exn "bytes_acked"
let pslot_bytes_lost = Compile.pkt_index_exn "bytes_lost"
let pslot_ecn = Compile.pkt_index_exn "ecn"
let pslot_send_rate = Compile.pkt_index_exn "send_rate"
let pslot_recv_rate = Compile.pkt_index_exn "recv_rate"
let pslot_inflight = Compile.pkt_index_exn "inflight_bytes"
let pslot_now_us = Compile.pkt_index_exn "now_us"

let refresh_flow fs (m : Compile.machine) mask =
  let ctl = fs.ctl in
  let f = m.Compile.flow in
  if mask land (1 lsl fslot_cwnd) <> 0 then
    f.(fslot_cwnd) <- float_of_int (ctl.Congestion_iface.get_cwnd ());
  if mask land (1 lsl fslot_rate) <> 0 then f.(fslot_rate) <- ctl.Congestion_iface.get_rate ();
  if mask land (1 lsl fslot_mss) <> 0 then
    f.(fslot_mss) <- float_of_int ctl.Congestion_iface.mss;
  if mask land (1 lsl fslot_srtt_us) <> 0 then
    f.(fslot_srtt_us) <- us_of_opt (ctl.Congestion_iface.srtt ());
  if mask land (1 lsl fslot_rtt_us) <> 0 then f.(fslot_rtt_us) <- fs.last_rtt_us.(0);
  if mask land (1 lsl fslot_minrtt_us) <> 0 then
    f.(fslot_minrtt_us) <- us_of_opt (ctl.Congestion_iface.min_rtt ());
  if mask land (1 lsl fslot_inflight) <> 0 then
    f.(fslot_inflight) <- float_of_int (ctl.Congestion_iface.inflight ());
  if mask land (1 lsl fslot_now_us) <> 0 then
    f.(fslot_now_us) <- us_of_ns (ctl.Congestion_iface.now ())

let refresh_pkt (m : Compile.machine) (ev : Congestion_iface.ack_event) ~bytes_lost =
  let p = m.Compile.pkt in
  p.(pslot_rtt_us) <- us_of_opt ev.rtt_sample;
  p.(pslot_bytes_acked) <- float_of_int ev.bytes_acked;
  p.(pslot_bytes_lost) <- float_of_int bytes_lost;
  p.(pslot_ecn) <- (if ev.ecn_echo then 1.0 else 0.0);
  p.(pslot_send_rate) <- Option.value ev.send_rate ~default:0.0;
  p.(pslot_recv_rate) <- Option.value ev.delivery_rate ~default:0.0;
  p.(pslot_inflight) <- float_of_int ev.inflight_after;
  p.(pslot_now_us) <- us_of_ns ev.now

(* --- reporting --- *)

let reserved_fields fs ~packets =
  let ctl = fs.ctl in
  [|
    ("_cwnd", float_of_int (ctl.Congestion_iface.get_cwnd ()));
    ("_rate", ctl.Congestion_iface.get_rate ());
    ("_mss", float_of_int ctl.Congestion_iface.mss);
    ("_srtt_us", us_of_opt (ctl.Congestion_iface.srtt ()));
    ("_rtt_us", fs.last_rtt_us.(0));
    ("_minrtt_us", us_of_opt (ctl.Congestion_iface.min_rtt ()));
    ("_inflight_bytes", float_of_int (ctl.Congestion_iface.inflight ()));
    ("_send_rate", Option.value (ctl.Congestion_iface.send_rate_ewma ()) ~default:0.0);
    ("_recv_rate", Option.value (ctl.Congestion_iface.delivery_rate_ewma ()) ~default:0.0);
    ("_now_us", Time_ns.to_float_us (ctl.Congestion_iface.now ()));
    ("_packets", float_of_int packets);
  |]

let send_report t fs r =
  let flow = fs.ctl.Congestion_iface.flow in
  (* A span opens when the datapath decides to report; [Channel.send]
     stamps it as sent, so the start->sent gap is summarize time. *)
  let span =
    match t.tracer with
    | None -> Message.no_trace
    | Some tr ->
      Ccp_obs.Tracer.start tr ~now:(Sim.now t.sim) ~flow ~kind:Ccp_obs.Tracer.Report_span
  in
  (match r.measurement with
  | No_measurement ->
    let fields = reserved_fields fs ~packets:0 in
    Channel.send t.channel ~from:Channel.Datapath_end ~span (Message.Report { flow; fields })
  | Fold_state fold ->
    let packets = Compile.Fold.packet_count fold in
    let fields = Array.append (Compile.Fold.fields fold) (reserved_fields fs ~packets) in
    Channel.send t.channel ~from:Channel.Datapath_end ~span (Message.Report { flow; fields });
    refresh_flow fs r.machine (Compile.Fold.init_flow_mask (Compile.Fold.plan fold));
    Compile.Fold.reset fold ~m:r.machine
  | Vector v ->
    let rows = Array.of_list (List.rev v.rows) in
    v.rows <- [];
    v.count <- 0;
    Channel.send t.channel ~from:Channel.Datapath_end ~span
      (Message.Report_vector { flow; columns = v.columns; rows }));
  t.reports_sent <- t.reports_sent + 1;
  obs_touch t (fun h -> h.o_reports) (fun h -> h.tk_reports) flow;
  obs_record t (Ccp_obs.Recorder.Report_sent { flow; urgent = false })

let send_urgent t fs kind =
  let ctl = fs.ctl in
  t.urgents_sent <- t.urgents_sent + 1;
  obs_touch t (fun h -> h.o_urgents) (fun h -> h.tk_reports) ctl.Congestion_iface.flow;
  obs_record t
    (Ccp_obs.Recorder.Report_sent { flow = ctl.Congestion_iface.flow; urgent = true });
  let span =
    match t.tracer with
    | None -> Message.no_trace
    | Some tr ->
      Ccp_obs.Tracer.start tr ~now:(Sim.now t.sim) ~flow:ctl.Congestion_iface.flow
        ~kind:Ccp_obs.Tracer.Urgent_span
  in
  Channel.send t.channel ~from:Channel.Datapath_end ~span
    (Message.Urgent
       {
         flow = ctl.Congestion_iface.flow;
         kind;
         cwnd_at_event = ctl.Congestion_iface.get_cwnd ();
         inflight_at_event = ctl.Congestion_iface.inflight ();
       })

(* Registration, and the watchdog's re-handshake probe: a restarted agent
   re-learns the flow from it. *)
let send_ready t fs =
  let ctl = fs.ctl in
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Ready
       {
         flow = ctl.Congestion_iface.flow;
         mss = ctl.Congestion_iface.mss;
         init_cwnd = ctl.Congestion_iface.get_cwnd ();
       })

(* --- program execution --- *)

let cancel_wait fs =
  Option.iter Sim.cancel fs.wait_timer;
  fs.wait_timer <- None

let is_quarantined fs = match fs.owner with Quarantined _ -> true | _ -> false

let eval_flow fs (m : Compile.machine) (code : Compile.code) =
  refresh_flow fs m code.Compile.flow_mask;
  Compile.exec code ~m ~slots:Compile.no_slots ~incidents:fs.incidents;
  m.Compile.stack.(0)

(* Stop the agent's program, disable pacing, and give the flow to the
   stand-in of [mode]; [owner] wraps the native controller, if any.
   Watchdog fallback and guard quarantine both enter through here. *)
let hand_to_stand_in fs mode owner =
  cancel_wait fs;
  fs.owner <- owner None;
  fs.ctl.Congestion_iface.set_rate 0.0;
  match mode with
  | Clamp _ -> ()
  | Native make_cc ->
    let cc = make_cc () in
    fs.owner <- owner (Some cc);
    cc.Congestion_iface.on_init fs.ctl

let clamp_cwnd fs cwnd_segments =
  fs.ctl.Congestion_iface.set_cwnd (cwnd_segments * fs.ctl.Congestion_iface.mss)

(* --- runtime guardrails and quarantine --- *)

(* Fold the evaluator's raw incident counts (cumulative for the flow's
   lifetime) into the current guard window. Division-by-zero only scores
   once per [div_storm_unit] occurrences: isolated div-by-zero is a normal
   hazard of measurement-driven programs, a sustained storm is not. *)
let absorb_eval_incidents fs =
  fs.guard.non_finite <- fs.incidents.Eval.non_finite - fs.nonfinite_baseline;
  fs.guard.div_storms <- (fs.incidents.Eval.div_by_zero - fs.div_baseline) / div_storm_unit

(* The offending program is cancelled outright; only an accepted
   re-install brings CCP control back. *)
let quarantine t fs mode =
  t.quarantines <- t.quarantines + 1;
  hand_to_stand_in fs mode (fun cc -> Quarantined cc);
  (match mode with Clamp { cwnd_segments } -> clamp_cwnd fs cwnd_segments | Native _ -> ());
  obs_incr t (fun h -> h.o_quarantines);
  obs_record t
    (Ccp_obs.Recorder.Quarantine
       {
         flow = fs.ctl.Congestion_iface.flow;
         incidents = guard_total fs.guard;
         dominant = Message.incident_kind_to_string (dominant_incident fs.guard);
       });
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Quarantined
       {
         flow = fs.ctl.Congestion_iface.flow;
         incidents = guard_total fs.guard;
         dominant = dominant_incident fs.guard;
       })

let maybe_quarantine t fs =
  let g = t.config.guard in
  match g.quarantine_mode with
  | None -> ()
  | Some mode ->
    if
      (not (is_quarantined fs)) && g.quarantine_after > 0
      && guard_total fs.guard >= g.quarantine_after
    then quarantine t fs mode

(* Absorb eval-side incidents and re-check the threshold; call after any
   guarded evaluation or fold step. *)
let guard_note t fs =
  absorb_eval_incidents fs;
  maybe_quarantine t fs

(* Execute primitives from the program's [pc] until it blocks on a wait
   or finishes. The step budget guards against zero-length waits in
   repeating programs (typecheck rejects wait-free loops, but the
   datapath cannot trust the agent); every [Cwnd]/[Rate]/[Wait] result
   passes through the guard envelope before it touches the flow. Each
   step re-reads [fs.owner]: a quarantine mid-run stops the program. *)
let rec advance t fs =
  let g = t.config.guard in
  let budget = ref max_eval_steps in
  let rec step () =
    decr budget;
    if !budget <= 0 then begin
      fs.guard.eval_budget <- fs.guard.eval_budget + 1;
      obs_guard_incident t fs;
      maybe_quarantine t fs;
      if not (is_quarantined fs) then
        fs.wait_timer <-
          Some (Sim.schedule_after t.sim ~delay:(Time_ns.us 1) (fun () ->
                    fs.wait_timer <- None;
                    advance t fs))
    end
    else
      match fs.owner with
      | Awaiting_agent | Fallback _ | Quarantined _ -> ()
      | Agent_program r ->
        let m = r.machine in
        let prims = r.code.Compile.prims in
        if r.pc >= Array.length prims then begin
          if r.code.Compile.repeat then begin
            r.pc <- 0;
            step ()
          end
        end
        else begin
          let prim = prims.(r.pc) in
          r.pc <- r.pc + 1;
          match prim with
          | Compile.Measure_vector { columns; col_idx } ->
            r.measurement <- Vector { columns; col_idx; rows = []; count = 0 };
            step ()
          | Compile.Measure_fold plan ->
            refresh_flow fs m (Compile.Fold.init_flow_mask plan);
            r.measurement <- Fold_state (Compile.Fold.create plan ~m);
            step ()
          | Compile.Rate code ->
            let raw = eval_flow fs m code in
            let rate = Float.min (Float.max 0.0 raw) g.max_rate_bytes_per_sec in
            if rate <> raw then begin
              fs.guard.rate_clamped <- fs.guard.rate_clamped + 1;
              obs_guard_incident t fs
            end;
            fs.ctl.Congestion_iface.set_rate rate;
            guard_note t fs;
            step ()
          | Compile.Cwnd code ->
            let raw = eval_flow fs m code in
            let lo = float_of_int (g.min_cwnd_segments * fs.ctl.Congestion_iface.mss) in
            let hi = float_of_int g.max_cwnd_bytes in
            let cwnd = Float.min (Float.max lo raw) hi in
            if cwnd <> raw then begin
              fs.guard.cwnd_clamped <- fs.guard.cwnd_clamped + 1;
              obs_guard_incident t fs
            end;
            fs.ctl.Congestion_iface.set_cwnd (int_of_float cwnd);
            guard_note t fs;
            step ()
          | Compile.Wait code ->
            let us = Float.max 0.0 (eval_flow fs m code) in
            guard_note t fs;
            let duration = guarded_wait t fs (Time_ns.of_float_sec (us *. 1e-6)) in
            if not (is_quarantined fs) then block_for t fs duration
          | Compile.Wait_rtts code ->
            let rtts = Float.max 0.0 (eval_flow fs m code) in
            let base =
              match fs.ctl.Congestion_iface.srtt () with
              | Some srtt -> srtt
              | None -> default_wait
            in
            guard_note t fs;
            let duration = guarded_wait t fs (Time_ns.scale base rtts) in
            if not (is_quarantined fs) then block_for t fs duration
          | Compile.Report ->
            let now = Sim.now t.sim in
            let throttled =
              match fs.last_report_at with
              | Some last -> Time_ns.compare (Time_ns.sub now last) g.min_report_interval < 0
              | None -> false
            in
            if throttled then begin
              (* Skip the send but keep aggregating: the pending state goes
                 out with the next unthrottled report. *)
              fs.guard.report_throttled <- fs.guard.report_throttled + 1;
              obs_guard_incident t fs;
              maybe_quarantine t fs
            end
            else begin
              fs.last_report_at <- Some now;
              send_report t fs r
            end;
            if not (is_quarantined fs) then step ()
        end
  in
  step ()

(* A computed wait below the [min_wait] floor would spin the simulator
   (or a real datapath's CPU) at one timestamp; floor it and count the
   clamp. *)
and guarded_wait t fs duration =
  if Time_ns.compare duration min_wait < 0 then begin
    fs.guard.wait_clamped <- fs.guard.wait_clamped + 1;
    obs_guard_incident t fs;
    maybe_quarantine t fs;
    min_wait
  end
  else duration

and block_for t fs duration =
  cancel_wait fs;
  fs.wait_timer <-
    Some (Sim.schedule_after t.sim ~delay:duration (fun () ->
              fs.wait_timer <- None;
              advance t fs))

(* Close the current guard window: bank its incidents in the datapath-wide
   accumulator and start the new program with a clean slate (otherwise a
   corrected re-install would be re-quarantined on inherited incidents). *)
let reset_guard_window t fs =
  let g = fs.guard and r = t.retired_guard in
  List.iter
    (fun (get, set, _) ->
      set r (get r + get g);
      set g 0)
    incident_counters;
  fs.div_baseline <- fs.incidents.Eval.div_by_zero;
  fs.nonfinite_baseline <- fs.incidents.Eval.non_finite

let send_install_result t fs verdict =
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Install_result { flow = fs.ctl.Congestion_iface.flow; verdict })

(* Admission control (§2.4): the datapath trusts neither the agent nor the
   channel, so every [Install] re-runs the static checks and the resource
   limits and answers with an [Install_result] either way. An accepted
   install atomically wins the flow back from quarantine. *)
let install_program t fs program =
  let flow = fs.ctl.Congestion_iface.flow in
  let reject reason detail =
    t.installs_rejected <- t.installs_rejected + 1;
    obs_incr t (fun h -> h.o_installs_rejected);
    obs_record t (Ccp_obs.Recorder.Install { flow; accepted = false; detail });
    send_install_result t fs (Message.Rejected { reason; detail });
    false
  in
  let verdict = if not t.config.validate_installs then Ok () else Limits.admit program in
  match verdict with
  | Ok () -> (
    (* Compilation is part of admission: a program that names unknown
       variables, fields or builtins is refused here — even with
       [validate_installs = false], since the datapath cannot execute
       what it cannot compile — instead of limping along emitting
       unknown-name incidents per packet like the old interpreter. *)
    match Compile.compile program with
    | Error detail -> reject Limits.Invalid_program detail
    | Ok code ->
      t.installs_accepted <- t.installs_accepted + 1;
      obs_incr t (fun h -> h.o_installs_accepted);
      obs_record t (Ccp_obs.Recorder.Install { flow; accepted = true; detail = "" });
      reset_guard_window t fs;
      cancel_wait fs;
      fs.owner <-
        Agent_program
          {
            program;
            code;
            machine = Compile.machine_for code;
            pc = 0;
            measurement = No_measurement;
          };
      send_install_result t fs Message.Accepted;
      advance t fs;
      true)
  | Error (reason, detail) -> reject reason detail

(* --- agent -> datapath messages --- *)

let note_agent_contact t fs =
  fs.last_agent_contact <- Sim.now t.sim;
  match fs.owner with
  | Fallback _ ->
    (* Agent recovered: the stand-in releases the flow before the
       message is applied, so control is handed back atomically. *)
    fs.owner <- Awaiting_agent;
    obs_record t
      (Ccp_obs.Recorder.Fallback { flow = fs.ctl.Congestion_iface.flow; entered = false })
  | Awaiting_agent | Agent_program _ | Quarantined _ -> ()

(* Spans close where control is applied. [rx_finish] finalizes the span
   carried by the message currently being delivered (if any); [rx_apply]
   additionally times the actuation itself with the tracer's wall clock,
   and closes the span as rejected when [apply] reports it refused. *)
let rx_finish t ~disposition =
  match t.tracer with
  | None -> ()
  | Some tr ->
    let span = Channel.rx_span t.channel in
    if span >= 0 then
      Ccp_obs.Tracer.finish tr span ~now:(Sim.now t.sim) ~disposition ~apply_ns:0.0

let rx_apply t apply =
  match t.tracer with
  | None -> ignore (apply () : bool)
  | Some tr ->
    let span = Channel.rx_span t.channel in
    if span < 0 then ignore (apply () : bool)
    else begin
      let clock = Ccp_obs.Tracer.wall_clock tr in
      let t0 = clock () in
      let applied = apply () in
      Ccp_obs.Tracer.finish tr span ~now:(Sim.now t.sim)
        ~disposition:(if applied then Ccp_obs.Tracer.Actuated else Ccp_obs.Tracer.Rejected)
        ~apply_ns:(Float.max 0.0 (clock () -. t0))
    end

(* Direct knob commands cannot release a quarantine — only an accepted
   [Install] proves the agent has a corrected program. *)
let knob_command t flow apply =
  match Hashtbl.find_opt t.flows flow with
  | Some fs ->
    note_agent_contact t fs;
    if not (is_quarantined fs) then
      rx_apply t (fun () ->
          apply fs.ctl;
          true)
    else rx_finish t ~disposition:Ccp_obs.Tracer.No_action
  | None -> rx_finish t ~disposition:Ccp_obs.Tracer.No_action

let on_message t (msg : Message.t) =
  match msg with
  | Message.Install { flow; program } -> (
    match Hashtbl.find_opt t.flows flow with
    | Some fs ->
      note_agent_contact t fs;
      rx_apply t (fun () -> install_program t fs program)
    | None -> rx_finish t ~disposition:Ccp_obs.Tracer.No_action)
  | Message.Set_cwnd { flow; bytes } ->
    knob_command t flow (fun ctl -> ctl.Congestion_iface.set_cwnd bytes)
  | Message.Set_rate { flow; bytes_per_sec } ->
    knob_command t flow (fun ctl -> ctl.Congestion_iface.set_rate (Float.max 0.0 bytes_per_sec))
  | Message.Ready _ | Message.Report _ | Message.Report_vector _ | Message.Urgent _
  | Message.Closed _ | Message.Install_result _ | Message.Quarantined _ ->
    (* Agent-bound traffic is never delivered to the datapath end. *)
    ()

(* Same contract as [Agent.create] and [Channel.create]: a setting the
   datapath cannot honour is refused up front, naming the field. *)
let check_config (config : config) =
  let bad fmt = Printf.ksprintf (fun msg -> invalid_arg ("Ccp_ext.create: " ^ msg)) fmt in
  let check_mode field = function
    | Clamp { cwnd_segments } when cwnd_segments < 1 ->
      bad "%s Clamp cwnd_segments must be >= 1 (got %d)" field cwnd_segments
    | Clamp _ | Native _ -> ()
  in
  let g = config.guard in
  if g.min_cwnd_segments < 1 then
    bad "guard.min_cwnd_segments must be >= 1 (got %d)" g.min_cwnd_segments;
  if not (g.max_rate_bytes_per_sec > 0.0) then
    bad "guard.max_rate_bytes_per_sec must be > 0 (got %g)" g.max_rate_bytes_per_sec;
  if g.min_report_interval < 0 then
    bad "guard.min_report_interval must be >= 0 (got %s)" (Time_ns.to_string g.min_report_interval);
  if g.quarantine_after < 0 then
    bad "guard.quarantine_after must be >= 0 (got %d)" g.quarantine_after;
  Option.iter (check_mode "guard.quarantine_mode") g.quarantine_mode;
  Option.iter
    (fun fb ->
      (* The watchdog re-arms itself [after] later: zero would fire it
         forever at one instant. *)
      if not (Time_ns.is_positive fb.after) then
        bad "fallback.after must be > 0 (got %s)" (Time_ns.to_string fb.after);
      check_mode "fallback.mode" fb.mode)
    config.fallback

let create ~sim ~channel ?(config = default_config) ?obs () =
  check_config config;
  let t =
    {
      sim;
      channel;
      config;
      flows = Hashtbl.create (max 8 config.flow_capacity);
      reports_sent = 0;
      urgents_sent = 0;
      installs_accepted = 0;
      installs_rejected = 0;
      vector_rows_dropped = 0;
      fallbacks_triggered = 0;
      fallback_probes_sent = 0;
      quarantines = 0;
      retired_guard = fresh_guard_incidents ();
      obs = Option.map make_obs_handles obs;
      tracer = (match obs with Some o -> o.Ccp_obs.Obs.tracer | None -> None);
    }
  in
  Channel.on_receive channel Channel.Datapath_end (on_message t);
  t

(* --- the Congestion_iface implementation --- *)

(* The watchdog checks agent liveness once per [after] period. Entering
   fallback always stops the orphaned program and disables pacing; what
   happens next depends on the mode. [Clamp] pins a conservative window and
   re-applies it on every tick while the silence lasts (an
   installed-but-orphaned program could keep adjusting the knobs between
   ticks). [Native] instantiates an in-datapath controller that takes over
   ACK and loss handling until the agent returns. Every tick that finds
   the agent silent re-sends [Ready] — a cheap re-handshake probe so a
   restarted agent re-learns the flow and can reclaim it. Quarantine
   supersedes the watchdog: the guard envelope already holds the flow, so
   a quarantined flow is only probed. *)
let rec watchdog_tick t fs (fb : fallback) =
  let silence = Time_ns.sub (Sim.now t.sim) fs.last_agent_contact in
  if Time_ns.compare silence fb.after >= 0 then begin
    (match fs.owner with
    | Quarantined _ | Fallback _ -> ()
    | Awaiting_agent | Agent_program _ ->
      t.fallbacks_triggered <- t.fallbacks_triggered + 1;
      obs_incr t (fun h -> h.o_fallbacks);
      obs_record t
        (Ccp_obs.Recorder.Fallback { flow = fs.ctl.Congestion_iface.flow; entered = true });
      hand_to_stand_in fs fb.mode (fun cc -> Fallback cc));
    (match (fs.owner, fb.mode) with
    | Fallback _, Clamp { cwnd_segments } ->
      clamp_cwnd fs cwnd_segments;
      fs.ctl.Congestion_iface.set_rate 0.0
    | _ -> ());
    t.fallback_probes_sent <- t.fallback_probes_sent + 1;
    send_ready t fs
  end;
  ignore (Sim.schedule_after t.sim ~delay:fb.after (fun () -> watchdog_tick t fs fb))

let on_init t ctl =
  let fs =
    {
      ctl;
      owner = Awaiting_agent;
      wait_timer = None;
      last_rtt_us = [| 0.0 |];
      last_ecn_urgent = Time_ns.zero;
      last_agent_contact = Sim.now t.sim;
      incidents = Eval.fresh_counter ();
      last_report_at = None;
      div_baseline = 0;
      nonfinite_baseline = 0;
      guard = fresh_guard_incidents ();
    }
  in
  Hashtbl.replace t.flows ctl.Congestion_iface.flow fs;
  (match t.config.fallback with
  | Some fb -> ignore (Sim.schedule_after t.sim ~delay:fb.after (fun () -> watchdog_tick t fs fb))
  | None -> ());
  send_ready t fs

(* The per-ACK fast path: refresh only the flow slots the update code
   reads, copy the packet into the slot table, and run the compiled
   fold — no strings, no closures, no allocation. *)
let record_measurement t fs (ev : Congestion_iface.ack_event) ~bytes_lost =
  match fs.owner with
  | Awaiting_agent | Fallback _ | Quarantined _ -> ()
  | Agent_program r -> (
    let m = r.machine in
    match r.measurement with
    | No_measurement -> ()
    | Fold_state fold ->
      let plan = Compile.Fold.plan fold in
      refresh_flow fs m (Compile.Fold.step_flow_mask plan);
      refresh_pkt m ev ~bytes_lost;
      Compile.Fold.step fold ~m ~incidents:fs.incidents;
      if Compile.Fold.diverged fold ~limit:divergence_limit then begin
        fs.guard.fold_divergence <- fs.guard.fold_divergence + 1;
        obs_guard_incident t fs
      end;
      guard_note t fs
    | Vector v ->
      if v.count >= max_vector_rows then t.vector_rows_dropped <- t.vector_rows_dropped + 1
      else begin
        refresh_pkt m ev ~bytes_lost;
        let row = Array.map (fun i -> m.Compile.pkt.(i)) v.col_idx in
        v.rows <- row :: v.rows;
        v.count <- v.count + 1
      end)

(* The CCP half of the per-ACK fast path, after control-ownership
   dispatch. Kept allocation-free when [t.obs = None]; with observability
   on, the fold step is timed into the [datapath.fold_step_ns]
   histogram. *)
let on_ack_ccp t fs ctl (ev : Congestion_iface.ack_event) =
  (match ev.rtt_sample with
  | Some r -> fs.last_rtt_us.(0) <- us_of_ns r
  | None -> ());
  (match t.obs with
  | None -> record_measurement t fs ev ~bytes_lost:0
  | Some h ->
    Ccp_obs.Metrics.incr h.o_acks;
    let t0 = h.obs.Ccp_obs.Obs.clock () in
    record_measurement t fs ev ~bytes_lost:0;
    Ccp_obs.Metrics.observe h.o_fold_ns (h.obs.Ccp_obs.Obs.clock () -. t0));
  if ev.ecn_echo && t.config.urgent_on_ecn then begin
    (* Rate-limit ECN urgents to one per smoothed RTT. *)
    let interval =
      match ctl.Congestion_iface.srtt () with
      | Some srtt -> srtt
      | None -> default_wait
    in
    if Time_ns.compare (Time_ns.sub ev.now fs.last_ecn_urgent) interval >= 0 then begin
      fs.last_ecn_urgent <- ev.now;
      send_urgent t fs Message.Ecn
    end
  end

(* A native stand-in owns the flow outright: no measurement aggregation
   and no urgents while it holds it. A clamp quarantine pins the window
   and rides out the episode; a clamp fallback keeps the CCP path, so
   losses still reach the agent the moment it returns. *)
let on_ack t ctl (ev : Congestion_iface.ack_event) =
  (* [Hashtbl.find] + exception instead of [find_opt]: the option would be
     a fresh allocation on every ACK. *)
  match Hashtbl.find t.flows ctl.Congestion_iface.flow with
  | exception Not_found -> ()
  | fs -> (
    match fs.owner with
    | Quarantined (Some cc) | Fallback (Some cc) -> cc.Congestion_iface.on_ack ctl ev
    | Quarantined None -> ()
    | Awaiting_agent | Agent_program _ | Fallback None -> on_ack_ccp t fs ctl ev)

let on_loss t ctl (loss : Congestion_iface.loss_event) =
  match Hashtbl.find_opt t.flows ctl.Congestion_iface.flow with
  | None -> ()
  | Some fs -> (
    match (fs.owner, loss.kind) with
    | (Quarantined (Some cc) | Fallback (Some cc)), _ -> cc.Congestion_iface.on_loss ctl loss
    (* Clamp-mode quarantine keeps the kernel-style RTO collapse but sends
       no urgent: the agent lost the flow until it re-installs. *)
    | Quarantined None, Congestion_iface.Rto ->
      ctl.Congestion_iface.set_cwnd ctl.Congestion_iface.mss
    | Quarantined None, Congestion_iface.Dup_acks -> ()
    | (Awaiting_agent | Agent_program _ | Fallback None), Congestion_iface.Rto ->
      (* Kernel-style safety: a timeout collapses the window in the
         datapath itself; the agent will reprogram when it reacts. *)
      ctl.Congestion_iface.set_cwnd ctl.Congestion_iface.mss;
      if t.config.urgent_on_loss then send_urgent t fs Message.Timeout
    | (Awaiting_agent | Agent_program _ | Fallback None), Congestion_iface.Dup_acks ->
      if t.config.urgent_on_loss then send_urgent t fs Message.Dup_ack_loss)

let on_exit_recovery t ctl =
  match Hashtbl.find_opt t.flows ctl.Congestion_iface.flow with
  | Some { owner = Quarantined (Some cc) | Fallback (Some cc); _ } ->
    cc.Congestion_iface.on_exit_recovery ctl
  | Some _ | None -> ()

let congestion_control t : Congestion_iface.t =
  {
    name = "ccp";
    on_init = on_init t;
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_exit_recovery = on_exit_recovery t;
  }

let owner_of t ~flow = Option.map (fun fs -> fs.owner) (Hashtbl.find_opt t.flows flow)

let installed_program t ~flow =
  match owner_of t ~flow with Some (Agent_program r) -> Some r.program | _ -> None

let has_compiled_program t ~flow =
  match owner_of t ~flow with Some (Agent_program _) -> true | _ -> false

let in_fallback t ~flow = match owner_of t ~flow with Some (Fallback _) -> true | _ -> false
let in_quarantine t ~flow = match owner_of t ~flow with Some (Quarantined _) -> true | _ -> false
let reports_sent t = t.reports_sent
let urgents_sent t = t.urgents_sent
let installs_accepted t = t.installs_accepted
let installs_rejected t = t.installs_rejected
let vector_rows_dropped t = t.vector_rows_dropped
let fallbacks_triggered t = t.fallbacks_triggered
let fallback_probes_sent t = t.fallback_probes_sent
let quarantines_triggered t = t.quarantines
let guard_incidents t ~flow = Option.map (fun fs -> fs.guard) (Hashtbl.find_opt t.flows flow)

let guard_incident_total t =
  Hashtbl.fold (fun _ fs acc -> acc + guard_total fs.guard) t.flows (guard_total t.retired_guard)

type controller = Agent_program | Native_fallback | Quarantined | Awaiting_agent

let controller t ~flow : controller option =
  Option.map
    (function
      | (Awaiting_agent : owner) -> Awaiting_agent
      | Agent_program _ -> Agent_program
      | Fallback _ -> Native_fallback
      | Quarantined _ -> Quarantined)
    (owner_of t ~flow)
