(* The traced run. Everything is measured from outside the program: the
   benchmark wraps the closures it hands over (native controller
   factories, [Algorithm.t.make] with its handlers and handle,
   [inspect]), reads public counters, arms the existing obs bundle with
   a monotonic clock for the rows the program already keeps, and replays
   captured inputs through public functions (codec, typecheck,
   admission, compile, the event queue). Replay time is excluded from
   every wrapper and from the traced wall time. *)

open Ccp_util
open Ccp_core
open Ccp_agent
module J = Ccp_obs.Json
module S = Stats.Samples

let now_ns () = Int64.to_float (Monotonic_clock.now ())

type state = {
  native_on_ack : S.t;
  install_call : S.t;  (** [handle.install], agent side *)
  on_report : S.t;  (** [handlers.on_report], nested handle calls included *)
  on_report_self : S.t;
  typecheck : S.t;
  admit : S.t;
  compile : S.t;
  encode_report : S.t;
  decode_report : S.t;
  encode_install : S.t;
  decode_install : S.t;
  decode_batch : S.t;
  schedule_step : S.t;
  pending : S.t;  (** event-queue depth every 10 ms of simulated time *)
  mutable native_acks : int;
  mutable report_calls : int;
  mutable install_calls : int;
  mutable handle_ns : float;  (** all handle calls *)
  mutable handler_self_ns : float;  (** all handlers, nested handle calls excluded *)
  mutable depth : int;  (** handlers currently on the stack *)
  mutable nested_ns : float;  (** handle time spent inside handlers *)
  mutable excluded_ns : float;  (** replay time, removed from everything *)
  mutable stamps : float list;  (** wall clock at [duration], newest first *)
  ring : Ccp_ipc.Message.t array;  (** recent reports, for the batch replay *)
  mutable ring_len : int;
}

let create () =
  let s () = S.create () in
  {
    native_on_ack = s ();
    install_call = s ();
    on_report = s ();
    on_report_self = s ();
    typecheck = s ();
    admit = s ();
    compile = s ();
    encode_report = s ();
    decode_report = s ();
    encode_install = s ();
    decode_install = s ();
    decode_batch = s ();
    schedule_step = s ();
    pending = s ();
    native_acks = 0;
    report_calls = 0;
    install_calls = 0;
    handle_ns = 0.0;
    handler_self_ns = 0.0;
    depth = 0;
    nested_ns = 0.0;
    excluded_ns = 0.0;
    stamps = [];
    ring = Array.make 4096 (Ccp_ipc.Message.Closed { flow = 0 });
    ring_len = 0;
  }

let time samples f =
  let t0 = now_ns () in
  let r = f () in
  S.add samples (now_ns () -. t0);
  r

(* Run [f] as replay work: its whole duration is excluded. *)
let replay st f =
  let t0 = now_ns () in
  f ();
  st.excluded_ns <- st.excluded_ns +. (now_ns () -. t0)

let replay_message ~encode ~decode msg =
  let bytes = time encode (fun () -> Ccp_ipc.Codec.encode_traced msg) in
  ignore (time decode (fun () -> Ccp_ipc.Codec.decode_traced bytes))

let replay_install st flow program =
  replay st (fun () ->
      ignore (time st.typecheck (fun () -> Ccp_lang.Typecheck.check program));
      ignore (time st.admit (fun () -> Ccp_lang.Limits.admit program));
      ignore (time st.compile (fun () -> Ccp_lang.Compile.compile program));
      replay_message ~encode:st.encode_install ~decode:st.decode_install
        (Ccp_ipc.Message.Install { flow; program }))

let replay_report st msg =
  replay st (fun () ->
      replay_message ~encode:st.encode_report ~decode:st.decode_report msg;
      st.ring.(st.ring_len mod Array.length st.ring) <- msg;
      st.ring_len <- st.ring_len + 1)

let handle_call st ?samples f =
  let dt = ref 0.0 in
  let record () =
    st.handle_ns <- st.handle_ns +. !dt;
    if st.depth > 0 then st.nested_ns <- st.nested_ns +. !dt;
    Option.iter (fun s -> S.add s !dt) samples
  in
  let t0 = now_ns () and x0 = st.excluded_ns in
  match f () with
  | () ->
    dt := now_ns () -. t0 -. (st.excluded_ns -. x0);
    record ()
  | exception e ->
    dt := now_ns () -. t0 -. (st.excluded_ns -. x0);
    record ();
    raise e

let handler st ?total ?self f =
  let n0 = st.nested_ns and x0 = st.excluded_ns and t0 = now_ns () in
  st.depth <- st.depth + 1;
  let record () =
    st.depth <- st.depth - 1;
    let dt = now_ns () -. t0 -. (st.excluded_ns -. x0) in
    let self_ns = dt -. (st.nested_ns -. n0) in
    st.handler_self_ns <- st.handler_self_ns +. self_ns;
    Option.iter (fun s -> S.add s dt) total;
    Option.iter (fun s -> S.add s self_ns) self
  in
  match f () with
  | () -> record ()
  | exception e ->
    record ();
    raise e

let wrap_handle st (h : Algorithm.handle) =
  let install program =
    st.install_calls <- st.install_calls + 1;
    handle_call st ~samples:st.install_call (fun () -> h.Algorithm.install program);
    replay_install st h.Algorithm.info.Algorithm.flow program
  in
  {
    h with
    Algorithm.install;
    install_text = (fun text -> install (Ccp_lang.Parser.parse_program text));
    set_cwnd = (fun b -> handle_call st (fun () -> h.Algorithm.set_cwnd b));
    set_rate = (fun r -> handle_call st (fun () -> h.Algorithm.set_rate r));
  }

let wrap_algorithm st (a : Algorithm.t) =
  let make handle =
    let hs = a.Algorithm.make (wrap_handle st handle) in
    let plain f x = handler st (fun () -> f x) in
    {
      hs with
      Algorithm.on_report =
        (fun r ->
          st.report_calls <- st.report_calls + 1;
          handler st ~total:st.on_report ~self:st.on_report_self (fun () ->
              hs.Algorithm.on_report r);
          replay_report st (Ccp_ipc.Message.Report r));
      on_report_vector =
        (fun r ->
          st.report_calls <- st.report_calls + 1;
          handler st ~total:st.on_report ~self:st.on_report_self (fun () ->
              hs.Algorithm.on_report_vector r));
      on_ready = plain hs.Algorithm.on_ready;
      on_urgent = plain hs.Algorithm.on_urgent;
      on_install_result = plain hs.Algorithm.on_install_result;
      on_quarantine = plain hs.Algorithm.on_quarantine;
    }
  in
  { a with Algorithm.make }

let wrap_native st mk () =
  let cc = mk () in
  {
    cc with
    Ccp_datapath.Congestion_iface.on_ack =
      (fun ctl ev ->
        st.native_acks <- st.native_acks + 1;
        time st.native_on_ack (fun () -> cc.Ccp_datapath.Congestion_iface.on_ack ctl ev));
  }

(* Queue depth every 10 ms of simulated time, and the wall clock as the
   run reaches [duration]. These events draw no RNG, and the queue breaks
   time ties by insertion order, so they reorder nothing. *)
let sample_pending st (h : Experiment.handles) =
  let sim = h.Experiment.h_sim in
  ignore
    (Ccp_eventsim.Sim.schedule sim ~at:Workload.duration (fun () ->
         st.stamps <- Unix.gettimeofday () :: st.stamps));
  let every = Time_ns.ms 10 in
  let rec tick () =
    S.add st.pending (float_of_int (Ccp_eventsim.Sim.pending_events sim));
    let next = Time_ns.add (Ccp_eventsim.Sim.now sim) every in
    if Time_ns.compare next Workload.duration <= 0 then
      ignore (Ccp_eventsim.Sim.schedule sim ~at:next tick)
  in
  ignore (Ccp_eventsim.Sim.schedule_after sim ~delay:every tick)

(* Replays after the run. *)

(* One [schedule] + [step] pair on a standalone queue held at [depth]
   pending events spread over the next 100 ms. *)
let replay_schedule_step st ~depth =
  let sim = Ccp_eventsim.Sim.create () in
  let rng = Random.State.make [| 42 |] in
  let ahead () = Time_ns.add (Ccp_eventsim.Sim.now sim) (Time_ns.us (1 + Random.State.int rng 100_000)) in
  for _ = 1 to max 1 depth do
    ignore (Ccp_eventsim.Sim.schedule sim ~at:(ahead ()) ignore)
  done;
  for _ = 1 to 100_000 do
    let at = ahead () in
    time st.schedule_step (fun () ->
        ignore (Ccp_eventsim.Sim.schedule sim ~at ignore);
        ignore (Ccp_eventsim.Sim.step sim))
  done

(* [decode_batch] on frames of [fill] captured reports. *)
let replay_batches st ~fill =
  let n = min st.ring_len (Array.length st.ring) in
  if fill > 0 && n >= fill then
    for k = 0 to 999 do
      let entries =
        Array.init fill (fun i -> (st.ring.((k * fill + i) mod n), Ccp_ipc.Message.no_trace))
      in
      let frame = Ccp_ipc.Codec.encode_batch entries in
      ignore (time st.decode_batch (fun () -> Ccp_ipc.Codec.decode_batch frame))
    done

let pct s p = if S.count s = 0 then 0.0 else S.percentile s p
let total s = if S.count s = 0 then 0.0 else S.mean s *. float_of_int (S.count s)
let median s = pct s 50.0

let timing name s =
  [
    (name ^ ".p50", median s, "ns");
    (name ^ ".p99", pct s 99.0, "ns");
    (name ^ ".n", float_of_int (S.count s), "count");
  ]

let sum = Measure.sum

let traced w ~seed =
  let st = create () in
  (* The workload's own arming with a real clock. Where the workload runs
     obs off, a bare registry: a tracer would put span tokens on the wire
     and change the digest. *)
  let obs () =
    if Workload.telemetry_on w then Some (Workload.telemetry_obs ~clock:now_ns ())
    else Some (Ccp_obs.Obs.create ~recorder:false ~clock:now_ns ())
  in
  let hooks =
    {
      Workload.native = wrap_native st;
      algorithm = wrap_algorithm st;
      inspect = sample_pending st;
      obs;
    }
  in
  let runs = Workload.run hooks w ~seed in
  let ccp = Measure.ccp_runs runs in
  let native = List.filter (fun (r : Workload.run) -> not r.Workload.ccp) runs in
  let c = Measure.counters runs in
  (* Collection: from the event at [duration] to [Experiment.run]
     returning, CCP runs only (inspect, which schedules the stamp, fires
     for those alone). *)
  let collect_s =
    List.fold_left2
      (fun acc (r : Workload.run) at -> acc +. (r.Workload.returned_at -. at))
      0.0 ccp (List.rev st.stamps)
  in
  let result (r : Workload.run) = r.Workload.result in
  let flows f = sum (fun r -> sum f (result r).Experiment.flows) runs in
  let segments = flows (fun (f : Experiment.flow_result) -> f.segments_sent) in
  let retransmits = flows (fun (f : Experiment.flow_result) -> f.retransmits) in
  let drops = sum (fun r -> (result r).Experiment.drops) runs in
  let counter name = sum (fun r -> Measure.counter_of r name) ccp in
  let acks_processed = counter "datapath.acks_processed" in
  let native_ack_count =
    sum
      (fun r ->
        match Measure.hist_of r "tcp.rtt_us" with
        | Some h -> Ccp_obs.Metrics.observations h
        | None -> 0)
      native
  in
  let fold = List.filter_map (fun r -> Measure.hist_of r "datapath.fold_step_ns") ccp in
  let fold_n = sum Ccp_obs.Metrics.observations fold in
  let fold_sum_ns =
    List.fold_left
      (fun acc h -> acc +. (Ccp_obs.Metrics.hist_mean h *. float_of_int (Ccp_obs.Metrics.observations h)))
      0.0 fold
  in
  let fold_q q = match fold with h :: _ when fold_n > 0 -> Ccp_obs.Metrics.quantile h q | _ -> 0.0 in
  let series_points prefix =
    sum
      (fun r ->
        let tr = (result r).Experiment.trace in
        sum
          (fun name -> List.length (Ccp_net.Trace.series tr name))
          (List.filter (fun n -> String.starts_with ~prefix n) (Ccp_net.Trace.series_names tr)))
      runs
  in
  let queue = S.create () in
  List.iter
    (fun r ->
      List.iter (fun (_, v) -> S.add queue v) (Ccp_net.Trace.series (result r).Experiment.trace "queue_bytes"))
    runs;
  let pending_p50 = median st.pending in
  replay_schedule_step st ~depth:(int_of_float pending_p50);
  let batch_fill = if c.Measure.batches = 0 then 0.0 else float_of_int c.Measure.reports_batched /. float_of_int c.Measure.batches in
  replay_batches st ~fill:(int_of_float (Float.round batch_fill));
  let per_layer =
    [
      ("eventsim.pending_p50", pending_p50, "events");
      ("eventsim.pending_max", pct st.pending 100.0, "events");
    ]
    @ timing "eventsim.schedule_step_ns" st.schedule_step
    @ [
        ("net.drops", float_of_int drops, "packets");
        ("net.queue_p99_bytes", pct queue 99.0, "B");
        ("datapath.segments_sent", float_of_int segments, "segments");
        ("datapath.retransmit_frac", float_of_int retransmits /. float_of_int (max 1 segments), "ratio");
        ("datapath.recoveries", float_of_int (flows (fun (f : Experiment.flow_result) -> f.recoveries)), "count");
        ("datapath.timeouts", float_of_int (flows (fun (f : Experiment.flow_result) -> f.timeouts)), "count");
        ("datapath.acks_processed", float_of_int acks_processed, "count");
        ("datapath.fold_step_ns.p50", fold_q 0.5, "ns");
        ("datapath.fold_step_ns.p99", fold_q 0.99, "ns");
        ("datapath.fold_step_ns.n", float_of_int fold_n, "count");
      ]
    @ timing "datapath.native_on_ack_ns" st.native_on_ack
    @ [
        ("datapath.reports_sent", float_of_int c.Measure.dp_reports_sent, "count");
        ("datapath.urgents_sent", float_of_int c.Measure.dp_urgents_sent, "count");
      ]
    @ timing "lang.typecheck_ns" st.typecheck
    @ timing "lang.admit_ns" st.admit
    @ timing "lang.compile_ns" st.compile
    @ [
        ("lang.installs_refused", float_of_int c.Measure.installs_refused, "count");
        ("ipc.frames_up", float_of_int c.Measure.frames_up, "frames");
        ("ipc.frames_down", float_of_int c.Measure.frames_down, "frames");
        ("ipc.bytes_up", float_of_int c.Measure.bytes_up, "B");
        ("ipc.bytes_down", float_of_int c.Measure.bytes_down, "B");
        ("ipc.batch_fill", batch_fill, "reports/frame");
        ("ipc.decode_failures", float_of_int c.Measure.decode_failures, "count");
      ]
    @ timing "ipc.encode_report_ns" st.encode_report
    @ timing "ipc.decode_report_ns" st.decode_report
    @ timing "ipc.encode_install_ns" st.encode_install
    @ timing "ipc.decode_install_ns" st.decode_install
    @ timing "ipc.decode_batch_ns" st.decode_batch
    @ [
        ("agent.reports_received", float_of_int c.Measure.reports, "count");
        ("agent.installs_sent", float_of_int c.Measure.installs_sent, "count");
        ( "agent.installs_per_report",
          float_of_int c.Measure.installs_sent /. float_of_int (max 1 c.Measure.reports) , "ratio");
        ("agent.reports_shed", float_of_int c.Measure.reports_shed, "count");
        ("agent.handler_errors", float_of_int c.Measure.handler_errors, "count");
      ]
    @ timing "agent.install_call_ns" st.install_call
    @ timing "agent.on_report_ns" st.on_report
    @ timing "algorithms.on_report_self_ns" st.on_report_self
    @ [
        ("obs.spans_started", float_of_int (counter "trace.spans_started"), "count");
        ("obs.spans_orphaned", float_of_int (counter "trace.spans_orphaned"), "count");
        ("core.collect_s", collect_s, "s");
        ("core.trace_points", float_of_int (series_points ""), "count");
        ("core.rtt_samples", float_of_int (series_points "rtt_ms."), "count");
      ]
  in
  (* Cost ledger: count x unit cost (p50), or the wrapper sum. *)
  let p50 = median in
  let installs = float_of_int c.Measure.installs_sent in
  let delivered_installs = float_of_int (c.Measure.installs_admitted + c.Measure.installs_refused) in
  let acks = acks_processed + st.native_acks in
  let events = (2 * (segments - drops)) + (3 * acks) + c.Measure.frames_up + c.Measure.frames_down in
  let entry layer ~count ~ns how = (layer, count, ns, how) in
  let ledger =
    [
      entry "eventsim" ~count:events
        ~ns:(float_of_int events *. p50 st.schedule_step)
        "est. events (2/segment + 3/ACK + 1/frame) x schedule_step p50";
      entry "datapath" ~count:acks
        ~ns:(fold_sum_ns +. total st.native_on_ack)
        "fold_step row sum + native on_ack wrapper sum";
      entry "lang" ~count:c.Measure.installs_sent
        ~ns:((installs *. p50 st.typecheck) +. (delivered_installs *. (p50 st.admit +. p50 st.compile)))
        "installs x typecheck p50 + delivered installs x (admit + compile) p50";
      entry "ipc" ~count:(c.Measure.frames_up + c.Measure.frames_down)
        ~ns:
          ((installs *. p50 st.encode_install)
          +. (delivered_installs *. p50 st.decode_install)
          +. (float_of_int c.Measure.dp_reports_sent *. p50 st.encode_report)
          +. (float_of_int (c.Measure.frames_up - c.Measure.batches) *. p50 st.decode_report)
          +. (float_of_int c.Measure.batches *. p50 st.decode_batch))
        "messages x codec p50 (batches x decode_batch p50)";
      entry "agent" ~count:c.Measure.installs_sent
        ~ns:(Float.max 0.0 (st.handle_ns -. (installs *. (p50 st.typecheck +. p50 st.encode_install))))
        "handle wrapper sum - installs x (typecheck + encode_install) p50";
      entry "algorithms" ~count:st.report_calls ~ns:st.handler_self_ns
        "handler wrapper sum, nested handle calls excluded";
      entry "core" ~count:(List.length ccp) ~ns:(collect_s *. 1e9)
        "collection: event at duration to Experiment.run returning";
    ]
  in
  let checks =
    [ ("on_report calls = agent.reports_received", st.report_calls, c.Measure.reports);
      ("handle.install calls = agent.installs_sent", st.install_calls, c.Measure.installs_sent);
      ("native on_ack calls = ACKs (tcp.rtt_us samples)", st.native_acks, native_ack_count) ]
  in
  let wall_s = Measure.wall_seconds runs -. (st.excluded_ns /. 1e9) in
  let digest = Measure.digest runs in
  let identities = Measure.settle_identities runs in
  [
    ("wall_s", J.Num wall_s);
    ("digest", J.Str digest);
    ("identities", J.Str (match identities with Ok () -> "ok" | Error e -> e));
    ( "checks",
      J.List
        (List.map
           (fun (name, wrapper, program) ->
             J.Obj
               [ ("name", J.Str name); ("wrapper", J.Num (float_of_int wrapper));
                 ("program", J.Num (float_of_int program)) ])
           checks) );
    ( "per_layer",
      J.Obj
        (List.map
           (fun (name, v, unit_) -> (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit_) ]))
           per_layer) );
    ( "ledger",
      J.List
        (List.map
           (fun (layer, count, ns, how) ->
             J.Obj
               [ ("layer", J.Str layer); ("count", J.Num (float_of_int count));
                 ("seconds", J.Num (ns /. 1e9)); ("how", J.Str how) ])
           ledger) );
  ]
