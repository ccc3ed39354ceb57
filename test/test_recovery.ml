(* Sender loss-recovery cost and scoreboard invariants.

   The lost-retransmission check walks the unSACKed list, never the
   SACKed part of the scoreboard, so at the Figure 3 operating point
   (1 Gbit/s, 10 ms, 1 BDP of buffer, where thousands of SACKed segments
   can sit behind a hole) an ACK costs at most [max_retx_scan] steps
   there. The lossy runs check after every ACK that the list is exactly
   the unSACKed part of the scoreboard, in sequence order, and that the
   in-flight byte count and the send window stay consistent. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath
open Ccp_algorithms
open Ccp_core

let test_retx_scan_bounded_at_fig3 () =
  let r = Scenarios.Fig3.run ~duration:(Time_ns.sec 1) ~seed:42 () in
  List.iter
    (fun (label, (result : Experiment.result)) ->
      List.iter
        (fun (f : Experiment.flow_result) ->
          let bound = (Tcp_flow.max_retx_scan + 1) * f.Experiment.acks_received in
          if f.Experiment.retransmits = 0 then
            Alcotest.failf "%s: no retransmits, loss recovery never ran" label;
          if f.Experiment.retx_scan_steps > bound then
            Alcotest.failf "%s: %d retx-scan steps over %d ACKs (bound %d)" label
              f.Experiment.retx_scan_steps f.Experiment.acks_received bound)
        result.Experiment.flows)
    [ ("ccp-cubic", r.Scenarios.ccp); ("cubic", r.Scenarios.native) ]

(* A lossy path: random data loss, a forward link that reorders by
   jitter, a shallow buffer and an optional blackout that fires the RTO.
   The scoreboard is checked after every ACK. *)
type lossy = {
  seed : int;
  rate_mbps : int;
  loss_pct : int;
  jitter_us : int;
  blackout_ms : int;
  cubic : bool;
}

let show_lossy l =
  Printf.sprintf "seed=%d rate=%dMbit/s loss=%d%% jitter=%dus blackout=%dms cc=%s" l.seed
    l.rate_mbps l.loss_pct l.jitter_us l.blackout_ms
    (if l.cubic then "cubic" else "reno")

let gen_lossy rng =
  {
    seed = Rng.int rng 1_000_000;
    rate_mbps = Prop.choose rng [ 5; 20; 50 ];
    loss_pct = Prop.int_range rng 0 5;
    jitter_us = Prop.choose rng [ 0; 200; 2000 ];
    blackout_ms = Prop.choose rng [ 0; 300; 1500 ];
    cubic = Rng.bool rng;
  }

let prop_scoreboard_invariants l =
  let sim = Sim.create ~seed:l.seed () in
  let loss = Rng.create ~seed:l.seed in
  let rate_bps = float_of_int l.rate_mbps *. 1e6 in
  let delay = Time_ns.ms 5 in
  let fwd =
    Link.create ~sim ~rate_bps ~delay ~jitter:(Time_ns.us l.jitter_us)
      ~qdisc:
        (Queue_disc.Droptail
           { capacity_bytes = int_of_float (rate_bps /. 8.0 *. 0.005); ecn_threshold_bytes = None })
      ()
  in
  let rev =
    Link.create ~sim ~rate_bps:(10.0 *. rate_bps) ~delay
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 10_000_000; ecn_threshold_bytes = None })
      ()
  in
  let receiver = Tcp_receiver.create ~flow:1 ~send_ack:(fun ack -> Link.send rev ack) () in
  Link.connect fwd (fun pkt -> Tcp_receiver.on_data receiver pkt);
  let blackout_from = Time_ns.ms 500 in
  let blackout_until = Time_ns.add blackout_from (Time_ns.ms l.blackout_ms) in
  let transmit pkt =
    let now = Sim.now sim in
    let blacked_out =
      Time_ns.compare now blackout_from >= 0 && Time_ns.compare now blackout_until < 0
    in
    if (not blacked_out) && Rng.int loss 100 >= l.loss_pct then Link.send fwd pkt
  in
  let cc = if l.cubic then Native_cubic.create () else Native_reno.create () in
  let flow = Tcp_flow.create ~sim ~flow:1 ~config:Tcp_flow.default_config ~cc ~transmit () in
  Link.connect rev (fun ack ->
      Tcp_flow.on_ack flow ack;
      match Tcp_flow.scoreboard_violation flow with
      | None -> ()
      | Some v ->
        Prop.fail "after ACK %d at %.6f s: %s" (Tcp_flow.acks_received flow)
          (Time_ns.to_float_sec (Sim.now sim))
          v);
  Tcp_flow.start flow;
  Sim.run ~until:(Time_ns.sec 3) sim;
  Prop.require "the run made progress" (Tcp_receiver.delivered_bytes receiver > 0);
  if l.loss_pct > 0 || l.blackout_ms > 0 then
    Prop.require "losses were retransmitted" (Tcp_flow.retransmits flow > 0);
  if l.blackout_ms > 0 then Prop.require "the blackout fired the RTO" (Tcp_flow.timeouts flow > 0)

let suite =
  [
    ( "recovery",
      [
        Alcotest.test_case "retx scan bounded per ACK at the fig3 operating point" `Quick
          test_retx_scan_bounded_at_fig3;
        Prop.test_case ~cases:12 ~name:"scoreboard invariants after every ACK (lossy runs)"
          ~gen:gen_lossy ~show:show_lossy prop_scoreboard_invariants;
      ] );
  ]
