open Ccp_util

type t = {
  mutable total_sent : int;
  mutable total_delivered : int;
  mutable delivered_time : Time_ns.t;
  mutable first_send_time : Time_ns.t option;
  send_ewma : Stats.Ewma.t;
  delivery_ewma : Stats.Ewma.t;
  delivery_transform : (float -> float) option;
}

type snapshot = {
  sent_at : Time_ns.t;
  sent_before : int;  (* total_sent when this segment left *)
  delivered_before : int;
  delivered_time_before : Time_ns.t;
}

let empty_snapshot =
  { sent_at = Time_ns.zero; sent_before = 0; delivered_before = 0; delivered_time_before = Time_ns.zero }

type rates = { send_rate : float option; delivery_rate : float option }

let create ?(ewma_alpha = 0.125) ?delivery_transform () =
  {
    total_sent = 0;
    total_delivered = 0;
    delivered_time = Time_ns.zero;
    first_send_time = None;
    send_ewma = Stats.Ewma.create ~alpha:ewma_alpha;
    delivery_ewma = Stats.Ewma.create ~alpha:ewma_alpha;
    delivery_transform;
  }

let on_send t ~now ~bytes =
  if t.first_send_time = None then begin
    t.first_send_time <- Some now;
    t.delivered_time <- now
  end;
  let snapshot =
    {
      sent_at = now;
      sent_before = t.total_sent;
      delivered_before = t.total_delivered;
      delivered_time_before = t.delivered_time;
    }
  in
  t.total_sent <- t.total_sent + bytes;
  snapshot

let rate_of ~bytes ~interval =
  let seconds = Time_ns.to_float_sec interval in
  if seconds <= 0.0 || bytes <= 0 then None else Some (float_of_int bytes /. seconds)

let on_ack t ~now ~bytes_newly_acked snapshot =
  t.total_delivered <- t.total_delivered + bytes_newly_acked;
  t.delivered_time <- now;
  let send_rate =
    rate_of
      ~bytes:(t.total_sent - snapshot.sent_before)
      ~interval:(Time_ns.sub now snapshot.sent_at)
  in
  let delivery_rate =
    rate_of
      ~bytes:(t.total_delivered - snapshot.delivered_before)
      ~interval:(Time_ns.sub now snapshot.delivered_time_before)
  in
  (* The transform (measurement-noise perturbation) applies before the
     EWMA so the filtered value the CCP reports as _recv_rate and the
     per-sample value in the ack event stay mutually consistent. *)
  let delivery_rate =
    match t.delivery_transform with
    | Some f -> Option.map f delivery_rate
    | None -> delivery_rate
  in
  Option.iter (Stats.Ewma.add t.send_ewma) send_rate;
  Option.iter (Stats.Ewma.add t.delivery_ewma) delivery_rate;
  { send_rate; delivery_rate }

let total_sent t = t.total_sent
let total_delivered t = t.total_delivered
let send_rate_ewma t = Stats.Ewma.value_opt t.send_ewma
let delivery_rate_ewma t = Stats.Ewma.value_opt t.delivery_ewma
