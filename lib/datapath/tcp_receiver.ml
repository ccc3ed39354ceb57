open Ccp_net

type t = {
  flow : Packet.flow_id;
  send_ack : Packet.t -> unit;
  delayed_ack_every : int;
  mutable expected : int;  (* next in-order byte awaited *)
  (* Out-of-order data: disjoint, non-adjacent [starts.(i), stops.(i))
     intervals sorted by start, live in indices [lo, hi). The arrays start
     empty and double when an insert finds no room. *)
  mutable starts : int array;
  mutable stops : int array;
  mutable lo : int;
  mutable hi : int;
  mutable unacked_segments : int;  (* in-order segments since the last ACK *)
  mutable acks_sent : int;
  mutable segments_received : int;
}

let create ~flow ~send_ack ?(delayed_ack_every = 1) () =
  if delayed_ack_every < 1 then invalid_arg "Tcp_receiver: delayed_ack_every must be >= 1";
  {
    flow;
    send_ack;
    delayed_ack_every;
    expected = 0;
    starts = [||];
    stops = [||];
    lo = 0;
    hi = 0;
    unacked_segments = 0;
    acks_sent = 0;
    segments_received = 0;
  }

(* Binary searches over sorted indices [lo, hi): the first index whose
   interval ends at or above [x] / starts above [x], or [hi] if none
   does. *)
let rec first_stop_at_least t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if t.stops.(mid) >= x then first_stop_at_least t x lo mid
    else first_stop_at_least t x (mid + 1) hi

let rec first_start_above t x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if t.starts.(mid) > x then first_start_above t x lo mid
    else first_start_above t x (mid + 1) hi

(* Make room for one more interval at the high end: compact the live
   range to index 0, into doubled arrays if it fills half or more. *)
let reserve t =
  let cap = Array.length t.starts in
  if t.hi = cap then begin
    let n = t.hi - t.lo in
    let starts, stops =
      if 2 * n >= cap then
        let cap = max 8 (2 * cap) in
        (Array.make cap 0, Array.make cap 0)
      else (t.starts, t.stops)
    in
    Array.blit t.starts t.lo starts 0 n;
    Array.blit t.stops t.lo stops 0 n;
    t.starts <- starts;
    t.stops <- stops;
    t.lo <- 0;
    t.hi <- n
  end

(* Insert [start, stop), merging every overlapping or adjacent interval
   into it. New data usually lands above everything buffered: append, or
   extend the last interval. Otherwise binary-search the merge range
   [i, k) and close the gap it leaves with one in-place blit. *)
let insert_interval t start stop =
  let last = t.hi - 1 in
  if t.hi = t.lo || start > t.stops.(last) then begin
    reserve t;
    t.starts.(t.hi) <- start;
    t.stops.(t.hi) <- stop;
    t.hi <- t.hi + 1
  end
  else if start >= t.starts.(last) then begin
    if stop > t.stops.(last) then t.stops.(last) <- stop
  end
  else begin
    let i = first_stop_at_least t start t.lo t.hi in
    let k = first_start_above t stop i t.hi in
    if i = k then begin
      let offset = i - t.lo in
      reserve t;
      (* [reserve] may have moved the live range down to index 0. *)
      let i = t.lo + offset in
      Array.blit t.starts i t.starts (i + 1) (t.hi - i);
      Array.blit t.stops i t.stops (i + 1) (t.hi - i);
      t.starts.(i) <- start;
      t.stops.(i) <- stop;
      t.hi <- t.hi + 1
    end
    else begin
      t.starts.(i) <- min start t.starts.(i);
      t.stops.(i) <- max stop t.stops.(k - 1);
      Array.blit t.starts k t.starts (i + 1) (t.hi - k);
      Array.blit t.stops k t.stops (i + 1) (t.hi - k);
      t.hi <- t.hi - (k - i - 1)
    end
  end

(* Advance [expected] through the lowest interval if it now touches it. *)
let advance t =
  if t.hi > t.lo && t.starts.(t.lo) <= t.expected then begin
    if t.stops.(t.lo) > t.expected then t.expected <- t.stops.(t.lo);
    t.lo <- t.lo + 1;
    if t.lo = t.hi then begin
      t.lo <- 0;
      t.hi <- 0
    end
  end

let emit_ack t ~(trigger : Packet.data) ~ecn_echo ~acked_segments ~newly_sacked =
  t.acks_sent <- t.acks_sent + 1;
  t.unacked_segments <- 0;
  t.send_ack
    (Packet.ack ~flow:t.flow ~cum_ack:t.expected ~echo_sent_at:trigger.Packet.sent_at ~ecn_echo
       ~acked_segments ~newly_sacked ~recv_bytes:t.expected ())

(* Returns [`In_order] if the segment advanced the stream, [`Sacked range]
   if it was buffered out of order, [`Duplicate] otherwise. *)
let ingest t (pkt : Packet.t) =
  match pkt.payload with
  | Ack _ -> invalid_arg "Tcp_receiver: got an ACK"
  | Data d ->
    t.segments_received <- t.segments_received + 1;
    let stop = Packet.seq_end d in
    if stop <= t.expected then `Duplicate
    else if d.seq <= t.expected then begin
      t.expected <- stop;
      advance t;
      `In_order
    end
    else begin
      insert_interval t d.seq stop;
      `Sacked (d.seq, stop)
    end

let on_data t pkt =
  match pkt.Packet.payload with
  | Ack _ -> invalid_arg "Tcp_receiver.on_data: got an ACK"
  | Data d -> (
    let ecn_echo = pkt.Packet.ecn_marked in
    match ingest t pkt with
    | `In_order when not ecn_echo ->
      t.unacked_segments <- t.unacked_segments + 1;
      if t.unacked_segments >= t.delayed_ack_every then
        emit_ack t ~trigger:d ~ecn_echo ~acked_segments:t.unacked_segments ~newly_sacked:[]
    | `In_order ->
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1) ~newly_sacked:[]
    | `Duplicate ->
      (* Spurious retransmission: re-acknowledge immediately. *)
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1) ~newly_sacked:[]
    | `Sacked range ->
      (* Out-of-order data produces an immediate duplicate ACK carrying
         the newly buffered range. *)
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1)
        ~newly_sacked:[ range ])

let on_batch t pkts =
  match pkts with
  | [] -> ()
  | _ ->
    let last = List.nth pkts (List.length pkts - 1) in
    (match last.Packet.payload with
    | Ack _ -> invalid_arg "Tcp_receiver.on_batch: got an ACK"
    | Data d ->
      let ecn_echo = List.exists (fun p -> p.Packet.ecn_marked) pkts in
      let sacked = ref [] in
      List.iter
        (fun p ->
          match ingest t p with
          | `Sacked range -> sacked := range :: !sacked
          | `In_order | `Duplicate -> ())
        pkts;
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(List.length pkts)
        ~newly_sacked:(List.rev !sacked))

let expected_seq t = t.expected
let delivered_bytes t = t.expected
let out_of_order_bytes t =
  let bytes = ref 0 in
  for i = t.lo to t.hi - 1 do
    bytes := !bytes + (t.stops.(i) - t.starts.(i))
  done;
  !bytes

let acks_sent t = t.acks_sent
let segments_received t = t.segments_received
