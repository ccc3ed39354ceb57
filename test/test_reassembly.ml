(* Differential property for the receiver's out-of-order reassembly.

   [Reference] is the receiver's original stream state: a sorted list of
   disjoint [start, stop) holes, rebuilt on every insert. [Tcp_receiver]
   keeps the same intervals in growable sorted arrays. Both are driven
   with the same seeded segment streams (reordering, duplicates,
   overlaps, exact adjacency, holes filled from the front, the middle and
   the back, and more holes than the arrays' initial capacity); after
   every delivery the cumulative ACK point, the buffered byte count and
   the SACK ranges on the emitted ACK must agree. *)

open Ccp_util
open Ccp_net
open Ccp_datapath

module Reference = struct
  type t = { mutable expected : int; mutable ooo : (int * int) list }

  let create () = { expected = 0; ooo = [] }

  (* Insert [start, stop) into the sorted disjoint interval list, merging
     overlapping and adjacent intervals. *)
  let rec insert_interval intervals (start, stop) =
    match intervals with
    | [] -> [ (start, stop) ]
    | (s, e) :: rest ->
      if stop < s then (start, stop) :: intervals
      else if start > e then (s, e) :: insert_interval rest (start, stop)
      else insert_interval rest (min s start, max e stop)

  (* Advance [expected] through any interval that now touches it. *)
  let advance t =
    match t.ooo with
    | (s, e) :: rest when s <= t.expected ->
      if e > t.expected then t.expected <- e;
      t.ooo <- rest
    | _ -> ()

  (* One segment's stream update; returns the range its ACK SACKs. *)
  let ingest t (seq, len) =
    let stop = seq + len in
    if stop <= t.expected then []
    else if seq <= t.expected then begin
      t.expected <- stop;
      advance t;
      []
    end
    else begin
      t.ooo <- insert_interval t.ooo (seq, stop);
      [ (seq, stop) ]
    end

  let out_of_order_bytes t = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 t.ooo
end

(* A stream: deliveries of one or more (seq, len) segments; a delivery
   of several goes through [on_batch], one ACK for the lot. *)
type stream = (int * int) list list

let show (stream : stream) =
  String.concat " "
    (List.map
       (fun batch ->
         "[" ^ String.concat ";" (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) batch) ^ "]")
       stream)

let gen_stream rng : stream =
  let n = Prop.int_range rng 1 160 in
  let mss = Prop.choose rng [ 1; 3; 1448 ] in
  let segs = Array.init n (fun i -> (i * mss, mss)) in
  (* Hold back every [stride]-th segment and deliver those after the
     rest, filling the holes front to back, back to front, or from the
     middle outwards; or just shuffle everything. *)
  let order =
    match Rng.int rng 4 with
    | 0 ->
      let a = Array.copy segs in
      Rng.shuffle rng a;
      Array.to_list a
    | mode ->
      let stride = Prop.int_range rng 2 4 in
      let held, sent =
        List.partition (fun (seq, _) -> seq / mss mod stride = 0) (Array.to_list segs)
      in
      let held =
        match mode with
        | 1 -> held
        | 2 -> List.rev held
        | _ ->
          let mid = List.length held / 2 in
          let dist i = abs ((2 * i) + 1 - (2 * mid)) in
          List.mapi (fun i s -> (dist i, s)) held
          |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
          |> List.map snd
      in
      sent @ held
  in
  (* Sprinkle duplicates and segments overlapping arbitrary byte ranges. *)
  let total = n * mss in
  let extra () =
    if Rng.bool rng then List.nth order (Rng.int rng (List.length order))
    else
      let start = Rng.int rng total in
      (start, 1 + Rng.int rng (min (total - start) (3 * mss)))
  in
  let order =
    List.concat_map
      (fun seg -> if Rng.int rng 8 = 0 then [ seg; extra () ] else [ seg ])
      order
  in
  (* Mostly single deliveries, sometimes batches of up to four. *)
  let rec batches acc = function
    | [] -> List.rev acc
    | segs ->
      let k = if Rng.int rng 4 = 0 then Prop.int_range rng 2 4 else 1 in
      let rec take k acc_b = function
        | x :: rest when k > 0 -> take (k - 1) (x :: acc_b) rest
        | rest -> (List.rev acc_b, rest)
      in
      let batch, rest = take k [] segs in
      batches (batch :: acc) rest
  in
  batches [] order

let prop_matches_reference (stream : stream) =
  let sacked = ref None in
  let send_ack pkt =
    match pkt.Packet.payload with
    | Packet.Ack a -> sacked := Some a.Packet.newly_sacked
    | Packet.Data _ -> Prop.fail "receiver sent data"
  in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  let model = Reference.create () in
  let packet (seq, len) = Packet.data ~flow:1 ~seq ~len ~sent_at:Time_ns.zero () in
  List.iteri
    (fun i batch ->
      sacked := None;
      (match batch with
      | [ seg ] -> Tcp_receiver.on_data rx (packet seg)
      | segs -> Tcp_receiver.on_batch rx (List.map packet segs));
      let expected_sacked = List.concat_map (Reference.ingest model) batch in
      let at = Printf.sprintf "delivery %d" i in
      Prop.check_eq ~what:(at ^ ": expected_seq") string_of_int model.Reference.expected
        (Tcp_receiver.expected_seq rx);
      Prop.check_eq ~what:(at ^ ": out_of_order_bytes") string_of_int
        (Reference.out_of_order_bytes model)
        (Tcp_receiver.out_of_order_bytes rx);
      Prop.check_eq ~what:(at ^ ": newly_sacked")
        (function
          | None -> "no ACK"
          | Some l -> Fmt.str "%a" Fmt.(Dump.list (Dump.pair int int)) l)
        (Some expected_sacked) !sacked)
    stream

let test_hole_count_past_capacity () =
  (* 300 holes: the interval arrays double several times, and filling the
     holes back to front exercises the mid-array merge on every segment. *)
  let rx = Tcp_receiver.create ~flow:1 ~send_ack:(fun _ -> ()) () in
  let deliver seq = Tcp_receiver.on_data rx (Packet.data ~flow:1 ~seq ~len:10 ~sent_at:0 ()) in
  for i = 0 to 299 do
    deliver (((2 * i) + 1) * 10)
  done;
  Alcotest.(check int) "300 holes buffered" 3000 (Tcp_receiver.out_of_order_bytes rx);
  for i = 299 downto 1 do
    deliver (2 * i * 10)
  done;
  Alcotest.(check int) "one interval left above the first hole" 5990
    (Tcp_receiver.out_of_order_bytes rx);
  Alcotest.(check int) "nothing delivered yet" 0 (Tcp_receiver.expected_seq rx);
  deliver 0;
  Alcotest.(check int) "stream complete" 6000 (Tcp_receiver.expected_seq rx);
  Alcotest.(check int) "buffer drained" 0 (Tcp_receiver.out_of_order_bytes rx)

let suite =
  [
    ( "reassembly",
      [
        Prop.test_case ~cases:300 ~name:"receiver matches the list reference" ~gen:gen_stream
          ~show prop_matches_reference;
        Alcotest.test_case "hole count past the initial capacity" `Quick
          test_hole_count_past_capacity;
      ] );
  ]
