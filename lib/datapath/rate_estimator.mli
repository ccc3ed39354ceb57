(** Sending-rate and delivery-rate estimation.

    Implements the delivery-rate sampling scheme BBR introduced (and that
    the paper's four-line kernel patch enables): the sender snapshots its
    cumulative sent/delivered counters into every transmitted segment's
    bookkeeping; when the segment is acknowledged, the counter deltas over
    the elapsed interval give unbiased rate samples even under partial
    batches and coalesced ACKs. EWMA-filtered values mirror what the
    paper's prototype reports to the CCP. *)

open Ccp_util

type t

type snapshot
(** Counter state captured at transmit time; stored with the in-flight
    segment. *)

val empty_snapshot : snapshot
(** An all-zero snapshot, for bookkeeping entries that never leave the
    host (list sentinels, not-yet-emitted segments). *)

val create : ?ewma_alpha:float -> ?delivery_transform:(float -> float) -> unit -> t
(** [ewma_alpha] defaults to 0.125. [delivery_transform] is applied to
    every delivery-rate sample (bytes/second) before it reaches either
    the EWMA or the caller — the hook measurement-noise perturbation
    ({!Ccp_perturb}) uses to model estimation error; omitted, samples
    pass through untouched. *)

val on_send : t -> now:Time_ns.t -> bytes:int -> snapshot
(** Account for [bytes] leaving and capture a snapshot. *)

type rates = {
  send_rate : float option;  (** bytes/second *)
  delivery_rate : float option;
}

val on_ack : t -> now:Time_ns.t -> bytes_newly_acked:int -> snapshot -> rates
(** Advance the delivered counters and compute instantaneous rate samples
    against the acknowledged segment's snapshot. Samples are [None] when
    the elapsed interval is too short to divide. *)

val total_sent : t -> int
val total_delivered : t -> int

val send_rate_ewma : t -> float option
(** Filtered sending rate, bytes/second. *)

val delivery_rate_ewma : t -> float option
