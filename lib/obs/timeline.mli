(** The [ccp-timeline/v1] document: the {!Timeseries} windows plus the
    optional {!Topk} and {!Health} sections, composed from one {!Obs}
    bundle. Like the scenario scorecards, the document carries a schema
    tag and a structural validator so [ccp_sim --timeline] can
    write-then-revalidate the file it just produced. *)

val schema_tag : string
(** ["ccp-timeline/v1"] *)

val compose :
  timeseries:Timeseries.t -> ?topk:Topk.t -> ?health:Health.t -> unit -> Json.t

val of_obs : Obs.t -> (Json.t, string) result
(** Compose from a bundle; [Error] when the bundle was created without
    telemetry. *)

val validate : Json.t -> (int, string) result
(** Structural validation: schema tag, window accounting
    (held + dropped = total), per-point field presence and invariants
    (monotone quantiles, gauge last within min/max), Top-K space-saving
    error bounds, and health verdict/transition shapes. Returns the
    number of held windows. *)
