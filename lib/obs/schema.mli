(** The JSON document pipeline: every scorecard declares its fields once
    as a {!field} list, and the emitter ({!emit}) and validator
    ({!validate}) are both derived from that list. The field-check
    helpers are shared with hand-written validators such as
    {!Timeline.validate}, and {!write} is the write-then-revalidate
    contract every CLI output goes through. See docs/observability.md,
    "One scorecard pipeline". *)

(** {1 Field checks}

    Each looks up one field of an object and fails with a message that
    names it. *)

val str : string -> Json.t -> (string, string) result
val num : string -> Json.t -> (float, string) result
(** A finite number. *)

val counter : string -> Json.t -> (float, string) result
(** A non-negative integer. *)

val bool : string -> Json.t -> (bool, string) result
val arr : string -> Json.t -> (Json.t list, string) result

val all : string -> (Json.t -> (unit, string) result) -> Json.t list -> (unit, string) result
(** [all ctx check items] checks [items] in order and prefixes the first
    error with ["ctx[i]: "]. *)

val each : string -> (Json.t -> (unit, string) result) -> Json.t -> (unit, string) result
(** [each name check obj] is {!all} over the array field [name]. *)

(** {1 Field specs} *)

(** One field of an object: its key, the getter the emitter reads, and
    its kind, which fixes both the JSON shape and the check. *)
type 'a field =
  | Text of string * ('a -> string) * string list
      (** a string; when the list is non-empty, one of its members *)
  | Bool of string * ('a -> bool)
  | Count of string * ('a -> int)  (** a non-negative integer *)
  | Num of string * ('a -> float) * (float -> bool)
      (** a finite number the predicate accepts *)
  | Null_or_nonneg of string * ('a -> float option)
      (** [null] for [None], else a non-negative number *)
  | Counts of string * ('a -> int list)  (** an array of non-negative integers *)
  | Null_or_obj : string * ('a -> 'b option) * 'b field list -> 'a field
      (** [null] for [None], else a nested object *)
  | Objs : string * ('a -> 'b list) * 'b field list -> 'a field
      (** an array of nested objects *)
  | Section of string * ('a -> Json.t option) * (Json.t -> (unit, string) result)
      (** an optional opaque section: emitted only when the getter gives
          [Some], checked only when present *)
  | Check of (Json.t -> (unit, string) result)
      (** a rule across the enclosing object's fields; emits nothing and
          runs after the fields listed before it *)

val any : float -> bool
(** The [Num] predicate for a field with no range beyond finiteness. *)

val emit : 'a field list -> 'a -> Json.t
(** An object with the fields in spec order. *)

val validate : 'a field list -> Json.t -> (unit, string) result
(** Checks the fields in spec order and stops at the first error; nested
    errors are prefixed with their path (["cells[3]: ..."]). *)

(** {1 Files} *)

val writable : string -> (unit, string) result
(** [Ok] when the path's parent directory exists — checked before a long
    run so that its output is not lost at the end. The error reads
    ["<path>: <reason>"]. *)

val write :
  path:string -> validate:(Json.t -> (int, string) result) -> Json.t -> (int, string) result
(** Write the document as one line, then re-read the file and validate
    what landed on disk; [Ok n] is the validator's count. I/O failures
    are returned, never raised; every error reads ["<path>: <reason>"]. *)
