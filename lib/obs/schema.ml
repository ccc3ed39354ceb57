(* One pipeline for every JSON document the CLI writes: field-check
   helpers, a declarative field spec that derives both the emitter and
   the validator, and the write-then-revalidate file contract. *)

let ( let* ) = Result.bind

(* ---- field checks -------------------------------------------------------- *)

let str name obj =
  match Json.member name obj with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let num name obj =
  match Option.bind (Json.member name obj) Json.to_float with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "missing or non-finite numeric field %S" name)

let counter name obj =
  let* v = num name obj in
  if v >= 0.0 && Float.is_integer v then Ok v
  else Error (Printf.sprintf "field %S = %g is not a non-negative integer" name v)

let bool name obj =
  match Json.member name obj with
  | Some (Json.Bool b) -> Ok b
  | _ -> Error (Printf.sprintf "missing boolean field %S" name)

let arr name obj =
  match Json.member name obj with
  | Some (Json.List l) -> Ok l
  | _ -> Error (Printf.sprintf "missing array field %S" name)

let all ctx check items =
  let rec go i = function
    | [] -> Ok ()
    | x :: rest -> (
      match check x with
      | Ok () -> go (i + 1) rest
      | Error e -> Error (Printf.sprintf "%s[%d]: %s" ctx i e))
  in
  go 0 items

let each name check obj =
  let* items = arr name obj in
  all name check items

(* ---- field specs ----------------------------------------------------------- *)

type 'a field =
  | Text of string * ('a -> string) * string list
  | Bool of string * ('a -> bool)
  | Count of string * ('a -> int)
  | Num of string * ('a -> float) * (float -> bool)
  | Null_or_nonneg of string * ('a -> float option)
  | Counts of string * ('a -> int list)
  | Null_or_obj : string * ('a -> 'b option) * 'b field list -> 'a field
  | Objs : string * ('a -> 'b list) * 'b field list -> 'a field
  | Section of string * ('a -> Json.t option) * (Json.t -> (unit, string) result)
  | Check of (Json.t -> (unit, string) result)

let any _ = true
let int n = Json.Num (float_of_int n)

let rec emit : 'a. 'a field list -> 'a -> Json.t =
 fun spec x ->
  let field : type a. a field -> a -> (string * Json.t) option =
   fun f x ->
    match f with
    | Text (k, get, _) -> Some (k, Json.Str (get x))
    | Bool (k, get) -> Some (k, Json.Bool (get x))
    | Count (k, get) -> Some (k, int (get x))
    | Num (k, get, _) -> Some (k, Json.Num (get x))
    | Null_or_nonneg (k, get) ->
      Some (k, match get x with Some v -> Json.Num v | None -> Json.Null)
    | Counts (k, get) -> Some (k, Json.List (List.map int (get x)))
    | Null_or_obj (k, get, sub) ->
      Some (k, match get x with Some y -> emit sub y | None -> Json.Null)
    | Objs (k, get, sub) -> Some (k, Json.List (List.map (emit sub) (get x)))
    | Section (k, get, _) -> Option.map (fun j -> (k, j)) (get x)
    | Check _ -> None
  in
  Json.Obj (List.filter_map (fun f -> field f x) spec)

let rec validate : 'a. 'a field list -> Json.t -> (unit, string) result =
 fun spec obj ->
  let within k r = Result.map_error (fun e -> k ^ ": " ^ e) r in
  let field : type a. a field -> (unit, string) result = function
    | Text (k, _, allowed) ->
      let* s = str k obj in
      if allowed = [] || List.mem s allowed then Ok ()
      else
        Error
          (Printf.sprintf "field %S = %S is not one of: %s" k s (String.concat ", " allowed))
    | Bool (k, _) -> Result.map ignore (bool k obj)
    | Count (k, _) -> Result.map ignore (counter k obj)
    | Num (k, _, ok) ->
      let* v = num k obj in
      if ok v then Ok () else Error (Printf.sprintf "field %S = %g out of range" k v)
    | Null_or_nonneg (k, _) -> (
      match Json.member k obj with
      | Some Json.Null -> Ok ()
      | Some (Json.Num v) when Float.is_finite v && v >= 0.0 -> Ok ()
      | _ -> Error (Printf.sprintf "field %S must be null or a non-negative number" k))
    | Counts (k, _) ->
      each k
        (function
          | Json.Num v when v >= 0.0 && Float.is_integer v -> Ok ()
          | v -> Error (Json.to_string v ^ " is not a non-negative integer"))
        obj
    | Null_or_obj (k, _, sub) -> (
      match Json.member k obj with
      | Some Json.Null -> Ok ()
      | Some (Json.Obj _ as o) -> within k (validate sub o)
      | _ -> Error (Printf.sprintf "field %S must be null or an object" k))
    | Objs (k, _, sub) -> each k (validate sub) obj
    | Section (k, _, check) -> (
      match Json.member k obj with None -> Ok () | Some j -> within k (check j))
    | Check check -> check obj
  in
  List.fold_left (fun acc f -> Result.bind acc (fun () -> field f)) (Ok ()) spec

(* ---- files ---------------------------------------------------------------- *)

let writable path =
  let dir = Filename.dirname path in
  if Sys.file_exists dir && Sys.is_directory dir then Ok ()
  else Error (Printf.sprintf "%s: directory %s does not exist" path dir)

let write ~path ~validate doc =
  let fail e = Error (path ^ ": " ^ e) in
  match
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n');
    In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error e ->
    if String.starts_with ~prefix:(path ^ ": ") e then Error e else fail e
  | data -> (
    match Json.parse data with
    | Error e -> fail ("does not parse: " ^ e)
    | Ok parsed -> (
      match validate parsed with Ok n -> Ok n | Error e -> fail ("is malformed: " ^ e)))
