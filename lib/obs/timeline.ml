(* The ccp-timeline/v1 document: windowed time-series plus the optional
   heavy-hitter and health sections, composed from one Obs bundle and
   schema-validated the same way the scenario scorecards are — the
   writer re-reads and re-validates the file it just produced, and the
   byte-exact seed-42 chaos golden pins the format. *)

let schema_tag = "ccp-timeline/v1"

let compose ~timeseries ?topk ?health () =
  let base =
    [
      ("schema", Json.Str schema_tag);
      ( "window_s",
        Json.Num (float_of_int (Timeseries.window_ns timeseries) /. 1e9) );
      ( "windows_total",
        Json.Num (float_of_int (Timeseries.closed_windows timeseries)) );
      ( "windows_dropped",
        Json.Num (float_of_int (Timeseries.dropped_windows timeseries)) );
      ("windows", Timeseries.windows_to_json timeseries);
    ]
  in
  let with_topk =
    match topk with None -> [] | Some tk -> [ ("topk", Topk.to_json tk) ]
  in
  let with_health =
    match health with None -> [] | Some h -> [ ("health", Health.to_json h) ]
  in
  Json.Obj (base @ with_topk @ with_health)

let of_obs (obs : Obs.t) =
  match obs.Obs.timeseries with
  | None -> Error "Timeline.of_obs: bundle has no timeseries"
  | Some ts -> Ok (compose ~timeseries:ts ?topk:obs.Obs.topk ?health:obs.Obs.health ())

(* ---- validation --------------------------------------------------------- *)

open Schema

let ( let* ) = Result.bind

let check_point p =
  let* _ = str "name" p in
  let* _ = str "unit" p in
  let* kind = str "kind" p in
  match kind with
  | "counter" ->
    let* _ = num "delta" p in
    let* _ = num "rate" p in
    Ok ()
  | "gauge" ->
    let* lo = num "min" p in
    let* hi = num "max" p in
    let* last = num "last" p in
    if lo <= last && last <= hi then Ok ()
    else Error (Printf.sprintf "gauge last %g outside [min %g, max %g]" last lo hi)
  | "histogram" ->
    let* _ = counter "count" p in
    let* _ = num "mean" p in
    let* p50 = num "p50" p in
    let* p90 = num "p90" p in
    let* p99 = num "p99" p in
    if p50 <= p90 && p90 <= p99 then Ok ()
    else Error (Printf.sprintf "quantiles not monotone (%g, %g, %g)" p50 p90 p99)
  | k -> Error (Printf.sprintf "unknown point kind %S" k)

let check_window w =
  let* _ = counter "index" w in
  let* t0 = num "t_start_s" w in
  let* t1 = num "t_end_s" w in
  let* () =
    if t0 >= 0.0 && t1 > t0 then Ok ()
    else Error (Printf.sprintf "window span (%g, %g) inconsistent" t0 t1)
  in
  each "metrics" check_point w

let validate json =
  let* schema = str "schema" json in
  let* () =
    if schema = schema_tag then Ok ()
    else Error (Printf.sprintf "schema is %S, want %S" schema schema_tag)
  in
  let* w = num "window_s" json in
  let* () =
    if w > 0.0 then Ok () else Error (Printf.sprintf "window_s %g not positive" w)
  in
  let* total = counter "windows_total" json in
  let* dropped = counter "windows_dropped" json in
  let* windows = arr "windows" json in
  let held = List.length windows in
  let* () =
    if float_of_int held +. dropped = total then Ok ()
    else
      Error
        (Printf.sprintf "held %d + dropped %g windows != total %g" held dropped total)
  in
  let* () = all "windows" check_window windows in
  let optional name check =
    match Json.member name json with None -> Ok () | Some j -> check j
  in
  let* () = optional "topk" Topk.validate_json in
  let* () = optional "health" Health.validate_json in
  Ok held
