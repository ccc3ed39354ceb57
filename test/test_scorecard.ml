(* Rejection tests for the JSON document validators: every committed
   golden (robustness, chaos, and incast scorecards, the chaos timeline)
   is parsed, checked to validate as-is with its cell or window count,
   and then mutated one field at a time. Each mutation must come back as
   an [Error] that names the offending field. No simulation runs, so the
   whole suite takes milliseconds. *)

open Ccp_core
module J = Ccp_obs.Json

let read_golden name =
  let path = if Sys.file_exists name then name else Filename.concat "test" name in
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" name e

(* [at path f doc] rewrites the value at [path]: object keys by name,
   list elements by decimal index. A path that does not exist raises, so
   a mutation can never silently degrade into a no-op. *)
let rec at path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, J.Obj fields ->
    if not (List.mem_assoc k fields) then invalid_arg ("no field " ^ k);
    J.Obj (List.map (fun (k', v) -> if k' = k then (k', at rest f v) else (k', v)) fields)
  | k :: rest, J.List items ->
    let i = int_of_string k in
    if i >= List.length items then invalid_arg ("no element " ^ k);
    J.List (List.mapi (fun i' v -> if i' = i then at rest f v else v) items)
  | k :: _, _ -> invalid_arg ("cannot descend into " ^ k)

let set path v = at path (fun _ -> v)

let drop path key =
  at path (function
    | J.Obj fields when List.mem_assoc key fields -> J.Obj (List.remove_assoc key fields)
    | _ -> invalid_arg ("no field " ^ key))

let num v = J.Num v

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* One table row: a label, the mutation, and the text the error must
   contain (the field's name, or the cross-field rule's wording). *)
type mutation = string * (J.t -> J.t) * string

let check_golden ~golden ~count ~validate (mutations : mutation list) () =
  let doc = read_golden golden in
  (match validate doc with
  | Ok n -> Alcotest.(check int) (golden ^ " validates unmutated") count n
  | Error e -> Alcotest.failf "%s fails its own validator: %s" golden e);
  let failures =
    List.filter_map
      (fun (label, mutate, expect) ->
        match validate (mutate doc) with
        | Ok _ -> Some (Printf.sprintf "%s: accepted" label)
        | Error e when contains ~sub:expect e -> None
        | Error e -> Some (Printf.sprintf "%s: error %S does not name %S" label e expect))
      mutations
  in
  if failures <> [] then Alcotest.failf "%s:\n  %s" golden (String.concat "\n  " failures)

(* Mutations every scorecard shares: schema tag, a dropped field, NaN
   and out-of-range metrics, negative and fractional counters. *)
let common_cell_mutations ~counter : mutation list =
  let cell k = [ "cells"; "0"; k ] in
  [
    ("wrong schema tag", set [ "schema" ] (J.Str "ccp-other/v1"), "schema");
    ("dropped top-level field", drop [] "rate_bps", "rate_bps");
    ("dropped cell field", drop [ "cells"; "0" ] "jain", "jain");
    ("dropped cells", drop [] "cells", "cells");
    ("NaN utilization", set (cell "utilization") (num Float.nan), "utilization");
    ("utilization above range", set (cell "utilization") (num 1.7), "utilization");
    ("negative utilization", set (cell "utilization") (num (-0.1)), "utilization");
    ("NaN jain", set (cell "jain") (num Float.nan), "jain");
    ("jain above one", set (cell "jain") (num 1.5), "jain");
    ("negative counter", set (cell counter) (num (-1.0)), counter);
    ("fractional counter", set (cell counter) (num 2.5), counter);
    ("string counter", set (cell counter) (J.Str "3"), counter);
    ("negative seed", set (cell "seed") (num (-1.0)), "seed");
    (* The seeds rule: the top-level array holds non-negative integers
       and every cell's seed is one of them. *)
    ("negative declared seed", set [ "seeds" ] (J.List [ num (-1.0) ]), "seeds");
    ("fractional declared seed", set [ "seeds" ] (J.List [ num 42.5 ]), "seeds");
    ("dropped seeds", drop [] "seeds", "seeds");
    ("cell seed not declared", set (cell "seed") (num 7.0), "seed 7");
  ]

let robustness_mutations : mutation list =
  let cell k = [ "cells"; "0"; k ] and cell1 k = [ "cells"; "1"; k ] in
  common_cell_mutations ~counter:"timeouts"
  @ [
      ("jain zero", set (cell "jain") (num 0.0), "jain");
      ("NaN retransmit_rate", set (cell "retransmit_rate") (num Float.nan), "retransmit_rate");
      ("retransmit_rate above one", set (cell "retransmit_rate") (num 1.5), "retransmit_rate");
      ("negative retransmit_rate", set (cell "retransmit_rate") (num (-0.5)), "retransmit_rate");
      ("fractional quarantines", set (cell "quarantines") (num 0.5), "quarantines");
      ("dropped guard_incidents", drop [ "cells"; "3" ] "guard_incidents", "guard_incidents");
      ( "negative cwnd_rmse_vs_baseline",
        set (cell1 "cwnd_rmse_vs_baseline") (num (-2.0)),
        "cwnd_rmse_vs_baseline" );
      ( "string cwnd_rmse_vs_baseline",
        set (cell1 "cwnd_rmse_vs_baseline") (J.Str "0.1"),
        "cwnd_rmse_vs_baseline" );
      ( "NaN cwnd_rmse_vs_baseline",
        set (cell1 "cwnd_rmse_vs_baseline") (num Float.nan),
        "cwnd_rmse_vs_baseline" );
      ("dropped cwnd_rmse_vs_baseline", drop [ "cells"; "1" ] "cwnd_rmse_vs_baseline",
       "cwnd_rmse_vs_baseline");
      ("p95 below median RTT inflation", set (cell "p95_rtt_inflation") (num 1.0),
       "RTT inflation");
      ("unknown algo", set (cell "algo") (J.Str "ccp-nope"), "algo");
      ("unknown perturb", set (cell "perturb") (J.Str "sunspots"), "perturb");
      ("perturb_stats not an object", set (cell1 "perturb_stats") (J.Str "x"), "perturb_stats");
      ( "negative perturb_stats counter",
        set [ "cells"; "1"; "perturb_stats"; "rtt_samples" ] (num (-1.0)),
        "rtt_samples" );
    ]

let chaos_mutations : mutation list =
  let cell k = [ "cells"; "0"; k ] in
  let recovery k = [ "cells"; "1"; "recoveries"; "2"; k ] in
  common_cell_mutations ~counter:"reports_shed"
  @ [
      ("unknown mode", set (cell "mode") (J.Str "tepid"), "mode");
      ("negative max_queue_wait_rtts", set (cell "max_queue_wait_rtts") (num (-1.0)),
       "max_queue_wait_rtts");
      ("negative recovery_rtts", set (recovery "recovery_rtts") (num (-1.0)), "recovery_rtts");
      ("string recovery_rtts", set (recovery "recovery_rtts") (J.Str "soon"), "recovery_rtts");
      ("NaN recovery_rtts", set (recovery "recovery_rtts") (num Float.nan), "recovery_rtts");
      ("fractional recovery flow", set (recovery "flow") (num 1.5), "flow");
      ("negative pre_crash_cwnd", set (recovery "pre_crash_cwnd") (num (-3.0)), "pre_crash_cwnd");
      ("dropped recoveries", drop [ "cells"; "0" ] "recoveries", "recoveries");
      ("negative mean_recovery_rtts", set (cell "mean_recovery_rtts") (num (-1.0)),
       "mean_recovery_rtts");
      ("cold cell with checkpoints", set (cell "checkpoints_taken") (num 3.0), "cold cell");
      ("cold cell with restores", set (cell "warm_restores") (num 1.0), "cold cell");
      ("crash window reversed", set [ "crash_until_s" ] (num 5.0), "crash window");
      ("dropped crash_from_s", drop [] "crash_from_s", "crash_from_s");
    ]

let incast_mutations : mutation list =
  let cell k = [ "cells"; "0"; k ] in
  common_cell_mutations ~counter:"wire_messages"
  @ [
      ("NaN retransmit_rate", set (cell "retransmit_rate") (num Float.nan), "retransmit_rate");
      ("retransmit_rate above one", set (cell "retransmit_rate") (num 1.2), "retransmit_rate");
      ("unknown arrival", set (cell "arrival") (J.Str "bursty"), "arrival");
      ("unknown algo", set (cell "algo") (J.Str "ccp-nope"), "algo");
      ("zero flows", set (cell "n") (num 0.0), "n");
      ("negative p99_queue_delay_ms", set (cell "p99_queue_delay_ms") (num (-1.0)),
       "p99_queue_delay_ms");
      ("fractional batches", set (cell "batches") (num 1.5), "batches");
      ("dropped batching", drop [] "batching", "batching");
      ("batches above wire frames", set (cell "batches") (num 579.0), "batches");
      ("batches in an unbatched scorecard", set [ "batching" ] (J.Bool false), "batches");
      ( "reports over zero wire frames",
        (fun d -> set (cell "batches") (num 0.0) (set (cell "wire_messages") (num 0.0) d)),
        "wire frames" );
    ]

let timeline_mutations : mutation list =
  let window k = [ "windows"; "3"; k ] in
  [
    ("wrong schema tag", set [ "schema" ] (J.Str "ccp-timeline/v0"), "schema");
    ("dropped windows_total", drop [] "windows_total", "windows_total");
    ("NaN window_s", set [ "window_s" ] (num Float.nan), "window_s");
    ("negative windows_dropped", set [ "windows_dropped" ] (num (-1.0)), "windows_dropped");
    ("fractional window index", set (window "index") (num 2.5), "index");
    ("dropped window metrics", drop [ "windows"; "0" ] "metrics", "metrics");
    ("NaN window start", set (window "t_start_s") (num Float.nan), "t_start_s");
    ("fractional sketch total", set [ "topk"; "0"; "total" ] (num 0.5), "total");
    ("negative slo breaches", set [ "health"; "slos"; "0"; "breaches" ] (num (-1.0)),
     "breaches");
    ("dropped health burn_threshold", drop [ "health" ] "burn_threshold", "burn_threshold");
  ]

(* --- the CLI's shared pieces: list arguments and output files --- *)

let test_int_list () =
  let check = Alcotest.(check (result (list int) string)) in
  let seeds = Scenarios.int_list ~flag:"--seeds" ~min:0 ~default:[ 42 ] in
  check "blanks skipped" (Ok [ 1; 2; 0 ]) (seeds " 1, 2,,0 ");
  check "empty gives the default" (Ok [ 42 ]) (seeds "");
  check "negative seed rejected" (Error "--seeds: -1 is below the minimum 0") (seeds "3,-1");
  check "non-integer rejected" (Error "--seeds: \"x\" is not an integer") (seeds "1,x");
  check "non-positive flow count rejected" (Error "-n: 0 is below the minimum 1")
    (Scenarios.int_list ~flag:"-n" ~min:1 ~default:[ 16 ] "16,0")

let test_unwritable_paths () =
  (* A regular file used as a directory: the parent exists but cannot
     hold the output, on any host. *)
  let file = Filename.temp_file "ccp_scorecard" ".tmp" in
  let path = Filename.concat file "out.json" in
  let is_error = function Ok _ -> false | Error _ -> true in
  let names_path = function Ok _ -> false | Error e -> contains ~sub:path e in
  Alcotest.(check bool) "writable refuses" true (names_path (Ccp_obs.Schema.writable path));
  Alcotest.(check bool) "write returns the error" true
    (names_path (Ccp_obs.Schema.write ~path ~validate:(fun _ -> Ok 0) (J.Obj [])));
  Alcotest.(check bool) "bench merge returns the error" true
    (is_error (Ccp_obs.Metrics.merge_rows_file ~path []));
  Sys.remove file

let test_write_revalidates () =
  let path = Filename.temp_file "ccp_scorecard" ".json" in
  let doc = J.Obj [ ("cells", J.List [ J.Null; J.Null ]) ] in
  let count j = match J.member "cells" j with Some (J.List l) -> Ok (List.length l) | _ -> Error "no cells" in
  Alcotest.(check (result int string)) "count from the re-read file" (Ok 2)
    (Ccp_obs.Schema.write ~path ~validate:count doc);
  Alcotest.(check string) "one line on disk" (J.to_string doc ^ "\n")
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check bool) "validator rejection reported" true
    (match Ccp_obs.Schema.write ~path ~validate:(fun _ -> Error "nope") doc with
    | Error e -> contains ~sub:"is malformed: nope" e
    | Ok _ -> false);
  Sys.remove path

let suite =
  [
    ( "scorecard.reject",
      [
        Alcotest.test_case "robustness golden" `Quick
          (check_golden ~golden:"golden_scorecard.expected" ~count:12
             ~validate:Scenarios.Robustness.validate_scorecard robustness_mutations);
        Alcotest.test_case "chaos golden" `Quick
          (check_golden ~golden:"golden_chaos.expected" ~count:2
             ~validate:Scenarios.Chaos.validate_scorecard chaos_mutations);
        Alcotest.test_case "incast golden" `Quick
          (check_golden ~golden:"golden_incast.expected" ~count:8
             ~validate:Scenarios.Incast.validate_scorecard incast_mutations);
        Alcotest.test_case "timeline golden" `Quick
          (check_golden ~golden:"golden_timeline.expected" ~count:24
             ~validate:Ccp_obs.Timeline.validate timeline_mutations);
      ] );
    ( "scorecard.cli",
      [
        Alcotest.test_case "integer-list flags" `Quick test_int_list;
        Alcotest.test_case "unwritable output paths" `Quick test_unwritable_paths;
        Alcotest.test_case "write then revalidate" `Quick test_write_revalidates;
      ] );
  ]
