(* perfbench worker: one workload iteration per process.

     main.exe once --workload W --seed N --mode timed|toggled|setup|traced
     main.exe rows --path FILE      (rows JSON on stdin, merged + revalidated)
     main.exe calibrate

   [once] prints its result as one JSON object on the last line of
   standard output; [run.py] starts one fresh process per iteration and
   aggregates. *)

open Perfbench
module J = Ccp_obs.Json

exception Setup_done

let setup_repeats = 15

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let arg name args =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let untraced_obs w ~toggled () =
  if Workload.telemetry_on w <> toggled then Some (Workload.telemetry_obs ()) else None

let once args =
  let w =
    match Option.bind (arg "--workload" args) Workload.of_name with
    | Some w -> w
    | None -> die "once: --workload must be one of %s" (String.concat ", " (List.map Workload.name Workload.all))
  in
  let seed =
    match Option.bind (arg "--seed" args) int_of_string_opt with
    | Some s -> s
    | None -> die "once: --seed must be an integer"
  in
  let mode = Option.value (arg "--mode" args) ~default:"timed" in
  let base = [ ("workload", J.Str (Workload.name w)); ("seed", J.Num (float_of_int seed)); ("mode", J.Str mode) ] in
  let fields =
    match mode with
    | "setup" ->
      (* Set-up, repeated in one process: from building the workload to
         its first run's [inspect], where the run is abandoned. *)
      let samples =
        List.init setup_repeats (fun _ ->
            let t0 = Probe.now_ns () and at = ref nan in
            let hooks =
              { (Workload.plain ~obs:(untraced_obs w ~toggled:false)) with
                Workload.inspect = (fun _ -> at := Probe.now_ns (); raise Setup_done) }
            in
            (try ignore (Workload.run hooks w ~seed) with Setup_done -> ());
            J.Num ((!at -. t0) /. 1e9))
      in
      [ ("setup_s", J.List samples) ]
    | "timed" | "toggled" ->
      let toggled = mode = "toggled" in
      let runs = Workload.run (Workload.plain ~obs:(untraced_obs w ~toggled)) w ~seed in
      let c = Measure.counters runs in
      let digest = Measure.digest runs and sim = Measure.sim_metrics w runs in
      let heap = Measure.peak_heap_mb () in
      let identities = Measure.settle_identities runs in
      [
        ("wall_s", J.Num (Measure.wall_seconds runs));
        ("sim_s", J.Num (Measure.sim_seconds runs));
        ("peak_heap_mb", J.Num heap);
        ("digest", J.Str digest);
        ( "identities",
          J.Str (match identities with Ok () -> "ok" | Error e -> e) );
        ("counters", Measure.json_of_counters c);
        ("sim", Measure.json_of_pairs sim);
      ]
    | "traced" -> Probe.traced w ~seed
    | m -> die "once: unknown --mode %s" m
  in
  print_endline (J.to_string (J.Obj (base @ fields)))

(* Merge rows (the BENCH.json schema, read from stdin) into [--path],
   then re-read the file and validate it, so a row file on disk is
   always whole. *)
let rows args =
  let path = match arg "--path" args with Some p -> p | None -> die "rows: --path FILE" in
  let input = In_channel.input_all stdin in
  let parsed = match J.parse input with Ok j -> j | Error e -> die "rows: stdin: %s" e in
  let new_rows =
    match Ccp_obs.Metrics.rows_of_json parsed with Ok r -> r | Error e -> die "rows: %s" e
  in
  (match Ccp_obs.Metrics.merge_rows_file ~path new_rows with
  | Ok _ -> ()
  | Error e -> die "rows: %s: %s" path e);
  let back = In_channel.with_open_text path In_channel.input_all in
  match Result.bind (J.parse back) Ccp_obs.Metrics.validate_rows_json with
  | Ok n -> Printf.printf "%d rows in %s\n" n path
  | Error e -> die "rows: %s does not revalidate: %s" path e

(* Host calibration: ns per step of a fixed integer/float kernel, so row
   files from different hosts compare as ratios. *)
let calibrate () =
  let steps = 20_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    let x = ref 88172645463325252 and acc = ref 0.0 in
    for _ = 1 to steps do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      acc := !acc +. float_of_int (!x land 1023)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if !acc >= 0.0 then best := Float.min !best dt
  done;
  print_endline
    (J.to_string (J.Obj [ ("calibration_ns", J.Num (!best *. 1e9 /. float_of_int steps)) ]))

let () =
  match Array.to_list Sys.argv with
  | _ :: "once" :: args -> once args
  | _ :: "rows" :: args -> rows args
  | _ :: "calibrate" :: _ -> calibrate ()
  | _ -> die "usage: main.exe (once|rows|calibrate) ..."
