(* The repository benchmark.

     rqbench --workload compile|pulses|serve --seed N --seconds S --trace 0|1
             [--cli PATH] [--out DIR]

   Inputs are generated from --seed; the run measures for --seconds and
   checks every output against an independent reference outside the
   timed region. With --trace 0 it prints the end-to-end metrics, with
   --trace 1 the per-layer metrics of a traced run; the last stdout line
   is one JSON object {correct, attempted, failed, metrics}. *)

let usage () =
  prerr_endline
    "usage: rqbench --workload compile|pulses|serve --seed N --seconds S --trace 0|1 [--cli PATH] [--out DIR]";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k kv in
  let int k = match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage () in
  let workload = match get "--workload" with Some w -> w | None -> usage () in
  if not (List.mem workload [ "compile"; "pulses"; "serve" ]) then usage ();
  let seconds = int "--seconds" in
  let trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  {
    Common.workload;
    seed = int "--seed";
    seconds = float_of_int seconds;
    trace = trace = 1;
    cli = Option.value ~default:"_build/default/bin/reqisc_cli.exe" (get "--cli");
    out_dir = Option.value ~default:".bench_out" (get "--out");
  }

let () =
  let a = parse Sys.argv in
  (* exit through at_exit on a signal, so no server process outlives us *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  if not (Sys.file_exists a.out_dir) then Sys.mkdir a.out_dir 0o755;
  let run =
    match a.workload with
    | "compile" -> Wl_compile.run
    | "pulses" -> Wl_pulses.run
    | _ -> Wl_serve.run
  in
  Common.report ~workload:a.workload ~trace:a.trace (run a)
