(* `obs` bench target: the observability layer's overhead contract and
   per-stage latency profile.

   Runs the same compile+synthesize workload with and without a recorder
   installed (fresh in-memory pulse cache per repetition, so every rep
   does identical cold work), asserts tracing costs <= 2% wall clock,
   then reports per-(stage, name) span counts and p50/p99 latencies from
   the histogram registry. A serve protocol round runs under the same
   recorder so queue-wait / exec spans show up too. Writes BENCH_obs.json
   and BENCH_obs_trace.json (Chrome trace-event format, validated by
   re-parsing with Serve.Json) at the repo root. *)

open Util

let overhead_budget = 0.02
let reps = 15

(* table2-style workload over a suite prefix; the fresh memory-only
   cache per call keeps the solver work identical across repetitions *)
let workload ~limit ~big () =
  let suite = List.filteri (fun i _ -> i < limit) (Benchmarks.Suite.suite ~big ()) in
  match Cache.create () with
  | Error e -> failwith ("obs bench: cannot create memory cache: " ^ e)
  | Ok cache ->
    Fun.protect ~finally:(fun () -> Cache.close cache) @@ fun () ->
    Reqisc.with_pulse_cache cache @@ fun () ->
    List.iter
      (fun (b : Benchmarks.Suite.bench) ->
        let rng = Numerics.Rng.create 1L in
        match Result.map fst (Compiler.Passes.compile_plan ~mode:Eff rng b.program) with
        | Error _ -> ()
        | Ok out -> ignore (Reqisc.pulse_outcomes xy out.Compiler.Passes.circuit))
      suite

let min_of xs = List.fold_left Float.min infinity xs

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2) else 0.5 *. (nth ((n / 2) - 1) +. nth (n / 2))

let write_json path ~limit ~untraced ~traced ~overhead ~pass ~trace_valid ~events
    ~series =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"workload\": {\"benches\": %d, \"mode\": \"eff\", \"reps\": %d},\n" limit reps;
  bpf "  \"untraced_seconds\": %.6f,\n" untraced;
  bpf "  \"traced_seconds\": %.6f,\n" traced;
  bpf "  \"overhead\": %.6f,\n" overhead;
  bpf "  \"overhead_budget\": %.3f,\n" overhead_budget;
  bpf "  \"overhead_pass\": %b,\n" pass;
  bpf "  \"trace_events\": %d,\n" events;
  bpf "  \"trace_valid\": %b,\n" trace_valid;
  bpf "  \"spans\": {\n";
  let n = List.length series in
  List.iteri
    (fun i (s : Obs.Hist.series) ->
      bpf "    \"%s.%s\": {\"count\": %d, \"sum_seconds\": %.6f, \
           \"p50_seconds\": %.9f, \"p99_seconds\": %.9f}%s\n"
        s.Obs.Hist.stage s.Obs.Hist.name s.Obs.Hist.count
        (float_of_int s.Obs.Hist.sum_ns /. 1e9)
        (Obs.Hist.quantile s 0.5 /. 1e9)
        (Obs.Hist.quantile s 0.99 /. 1e9)
        (if i = n - 1 then "" else ","))
    series;
  bpf "  }\n";
  bpf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [obs] wrote %s\n%!" path

(* the Chrome trace must load in a real JSON parser with the expected
   shape, not merely be non-empty *)
let validate_trace path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Serve.Json.parse s with
  | Error _ -> false
  | Ok json -> (
    match Serve.Json.mem_arr "traceEvents" json with
    | None -> false
    | Some evs ->
      evs <> []
      && List.for_all
           (fun e ->
             Serve.Json.mem_str "name" e <> None
             && Serve.Json.mem_str "ph" e = Some "X"
             && Serve.Json.mem_num "ts" e <> None
             && Serve.Json.mem_num "dur" e <> None)
           evs)

let obs ?(limit = 3) ~big () =
  hr "obs: tracing overhead + per-stage latency profile";
  Obs.Hist.reset ();
  (* warm up once (page in the template library paths etc.), then
     alternate which side runs first each rep so heap growth, frequency
     scaling and GC drift hit both sides equally *)
  workload ~limit ~big ();
  let untraced = ref [] and traced = ref [] in
  let last_recorder = ref None in
  let run_plain () =
    Gc.full_major ();
    let (), t = timeit (workload ~limit ~big) in
    untraced := t :: !untraced
  in
  let run_traced () =
    Gc.full_major ();
    let ((), t), r =
      Obs.Recorder.with_recorder (fun () -> timeit (workload ~limit ~big))
    in
    traced := t :: !traced;
    last_recorder := Some r
  in
  for rep = 1 to reps do
    if rep mod 2 = 1 then begin
      run_plain ();
      run_traced ()
    end
    else begin
      run_traced ();
      run_plain ()
    end
  done;
  (* a serve round under the recorder: queue-wait + exec spans *)
  let smoke_ok =
    let (ok, _, _), _ = Obs.Recorder.with_recorder Serve_bench.protocol_smoke in
    ok
  in
  let t_untraced = min_of !untraced and t_traced = min_of !traced in
  (* overhead is the median of per-rep traced/plain ratios: pairing the
     two sides inside each rep cancels machine drift that min-of-reps
     across the whole run cannot *)
  let ratios = List.map2 (fun t p -> t /. p) !traced !untraced in
  let overhead = median ratios -. 1.0 in
  let pass = overhead <= overhead_budget in
  let events =
    match !last_recorder with Some r -> Obs.Recorder.events r | None -> []
  in
  Obs.Export.write_chrome_trace "BENCH_obs_trace.json" events;
  let trace_valid = validate_trace "BENCH_obs_trace.json" in
  let series = Obs.Hist.snapshot () in
  Printf.printf "  workload: %d benches, %d reps (paired per-rep ratios)\n" limit reps;
  Printf.printf
    "  untraced min %.3fs  traced min %.3fs  overhead (median ratio) %+.2f%% \
     (budget %.0f%%): %s\n"
    t_untraced t_traced (100.0 *. overhead) (100.0 *. overhead_budget)
    (if pass then "PASS" else "FAIL");
  Printf.printf "  chrome trace: %d events, loads as JSON: %s\n" (List.length events)
    (if trace_valid then "PASS" else "FAIL");
  Printf.printf "  serve smoke under tracing: %s\n" (if smoke_ok then "PASS" else "FAIL");
  Printf.printf "  %-28s %8s %12s %12s\n" "stage.name" "count" "p50" "p99";
  List.iter
    (fun (s : Obs.Hist.series) ->
      Printf.printf "  %-28s %8d %10.3fms %10.3fms\n"
        (s.Obs.Hist.stage ^ "." ^ s.Obs.Hist.name)
        s.Obs.Hist.count
        (Obs.Hist.quantile s 0.5 /. 1e6)
        (Obs.Hist.quantile s 0.99 /. 1e6))
    series;
  write_json "BENCH_obs.json" ~limit ~untraced:t_untraced ~traced:t_traced ~overhead
    ~pass ~trace_valid ~events:(List.length events) ~series
