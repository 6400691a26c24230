(* Shared plumbing for the benchmark workloads: arguments, the clock,
   seed derivation, order statistics, the metric catalogue, the traced
   run's span recorder and the result line. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;  (** path of the built reqisc_cli executable *)
  out_dir : string;  (** run artefacts: Chrome traces, server logs *)
}

let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* splitmix64 finalizer: independent, reproducible sub-seeds from the
   workload seed and a tag *)
let derive seed tag =
  let open Int64 in
  let z = ref (add (of_int seed) (mul (of_int (tag + 1)) 0x9E3779B97F4A7C15L)) in
  z := mul (logxor !z (shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := mul (logxor !z (shift_right_logical !z 27)) 0x94D049BB133111EBL;
  logxor !z (shift_right_logical !z 31)

let rng_of seed tag = Numerics.Rng.create (derive seed tag)

(* ------------------------------------------------------------ statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let gmean xs =
  match xs with
  | [] -> nan
  | _ -> exp (mean (List.map log xs))

(* The tail statistic: the highest percentile that still has at least 10
   samples beyond it, i.e. the (n-10)-th smallest of n samples. Returns
   (value, percentile, n); with fewer than 11 samples it degrades to the
   maximum, and the percentile says so. *)
type tail = { value : float; pct : float; n : int }

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; pct = nan; n }
  else if n < 11 then { value = a.(n - 1); pct = 100.0; n }
  else { value = a.(n - 11); pct = 100.0 *. float_of_int (n - 10) /. float_of_int n; n }

(* ---------------------------------------------------------- calibration *)

(* The machine's speed swings: identical work runs up to 1.4x faster or
   slower from one minute to the next, in CPU time as much as in wall
   time. Every end-to-end time is therefore normalised by a calibration
   block measured next to it: a fixed piece of work that calls no
   repository code, so no change to the program can move it. A time t
   measured while the block takes c seconds is reported as
   t * ref_s / c, i.e. in seconds of the reference machine (see
   results/README.md); the raw times are printed in the report. *)
module Calib = struct
  (* 4x4 complex matrix products on boxed complex numbers: float work
     and minor-heap allocation, the two things the workloads do most *)
  let block () =
    let m = Array.init 16 (fun k -> { Complex.re = cos (float_of_int k); im = sin (float_of_int k) }) in
    let acc = ref (Array.copy m) in
    for _ = 1 to 2000 do
      let a = !acc in
      acc :=
        Array.init 16 (fun k ->
            let i = k / 4 and j = k mod 4 in
            let s = ref Complex.zero in
            for l = 0 to 3 do
              s := Complex.add !s (Complex.mul a.((4 * i) + l) m.((4 * l) + j))
            done;
            Complex.div !s { Complex.re = 2.0; im = 0.0 })
    done;
    ignore (Sys.opaque_identity !acc)

  (* the block's time on the reference machine in its faster phases
     (results/README.md) *)
  let ref_s = 0.0018

  (* one sample: the fastest of three blocks, so that a preemption inside
     one block does not read as a slow machine *)
  let sample () =
    let one () = snd (time block) in
    let a = one () in
    let b = one () in
    Float.min a (Float.min b (one ()))

  (* [scale c] converts a time measured at calibration time [c] *)
  let scale c = ref_s /. c

  (* [measure f]: f's result, its raw time and its normalised time. One
     sample is taken before f and one after, and a timer signal takes one
     every 100 ms while f runs, so that a long call is normalised by the
     speed during it; the time those samples take is not counted. *)
  let measure f =
    let samples = ref [ sample () ] and spent = ref 0.0 and active = ref true in
    let handler _ =
      if !active then begin
        active := false;
        let t0 = now () in
        samples := sample () :: !samples;
        spent := !spent +. (now () -. t0);
        active := true
      end
    in
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
    let every = { Unix.it_interval = 0.1; it_value = 0.1 } in
    let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
    ignore (Unix.setitimer Unix.ITIMER_REAL every);
    let r, dt =
      Fun.protect
        ~finally:(fun () ->
          active := false;
          ignore (Unix.setitimer Unix.ITIMER_REAL off);
          Sys.set_signal Sys.sigalrm old)
        (fun () ->
          let t0 = now () in
          let r = f () in
          active := false;
          (r, now () -. t0))
    in
    samples := sample () :: !samples;
    let dt = dt -. !spent in
    (r, dt, dt *. scale (List.fold_left ( +. ) 0.0 !samples /. float_of_int (List.length !samples)))

  (* samples taken at regular intervals through a run: [tick] takes one
     when [every] seconds have passed since the last *)
  type clock = { every : float; mutable last : float; mutable samples : float list }

  let clock every = { every; last = neg_infinity; samples = [] }

  let tick c =
    if now () -. c.last >= c.every then begin
      c.samples <- sample () :: c.samples;
      c.last <- now ()
    end

  let run_scale c = scale (List.fold_left ( +. ) 0.0 c.samples /. float_of_int (List.length c.samples))
end

(* every workload times its set-up this many times and reports the median
   of the normalised times *)
let setup_reps = 11

let median_setup f =
  let runs = List.init setup_reps (fun _ -> Calib.measure f) in
  let r, _, _ = List.hd runs in
  (r, median (List.map (fun (_, _, n) -> n) runs))

(* the mean of the sorted samples with ranks in [lo, hi) of n, the ranks
   given as shares of n: a quantile that moves smoothly when two samples
   near it swap places *)
let rank_mean xs lo hi =
  let a = sorted xs in
  let n = Array.length a in
  let i0 = int_of_float (Float.round (lo *. float_of_int n)) in
  let i1 = max (i0 + 1) (int_of_float (Float.round (hi *. float_of_int n))) in
  let s = ref 0.0 in
  for i = i0 to min n i1 - 1 do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (min n i1 - i0)

(* --------------------------------------------------------------- memory *)

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* words allocated by this process so far, as MiB *)
let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. 8.0 /. 1048576.0

(* ------------------------------------------------------ metric catalogue *)

(* The end-to-end metrics every workload reports with tracing off, and the
   per-layer metrics every workload reports from its traced run (0 for a
   layer the workload does not exercise). Mirrors BENCHMARK.json. *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("duration_ratio", "ratio");
  ]

let passes = [ "lower_3q"; "template"; "phoenix_to_su4"; "hierarchical"; "mirroring" ]
let families = [ "xy"; "xx" ]

let per_layer =
  List.map (fun p -> ("compiler." ^ p ^ ".busy_s", "s")) passes
  @ List.map (fun p -> ("compiler." ^ p ^ ".twoq_after", "count")) passes
  @ [
      ("compiler.template.classes", "count");
      ("compiler.hierarchical.resynth_ratio", "ratio");
      ("compiler.twoq_gmean", "ratio");
      ("compiler.depth2q_gmean", "ratio");
      ("compiler.duration_gmean", "ratio");
      ("core.compile.busy_s", "s");
      ("core.compile.overhead_s", "s");
      ("weyl.kak.busy_s", "s");
    ]
  @ List.map (fun f -> ("microarch.solve_coords." ^ f ^ ".busy_s", "s")) families
  @ [
      ("microarch.evolve.busy_s", "s");
      ("microarch.solver.first_try_ratio", "ratio");
      ("microarch.solver.ea_retries", "count");
      ("microarch.solver.nd_retries", "count");
      ("microarch.amp_penalty_mean", "g");
      ("microarch.haar_speedup", "ratio");
      ("microarch.solve_runs_per_pulses_req", "ratio");
      ("numerics.mul4_us", "us");
      ("numerics.expm4_us", "us");
      ("numerics.eig4_us", "us");
      ("alloc_mb", "MB");
      ("serve.queue_wait_s", "s");
      ("serve.exec.compile_s", "s");
      ("serve.exec.pulses_s", "s");
      ("serve.compile.p50_ms", "ms");
      ("serve.compile.tail_ms", "ms");
      ("serve.pulses.p50_ms", "ms");
      ("serve.pulses.tail_ms", "ms");
      ("serve.compile.first_ms", "ms");
      ("serve.compile.repeat_ms", "ms");
      ("serve.pulses.first_ms", "ms");
      ("serve.pulses.repeat_ms", "ms");
      ("serve.coalesce_hits", "count");
      ("serve.transport.overhead_ms_p50", "ms");
      ("cache.hit_ratio", "ratio");
      ("cache.inserts", "count");
      ("trace.overhead_pct", "%");
      ("trace.spans", "count");
      ("trace.child_coverage", "ratio");
    ]

(* ----------------------------------------------------------------- spans *)

(* The traced run's recorder: spans with a name, start, end, parent and
   the id of the operation (one compile, one solve, one request) they
   belong to, held in memory and written as a Chrome trace at the end. *)
module Trace = struct
  type span = {
    id : int;
    op : int;
    parent : int;  (** 0 for a root span *)
    name : string;
    t0 : int;  (** ns, {!Obs.Clock} *)
    t1 : int;
    tid : int;
  }

  let lock = Mutex.create ()
  let spans : span list ref = ref []
  let next = ref 0

  let fresh_id () =
    Mutex.lock lock;
    incr next;
    let id = !next in
    Mutex.unlock lock;
    id

  let record s =
    Mutex.lock lock;
    spans := s :: !spans;
    Mutex.unlock lock

  (* [span ~op ~parent name f] runs [f id] inside a span; [f] receives the
     span's own id so that nested calls can name it as their parent *)
  let span ?(tid = 0) ~op ~parent name f =
    let id = fresh_id () in
    let t0 = Obs.Clock.now_ns () in
    let r = f id in
    record { id; op; parent; name; t0; t1 = Obs.Clock.now_ns (); tid };
    r

  let all () = List.rev !spans

  (* what recording one span costs, in seconds: an id, two clock reads
     and a locked push, into a list of its own *)
  let cost_s () =
    let n = 100_000 in
    let sink = ref [] in
    let (), dt =
      time (fun () ->
          for _ = 1 to n do
            let id = fresh_id () in
            let t0 = Obs.Clock.now_ns () in
            let s = { id; op = 0; parent = 0; name = "cost"; t0; t1 = Obs.Clock.now_ns (); tid = 0 } in
            Mutex.lock lock;
            sink := s :: !sink;
            Mutex.unlock lock
          done)
    in
    ignore (Sys.opaque_identity !sink);
    dt /. float_of_int n
  let dur s = float_of_int (s.t1 - s.t0) *. 1e-9

  (* total busy time per span name *)
  let busy name =
    List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 !spans

  let write_chrome path =
    let all = all () in
    let base = List.fold_left (fun m s -> min m s.t0) max_int all in
    let oc = open_out path in
    output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
          (if i = 0 then "" else ",")
          s.name s.tid
          (float_of_int (s.t0 - base) /. 1e3)
          (float_of_int (s.t1 - s.t0) /. 1e3)
          s.id s.parent s.op)
      all;
    output_string oc "\n]}\n";
    close_out oc
end

(* The traced run's self-check: every child span belongs to its root's
   operation, lies inside the root and overlaps no sibling, so the child
   busy times plus each root's self time partition the traced wall. *)
type span_check = { ok : bool; spans : int; root_s : float; child_s : float }

let check_spans () =
  let spans = Trace.all () in
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) -> if s.parent <> 0 then Hashtbl.add kids s.parent s)
    spans;
  let roots = List.filter (fun (s : Trace.span) -> s.parent = 0) spans in
  let ok =
    List.for_all
      (fun (r : Trace.span) ->
        (* by start, then end: the clock ticks in microseconds, so an empty
           span (a skipped pass) can share its start with the next one *)
        let ks =
          List.sort
            (fun (x : Trace.span) y -> compare (x.t0, x.t1) (y.t0, y.t1))
            (Hashtbl.find_all kids r.id)
        in
        let rec disjoint last = function
          | [] -> last <= r.t1
          | (s : Trace.span) :: rest -> s.op = r.op && s.t0 >= last && disjoint s.t1 rest
        in
        disjoint r.t0 ks)
      roots
  in
  let sum l = List.fold_left (fun acc s -> acc +. Trace.dur s) 0.0 l in
  {
    ok;
    spans = List.length spans;
    root_s = sum roots;
    child_s = sum (List.filter (fun (s : Trace.span) -> s.parent <> 0) spans);
  }

(* ------------------------------------------------------------- numerics *)

(* 4x4 kernel timings (microseconds per call) on a workload's own inputs:
   (hermitian matrix, evolution time) pairs *)
let time_kernels inputs =
  let inputs = Array.of_list inputs in
  let k = Array.length inputs in
  if k = 0 then []
  else begin
    let reps = max 1 (20_000 / k) in
    let per f =
      let (), dt =
        time (fun () ->
            for _ = 1 to reps do
              Array.iter (fun m -> ignore (Sys.opaque_identity (f m))) inputs
            done)
      in
      dt /. float_of_int (reps * k) *. 1e6
    in
    [
      ("numerics.mul4_us", per (fun (m, _) -> Numerics.Mat.mul m m));
      ("numerics.expm4_us", per (fun (h, t) -> Numerics.Expm.herm_expi h ~t));
      ("numerics.eig4_us", per (fun (h, _) -> Numerics.Eig.hermitian h));
    ]
  end

(* --------------------------------------------------------------- results *)

(* [failed] counts operations that did not produce a correct result: a
   typed error from the program, or an output that disagrees with its
   reference. [correct] is false when any produced output disagrees with
   its reference or a self-check fails; an operation the program refuses
   with a typed error is failed, not incorrect. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** name -> value; units from the catalogue *)
  notes : (string * string) list;  (** human-readable extras for the log *)
}

let json_float v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

(* Print the human-readable report, then the one-line JSON result the
   contract asks for as the last line of stdout. A metric that is missing
   or not finite makes the run incorrect (it is printed as 0). *)
let report ~workload ~trace (o : outcome) =
  let catalogue = if trace then per_layer else end_to_end in
  let ok = ref o.correct in
  let value name =
    match List.assoc_opt name o.metrics with
    | Some v when Float.is_finite v -> v
    | Some _ ->
      ok := false;
      0.0
    | None ->
      (* a layer the workload does not exercise reads 0; an end-to-end
         metric must always be measured *)
      if not trace then ok := false;
      0.0
  in
  let values = List.map (fun (name, unit) -> (name, value name, unit)) catalogue in
  Printf.printf "workload %s (%s)\n" workload (if trace then "traced" else "untraced");
  List.iter (fun (name, v, unit) -> Printf.printf "  %-40s %16.6g %s\n" name v unit) values;
  List.iter (fun (k, v) -> Printf.printf "  %-40s %s\n" k v) o.notes;
  Printf.printf "  %-40s %d / %d (failed_share %.6f)\n" "failed / attempted" o.failed o.attempted
    (if o.attempted = 0 then 1.0 else float_of_int o.failed /. float_of_int o.attempted);
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         values)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!ok && o.attempted > 0)
    (max 1 o.attempted) o.failed metrics
