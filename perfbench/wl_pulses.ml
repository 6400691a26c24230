(* Workload `pulses`: cold genAshN solves (Microarch.Genashn.solve_r) with
   no pulse cache installed. One operation takes one Haar-random SU(4)
   target drawn from the workload seed and solves it under two coupling
   families: XY (flux-tunable transmons) and XX. Every target is distinct,
   so no cache can help here. Random canonical couplings are left out:
   the solver does not converge on some Haar targets under them (2 of
   about 64 000; results/README.md, "Known failures").

   Untraced: operations in order until --seconds have passed, with a
   calibration sample every 50 ms between them (see Common.Calib); each
   result is checked right after its operation, off the clock.
   Traced: a fixed number of operations, solved once through solve_r
   (untraced, the reference) and once through the same public steps
   solve_r composes — KAK of the target, the root search, the evolution
   and the KAK of the realized gate — each under its own span. *)

open Common

type target = { fam : string; h : Microarch.Coupling.t; u : Numerics.Mat.t }

let xy = Microarch.Coupling.xy ~g:1.0
let xx = Microarch.Coupling.xx ~g:1.0

(* one operation's two solves *)
let draw rng =
  let u = Quantum.Haar.su4 rng in
  [ { fam = "xy"; h = xy; u }; { fam = "xx"; h = xx; u } ]

(* set-up: the seeded operation stream's first block *)
let block = 1500

let setup seed =
  let rng = rng_of seed 30 in
  (rng, Array.init block (fun _ -> draw rng))

(* the conventional 3-CNOT duration an arbitrary SU(4) costs, in 1/g *)
let conventional_su4 = 3.0 *. Microarch.Duration.conventional_cnot_tau ~g:1.0

(* ------------------------------------------------------------- checking *)

let strict = 1e-6

(* The solved pulse must steer into the target's Weyl class, and the
   pulse with its 1Q corrections must reproduce the target up to a global
   phase. *)
let check t (r : Microarch.Genashn.result) =
  let open Numerics in
  let realized = Microarch.Genashn.evolve t.h r.pulse in
  let class_err = Weyl.Coords.dist (Weyl.Kak.coords_of realized) (Weyl.Kak.coords_of t.u) in
  let overlap = Complex.norm (Mat.trace (Mat.mul (Mat.dagger t.u) (Microarch.Genashn.reconstruct r))) /. 4.0 in
  class_err < strict && overlap > 1.0 -. strict

let value = function
  | Robust.Outcome.Solved r | Robust.Outcome.Degraded (r, _) -> Some r
  | Robust.Outcome.Failed _ -> None

(* ---------------------------------------------------------------- runs *)

let run_untraced (a : args) =
  let (rng, pool), setup_s = median_setup (fun () -> setup a.seed) in
  (* the stream continues one block at a time; a used block is dropped,
     so memory does not grow with the number of operations a run fits *)
  let pool = ref pool in
  let op i =
    if i > 0 && i mod block = 0 then pool := Array.init block (fun _ -> draw rng);
    !pool.(i mod block)
  in
  let busy = ref 0.0 and n = ref 0 and failed = ref 0 and mismatches = ref 0 in
  let op_times = ref [] and solve_times = Hashtbl.create 2 in
  let taus_xy = ref [] and amps = ref [] in
  let calib = Calib.clock 0.05 in
  let t_start = now () in
  while now () -. t_start < a.seconds do
    Calib.tick calib;
    let solves =
      List.map (fun t -> (t, time (fun () -> Microarch.Genashn.solve_r t.h t.u))) (op !n)
    in
    let dt = List.fold_left (fun acc (_, (_, d)) -> acc +. d) 0.0 solves in
    busy := !busy +. dt;
    op_times := dt :: !op_times;
    incr n;
    (* an operation fails when any of its solves errs or is wrong *)
    let ok =
      List.fold_left
        (fun ok (t, (oc, d)) ->
          Hashtbl.replace solve_times t.fam (d :: Option.value ~default:[] (Hashtbl.find_opt solve_times t.fam));
          match oc with
          | Robust.Outcome.Failed e ->
            Printf.printf "  target %d (%s) failed: %s\n" (!n - 1) t.fam (Robust.Err.to_string e);
            false
          | Robust.Outcome.Solved r | Robust.Outcome.Degraded (r, _) ->
            if check t r then begin
              if t.fam = "xy" then taus_xy := r.pulse.tau :: !taus_xy;
              amps := Microarch.Genashn.amplitude_penalty r.pulse :: !amps;
              ok
            end
            else begin
              incr mismatches;
              Printf.printf "  target %d (%s): pulse does not realize the target\n" (!n - 1) t.fam;
              false
            end)
        true solves
    in
    if not ok then incr failed
  done;
  let mean_tau_xy = mean !taus_xy in
  let raw_tl = tail !op_times in
  let scale = Calib.run_scale calib in
  let tl = { raw_tl with value = raw_tl.value *. scale } in
  (* An operation's time is a sum of two multimodal solve times (an XY
     solve takes 0.1 ms or 7 ms), and the median sits near a gap between
     modes: a small change in the mix moves it by 20%. The typical
     operation is therefore the mean of the middle half of the times. *)
  let p50 = rank_mean !op_times 0.25 0.75 in
  {
    correct = !mismatches = 0;
    attempted = !n;
    failed = !failed;
    metrics =
      [
        ("ops_per_s", float_of_int !n /. (!busy *. scale));
        ("p50_ms", 1e3 *. scale *. p50);
        ("tail_ms", 1e3 *. tl.value);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ());
        ("duration_ratio", mean_tau_xy /. conventional_su4);
      ];
    notes =
      [
        ("targets (x2 solves) / solving time", Printf.sprintf "%d / %.2f s" !n !busy);
        ( "raw (not normalised) ops_per_s / p50_ms / tail_ms",
          Printf.sprintf "%.3f / %.4f / %.4f (scale %.4f from %d samples)" (float_of_int !n /. !busy)
            (1e3 *. p50) (1e3 *. raw_tl.value) scale (List.length calib.samples) );
        ("pulses_p50_ms (per target, mean of the middle half)", Printf.sprintf "%.4f" (1e3 *. scale *. p50));
        ("median per target (for reference)", Printf.sprintf "%.4f ms" (1e3 *. scale *. median !op_times));
        ("pulses_tail_ms (per target)", Printf.sprintf "%.4f (p%.2f of %d)" (1e3 *. tl.value) tl.pct tl.n);
        ("haar_speedup (3-CNOT / mean tau, XY)", Printf.sprintf "%.4f (paper 4.97)" (conventional_su4 /. mean_tau_xy));
        ("amp_penalty_mean", Printf.sprintf "%.6f" (mean !amps));
      ]
      @ List.map
          (fun fam ->
            let ts = Option.value ~default:[] (Hashtbl.find_opt solve_times fam) in
            let t = tail ts in
            ( "per-solve ms " ^ fam,
              Printf.sprintf "mean %.3f p50 %.3f tail %.3f (p%.2f of %d, raw)" (1e3 *. mean ts) (1e3 *. median ts)
                (1e3 *. t.value) t.pct t.n ))
          families;
  }

(* solve_r's steps, each in its own span *)
let traced_solve ~op t =
  let open Numerics in
  Trace.span ~op ~parent:0 "microarch.solve" (fun root ->
      let kak u = Trace.span ~op ~parent:root "weyl.kak" (fun _ -> Weyl.Kak.decompose_r u) in
      match kak t.u with
      | Error e -> Robust.Outcome.Failed e
      | Ok du -> (
        match
          Trace.span ~op ~parent:root ("microarch.solve_coords." ^ t.fam) (fun _ ->
              Microarch.Genashn.solve_coords_r t.h du.coords)
        with
        | Robust.Outcome.Failed e -> Robust.Outcome.Failed e
        | (Robust.Outcome.Solved pulse | Robust.Outcome.Degraded (pulse, _)) as oc -> (
          let realized =
            Trace.span ~op ~parent:root "microarch.evolve" (fun _ -> Microarch.Genashn.evolve t.h pulse)
          in
          match kak realized with
          | Error e -> Robust.Outcome.Failed e
          | Ok dw ->
            let r =
              {
                Microarch.Genashn.pulse;
                coords = du.coords;
                realized;
                a1 = Mat.mul du.a1 (Mat.dagger dw.a1);
                a2 = Mat.mul du.a2 (Mat.dagger dw.a2);
                b1 = Mat.mul (Mat.dagger dw.b1) du.b1;
                b2 = Mat.mul (Mat.dagger dw.b2) du.b2;
              }
            in
            Robust.Outcome.map (fun _ -> r) oc)))

let traced_ops = 800
let traced_targets = List.length families * traced_ops

let run_traced (a : args) =
  let _, pool = setup a.seed in
  let targets = Array.of_list (List.concat (Array.to_list (Array.sub pool 0 traced_ops))) in
  let counter stage name = Robust.Counters.get ~stage name in
  let ea0 = counter "solver.ea" "retry" and nd0 = counter "solver.nd" "retry" in
  let runs0 = counter "genashn" "solve_run" in
  let untraced_s = ref 0.0 and alloc = ref 0.0 in
  (* each target is solved by solve_r (the untraced reference) and by the
     traced steps, alternating which goes first *)
  let pairs =
    Array.mapi
      (fun i t ->
        let reference () =
          let r, dt = time (fun () -> Microarch.Genashn.solve_r t.h t.u) in
          untraced_s := !untraced_s +. dt;
          r
        in
        let traced () =
          let alloc0 = allocated_mb () in
          let r = traced_solve ~op:((i / List.length families) + 1) t in
          alloc := !alloc +. (allocated_mb () -. alloc0);
          r
        in
        if i mod 2 = 0 then
          let r = reference () in
          (r, traced ())
        else
          let tr = traced () in
          (reference (), tr))
      targets
  in
  let reference = Array.map fst pairs and traced = Array.map snd pairs in
  let untraced_s = !untraced_s and alloc = !alloc in
  (* a solve both paths refuse is failed; any other disagreement, or a
     pulse that misses its target, is a mismatch *)
  let failed = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i t ->
      match (value reference.(i), value traced.(i)) with
      | Some r, Some r' when check t r && Int64.bits_of_float r.pulse.tau = Int64.bits_of_float r'.pulse.tau -> ()
      | None, None -> incr failed
      | _ ->
        incr failed;
        incr mismatches)
    targets;
  let solved = List.filter_map value (Array.to_list traced) in
  let first_try =
    Array.fold_left (fun acc oc -> match oc with Robust.Outcome.Solved _ -> acc + 1 | _ -> acc) 0 traced
  in
  let mean_tau_xy =
    mean
      (List.filter_map
         (fun (t, oc) -> if t.fam = "xy" then Option.map (fun (r : Microarch.Genashn.result) -> r.pulse.tau) (value oc) else None)
         (List.combine (Array.to_list targets) (Array.to_list traced)))
  in
  let kernels =
    List.filteri (fun i _ -> i < 256)
      (List.map2
         (fun t (r : Microarch.Genashn.result) -> (Microarch.Genashn.hamiltonian t.h r.pulse, r.pulse.tau))
         (List.filteri (fun i _ -> value traced.(i) <> None) (Array.to_list targets))
         solved)
  in
  let check = check_spans () in
  Trace.write_chrome (Filename.concat a.out_dir (Printf.sprintf "pulses-seed%d.trace.json" a.seed));
  {
    correct = !mismatches = 0 && check.ok;
    attempted = traced_targets;
    failed = !failed;
    metrics =
      [
        ("weyl.kak.busy_s", Trace.busy "weyl.kak");
        ("microarch.evolve.busy_s", Trace.busy "microarch.evolve");
        ("microarch.solver.first_try_ratio", float_of_int first_try /. float_of_int traced_targets);
        (* the counters saw every target twice: once per side of the pair *)
        ("microarch.solver.ea_retries", float_of_int (counter "solver.ea" "retry" - ea0) /. 2.0);
        ("microarch.solver.nd_retries", float_of_int (counter "solver.nd" "retry" - nd0) /. 2.0);
        ( "microarch.amp_penalty_mean",
          mean (List.map (fun (r : Microarch.Genashn.result) -> Microarch.Genashn.amplitude_penalty r.pulse) solved) );
        ("microarch.haar_speedup", conventional_su4 /. mean_tau_xy);
        ( "microarch.solve_runs_per_pulses_req",
          float_of_int (counter "genashn" "solve_run" - runs0) /. float_of_int (2 * traced_targets) );
        ("alloc_mb", alloc);
        ("trace.overhead_pct", 100.0 *. ((check.root_s /. untraced_s) -. 1.0));
        ("trace.spans", float_of_int check.spans);
        ("trace.child_coverage", check.child_s /. check.root_s);
      ]
      @ List.map
          (fun f -> ("microarch.solve_coords." ^ f ^ ".busy_s", Trace.busy ("microarch.solve_coords." ^ f)))
          families
      @ time_kernels kernels;
    notes =
      [
        ("solve_r wall (untraced)", Printf.sprintf "%.3f s" untraced_s);
        ( "traced wall = children + self",
          Printf.sprintf "%.3f = %.3f + %.3f s" check.root_s check.child_s (check.root_s -. check.child_s) );
        ("span partition", if check.ok then "ok" else "FAILED");
      ];
  }

let run (a : args) = if a.trace then run_traced a else run_untraced a
