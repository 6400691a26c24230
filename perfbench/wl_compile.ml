(* Workload `compile`: cold in-process compiles through the facade
   (Reqisc.compile / compile_pauli) with no cache of any kind, every
   program under the eff and full plans (hwb_6 under eff only), in an
   order drawn from the workload seed. Compiles use the CLI's fixed RNG
   seed, so the timings are the ones a CLI user sees, and the same on
   every run.

   Untraced: whole rounds over the 27 (program, plan) units, one unit at
   a time, while another whole round still fits in --seconds (the first
   round always runs). The heap is compacted before every unit, off the
   clock, so each compile starts from a small heap as in a fresh CLI
   process. Each unit's time is the mean of its samples.

   Traced: one round; every unit is compiled once through the facade
   (untraced, the reference) and once by driving its plan pass by pass
   through the public Compiler.Passes.run_pass, with a span around the
   whole compile and one per pass. *)

open Common

(* Why each program is here (see README.md): template-bound with shared
   SU(4) classes; wide, class-poor and hierarchical-heavy under full; a
   class-rich program where a synthesis memo rarely hits; Pauli programs
   that bypass template entirely; and qft_8. hwb_6 runs under eff only:
   its full compile alone takes 6-9 s, a third of a round, and under eff
   it still drives template through its 16 classes. *)
let programs =
  [
    "alu_1"; "alu_2"; "comparator_2"; "rip_add_4"; "square_3";
    "tof_10"; "bit_adder_6"; "sym_9"; "mult_3";
    "hwb_6";
    "pf_10"; "qaoa_10"; "uccsd_12";
    "qft_8";
  ]

let modes = [ Compiler.Passes.Eff; Compiler.Passes.Full ]

type unit_ = {
  idx : int;
  bench : Benchmarks.Suite.bench;
  mode : Compiler.Passes.mode;
  base : Compiler.Metrics.report;  (** the CNOT-based input under Cnot_isa *)
}

let label u = u.bench.Benchmarks.Suite.name ^ "/" ^ Compiler.Passes.mode_to_string u.mode

(* set-up: build the program set and its CNOT-based baselines *)
let setup () =
  let suite = Benchmarks.Suite.suite () in
  let units =
    List.concat_map
      (fun name ->
        let bench = List.find (fun (b : Benchmarks.Suite.bench) -> b.name = name) suite in
        let input = Compiler.Pipeline.program_to_cnot_input bench.program in
        let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa input in
        let modes = if name = "hwb_6" then [ Compiler.Passes.Eff ] else modes in
        List.map (fun mode -> (bench, mode, base)) modes)
      programs
  in
  List.mapi (fun idx (bench, mode, base) -> { idx; bench; mode; base }) units

(* the seed `reqisc_cli compile` uses *)
let cli_seed = 1L

let facade u =
  let rng = Numerics.Rng.create cli_seed in
  match u.bench.program with
  | Compiler.Pipeline.Gates c -> Reqisc.compile ~mode:u.mode rng c
  | Compiler.Pipeline.Pauli p -> Reqisc.compile_pauli ~mode:u.mode rng p

let xy = Reqisc.xy_coupling

(* compiled / input ratios of #2Q, 2Q depth and duration *)
let quality u (out : Reqisc.compiled) =
  let r = Reqisc.metrics (Compiler.Metrics.Su4_isa xy) out.circuit in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  ( ratio r.count_2q u.base.count_2q,
    ratio r.depth_2q u.base.depth_2q,
    r.duration /. u.base.duration )

(* ------------------------------------------------------------- checking *)

(* Independent reference semantics: the source program simulated on
   seeded random states with the statevector kernel (a Pauli program term
   by term, exp(-i angle/2 P) applied directly), against the compiled
   circuit with its output wire permutation undone. *)

let random_state rng n =
  let v =
    Array.init (1 lsl n) (fun _ ->
        { Complex.re = Numerics.Rng.gaussian rng; im = Numerics.Rng.gaussian rng })
  in
  let norm = sqrt (Array.fold_left (fun a z -> a +. Complex.norm2 z) 0.0 v) in
  Array.map (fun z -> { Complex.re = z.Complex.re /. norm; im = z.Complex.im /. norm }) v

let apply_pauli_term n (t : Compiler.Phoenix.term) st =
  let flip = ref 0 and ys = ref [] and zs = ref [] in
  Array.iteri
    (fun q op ->
      let bit = 1 lsl (n - 1 - q) in
      match op with
      | Quantum.Pauli.I -> ()
      | Quantum.Pauli.X -> flip := !flip lor bit
      | Quantum.Pauli.Y ->
        flip := !flip lor bit;
        ys := bit :: !ys
      | Quantum.Pauli.Z -> zs := bit :: !zs)
    t.pauli;
  let c = cos (t.angle /. 2.0) and s = sin (t.angle /. 2.0) in
  Array.init (Array.length st) (fun y ->
      (* (P psi)[y] = phase(x) psi[x] with x = y xor flip *)
      let x = y lxor !flip in
      let phase = ref Complex.one in
      List.iter (fun b -> if x land b <> 0 then phase := Complex.neg !phase) !zs;
      List.iter
        (fun b ->
          (* Y|0> = i|1>, Y|1> = -i|0> *)
          phase := Complex.mul !phase (if x land b = 0 then Complex.i else Complex.neg Complex.i))
        !ys;
      let p = Complex.mul !phase st.(x) in
      (* cos(a/2) psi - i sin(a/2) P psi *)
      {
        Complex.re = (c *. st.(y).Complex.re) +. (s *. p.Complex.im);
        im = (c *. st.(y).Complex.im) -. (s *. p.Complex.re);
      })

let source_apply (program : Compiler.Pipeline.program) st =
  match program with
  | Compiler.Pipeline.Gates c -> State.run_from ~n:c.n c.gates (Array.copy st)
  | Compiler.Pipeline.Pauli p ->
    List.fold_left (fun st t -> apply_pauli_term p.n t st) st p.terms

let compiled_apply (out : Reqisc.compiled) st =
  let n = out.circuit.n in
  let st' = State.run_from ~n out.circuit.gates (Array.copy st) in
  let m = out.final_mapping in
  (* logical wire l's bit lives on physical wire m.(l) *)
  Array.init (Array.length st') (fun x ->
      let y = ref 0 in
      for l = 0 to n - 1 do
        let bit = (x lsr (n - 1 - l)) land 1 in
        y := !y lor (bit lsl (n - 1 - m.(l)))
      done;
      st'.(!y))

let min_fidelity = 0.9999

(* worst probe fidelity of one compiled program against its source *)
let check_output rng u (out : Reqisc.compiled) =
  let n = out.circuit.n in
  List.fold_left
    (fun worst _ ->
      let st = random_state rng n in
      let f = State.fidelity (source_apply u.bench.program st) (compiled_apply out st) in
      Float.min worst f)
    1.0 [ 1; 2 ]

(* ------------------------------------------------------------- numerics *)

(* Hermitian inputs from compiled 2Q gates: G + G^dagger *)
let gate_inputs outs =
  let gates =
    List.concat_map
      (fun (out : Reqisc.compiled) -> List.filter Gate.is_2q out.circuit.gates)
      outs
  in
  List.filteri (fun i _ -> i < 256)
    (List.map
       (fun (g : Gate.t) -> (Numerics.Mat.add g.mat (Numerics.Mat.dagger g.mat), 1.0))
       gates)

(* ---------------------------------------------------------------- runs *)

let run_untraced (a : args) =
  let units, setup_s = median_setup setup in
  let units = Array.of_list units in
  let nu = Array.length units in
  (* per unit: (raw, normalised) seconds of each sample *)
  let samples = Array.make nu [] in
  let qualities = ref [] in
  let failed = ref 0 and mismatches = ref 0 and attempted = ref 0 in
  let check_rng = rng_of a.seed 20 and worst = ref 1.0 in
  let t_start = now () in
  let round = ref 0 and last_round = ref 0.0 in
  while !round = 0 || now () -. t_start +. !last_round <= a.seconds do
    let t_round = now () in
    let order = Array.copy units in
    Numerics.Rng.shuffle (rng_of a.seed (10 + !round)) order;
    Array.iter
      (fun u ->
        Gc.compact ();
        incr attempted;
        match Calib.measure (fun () -> facade u) with
        | Ok out, dt, norm ->
          samples.(u.idx) <- (dt, norm) :: samples.(u.idx);
          qualities := (u, quality u out) :: !qualities;
          (* checked now, off the clock, so that no unit is timed with
             earlier outputs still live on the heap *)
          let f = check_output check_rng u out in
          worst := Float.min !worst f;
          if f < min_fidelity then begin
            incr failed;
            incr mismatches;
            Printf.printf "  check %s: fidelity %.9f < %g\n" (label u) f min_fidelity
          end
        | Error e, _, _ ->
          incr failed;
          Printf.printf "  compile %s failed: %s\n" (label u) (Robust.Err.to_string e))
      order;
    last_round := now () -. t_round;
    incr round
  done;
  let elapsed = now () -. t_start in
  let unit_means pick =
    List.filter_map (fun l -> if l = [] then None else Some (mean (List.map pick l))) (Array.to_list samples)
  in
  let raw = unit_means fst and unit_means = unit_means snd in
  let per_unit f =
    (* geometric mean over units of each unit's own geometric mean *)
    gmean
      (Array.to_list
         (Array.map
            (fun u ->
              gmean (List.filter_map (fun (v, q) -> if v.idx = u.idx then Some (f q) else None) !qualities))
            units))
  in
  let twoq = per_unit (fun (a, _, _) -> a)
  and depth = per_unit (fun (_, b, _) -> b)
  and dur = per_unit (fun (_, _, c) -> c) in
  (* 27 units are too few for order statistics: two units near the median
     swap places from run to run and the median jumps between them. The
     typical compile is the mean of the middle half of the unit times,
     the tail the mean of the slowest 3 (the top ninth) *)
  let p50 = rank_mean unit_means 0.25 0.75 and tl = rank_mean unit_means (1.0 -. (3.0 /. float_of_int nu)) 1.0 in
  {
    correct = !mismatches = 0;
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("ops_per_s", float_of_int (List.length unit_means) /. List.fold_left ( +. ) 0.0 unit_means);
        ("p50_ms", 1e3 *. p50);
        ("tail_ms", 1e3 *. tl);
        ("setup_s", setup_s);
        ("peak_rss_mb", peak_rss_mb ());
        ("duration_ratio", dur);
      ];
    notes =
      [
        ("compiles / rounds / elapsed", Printf.sprintf "%d / %d / %.2f s" (List.length !qualities) !round elapsed);
        ( "raw (not normalised) ops_per_s / p50_ms",
          Printf.sprintf "%.4f / %.3f" (float_of_int (List.length raw) /. List.fold_left ( +. ) 0.0 raw)
            (1e3 *. rank_mean raw 0.25 0.75) );
        ("compile_p50_ms (mean of the middle half of units)", Printf.sprintf "%.3f" (1e3 *. p50));
        ("compile_tail_ms (mean of the slowest 3 units)", Printf.sprintf "%.3f" (1e3 *. tl));
        ("median unit (for reference)", Printf.sprintf "%.3f ms" (1e3 *. median unit_means));
        ("twoq_gmean", Printf.sprintf "%.6f" twoq);
        ("depth2q_gmean", Printf.sprintf "%.6f" depth);
        ("duration_gmean", Printf.sprintf "%.6f" dur);
        ("worst probe fidelity", Printf.sprintf "%.9f" !worst);
      ]
      @ Array.to_list
          (Array.map
             (fun u ->
               ( "unit " ^ label u,
                 Printf.sprintf "%.3f ms mean of %d (raw %.3f ms)"
                   (1e3 *. mean (List.map snd samples.(u.idx)))
                   (List.length samples.(u.idx))
                   (1e3 *. mean (List.map fst samples.(u.idx))) ))
             units);
  }

(* one compile driven pass by pass, under spans; mirrors
   Compiler.Passes.compile_plan *)
let traced_compile ~op u =
  let plan = Compiler.Passes.plan_of_mode u.mode in
  Trace.span ~op ~parent:0 "core.compile" (fun root ->
      match
        let ctx = Compiler.Pass.make_ctx (Numerics.Rng.create cli_seed) in
        let ir, stats, classes =
          List.fold_left
            (fun (ir, stats, classes) (p : Compiler.Pass.t) ->
              let ir', st =
                Trace.span ~op ~parent:root ("compiler." ^ p.name) (fun _ ->
                    Compiler.Passes.run_pass ctx ir p)
              in
              let classes =
                if p.name = "template" && st.ran then Compiler.Template.library_size ctx.lib
                else classes
              in
              (ir', st :: stats, classes))
            (Compiler.Pass.Source u.bench.program, [], 0)
            plan.passes
        in
        (Compiler.Passes.output_of_ir ctx ir, List.rev stats, classes)
      with
      | r -> r
      | exception (Failure msg | Invalid_argument msg) ->
        (Error (Robust.Err.Ill_conditioned { stage = "perfbench"; detail = msg }), [], 0))

let same_output (a : Reqisc.compiled) (b : Reqisc.compiled) =
  a.final_mapping = b.final_mapping
  && List.length a.circuit.gates = List.length b.circuit.gates
  && Circuit.count_2q a.circuit = Circuit.count_2q b.circuit
  && Circuit.depth_2q a.circuit = Circuit.depth_2q b.circuit

let run_traced (a : args) =
  let units = Array.of_list (setup ()) in
  Numerics.Rng.shuffle (rng_of a.seed 10) units;
  let failed = ref 0 and mismatches = ref 0 and attempted = ref 0 in
  let facade_wall = ref 0.0 and alloc = ref 0.0 in
  let twoq_after = Hashtbl.create 8 and classes = ref 0 in
  let outs = ref [] in
  let hier name = Robust.Counters.get ~stage:"compiler.hier" name in
  let ok0 = hier "resynth_ok" and fb0 = hier "fallback" in
  Array.iteri
    (fun pos u ->
      incr attempted;
      let reference () = time (fun () -> facade u) in
      let traced () =
        let alloc0 = allocated_mb () in
        let r = traced_compile ~op:(u.idx + 1) u in
        alloc := !alloc +. (allocated_mb () -. alloc0);
        r
      in
      (* alternate which of the pair runs first, so that neither side
         always pays for the garbage the other left behind *)
      let (ref_result, dt), traced_result =
        if pos mod 2 = 0 then
          let r = reference () in
          (r, traced ())
        else
          let t = traced () in
          (reference (), t)
      in
      facade_wall := !facade_wall +. dt;
      match (ref_result, traced_result) with
      | Error e, _ | _, (Error e, _, _) ->
        incr failed;
        Printf.printf "  compile %s failed: %s\n" (label u) (Robust.Err.to_string e)
      | Ok ref_out, (Ok out, stats, cls) ->
        if not (same_output out ref_out) then begin
          incr failed;
          incr mismatches;
          Printf.printf "  traced %s differs from the facade output\n" (label u)
        end;
        outs := (u, ref_out) :: !outs;
        classes := !classes + cls;
        List.iter
          (fun (s : Compiler.Passes.pass_stat) ->
            if s.ran then
              Hashtbl.replace twoq_after s.pass
                (max 0 s.count_2q + Option.value ~default:0 (Hashtbl.find_opt twoq_after s.pass)))
          stats)
    units;
  let resynth = hier "resynth_ok" - ok0 and fallback = hier "fallback" - fb0 in
  let check = check_spans () in
  if not check.ok then print_endline "  span partition check failed";
  let outs = List.rev !outs in
  let check_rng = rng_of a.seed 20 in
  List.iter
    (fun (u, out) ->
      let f = check_output check_rng u out in
      if f < min_fidelity then begin
        incr failed;
        incr mismatches;
        Printf.printf "  check %s: fidelity %.9f < %g\n" (label u) f min_fidelity
      end)
    outs;
  let q f = gmean (List.map (fun (u, o) -> f (quality u o)) outs) in
  Trace.write_chrome (Filename.concat a.out_dir (Printf.sprintf "compile-seed%d.trace.json" a.seed));
  {
    correct = !mismatches = 0 && check.ok;
    attempted = !attempted;
    failed = !failed;
    metrics =
      List.map (fun p -> ("compiler." ^ p ^ ".busy_s", Trace.busy ("compiler." ^ p))) passes
      @ List.map
          (fun p ->
            ( "compiler." ^ p ^ ".twoq_after",
              float_of_int (Option.value ~default:0 (Hashtbl.find_opt twoq_after p)) ))
          passes
      @ [
          ("compiler.template.classes", float_of_int !classes);
          ( "compiler.hierarchical.resynth_ratio",
            float_of_int resynth /. float_of_int (max 1 (resynth + fallback)) );
          ("compiler.twoq_gmean", q (fun (x, _, _) -> x));
          ("compiler.depth2q_gmean", q (fun (_, x, _) -> x));
          ("compiler.duration_gmean", q (fun (_, _, x) -> x));
          ("core.compile.busy_s", check.root_s);
          ("core.compile.overhead_s", check.root_s -. check.child_s);
          ("alloc_mb", !alloc);
          ("trace.overhead_pct", 100.0 *. ((check.root_s /. !facade_wall) -. 1.0));
          ("trace.spans", float_of_int check.spans);
          ("trace.child_coverage", check.child_s /. check.root_s);
        ]
      @ time_kernels (gate_inputs (List.map snd outs));
    notes =
      [
        ("facade wall (untraced)", Printf.sprintf "%.3f s" !facade_wall);
        ( "traced wall = passes + self",
          Printf.sprintf "%.3f = %.3f + %.3f s" check.root_s check.child_s (check.root_s -. check.child_s) );
        ("span partition", if check.ok then "ok" else "FAILED");
      ];
  }

let run (a : args) = if a.trace then run_traced a else run_untraced a
