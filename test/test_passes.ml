(* Differential oracle suite for the nanopass pipeline: every prefix of
   every default plan must stay statevector-equivalent to the source
   program on a small corpus (CCX network, QFT-4, random 2Q/3Q qcheck
   circuits, a Pauli program); plus pass reordering (compact on either
   side of hierarchical) and a deliberately-broken pass the oracle must
   catch. *)

open Numerics
open Compiler

let seed = 20260809L

(* corpus: small structured circuits (shapes shared with test_compiler) *)
let toffoli_chain =
  Circuit.create 4
    [
      Gate.h 0;
      Gate.ccx 0 1 2;
      Gate.cx 2 3;
      Gate.ccx 1 2 3;
      Gate.x 1;
      Gate.ccx 0 1 2;
    ]

let qft4 =
  let gates = ref [] in
  let n = 4 in
  for i = 0 to n - 1 do
    gates := Gate.h i :: !gates;
    for j = i + 1 to n - 1 do
      gates := Gate.cphase j i (Float.pi /. (2.0 ** float_of_int (j - i))) :: !gates
    done
  done;
  Circuit.create n (List.rev !gates)

let pauli_prog =
  {
    Phoenix.n = 3;
    terms =
      [
        { Phoenix.pauli = Quantum.Pauli.of_string "ZZI"; angle = 0.7 };
        { Phoenix.pauli = Quantum.Pauli.of_string "IZZ"; angle = 0.4 };
        { Phoenix.pauli = Quantum.Pauli.of_string "ZZI"; angle = -0.2 };
        { Phoenix.pauli = Quantum.Pauli.of_string "XIX"; angle = 0.9 };
      ];
  }

let random_circuit seed =
  let rng = Rng.create seed in
  let n = 3 + (Int64.to_int seed mod 2) in
  let gates =
    List.init 8 (fun _ ->
        let a = Rng.int rng n in
        let b = (a + 1 + Rng.int rng (n - 1)) mod n in
        match Rng.int rng 5 with
        | 0 -> Gate.h a
        | 1 -> Gate.t a
        | 2 -> Gate.cx a b
        | 3 -> Gate.rz a 0.37
        | _ ->
          let c = (b + 1 + Rng.int rng (n - 2)) mod n in
          let c = if c = a || c = b then (max a (max b c) + 1) mod n else c in
          if c = a || c = b then Gate.cx a b else Gate.ccx a b c)
  in
  Circuit.create n gates

let corpus =
  [
    ("toffoli_chain", Pass.Gates toffoli_chain);
    ("qft4", Pass.Gates qft4);
    ("pauli", Pass.Pauli pauli_prog);
  ]

let check_ok what = function
  | Ok (Pass.Checked | Pass.Skipped _) -> ()
  | Error msg -> Alcotest.failf "%s: oracle rejected: %s" what msg

(* run a plan pass by pass, checking the per-pass oracle against the
   source after every prefix — the differential harness of the issue *)
let run_prefix_oracle ~plan_name plan source =
  let ctx = Pass.make_ctx (Rng.create seed) in
  let reference = Pass.Source source in
  let final =
    List.fold_left
      (fun ir (p : Pass.t) ->
        let ir', (stat : Passes.pass_stat) = Passes.run_pass ctx ir p in
        if stat.Passes.ran then
          check_ok
            (Printf.sprintf "%s prefix ..%s" plan_name p.Pass.name)
            (Pass.check_equiv p.Pass.oracle ~reference ~candidate:ir');
        ir')
      reference plan.Passes.passes
  in
  match Passes.output_of_ir ctx final with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: no output: %s" plan_name (Robust.Err.to_string e)

let test_prefix_oracle () =
  List.iter
    (fun mode ->
      let plan = Passes.plan_of_mode mode in
      List.iter
        (fun (name, source) ->
          run_prefix_oracle
            ~plan_name:(Printf.sprintf "%s/%s" plan.Passes.plan_name name)
            plan source)
        corpus)
    [ Passes.Eff; Passes.Full; Passes.Nc ]

(* reordering: compact before or after hierarchical — both legal plans,
   both oracle-clean (the point of passes being first-class values) *)
let test_reordering () =
  List.iter
    (fun names ->
      match Passes.of_names ~name:"reorder" names with
      | Error e -> Alcotest.failf "of_names: %s" (Robust.Err.to_string e)
      | Ok plan ->
        run_prefix_oracle
          ~plan_name:(String.concat "," names)
          plan (Pass.Gates toffoli_chain))
    [
      [ "lower_3q"; "template"; "compact"; "hierarchical"; "mirroring" ];
      [ "lower_3q"; "template"; "hierarchical"; "compact"; "mirroring" ];
    ]

(* a deliberately broken pass (drops the last 2Q gate): the oracle must
   catch it — this is the negative control for the whole harness *)
let broken_pass =
  {
    Pass.name = "broken_drop";
    doc = "negative control: silently drops the last 2Q gate";
    applies = (function Pass.Su4 _ -> true | _ -> false);
    oracle = Pass.default_oracle;
    run =
      (fun _ctx -> function
        | Pass.Su4 c ->
          let rec drop_last = function
            | [] -> []
            | [ (g : Gate.t) ] -> if Gate.is_2q g then [] else [ g ]
            | g :: rest -> g :: drop_last rest
          in
          Pass.Su4 (Circuit.create c.Circuit.n (drop_last c.Circuit.gates))
        | ir -> ir);
  }

let test_broken_pass_caught () =
  let plan =
    { Passes.plan_name = "broken"; passes = [ Passes.lower_3q; Passes.template; broken_pass ] }
  in
  let ctx = Pass.make_ctx (Rng.create seed) in
  match Passes.run_plan ctx plan (Pass.Source (Pass.Gates qft4)) with
  | Error e -> Alcotest.failf "run_plan: %s" (Robust.Err.to_string e)
  | Ok (ir, _) -> (
    match
      Pass.check_equiv broken_pass.Pass.oracle
        ~reference:(Pass.Source (Pass.Gates qft4)) ~candidate:ir
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "oracle accepted a gate-dropping pass")

(* slicing: stop_after leaves the named pass's IR form; unknown names in
   any position are typed errors naming the registry *)
let test_slicing () =
  let ctx = Pass.make_ctx (Rng.create seed) in
  let plan = Passes.plan_of_mode Passes.Eff in
  (match
     Passes.run_plan ~stop_after:"template" ctx plan
       (Pass.Source (Pass.Gates toffoli_chain))
   with
  | Ok (Pass.Su4 c, stats) ->
    Alcotest.(check bool)
      "su4+1q only" true
      (List.for_all (fun (g : Gate.t) -> Gate.arity g <= 2) c.Circuit.gates);
    Alcotest.(check int) "two executed stats" 2
      (List.length (List.filter (fun (s : Passes.pass_stat) -> s.Passes.ran) stats))
  | Ok (ir, _) -> Alcotest.failf "expected su4 IR, got %s" (Pass.ir_form ir)
  | Error e -> Alcotest.failf "run_plan: %s" (Robust.Err.to_string e));
  (match Passes.run_plan ~start_from:"nope" ctx plan (Pass.Source (Pass.Gates qft4)) with
  | Error e ->
    let msg = Robust.Err.to_string e in
    let contains sub =
      let ls = String.length msg and lb = String.length sub in
      let rec go i = i + lb <= ls && (String.sub msg i lb = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "start_from error names the registry" true
      (List.for_all contains Passes.known_names)
  | Ok _ -> Alcotest.fail "start_from accepted an unknown pass");
  match Passes.of_names [ "lower_3q"; "wat" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_names accepted an unknown pass"

(* a mode resolves to exactly its default plan: same RNG stream, same
   circuit, same mapping *)
let test_plan_matches_pipeline () =
  List.iter
    (fun mode ->
      let run ?mode ?plan () =
        match Passes.compile_plan ?mode ?plan (Rng.create 7L) (Pass.Gates toffoli_chain) with
        | Ok (out, _) -> out
        | Error e -> Alcotest.fail (Robust.Err.to_string e)
      in
      let out_plan = run ~plan:(Passes.plan_of_mode mode) () in
      let out_mode = run ~mode () in
      Alcotest.(check int)
        "same 2q count"
        (Circuit.count_2q out_mode.Passes.circuit)
        (Circuit.count_2q out_plan.Passes.circuit);
      Alcotest.(check (array int))
        "same mapping" out_mode.Passes.final_mapping out_plan.Passes.final_mapping)
    [ Passes.Eff; Passes.Full ]

(* the one plan resolver behind compile_plan: passes + isa appends the
   lowering tail to the custom plan, a bare isa retargets the mode's
   default plan, and naming errors keep their stages *)
let test_resolver () =
  let custom =
    match Passes.of_names [ "lower_3q"; "template" ] with
    | Ok p -> p
    | Error e -> Alcotest.failf "of_names: %s" (Robust.Err.to_string e)
  in
  let cnot = match Isa.find "cnot" with Some t -> t | None -> assert false in
  let run ?mode ?plan ?isa () =
    match Passes.compile_plan ?mode ?plan ?isa (Rng.create seed) (Pass.Gates toffoli_chain) with
    | Ok r -> r
    | Error e -> Alcotest.failf "compile_plan: %s" (Robust.Err.to_string e)
  in
  let pass_names (p : Passes.plan) = List.map (fun (ps : Pass.t) -> ps.Pass.name) p.passes in
  let ran stats = List.map (fun (s : Passes.pass_stat) -> s.Passes.pass) stats in
  let same what (plan : Passes.plan) (out, stats) =
    let out', _ = run ~plan () in
    Alcotest.(check (list string)) (what ^ ": plan") (pass_names plan) (ran stats);
    Alcotest.(check string)
      (what ^ ": circuit")
      (Circuit.to_string out'.Passes.circuit)
      (Circuit.to_string out.Passes.circuit)
  in
  same "passes + isa" (Passes.with_isa custom cnot) (run ~plan:custom ~isa:"cnot" ());
  same "mode + isa" (Passes.plan_for_isa ~mode:Passes.Eff cnot) (run ~mode:Passes.Eff ~isa:"cnot" ());
  let stage_of what = function
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e -> Robust.Err.stage e
  in
  let compile ?plan ?isa ?start_from () =
    Passes.compile_plan ?plan ?isa ?start_from (Rng.create seed) (Pass.Gates toffoli_chain)
  in
  Alcotest.(check string) "unknown pass" "compiler.plan"
    (stage_of "an unknown pass" (Passes.of_names [ "lower_3q"; "wat" ]));
  Alcotest.(check string) "pass outside the plan" "compiler.plan"
    (stage_of "a foreign start_from" (compile ~plan:custom ~start_from:"mirroring" ()));
  Alcotest.(check string) "unknown isa" "compiler.isa"
    (stage_of "an unknown isa" (compile ~isa:"bogus" ()));
  Alcotest.(check string) "unknown isa on a custom plan" "compiler.isa"
    (stage_of "an unknown isa" (compile ~plan:custom ~isa:"bogus" ()))

(* the mode wire names round-trip and name the plans; anything else is an
   error listing all three *)
let test_mode_names () =
  List.iter
    (fun m ->
      let name = Passes.mode_name m in
      Alcotest.(check bool) (name ^ " round-trips") true (Passes.mode_of_name name = Ok m);
      Alcotest.(check string) (name ^ " names its plan") name (Passes.plan_of_mode m).plan_name)
    Passes.modes;
  Alcotest.(check (list string)) "wire names" [ "eff"; "full"; "nc" ]
    (List.map Passes.mode_name Passes.modes);
  match Passes.mode_of_name "Eff" with
  | Ok _ -> Alcotest.fail "mode names are case-sensitive"
  | Error msg ->
    Alcotest.(check string) "error lists the names" "unknown mode \"Eff\" (expected eff|full|nc)" msg

let props =
  let arb_seed = QCheck.make QCheck.Gen.(map Int64.of_int (int_bound 1000000)) in
  [
    QCheck.Test.make ~count:8 ~name:"eff plan prefixes preserve random circuits"
      arb_seed (fun s ->
        run_prefix_oracle ~plan_name:"eff/random"
          (Passes.plan_of_mode Passes.Eff)
          (Pass.Gates (random_circuit s));
        true);
  ]

let () =
  Alcotest.run "passes"
    [
      ( "oracle",
        [
          Alcotest.test_case "prefixes of all default plans" `Slow test_prefix_oracle;
          Alcotest.test_case "broken pass is caught" `Quick test_broken_pass_caught;
        ] );
      ( "ordering",
        [ Alcotest.test_case "compact before or after hierarchical" `Slow test_reordering ] );
      ( "plans",
        [
          Alcotest.test_case "slicing and strict names" `Quick test_slicing;
          Alcotest.test_case "default plans match pipeline" `Slow
            test_plan_matches_pipeline;
          Alcotest.test_case "resolver retargets and types errors" `Slow test_resolver;
          Alcotest.test_case "mode wire names" `Quick test_mode_names;
        ] );
      ("props", List.map (QCheck_alcotest.to_alcotest ~long:false) props);
    ]
