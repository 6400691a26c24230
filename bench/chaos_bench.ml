(* `chaos` bench target: availability under injected failure.

   The serve stack claims that every failure mode — dropped and
   corrupted response frames, reset connections, crashing workers,
   saturated queues, a cache writer killed mid-append — surfaces to the
   client as a typed error or a clean reconnect, never a hang and never
   a wrong answer. This target arms those fault sites (seeded, so a
   failing run replays exactly) and measures whether the claim holds:

   - reference pass: faults disarmed; every request must resolve ok
     (deadline probes resolve [deadline_exceeded] — deadlines are a
     feature, not a fault);
   - chaos pass: frame_drop/frame_corrupt/conn_reset/worker_crash armed;
     clients run bounded receives and reconnect on connection loss; the
     gate is availability = 100% — every request resolves to a typed
     outcome within its retry budget, no client wedges — and >= 3 worker
     crashes survived (supervisor restarts, counted in Robust.Counters);
   - overload burst: a 48-request cold-solve burst against one worker
     and a depth-2 admission queue; the gate is that load shedding fired
     (typed [overloaded] at parse time) and every request got a response;
   - breaker: against a server with one connection slot (held by a
     plug), consecutive overload refusals must trip the client circuit
     breaker so the next call fails fast with [circuit_open], never
     touching the network;
   - store recovery: a cache writer killed mid-append (store_short_write)
     leaves a torn tail; reopening must drop it and replay every record
     written before the kill bit-identically.

   Writes BENCH_chaos.json at the repo root with one gate per claim. *)

open Util

module J = Serve.Json
module T = Serve.Transport
module C = Serve.Client

let default_seed = 0xC4405

let chaos_spec = "frame_drop:6:0.5,frame_corrupt:6:0.5,conn_reset:8,worker_crash:3"

let gate_names = [| "cnot"; "cz"; "iswap"; "swap" |]

(* client workload: warm-cache pulse synthesis alternating with stats;
   every 8th request is a deadline probe — [deadline_ms = 0] is expired
   on arrival, so it must come back [deadline_exceeded] without running
   the solver, faults or no faults *)
let request_body ~j =
  let gate = J.Str gate_names.(j / 2 mod Array.length gate_names) in
  if j mod 8 = 7 then
    J.Obj [ ("op", J.Str "pulses"); ("gate", gate); ("deadline_ms", J.Num 0.0) ]
  else if j mod 2 = 0 then J.Obj [ ("op", J.Str "pulses"); ("gate", gate) ]
  else J.Obj [ ("op", J.Str "stats") ]

(* ------------------------------------------------------------- harness *)

let with_net_server ~config f =
  let path = Filename.temp_file "reqisc_chaos" ".sock" in
  Sys.remove path;
  let _summary, out =
    Util.with_net_server ~tag:"chaos bench" ~config
      (* always disarm before the drain so an armed frame_drop cannot
         eat the shutdown response *)
      ~before_shutdown:(fun () -> Robust.Fault.configure None)
      ~shutdown_retries:5 (T.Unix_path path) f
  in
  out

(* --------------------------------------------------------- client loop *)

type tally = {
  mutable ok : int;
  mutable deadline : int;
  mutable server_err : (string * int) list;  (* kind -> count *)
  mutable bad_response : int;  (* corrupted frames surfaced as typed errors *)
  mutable conn_events : int;  (* typed connection-level failures absorbed *)
  mutable timeouts : int;  (* bounded receives that expired (dropped frames) *)
  mutable reconnects : int;
  mutable unresolved : int;  (* requests that exhausted their retry budget *)
}

let fresh_tally () =
  {
    ok = 0;
    deadline = 0;
    server_err = [];
    bad_response = 0;
    conn_events = 0;
    timeouts = 0;
    reconnects = 0;
    unresolved = 0;
  }

let bump t kind =
  let n = match List.assoc_opt kind t.server_err with Some n -> n | None -> 0 in
  t.server_err <- (kind, n + 1) :: List.remove_assoc kind t.server_err

(* one client: sequential request/response with a bounded receive; any
   connection-level error (reset, drop-induced timeout, refusal) closes
   the connection, reconnects, and retries the same request — pulse
   synthesis is idempotent — up to a fixed budget. Every outcome is
   classified; a request that exhausts the budget is [unresolved] and
   fails the availability gate. *)
let client_loop ~addr ~requests t =
  let conn = ref None in
  let drop_conn () =
    (match !conn with Some c -> C.close c | None -> ());
    conn := None
  in
  let get_conn () =
    match !conn with
    | Some c -> Some c
    | None -> (
      match C.connect ~retries:4 ~backoff:0.02 ~recv_timeout:1.0 addr with
      | Ok c ->
        conn := Some c;
        Some c
      | Error _ -> None)
  in
  for j = 0 to requests - 1 do
    let body = request_body ~j in
    let rec attempt k =
      if k = 0 then t.unresolved <- t.unresolved + 1
      else
        match get_conn () with
        | None ->
          t.reconnects <- t.reconnects + 1;
          t.unresolved <- t.unresolved + 1
        | Some c -> (
          match C.request c body with
          | Ok _ -> t.ok <- t.ok + 1
          | Error (C.Server_error { kind = "deadline_exceeded"; _ }) ->
            t.deadline <- t.deadline + 1
          | Error (C.Server_error { kind; _ }) -> bump t kind
          | Error (C.Bad_response _) -> t.bad_response <- t.bad_response + 1
          | Error e ->
            (match e with
            | C.Io_error msg
              when String.length msg >= 9
                   && String.sub msg (String.length msg - 9) 9 = "timed out" ->
              t.timeouts <- t.timeouts + 1
            | _ -> ());
            t.conn_events <- t.conn_events + 1;
            drop_conn ();
            t.reconnects <- t.reconnects + 1;
            attempt (k - 1))
    in
    attempt 6
  done;
  drop_conn ()

let merge tallies =
  let m = fresh_tally () in
  Array.iter
    (fun t ->
      m.ok <- m.ok + t.ok;
      m.deadline <- m.deadline + t.deadline;
      List.iter (fun (k, n) -> for _ = 1 to n do bump m k done) t.server_err;
      m.bad_response <- m.bad_response + t.bad_response;
      m.conn_events <- m.conn_events + t.conn_events;
      m.timeouts <- m.timeouts + t.timeouts;
      m.reconnects <- m.reconnects + t.reconnects;
      m.unresolved <- m.unresolved + t.unresolved)
    tallies;
  m

let run_clients ~addr ~clients ~requests =
  let tallies = Array.init clients (fun _ -> fresh_tally ()) in
  let threads =
    List.init clients (fun ci ->
        Thread.create (fun () -> client_loop ~addr ~requests tallies.(ci)) ())
  in
  List.iter Thread.join threads;
  merge tallies

let availability ~total (t : tally) =
  if total = 0 then 1.0 else float_of_int (total - t.unresolved) /. float_of_int total

(* ------------------------------------------------------ overload burst *)

(* one pipelined burst of distinct cold solves against a single worker
   and a depth-2 admission queue: everything past the queue must be shed
   with a typed [overloaded] at parse time, and every request — shed or
   solved — must still be answered *)
let overload_burst ~burst =
  let config =
    {
      T.engine = { T.default_engine_config with T.workers = 1 };
      T.max_connections = 8;
      T.idle_timeout = 60.0;
      T.max_line_bytes = Serve.Protocol.max_line_bytes;
      T.max_queue_depth = 2;
    }
  in
  let shed_before = Robust.Counters.get ~stage:"serve.net" "shed" in
  let ok = ref 0 and shed = ref 0 and other = ref 0 in
  with_net_server ~config (fun addr ->
      let c =
        match C.connect ~recv_timeout:30.0 addr with
        | Ok c -> c
        | Error e -> failwith ("chaos bench: overload connect: " ^ C.error_to_string e)
      in
      for i = 0 to burst - 1 do
        let line =
          (* distinct cold points inside the Weyl chamber (x >= y >= z) *)
          Printf.sprintf "{\"v\":1,\"id\":%d,\"op\":\"pulses\",\"coords\":[0.45,0.3,%.17g]}"
            i
            (0.001 +. (0.28 *. float_of_int i /. float_of_int burst))
        in
        match C.send_line ~flush:false c line with
        | Ok () -> ()
        | Error e -> failwith ("chaos bench: overload send: " ^ C.error_to_string e)
      done;
      (match C.flush c with
      | Ok () -> ()
      | Error e -> failwith ("chaos bench: overload flush: " ^ C.error_to_string e));
      for _ = 1 to burst do
        match C.recv c with
        | Ok json -> (
          match J.mem_bool "ok" json with
          | Some true -> incr ok
          | _ -> (
            match J.member "error" json with
            | Some err when J.mem_str "kind" err = Some "overloaded" -> incr shed
            | _ -> incr other))
        | Error e ->
          failwith ("chaos bench: overload recv: " ^ C.error_to_string e)
      done;
      C.close c);
  let shed_counter = Robust.Counters.get ~stage:"serve.net" "shed" - shed_before in
  (!ok, !shed, !other, shed_counter)

(* ------------------------------------------------------------- breaker *)

(* a plug client holds the server's only connection slot; each rpc
   attempt is refused [overloaded], and after [threshold] consecutive
   refusals the breaker must open so the next call fails fast with
   [circuit_open] without touching the network *)
let breaker_fail_fast () =
  let config =
    {
      T.engine = T.default_engine_config;
      T.max_connections = 1;
      T.idle_timeout = 60.0;
      T.max_line_bytes = Serve.Protocol.max_line_bytes;
      T.max_queue_depth = T.default_config.T.max_queue_depth;
    }
  in
  let breaker = C.Breaker.create ~threshold:2 ~cooldown:60.0 () in
  let kinds = ref [] in
  with_net_server ~config (fun addr ->
      let plug =
        match C.connect addr with
        | Ok c -> c
        | Error e -> failwith ("chaos bench: breaker plug: " ^ C.error_to_string e)
      in
      for _ = 1 to 3 do
        match
          C.rpc ~retries:0 ~breaker addr (J.Obj [ ("op", J.Str "stats") ])
        with
        | Ok _ -> kinds := "ok" :: !kinds
        | Error e -> kinds := C.error_kind e :: !kinds
      done;
      C.close plug;
      (* give the event loop a beat to retire the plug so the drain's
         shutdown connection gets the freed slot *)
      Thread.delay 0.05);
  (List.rev !kinds, C.Breaker.trips breaker, C.Breaker.state breaker)

(* ------------------------------------------------------ store recovery *)

(* write records with a clean close, record the warm replay, then kill a
   fresh writer mid-append (store_short_write wedges it, simulating the
   process dying with half a frame on disk) and reopen: the torn tail
   must be dropped and every record from before the kill must replay
   bit-identically *)
let store_recovery ~seed =
  let path = Filename.temp_file "reqisc_chaos" ".rqcache" in
  let n = 16 in
  let key i = Printf.sprintf "chaos-key-%02d" i in
  let value i = Printf.sprintf "payload-%02d:%s" i (String.make (32 + i) 'v') in
  let open_cache () =
    match Cache.create ~capacity:64 ~sync:Cache.Store.Always ~path () with
    | Ok c -> c
    | Error e -> failwith ("chaos bench: store: " ^ e)
  in
  let c1 = open_cache () in
  for i = 0 to n - 1 do
    Cache.add c1 (key i) (value i)
  done;
  Cache.close c1;
  let replay () =
    let c = open_cache () in
    let stats = Cache.stats c in
    let vals = List.init n (fun i -> Cache.find c (key i)) in
    let extra = Cache.find c "chaos-key-after-kill" in
    Cache.close c;
    (stats, vals, extra)
  in
  let _, before, _ = replay () in
  Robust.Fault.configure ~seed (Some "store_short_write:1");
  let c3 = open_cache () in
  Cache.add c3 "chaos-key-after-kill" (String.make 256 'x');
  (* no clean close path for a dead process: the wedged writer's close
     skips the fsync, leaving the half-written frame as the file tail *)
  Cache.close c3;
  Robust.Fault.configure None;
  let stats, after, extra = replay () in
  Sys.remove path;
  let survivors = List.length (List.filter Option.is_some after) in
  let identical = before = after && List.for_all Option.is_some after in
  (stats, survivors, n, identical, extra = None)

(* ----------------------------------------------------------------- main *)

let err_json (t : tally) =
  String.concat ", "
    (List.map
       (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n)
       (List.sort compare t.server_err))

let pass_json name ~total (t : tally) =
  Printf.sprintf
    "  \"%s\": {\"total\": %d, \"ok\": %d, \"deadline_exceeded\": %d, \"server_errors\": {%s}, \"bad_response\": %d, \"conn_events\": %d, \"timeouts\": %d, \"reconnects\": %d, \"unresolved\": %d, \"availability\": %.4f},\n"
    name total t.ok t.deadline (err_json t) t.bad_response t.conn_events
    t.timeouts t.reconnects t.unresolved (availability ~total t)

let print_pass name ~total (t : tally) =
  Printf.printf
    "  %-9s %d/%d resolved (ok %d, deadline %d, server-err %d, conn events %d, timeouts %d)  availability %.1f%%\n"
    name (total - t.unresolved) total t.ok t.deadline
    (List.fold_left (fun a (_, n) -> a + n) 0 t.server_err)
    t.conn_events t.timeouts
    (100.0 *. availability ~total t)

let chaos ?(clients = 4) ?requests ?seed () =
  let requests = match requests with Some r -> r | None -> 32 in
  let seed = match seed with Some s -> s | None -> default_seed in
  hr "chaos: availability under injected transport/worker/store faults";
  Printf.printf "  workload: %d clients x %d requests, fault seed %d\n" clients
    requests seed;
  let total = clients * requests in
  let cache_path = Filename.temp_file "reqisc_chaos" ".rqcache" in
  let server_config =
    { T.default_engine_config with T.workers = 2; T.cache_path = Some cache_path }
  in
  let config = { T.default_config with T.engine = server_config } in
  (* reference pass: no faults; also warms the shared pulse cache so the
     chaos pass replays hits and fault handling is the variable *)
  Robust.Fault.configure None;
  let reference = with_net_server ~config (fun addr -> run_clients ~addr ~clients ~requests) in
  print_pass "reference" ~total reference;
  (* chaos pass: same workload, faults armed with a seeded schedule *)
  let restarts_before = Robust.Counters.get ~stage:"serve" "worker_restart" in
  let chaos_tally, fault_hits =
    with_net_server ~config (fun addr ->
        Robust.Fault.configure ~seed (Some chaos_spec);
        let t = run_clients ~addr ~clients ~requests in
        let hits = Robust.Fault.hits () in
        Robust.Fault.configure None;
        (t, hits))
  in
  let worker_restarts =
    Robust.Counters.get ~stage:"serve" "worker_restart" - restarts_before
  in
  print_pass "chaos" ~total chaos_tally;
  Printf.printf "  fault hits: %s   worker restarts: %d\n"
    (String.concat ", "
       (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) fault_hits))
    worker_restarts;
  Sys.remove cache_path;
  (* overload burst *)
  let burst = 48 in
  let ov_ok, ov_shed, ov_other, shed_counter = overload_burst ~burst in
  Printf.printf "  overload: %d-burst vs depth-2 queue -> %d solved, %d shed, %d other\n"
    burst ov_ok ov_shed ov_other;
  (* breaker fail-fast *)
  let bk_kinds, bk_trips, bk_state = breaker_fail_fast () in
  Printf.printf "  breaker:  attempts [%s], trips %d, state %s\n"
    (String.concat "; " bk_kinds) bk_trips bk_state;
  (* store recovery *)
  let st_stats, survivors, st_n, replay_identical, killed_record_absent =
    store_recovery ~seed
  in
  Printf.printf
    "  store:    mid-write kill -> torn %dB dropped, %d/%d records replayed %s\n"
    st_stats.Cache.torn_bytes survivors st_n
    (if replay_identical then "bit-identical" else "MISMATCH");
  (* gates *)
  let reference_clean =
    reference.unresolved = 0 && reference.server_err = [] && reference.bad_response = 0
    && reference.ok + reference.deadline = total
  in
  let chaos_available = availability ~total chaos_tally = 1.0 in
  let restarts_ge_3 = worker_restarts >= 3 in
  let deadlines_enforced = reference.deadline > 0 && chaos_tally.deadline > 0 in
  let shed_fired = ov_shed > 0 && ov_ok + ov_shed + ov_other = burst && shed_counter >= ov_shed in
  let breaker_ok = bk_trips >= 1 && List.exists (( = ) "circuit_open") bk_kinds in
  let store_ok = replay_identical && st_stats.Cache.torn_bytes > 0 && killed_record_absent in
  let all_pass =
    reference_clean && chaos_available && restarts_ge_3 && deadlines_enforced
    && shed_fired && breaker_ok && store_ok
  in
  gate "reference_clean" reference_clean;
  gate "chaos_available" chaos_available;
  gate "worker_restarts_ge_3" restarts_ge_3;
  gate "deadlines_enforced" deadlines_enforced;
  gate "shed_fired" shed_fired;
  gate "breaker_fail_fast" breaker_ok;
  gate "store_replay_identical" store_ok;
  (* json *)
  Util.write_json_report ~tag:"chaos" "BENCH_chaos.json" (fun buf ->
      let bpf fmt = Util.bprintf buf fmt in
      bpf
        "  \"workload\": {\"clients\": %d, \"requests_per_client\": %d, \"total\": %d, \"transport\": \"unix\"},\n"
        clients requests total;
      bpf "  \"seed\": %d,\n" seed;
      bpf "  \"fault_spec\": \"%s\",\n" chaos_spec;
      bpf "%s" (pass_json "reference" ~total reference);
      bpf "%s" (pass_json "chaos" ~total chaos_tally);
      bpf "  \"fault_hits\": {%s},\n"
        (String.concat ", "
           (List.map (fun (s, n) -> Printf.sprintf "\"%s\": %d" s n) fault_hits));
      bpf "  \"worker_restarts\": %d,\n" worker_restarts;
      bpf
        "  \"overload\": {\"burst\": %d, \"queue_depth\": 2, \"solved\": %d, \"shed\": %d, \"other\": %d, \"shed_counter\": %d},\n"
        burst ov_ok ov_shed ov_other shed_counter;
      bpf "  \"breaker\": {\"attempts\": [%s], \"trips\": %d, \"state\": \"%s\"},\n"
        (String.concat ", " (List.map (Printf.sprintf "\"%s\"") bk_kinds))
        bk_trips bk_state;
      bpf
        "  \"store_recovery\": {\"records\": %d, \"survivors\": %d, \"torn_bytes\": %d, \"corrupt_records\": %d, \"replay_identical\": %b, \"killed_record_absent\": %b},\n"
        st_n survivors st_stats.Cache.torn_bytes st_stats.Cache.corrupt_records
        replay_identical killed_record_absent;
      bpf
        "  \"gates\": {\"reference_clean\": %b, \"chaos_available\": %b, \"worker_restarts_ge_3\": %b, \"deadlines_enforced\": %b, \"shed_fired\": %b, \"breaker_fail_fast\": %b, \"store_replay_identical\": %b},\n"
        reference_clean chaos_available restarts_ge_3 deadlines_enforced shed_fired
        breaker_ok store_ok;
      bpf "  \"pass\": %b\n" all_pass);
  Printf.printf "  [chaos] %s\n%!"
    (if all_pass then "all gates PASS" else "GATE FAILURES")
