(* Workload `serve`: the compilation server as its own process
   (`reqisc_cli serve --listen unix:... --workers 2`) on a fresh on-disk
   cache, driven closed-loop by this process over 2 connections, each
   keeping a fixed window of requests in flight.

   The request stream is seeded and built from blocks of 10: one compile
   from a small hot set (some bodies carry "isa"), then, shuffled per
   connection, 4 pulses on a hot set of named gates and coordinates (cache
   reads after the first), 4 pulses on fresh Haar-random coordinates
   (solver runs plus cache appends) and one stats.

   Untraced: the loop runs for --seconds, with the server paused for a
   calibration sample every 100 ms (see [calibrate]). Traced: a fixed
   number of blocks with client spans around every request, then the
   server's own stats, a transport probe and the in-process engine on the
   same bodies. *)

open Common
module Json = Serve.Json

(* The mix is synthetic: no recorded traffic exists for this server, so
   each ratio is chosen for what it makes the workload measure (README.md
   gives the measured share of server time per kind):
   - one compile opens every block of 10 per connection: with two
     connections a compile is executing most of the time, so pulses
     regularly wait behind one (the head-of-line effect), while compiles
     stay a tenth of the responses;
   - 4 hot and 4 fresh pulses: cache reads and solver runs with cache
     appends weigh the same, so a change on either side moves latency;
   - a window of 2 per connection: 4 requests in flight for 2 workers
     keep the engine queue non-empty, and a pulses request queues behind
     at most one request of its own connection. A window of 4 made the
     median latency queue-bound and twice as noisy from run to run. *)
let window = 2
let connections = 2
let hot_per_block = 4
let fresh_per_block = 4

(* ------------------------------------------------------------- requests *)

(* (bench, mode, isa): compiles of similar cost (about 0.07-0.3 s each),
   so that the wait behind one varies little with which one it is; all go
   through template. Connection c takes the bodies at indices c, c + 2;
   the order below gives both connections about the same compile cost per
   cycle. *)
let hot_compiles =
  [| ("qft_8", "eff", None); ("mult_3", "eff", Some "cnot"); ("tof_10", "eff", None); ("qft_8", "full", Some "iswap") |]

type pulses_target = Named of string | Coords of Weyl.Coords.t

let named_gates = [ "cnot"; "cz"; "iswap"; "sqisw"; "b"; "swap" ]

type kind = Compile of int | Hot_pulses of int | Fresh_pulses of int | Stats

type inputs = {
  hot_pulses : (pulses_target * string) array;  (** target, coupling *)
  fresh : (Weyl.Coords.t * string) array;
  streams : kind array array;  (** one request stream per connection *)
}

let haar_coords rng = Weyl.Kak.coords_of (Quantum.Haar.su4 rng)

let make_inputs seed ~blocks =
  let rng = rng_of seed 40 in
  let hot_pulses =
    Array.of_list
      (List.map (fun g -> (Named g, "xy")) named_gates
      @ List.init 4 (fun i -> (Coords (haar_coords rng), if i mod 2 = 0 then "xy" else "xx")))
  in
  let fresh_n = ref 0 in
  let streams =
    Array.init connections (fun c ->
        let rng = rng_of seed (41 + c) in
        let compiles = ref [] in
        let next_compile () =
          (* cycle through this connection's share of the hot set in a
             fresh seeded order; the shares are disjoint, so whether two
             compiles coalesce never depends on timing *)
          (match !compiles with
          | [] ->
            let order =
              Array.of_list
                (List.filter (fun k -> k mod connections = c) (List.init (Array.length hot_compiles) Fun.id))
            in
            Numerics.Rng.shuffle rng order;
            compiles := Array.to_list order
          | _ -> ());
          match !compiles with
          | k :: rest ->
            compiles := rest;
            Compile k
          | [] -> assert false
        in
        (* the compile opens each block, so a window never holds two
           compiles of one connection; the rest of the block is shuffled *)
        Array.concat
          (List.init blocks (fun _ ->
               let rest =
                 Array.of_list
                   (List.init hot_per_block (fun _ -> Hot_pulses (Numerics.Rng.int rng (Array.length hot_pulses)))
                   @ List.init fresh_per_block (fun _ ->
                         incr fresh_n;
                         Fresh_pulses (!fresh_n - 1))
                   @ [ Stats ])
               in
               Numerics.Rng.shuffle rng rest;
               Array.append [| next_compile () |] rest)))
  in
  let frng = rng_of seed 50 in
  let fresh = Array.init !fresh_n (fun i -> (haar_coords frng, if i mod 2 = 0 then "xy" else "xx")) in
  { hot_pulses; fresh; streams }

let coords_json (c : Weyl.Coords.t) = Json.Arr [ Json.Num c.x; Json.Num c.y; Json.Num c.z ]

let body inputs = function
  | Compile k ->
    let bench, mode, isa = hot_compiles.(k) in
    Json.Obj
      ([ ("op", Json.Str "compile"); ("bench", Json.Str bench); ("mode", Json.Str mode) ]
      @ match isa with Some i -> [ ("isa", Json.Str i) ] | None -> [])
  | Hot_pulses k -> (
    match inputs.hot_pulses.(k) with
    | Named g, cp -> Json.Obj [ ("op", Json.Str "pulses"); ("gate", Json.Str g); ("coupling", Json.Str cp) ]
    | Coords c, cp -> Json.Obj [ ("op", Json.Str "pulses"); ("coords", coords_json c); ("coupling", Json.Str cp) ])
  | Fresh_pulses k ->
    let c, cp = inputs.fresh.(k) in
    Json.Obj [ ("op", Json.Str "pulses"); ("coords", coords_json c); ("coupling", Json.Str cp) ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]

(* --------------------------------------------------------------- server *)

type server = { pid : int; clients : Serve.Client.t array; files : string list }

let fail fmt = Printf.ksprintf failwith fmt

(* servers still running; killed and reaped if the run dies early *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_server (a : args) k =
  let base = Filename.concat a.out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let sock = base ^ ".sock" and cache = base ^ ".rqcache" and log = base ^ ".log" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ sock; cache; log ];
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process a.cli
      [| a.cli; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "2"; "--cache"; cache |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  live := pid :: !live;
  let ready () =
    let ic = open_in log in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> false
      | l ->
        let n = String.length "listening on" in
        let rec has i = i + n <= String.length l && (String.sub l i n = "listening on" || has (i + 1)) in
        has 0 || scan ()
    in
    let r = scan () in
    close_in ic;
    r
  in
  let deadline = now () +. 60.0 in
  while not (ready ()) do
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live := List.filter (( <> ) pid) !live;
      fail "serve exited before listening (see %s)" log);
    if now () > deadline then fail "serve did not start listening within 60 s";
    Unix.sleepf 0.0005
  done;
  let addr = Serve.Transport.Unix_path sock in
  let clients =
    Array.init connections (fun _ ->
        match Serve.Client.connect ~retries:20 ~backoff:0.01 ~recv_timeout:60.0 addr with
        | Ok c -> c
        | Error e -> fail "connect: %s" (Serve.Client.error_to_string e))
  in
  { pid; clients; files = [ sock; cache; log ] }

let stop_server s =
  (match Serve.Client.request s.clients.(0) (Json.Obj [ ("op", Json.Str "shutdown") ]) with
  | Ok _ | Error _ -> ());
  Array.iter Serve.Client.close s.clients;
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  live := List.filter (( <> ) s.pid) !live;
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) s.files

(* set-up (start, listen, connect) is timed [setup_reps] times and
   normalised like every other time; the last server is the one the run
   uses *)
let setup_timed a =
  let rec go k acc =
    let s, _, norm = Calib.measure (fun () -> start_server a k) in
    if k = setup_reps then (s, median (norm :: acc))
    else begin
      stop_server s;
      go (k + 1) (norm :: acc)
    end
  in
  go 1 []

(* Calibration samples for the served load (see Common.Calib). A sample
   taken beside the running server would time our own load, so every
   100 ms the server is stopped with SIGSTOP, a sample is taken on the
   quiet machine and the server is continued. The server's two workers
   run on both cores, so each sample is the mean of two taken at once:
   one here and one in a forked helper process. [paused] accumulates the
   time the server spent stopped; [clock] is a clock that stands still
   meanwhile, and every latency and the elapsed time are read on it. *)
let paused = Atomic.make 0.0
let clock () = now () -. Atomic.get paused

(* The helper takes a sample for every byte it reads and writes it back
   as a line; it exits when its request pipe closes. Forked before any
   thread exists. *)
type helper = { hpid : int; req : Unix.file_descr; res : in_channel }

let spawn_helper () =
  let req_r, req_w = Unix.pipe ~cloexec:true () and res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close res_r;
    let buf = Bytes.create 1 in
    (try
       while Unix.read req_r buf 0 1 = 1 do
         let line = Printf.sprintf "%.9f\n" (Calib.sample ()) in
         ignore (Unix.write_substring res_w line 0 (String.length line))
       done
     with Unix.Unix_error _ -> ());
    (* _exit: the parent's at_exit handlers must not run here *)
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close res_w;
    live := pid :: !live;
    { hpid = pid; req = req_w; res = Unix.in_channel_of_descr res_r }

let stop_helper h =
  Unix.close h.req;
  close_in h.res;
  ignore (Unix.waitpid [] h.hpid);
  live := List.filter (( <> ) h.hpid) !live

(* one sample on each core *)
let sample_both h =
  ignore (Unix.write_substring h.req "s" 0 1);
  let mine = Calib.sample () in
  let theirs = float_of_string (input_line h.res) in
  0.5 *. (mine +. theirs)

let calibrate h pid ~finished =
  let c = Calib.clock 0.1 in
  c.samples <- [ sample_both h ];
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get finished) do
          Thread.delay c.every;
          let t0 = now () in
          Unix.kill pid Sys.sigstop;
          let sample = Fun.protect ~finally:(fun () -> Unix.kill pid Sys.sigcont) (fun () -> sample_both h) in
          Atomic.set paused (Atomic.get paused +. (now () -. t0));
          c.samples <- sample :: c.samples
        done)
      ()
  in
  (c, th)

(* ----------------------------------------------------------------- load *)

(* [sent] and [latency] are read on [clock] *)
type record = { kind : kind; sent : float; latency : float; resp : Json.t; seq : int }

let id_key id = Json.to_string id

(* one connection's closed loop: keep [window] requests in flight until
   [stop ()] or the stream ends, then drain. Traced, every request gets a
   root span with two children: the send, and the receive that returned
   its response. *)
let drive ?(traced = false) inputs client stream ~conn ~stop =
  let inflight = Hashtbl.create 16 in
  let out = ref [] and next = ref 0 and error = ref None in
  let send () =
    if !next < Array.length stream && not (stop ()) then begin
      let kind = stream.(!next) in
      let seq = (conn * 1_000_000) + !next in
      incr next;
      let sent = clock () and t0 = Obs.Clock.now_ns () in
      match Serve.Client.send client (body inputs kind) with
      | Ok id -> Hashtbl.replace inflight (id_key id) (kind, sent, seq, t0, Obs.Clock.now_ns ())
      | Error e -> error := Some (Serve.Client.error_to_string e)
    end
  in
  for _ = 1 to window do
    send ()
  done;
  while Hashtbl.length inflight > 0 && !error = None do
    let r0 = Obs.Clock.now_ns () in
    match Serve.Client.recv client with
    | Error e -> error := Some (Serve.Client.error_to_string e)
    | Ok resp -> (
      let t = clock () and r1 = Obs.Clock.now_ns () in
      let key = match Json.member "id" resp with Some id -> id_key id | None -> "" in
      match Hashtbl.find_opt inflight key with
      | None -> error := Some ("response with an unknown id " ^ key)
      | Some (kind, sent, seq, t0, t1) ->
        Hashtbl.remove inflight key;
        if traced then begin
          let op = seq + 1 and root = Trace.fresh_id () in
          let span ?(parent = root) id name t0 t1 = Trace.record { Trace.id; op; parent; name; t0; t1; tid = conn } in
          span (Trace.fresh_id ()) "serve.client.send" t0 t1;
          span (Trace.fresh_id ()) "serve.client.recv" r0 r1;
          span ~parent:0 root
            (match kind with
            | Compile _ -> "serve.client.compile"
            | Hot_pulses _ | Fresh_pulses _ -> "serve.client.pulses"
            | Stats -> "serve.client.stats")
            t0 r1
        end;
        out := { kind; sent; latency = t -. sent; resp; seq } :: !out;
        send ())
  done;
  (List.rev !out, !error)

let run_load ?traced inputs s ~stop =
  let results = Array.make connections ([], None) in
  let threads =
    Array.init connections (fun c ->
        Thread.create
          (fun () -> results.(c) <- drive ?traced inputs s.clients.(c) inputs.streams.(c) ~conn:c ~stop)
          ())
  in
  Array.iter Thread.join threads;
  let records = List.concat_map fst (Array.to_list results) in
  let errors = List.filter_map snd (Array.to_list results) in
  (records, errors)

(* ------------------------------------------------------------- checking *)

let result r = Json.member "result" r.resp
let is_ok r = Json.mem_bool "ok" r.resp = Some true

let coupling_of = function "xx" -> Microarch.Coupling.xx ~g:1.0 | _ -> Microarch.Coupling.xy ~g:1.0

let named_matrix = function
  | "cnot" -> Quantum.Gates.cnot
  | "cz" -> Quantum.Gates.cz
  | "iswap" -> Quantum.Gates.iswap
  | "sqisw" -> Quantum.Gates.sqisw
  | "b" -> Quantum.Gates.b_gate
  | _ -> Quantum.Gates.swap

(* direct in-process solve of a pulses body: (tau, hamiltonian) *)
let direct_pulse target cp =
  let h = coupling_of cp in
  let pulse =
    match target with
    | Named g ->
      Robust.Outcome.map (fun (r : Microarch.Genashn.result) -> r.pulse)
        (Microarch.Genashn.solve_r h (named_matrix g))
    | Coords c -> Microarch.Genashn.solve_coords_r h c
  in
  Option.map
    (fun (p : Microarch.Genashn.pulse) -> (p.tau, (Microarch.Genashn.hamiltonian h p, p.tau)))
    (Robust.Outcome.value pulse)

(* in-process reference of a compile body: the facade with the server's
   seed, reported the way the server reports it *)
let reference_compile (bench, mode, isa) =
  let b = List.find (fun (b : Benchmarks.Suite.bench) -> b.name = bench) (Benchmarks.Suite.suite ()) in
  let mode = if mode = "full" then Reqisc.Full else Reqisc.Eff in
  let rng = Numerics.Rng.create 1L in
  let out =
    match b.program with
    | Compiler.Pipeline.Gates c -> Reqisc.compile ~mode ?isa rng c
    | Compiler.Pipeline.Pauli p -> Reqisc.compile_pauli ~mode ?isa rng p
  in
  Result.map
    (fun (out : Reqisc.compiled) ->
      let input = Compiler.Pipeline.program_to_cnot_input b.program in
      let base = Compiler.Metrics.report Compiler.Metrics.Cnot_isa input in
      let opt =
        match Option.bind isa Isa.find with
        | Some t ->
          {
            Compiler.Metrics.count_2q = Circuit.count_2q out.circuit;
            depth_2q = Circuit.depth_2q out.circuit;
            duration = Isa.duration t out.circuit;
            distinct_2q = Circuit.distinct_2q out.circuit;
          }
        | None -> Reqisc.metrics (Compiler.Metrics.Su4_isa Reqisc.xy_coupling) out.circuit
      in
      (base, opt))
    out

let report_matches (r : Compiler.Metrics.report) j =
  let f k = Option.bind j (Json.mem_num k) in
  f "count_2q" = Some (float_of_int r.count_2q)
  && f "depth_2q" = Some (float_of_int r.depth_2q)
  && f "distinct_2q" = Some (float_of_int r.distinct_2q)
  && Option.map Int64.bits_of_float (f "duration") = Some (Int64.bits_of_float r.duration)

let response_tau r =
  Option.bind (result r) (fun res -> Option.bind (Json.member "pulse" res) (Json.mem_num "tau"))

(* Check every response against its in-process reference. Returns
   (failed, mismatches, hamiltonian inputs for the numerics kernels,
   duration ratio of the compile bodies). A request refused both by the
   server and in process is failed; any other disagreement is a mismatch. *)
let check inputs records =
  let failed = ref 0 and mismatches = ref 0 in
  let complain ?(mismatch = true) r msg =
    incr failed;
    if mismatch then incr mismatches;
    if !failed <= 5 then Printf.printf "  check failed (request %d): %s\n" r.seq msg
  in
  let compiles = Hashtbl.create 4 and pulses = Hashtbl.create 1024 in
  let memo tbl key f = match Hashtbl.find_opt tbl key with Some v -> v | None -> let v = f () in Hashtbl.add tbl key v; v in
  let ratios = Hashtbl.create 4 in
  List.iter
    (fun r ->
      match r.kind with
      | Stats -> if not (is_ok r) then complain r (Json.to_string r.resp)
      | Compile k -> (
        match (memo compiles k (fun () -> reference_compile hot_compiles.(k)), is_ok r) with
        | Error _, false -> complain ~mismatch:false r (Json.to_string r.resp)
        | Error e, true -> complain r ("served a compile the in-process compile refuses: " ^ Robust.Err.to_string e)
        | Ok _, false -> complain r (Json.to_string r.resp)
        | Ok (base, opt), true ->
          let res = result r in
          if report_matches base (Option.bind res (Json.member "input"))
             && report_matches opt (Option.bind res (Json.member "compiled"))
          then Hashtbl.replace ratios k (opt.duration /. base.duration)
          else complain r "compile metrics differ from the in-process compile")
      | Hot_pulses _ | Fresh_pulses _ -> (
        let target, cp =
          match r.kind with
          | Hot_pulses k -> inputs.hot_pulses.(k)
          | Fresh_pulses k -> (Coords (fst inputs.fresh.(k)), snd inputs.fresh.(k))
          | _ -> assert false
        in
        let key =
          match target with
          | Named g -> g ^ "/" ^ cp
          | Coords c -> Printf.sprintf "%h,%h,%h/%s" c.x c.y c.z cp
        in
        match (memo pulses key (fun () -> direct_pulse target cp), is_ok r, response_tau r) with
        | Some (tau, _), true, Some tau' when Int64.bits_of_float tau = Int64.bits_of_float tau' -> ()
        | None, false, _ -> complain ~mismatch:false r (Json.to_string r.resp)
        | _ -> complain r "pulses response differs from a direct solve"))
    records;
  let hams = Hashtbl.fold (fun _ v acc -> match v with Some (_, h) -> h :: acc | None -> acc) pulses [] in
  ( !failed,
    !mismatches,
    List.filteri (fun i _ -> i < 256) hams,
    gmean (Hashtbl.fold (fun _ v acc -> v :: acc) ratios []) )

(* ---------------------------------------------------------------- stats *)

let latencies p records = List.filter_map (fun r -> if p r.kind then Some (1e3 *. r.latency) else None) records
let is_compile = function Compile _ -> true | _ -> false
let is_pulses = function Hot_pulses _ | Fresh_pulses _ -> true | _ -> false

(* first-occurrence vs repeat latency of the hot bodies of one kind *)
let first_repeat key records =
  let seen = Hashtbl.create 16 and firsts = ref [] and repeats = ref [] in
  List.iter
    (fun r ->
      match key r.kind with
      | None -> ()
      | Some k ->
        if Hashtbl.mem seen k then repeats := (1e3 *. r.latency) :: !repeats
        else begin
          Hashtbl.add seen k ();
          firsts := (1e3 *. r.latency) :: !firsts
        end)
    (List.sort (fun a b -> compare a.sent b.sent) records);
  (median !firsts, median !repeats)

let hot_compile_key = function Compile k -> Some k | _ -> None
let hot_pulses_key = function Hot_pulses k -> Some k | _ -> None

let describe_tail name xs =
  let t = tail xs in
  (name, Printf.sprintf "p50 %.3f ms, tail %.3f ms (p%.2f of %d)" (median xs) t.value t.pct t.n)

(* ---------------------------------------------------------------- runs *)

let run_untraced (a : args) =
  (* enough blocks for several times today's rate; the clock ends the loop *)
  let inputs = make_inputs a.seed ~blocks:(int_of_float (a.seconds *. 20.0)) in
  let helper = spawn_helper () in
  let s, setup_s = setup_timed a in
  let finished = Atomic.make false in
  let calib, calibrator = calibrate helper s.pid ~finished in
  let t_start = clock () in
  let stop () = clock () -. t_start >= a.seconds in
  let records, errors = run_load inputs s ~stop in
  Atomic.set finished true;
  Thread.join calibrator;
  stop_helper helper;
  let scale = Calib.run_scale calib in
  let last = List.fold_left (fun m r -> Float.max m (r.sent +. r.latency)) t_start records in
  let elapsed = last -. t_start in
  let rss = peak_rss_mb ~pid:s.pid () in
  stop_server s;
  List.iter (fun e -> Printf.printf "  connection error: %s\n" e) errors;
  let failed, mismatches, _, ratio = check inputs records in
  (* responses are cache hits, solver runs, compiles and waits behind
     compiles, and the median jumps between those modes from run to run:
     the typical response is the mean of the middle half, as on the other
     workloads *)
  let all = latencies (fun _ -> true) records in
  let t = tail all in
  let cf, cr = first_repeat hot_compile_key records and pf, pr = first_repeat hot_pulses_key records in
  let n = List.length records in
  {
    correct = errors = [] && mismatches = 0;
    attempted = n + List.length errors;
    failed = failed + List.length errors;
    metrics =
      [
        ("ops_per_s", float_of_int n /. (elapsed *. scale));
        ("p50_ms", scale *. rank_mean all 0.25 0.75);
        ("tail_ms", scale *. t.value);
        ("setup_s", setup_s);
        ("peak_rss_mb", rss);
        ("duration_ratio", ratio);
      ];
    notes =
      [
        ("responses / elapsed", Printf.sprintf "%d / %.2f s" n elapsed);
        ( "raw (not normalised) ops_per_s / p50_ms / tail_ms",
          Printf.sprintf "%.3f / %.4f / %.4f (scale %.4f from %d samples, server paused %.2f s)"
            (float_of_int n /. elapsed) (rank_mean all 0.25 0.75) t.value scale (List.length calib.samples) (Atomic.get paused) );
        ("tail_ms of all responses", Printf.sprintf "p%.2f of %d" t.pct t.n);
        ("median response (raw)", Printf.sprintf "%.4f ms" (median all));
        describe_tail "compile latency (raw)" (latencies is_compile records);
        describe_tail "pulses latency (raw)" (latencies is_pulses records);
        ("compile first / repeat ms (raw)", Printf.sprintf "%.3f / %.3f" cf cr);
        ("pulses first / repeat ms (raw)", Printf.sprintf "%.3f / %.3f" pf pr);
      ];
  }

let trace_blocks = 24

(* client round trip vs Serve.Engine.exec_once on the same warm bodies;
   the engine half is returned as a closure to run after the reference
   solves, because an engine installs a process-wide pulse cache *)
let transport_probe inputs s =
  let bodies = Array.to_list (Array.mapi (fun k _ -> body inputs (Hot_pulses k)) inputs.hot_pulses) in
  let rtt =
    List.concat_map
      (fun b ->
        List.init 20 (fun _ ->
            let (), dt = time (fun () -> ignore (Serve.Client.request s.clients.(0) b)) in
            1e3 *. dt))
      bodies
  in
  let exec () =
    match Cache.create () with
    | Error e -> fail "cache: %s" e
    | Ok cache ->
      let engine = Serve.Engine.create ~workers:1 ~cache ~seed:1L () in
      let parsed b =
        Serve.Protocol.parse_line
          (Json.to_string (match b with Json.Obj f -> Json.Obj (("v", Json.Num 1.0) :: ("id", Json.Num 1.0) :: f) | j -> j))
      in
      let times =
        List.concat_map
          (fun b ->
            let p = parsed b in
            ignore (Serve.Engine.exec_once engine p);
            List.init 20 (fun _ ->
                let _, dt = time (fun () -> Serve.Engine.exec_once engine p) in
                1e3 *. dt))
          bodies
      in
      Serve.Engine.drain engine;
      times
  in
  (rtt, exec)

let run_traced (a : args) =
  let inputs = make_inputs a.seed ~blocks:trace_blocks in
  let s = start_server a 100 in
  let alloc0 = allocated_mb () in
  let (records, errors), wall = time (fun () -> run_load ~traced:true inputs s ~stop:(fun () -> false)) in
  let alloc = allocated_mb () -. alloc0 in
  let stats =
    match Serve.Client.request s.clients.(0) (Json.Obj [ ("op", Json.Str "stats") ]) with
    | Ok r -> Option.value ~default:Json.Null (Json.member "result" r)
    | Error e -> fail "stats: %s" (Serve.Client.error_to_string e)
  in
  let rtt, exec_probe = transport_probe inputs s in
  stop_server s;
  List.iter (fun e -> Printf.printf "  connection error: %s\n" e) errors;
  let failed, mismatches, hams, _ = check inputs records in
  let exec = exec_probe () in
  let path keys = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some stats) keys in
  let num keys = Option.value ~default:0.0 (Option.bind (path keys) Json.num) in
  let span name = num [ "obs"; "spans"; name; "sum_seconds" ] in
  let hits = num [ "cache"; "hits" ] and misses = num [ "cache"; "misses" ] in
  let pulses_n = List.length (List.filter (fun r -> is_pulses r.kind) records) in
  let cl = latencies is_compile records and pl = latencies is_pulses records in
  let cf, cr = first_repeat hot_compile_key records and pf, pr = first_repeat hot_pulses_key records in
  let check_s = check_spans () in
  Trace.write_chrome (Filename.concat a.out_dir (Printf.sprintf "serve-seed%d.trace.json" a.seed));
  (* two sessions of the same load differ by more than tracing costs, so
     the overhead is the measured cost of the spans recorded, over the
     traced session's wall *)
  let span_cost = Trace.cost_s () in
  let exec_compile = span "serve.exec.compile" and exec_pulses = span "serve.exec.pulses" in
  {
    correct = errors = [] && mismatches = 0 && check_s.ok;
    attempted = List.length records + List.length errors;
    failed = failed + List.length errors;
    metrics =
      List.map (fun p -> ("compiler." ^ p ^ ".busy_s", span ("compiler." ^ p))) passes
      @ [
          ("core.compile.busy_s", span "compiler.compile");
          ("weyl.kak.busy_s", span "solver.kak");
          ("serve.queue_wait_s", span "serve.queue_wait");
          ("serve.exec.compile_s", exec_compile);
          ("serve.exec.pulses_s", exec_pulses);
          ("serve.compile.p50_ms", median cl);
          ("serve.compile.tail_ms", (tail cl).value);
          ("serve.pulses.p50_ms", median pl);
          ("serve.pulses.tail_ms", (tail pl).value);
          ("serve.compile.first_ms", cf);
          ("serve.compile.repeat_ms", cr);
          ("serve.pulses.first_ms", pf);
          ("serve.pulses.repeat_ms", pr);
          ("serve.coalesce_hits", num [ "counters"; "serve"; "coalesce_hit" ]);
          ("serve.transport.overhead_ms_p50", median rtt -. median exec);
          ("cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
          ("cache.inserts", num [ "cache"; "inserts" ]);
          ("microarch.solve_runs_per_pulses_req", num [ "counters"; "genashn"; "solve_run" ] /. float_of_int (max 1 pulses_n));
          ("alloc_mb", alloc);
          ("trace.overhead_pct", 100.0 *. float_of_int check_s.spans *. span_cost /. wall);
          ("trace.spans", float_of_int check_s.spans);
          ("trace.child_coverage", check_s.child_s /. check_s.root_s);
        ]
      @ time_kernels hams;
    notes =
      [
        ("traced session wall / span cost", Printf.sprintf "%.3f s / %.3f us" wall (1e6 *. span_cost));
        ( "compile share of server exec time",
          Printf.sprintf "%.3f (compile %.3f s, pulses %.3f s)"
            (exec_compile /. (exec_compile +. exec_pulses)) exec_compile exec_pulses );
        ("span partition", if check_s.ok then "ok" else "FAILED");
        ("client rtt p50 / exec_once p50", Printf.sprintf "%.4f / %.4f ms" (median rtt) (median exec));
      ];
  }

let run (a : args) = if a.trace then run_traced a else run_untraced a
