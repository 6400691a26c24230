(* `serve-cluster` bench target: the sharded compilation cluster vs one
   shard, same paced capacity, same warm workload.

   This container is single-core, so shard parallelism cannot buy CPU —
   instead every shard runs with an explicit capacity model:
   [pace_us = 2000] admits at most one heavy op per 2ms per shard
   (Engine pacing, see engine.mli), the per-instance ceiling an operator
   provisions in production. What the cluster must then demonstrate is
   exactly what the router claims: N paced shards behind one
   fingerprint-routing front-end serve an aggregate throughput ~N times
   one shard's, without losing the warm cache (each key always lands on
   the shard that owns its partition) and without losing availability
   when a shard dies mid-run (failover to the ring successor answers
   every request). The pacing is recorded in the JSON so the ratio is
   read as capacity scaling, not CPU parallelism.

   Writes BENCH_cluster.json at the repo root. Gates:
   - ratio_ge_2x: 3-shard aggregate warm rps >= 2x the 1-shard rps;
   - hit_rate_no_worse: 3-shard warm cache hit rate >= 1-shard's - 0.02
     (fingerprint routing keeps partitions hot);
   - failover_available: with a shard shut down mid-run, every request
     is still answered (typed errors allowed only as the failover
     window's outcome, and counted). *)

open Util

module J = Serve.Json
module T = Serve.Transport
module C = Serve.Client

let pace_us = 3000
let reps = 3

(* distinct warm-cache Weyl points inside the chamber (x >= y >= z) the
   workload keys are drawn from; the candidate spacing (~7e-5) is far
   above the fingerprint quantum (1e-9), so every index is a distinct
   cache key *)
let n_coords = 96
let n_candidates = 4096

let candidate_coord i =
  (0.45, 0.3, 0.001 +. (0.28 *. float_of_int i /. float_of_int n_candidates))

let request_line ~id (x, y, z) =
  Printf.sprintf "{\"v\":1,\"id\":%S,\"op\":\"pulses\",\"coords\":[%.17g,%.17g,%.17g]}"
    id x y z

(* the same ring key the router computes for this request *)
let key_of_coord (x, y, z) =
  let body =
    {
      Serve.Protocol.op =
        Serve.Protocol.Pulses
          { target = Serve.Protocol.Coords (x, y, z); coupling = "xy"; passes = None };
      budget = None;
      deadline_ms = None;
    }
  in
  match Serve.Protocol.body_key body with
  | Some k -> k
  | None -> failwith "cluster bench: pulses op must have a coalescing key"

(* [n_coords] keys split exactly evenly across the shards' partitions,
   selected with the same ring the router builds (same vnodes and seed,
   keyed by the same request fingerprint). The throughput gate is
   bounded by the busiest shard, and over a ~hundred keys the sampling
   noise of a hash split dominates (a 40/33/23 key split reads as a
   ~20% aggregate loss that says nothing about the router) — the ring's
   statistical balance over large key populations is property-tested in
   test_cluster instead, so the bench holds it fixed by construction. *)
let balanced_coords ~config addrs =
  let names = List.map T.addr_to_string addrs in
  let ring =
    Cluster.Ring.create ~vnodes:config.Cluster.Router.vnodes
      ~seed:Cluster.Router.ring_seed names
  in
  let per = n_coords / List.length names in
  let counts = Hashtbl.create 8 in
  let picked = ref [] in
  let total = ref 0 in
  let i = ref 0 in
  while !total < n_coords do
    if !i >= n_candidates then failwith "cluster bench: candidate key space exhausted";
    let c = candidate_coord !i in
    incr i;
    match Cluster.Ring.owner ring (key_of_coord c) with
    | Some s ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      if n < per then begin
        Hashtbl.replace counts s (n + 1);
        picked := c :: !picked;
        incr total
      end
    | None -> failwith "cluster bench: ring has no members"
  done;
  Array.of_list (List.rev !picked)

(* ------------------------------------------------------------ topology *)

let shard_tconfig ~cache_path =
  {
    T.default_config with
    T.engine =
      {
        T.default_engine_config with
        T.workers = 1;
        cache_path = Some cache_path;
        pace_us;
      };
    max_connections = 32;
    idle_timeout = 60.0;
  }

(* spawn one shard on a kernel-assigned port; returns (addr, join) *)
let spawn_shard ~cache_path =
  let ready = Atomic.make false in
  let actual = ref (T.Tcp ("127.0.0.1", 0)) in
  let result = ref (Error "shard did not return") in
  let thread =
    Thread.create
      (fun () ->
        result :=
          T.serve
            ~config:(shard_tconfig ~cache_path)
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            (T.Tcp ("127.0.0.1", 0)))
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.002
  done;
  ( !actual,
    fun () ->
      Thread.join thread;
      match !result with
      | Error e -> failwith ("cluster bench: shard failed: " ^ e)
      | Ok _ -> () )

(* rejoin a shard on its OLD address (SO_REUSEADDR) with a fresh cache
   partition — the cold restart the router's warmup replay targets *)
let respawn_shard ~cache_path addr =
  let ready = Atomic.make false in
  let result = ref (Error "shard did not return") in
  let host, port =
    match addr with
    | T.Tcp (h, p) -> (h, p)
    | T.Unix_path _ -> failwith "cluster bench: tcp shards only"
  in
  let thread =
    Thread.create
      (fun () ->
        result :=
          T.serve
            ~config:(shard_tconfig ~cache_path)
            ~ready:(fun _ -> Atomic.set ready true)
            (T.Tcp (host, port)))
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.002
  done;
  fun () ->
    Thread.join thread;
    match !result with
    | Error e -> failwith ("cluster bench: rejoined shard failed: " ^ e)
    | Ok _ -> ()

(* one router config for the whole bench: [balanced_coords] rebuilds the
   ring from its vnodes (and {!Cluster.Router.ring_seed}), so workload
   selection and routing must read the same record *)
let router_config ~probe_interval =
  {
    Cluster.Router.default_config with
    Cluster.Router.probe_interval;
    (* each channel is a synchronous send/recv loop, so [channels]
       bounds the per-shard outstanding depth; the pacing clock gives
       no credit for idle time, so the shard queue must never drain
       between handoffs or pace slots are lost *)
    channels = 6;
  }

(* router over [shard_addrs], serving on a kernel-assigned port *)
let spawn_router ~probe_interval shard_addrs =
  let router =
    match
      Cluster.Router.create
        ~config:(router_config ~probe_interval)
        (List.map T.addr_to_string shard_addrs)
    with
    | Ok r -> r
    | Error e -> failwith ("cluster bench: router: " ^ e)
  in
  let ready = Atomic.make false in
  let actual = ref (T.Tcp ("127.0.0.1", 0)) in
  let result = ref (Error "router did not return") in
  let config =
    {
      T.default_config with
      T.max_connections = 32;
      idle_timeout = 60.0;
      (* the whole pipelined workload may be queued at once; admission
         control is a shard-side concern in this topology *)
      max_queue_depth = 0;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        result :=
          T.serve_backend ~config
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            (Cluster.Router.backend router)
            (T.Tcp ("127.0.0.1", 0)))
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.002
  done;
  ( !actual,
    fun () ->
      Thread.join thread;
      match !result with
      | Error e -> failwith ("cluster bench: router failed: " ^ e)
      | Ok s -> s )

let rpc_ok ~tag addr body =
  match C.rpc ~retries:3 addr body with
  | Ok json -> json
  | Error e -> failwith (Printf.sprintf "cluster bench: %s: %s" tag (C.error_to_string e))

let shutdown_addr ~tag addr = ignore (rpc_ok ~tag addr (J.Obj [ ("op", J.Str "shutdown") ]))

(* ------------------------------------------------------------- clients *)

let ok_marker = "\"ok\":true"

let has_ok_true raw =
  let n = String.length raw and m = String.length ok_marker in
  let rec go i =
    i + m <= n
    && (String.sub raw i m = ok_marker
       || match String.index_from_opt raw (i + 1) '"' with Some j -> go j | None -> false)
  in
  match String.index_opt raw '"' with Some i -> go i | None -> false

(* window-pipelined load generator for the timed passes: errors are
   counted, a transport failure is fatal (the timed passes run with every
   shard healthy, so any hard failure is a harness bug worth crashing on) *)
let pipelined_client ~window c (lines : string array) =
  let requests = Array.length lines in
  let errors = ref 0 in
  let j = ref 0 in
  while !j < requests do
    let n = min window (requests - !j) in
    for k = 0 to n - 1 do
      match C.send_line ~flush:false c lines.(!j + k) with
      | Ok () -> ()
      | Error e -> failwith ("cluster bench: send: " ^ C.error_to_string e)
    done;
    (match C.flush c with
    | Ok () -> ()
    | Error e -> failwith ("cluster bench: flush: " ^ C.error_to_string e));
    for _ = 1 to n do
      match C.recv_raw c with
      | Ok raw -> if not (has_ok_true raw) then incr errors
      | Error e -> failwith ("cluster bench: recv: " ^ C.error_to_string e)
    done;
    j := !j + n
  done;
  !errors

(* one timed pass: [clients] pipelined connections firing the whole warm
   workload at the router; returns (elapsed, client-visible errors) *)
let timed_pass ~router ~coords ~clients ~requests =
  let payloads =
    Array.init clients (fun c ->
        Array.init requests (fun j ->
            request_line
              ~id:(Printf.sprintf "c%d-%d" c j)
              coords.(j mod Array.length coords)))
  in
  let conns =
    Array.init clients (fun _ ->
        match C.connect ~retries:3 ~recv_timeout:30.0 router with
        | Ok c -> c
        | Error e -> failwith ("cluster bench: connect: " ^ C.error_to_string e))
  in
  let errors = Array.make clients 0 in
  let (), elapsed =
    timeit (fun () ->
        let threads =
          List.init clients (fun c ->
              Thread.create
                (fun () ->
                  (* full-stream pipelining: a window barrier would let a
                     shard that finished its slice of the window idle —
                     and idle pace slots are lost, so barriers would
                     measure client batching, not cluster capacity *)
                  errors.(c) <- pipelined_client ~window:requests conns.(c) payloads.(c))
                ())
        in
        List.iter Thread.join threads)
  in
  Array.iter C.close conns;
  (elapsed, Array.fold_left ( + ) 0 errors)

(* aggregate cache hits/misses as the router's merged stats reports them *)
let cache_counts router =
  let json = rpc_ok ~tag:"stats" router (J.Obj [ ("op", J.Str "stats") ]) in
  let get path =
    let rec go node = function
      | [] -> Option.value ~default:0.0 (J.num node)
      | k :: rest -> ( match J.member k node with Some n -> go n rest | None -> 0.0)
    in
    go json path
  in
  ( get [ "result"; "aggregate"; "cache"; "hits" ],
    get [ "result"; "aggregate"; "cache"; "misses" ],
    get [ "result"; "cluster"; "warmups" ],
    get [ "result"; "cluster"; "failovers" ] )

(* measure best-of-[reps] warm throughput and the warm pass hit rate
   against a cluster of [n_shards] *)
let measure ~n_shards ~clients ~requests =
  let caches = List.init n_shards (fun _ -> Filename.temp_file "reqisc_cluster" ".rqcache") in
  let shards = List.map (fun p -> spawn_shard ~cache_path:p) caches in
  let addrs = List.map fst shards in
  let router, join_router = spawn_router ~probe_interval:5.0 addrs in
  let coords = balanced_coords ~config:(router_config ~probe_interval:5.0) addrs in
  (* untimed warm pass: populate every shard's partition *)
  ignore (timed_pass ~router ~coords ~clients ~requests);
  let h0, m0, _, _ = cache_counts router in
  let passes = List.init reps (fun _ -> timed_pass ~router ~coords ~clients ~requests) in
  let h1, m1, _, _ = cache_counts router in
  let elapsed = List.fold_left (fun acc (s, _) -> Float.min acc s) infinity passes in
  let errors = List.fold_left (fun acc (_, e) -> acc + e) 0 passes in
  let hits = h1 -. h0 and misses = m1 -. m0 in
  let hit_rate = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  shutdown_addr ~tag:"cluster shutdown" router;
  ignore (join_router ());
  List.iter (fun (_, join) -> join ()) shards;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) caches;
  let total = clients * requests in
  (float_of_int total /. elapsed, elapsed, hit_rate, errors)

(* ------------------------------------------------------------ failover *)

(* sequential clients with a bounded retry budget; the router must keep
   answering while one shard is shut down mid-run (and, once the shard
   rejoins cold, warm it back up from the journal) *)
let failover_pass ~clients ~requests =
  let caches = List.init 3 (fun _ -> Filename.temp_file "reqisc_cluster" ".rqcache") in
  let shards = List.map (fun p -> spawn_shard ~cache_path:p) caches in
  let addrs = List.map fst shards in
  let router, join_router = spawn_router ~probe_interval:0.3 addrs in
  let coords = balanced_coords ~config:(router_config ~probe_interval:0.3) addrs in
  (* warm first so the journal replay has cached results to move *)
  ignore (timed_pass ~router ~coords ~clients:2 ~requests:(2 * n_coords));
  let answered = Atomic.make 0 in
  let typed_errors = Atomic.make 0 in
  let unresolved = Atomic.make 0 in
  let one_client ci =
    let conn = ref None in
    let drop () =
      (match !conn with Some c -> C.close c | None -> ());
      conn := None
    in
    for j = 0 to requests - 1 do
      let line =
        request_line ~id:(Printf.sprintf "f%d-%d" ci j) coords.(j mod Array.length coords)
      in
      let body =
        match J.parse line with Ok b -> b | Error e -> failwith ("cluster bench: " ^ e)
      in
      let rec attempt k =
        if k = 0 then Atomic.incr unresolved
        else
          let c =
            match !conn with
            | Some c -> Some c
            | None -> (
              match C.connect ~retries:4 ~backoff:0.02 ~recv_timeout:5.0 router with
              | Ok c ->
                conn := Some c;
                Some c
              | Error _ -> None)
          in
          match c with
          | None -> attempt (k - 1)
          | Some c -> (
            match C.request c body with
            | Ok _ -> Atomic.incr answered
            | Error (C.Server_error _) ->
              (* a typed error IS an answer — the failover window's
                 allowed outcome *)
              Atomic.incr answered;
              Atomic.incr typed_errors
            | Error _ ->
              drop ();
              attempt (k - 1))
      in
      attempt 6;
      (* pace the clients a little so the kill lands mid-stream *)
      Thread.delay 0.002
    done;
    drop ()
  in
  let victim = List.nth addrs 2 in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        shutdown_addr ~tag:"victim shutdown" victim)
      ()
  in
  let threads = List.init clients (fun ci -> Thread.create (fun () -> one_client ci) ()) in
  List.iter Thread.join threads;
  Thread.join killer;
  (match List.nth shards 2 with _, join -> join ());
  let _, _, _, failovers_mid = cache_counts router in
  (* rejoin the victim cold on its old port: the prober should mark it
     up again only after replaying its journalled keys *)
  let rejoin_cache = Filename.temp_file "reqisc_cluster" ".rqcache" in
  let join_rejoined = respawn_shard ~cache_path:rejoin_cache victim in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let warmups = ref 0.0 in
  while
    !warmups < 1.0 && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.2;
    let _, _, w, _ = cache_counts router in
    warmups := w
  done;
  shutdown_addr ~tag:"cluster shutdown" router;
  ignore (join_router ());
  (match shards with
  | (_, j0) :: (_, j1) :: _ ->
    j0 ();
    j1 ()
  | _ -> ());
  join_rejoined ();
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (rejoin_cache :: caches);
  let total = clients * requests in
  ( total,
    Atomic.get answered,
    Atomic.get typed_errors,
    Atomic.get unresolved,
    int_of_float failovers_mid,
    int_of_float !warmups )

(* ----------------------------------------------------------------- main *)

let serve_cluster ?(clients = 6) ?requests ?seed () =
  let requests = match requests with Some r -> r | None -> 100 in
  hr "serve-cluster: sharded cluster scaling, caching, and failover";
  (match seed with
  | Some s ->
    C.seed_jitter s;
    Printf.printf "  jitter seed: %d\n" s
  | None -> ());
  let total = clients * requests in
  Printf.printf
    "  workload: %d clients x %d requests = %d warm pulse solves over %d keys\n"
    clients requests total n_coords;
  Printf.printf
    "  capacity model: pace_us = %d (each shard admits one heavy op per %.1fms)\n"
    pace_us
    (float_of_int pace_us /. 1e3);
  let rps1, t1, hr1, errs1 = measure ~n_shards:1 ~clients ~requests in
  Printf.printf "  1 shard:  %.3fs  (%.0f req/s)  warm hit rate %.3f\n" t1 rps1 hr1;
  let rps3, t3, hr3, errs3 = measure ~n_shards:3 ~clients ~requests in
  Printf.printf "  3 shards: %.3fs  (%.0f req/s)  warm hit rate %.3f\n" t3 rps3 hr3;
  let ratio = rps3 /. rps1 in
  let fo_total, fo_answered, fo_typed, fo_unresolved, fo_failovers, fo_warmups =
    failover_pass ~clients:4 ~requests:60
  in
  Printf.printf
    "  failover: %d/%d answered (%d typed errors, %d unresolved), %d failovers, %d warmups\n"
    fo_answered fo_total fo_typed fo_unresolved fo_failovers fo_warmups;
  let ratio_ge_2x = ratio >= 2.0 in
  let hit_rate_no_worse = hr3 >= hr1 -. 0.02 in
  let failover_available = fo_answered = fo_total && fo_unresolved = 0 in
  gate "ratio_ge_2x" ratio_ge_2x;
  gate "hit_rate_no_worse" hit_rate_no_worse;
  gate "failover_available" failover_available;
  if errs1 > 0 || errs3 > 0 then
    Printf.printf "  WARNING: error responses in timed passes (1-shard %d, 3-shard %d)\n"
      errs1 errs3;
  let all_pass = ratio_ge_2x && hit_rate_no_worse && failover_available in
  write_json_report ~tag:"serve-cluster" "BENCH_cluster.json" (fun buf ->
      let bpf fmt = bprintf buf fmt in
      bpf
        "  \"workload\": {\"clients\": %d, \"requests_per_client\": %d, \"total\": %d, \"distinct_keys\": %d, \"transport\": \"tcp\"},\n"
        clients requests total n_coords;
      bpf
        "  \"capacity_model\": {\"pace_us\": %d, \"note\": \"single-core container: each shard is paced to one heavy op per pace_us, so the ratio measures capacity scaling through the router, not CPU parallelism\"},\n"
        pace_us;
      bpf
        "  \"single_shard\": {\"seconds\": %.4f, \"throughput_rps\": %.1f, \"warm_hit_rate\": %.4f, \"client_errors\": %d},\n"
        t1 rps1 hr1 errs1;
      bpf
        "  \"three_shards\": {\"seconds\": %.4f, \"throughput_rps\": %.1f, \"warm_hit_rate\": %.4f, \"client_errors\": %d},\n"
        t3 rps3 hr3 errs3;
      bpf "  \"throughput_ratio\": %.3f,\n" ratio;
      bpf
        "  \"failover\": {\"total\": %d, \"answered\": %d, \"typed_errors\": %d, \"unresolved\": %d, \"failovers\": %d, \"warmups\": %d, \"availability\": %.4f},\n"
        fo_total fo_answered fo_typed fo_unresolved fo_failovers fo_warmups
        (if fo_total = 0 then 1.0 else float_of_int fo_answered /. float_of_int fo_total);
      bpf
        "  \"gates\": {\"ratio_ge_2x\": %b, \"hit_rate_no_worse\": %b, \"failover_available\": %b},\n"
        ratio_ge_2x hit_rate_no_worse failover_available;
      bpf "  \"pass\": %b\n" all_pass);
  Printf.printf "  [serve-cluster] %s\n%!"
    (if all_pass then "all gates PASS" else "GATE FAILURES")
