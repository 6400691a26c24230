(* Cluster subsystem: ring placement properties (determinism, balance,
   minimal movement on membership change), the health state machine's
   transition contract, and the router end-to-end over real shards —
   fingerprint routing, merged stats, failover to the ring successor,
   journal-replay warmup after a cold rejoin, and the typed
   [unavailable] when no shard is routable. *)

module J = Serve.Json
module T = Serve.Transport
module C = Serve.Client
module Ring = Cluster.Ring
module Health = Cluster.Health

let () = Robust.Fault.configure None

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ ring *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let tally ring ks =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun k ->
      match Ring.owner ring k with
      | None -> Alcotest.fail "owner on a non-empty ring"
      | Some s ->
        Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    ks;
  counts

let test_ring_determinism () =
  let a = Ring.create [ "s1"; "s2"; "s3" ] in
  let b = Ring.create [ "s3"; "s1"; "s2" ] in
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        ("insertion order irrelevant for " ^ k)
        (Ring.owner a k) (Ring.owner b k))
    (keys 500);
  (* members keep first-added order; duplicates are dropped *)
  Alcotest.(check (list string))
    "members" [ "s1"; "s2"; "s3" ]
    (Ring.members (Ring.create [ "s1"; "s2"; "s1"; "s3"; "s2" ]));
  (* empty ring: no owner, no order *)
  let empty = Ring.create [] in
  Alcotest.(check (option string)) "empty owner" None (Ring.owner empty "k");
  Alcotest.(check (list string)) "empty order" [] (Ring.order empty "k")

let test_ring_order_is_preference_list () =
  let ring = Ring.create [ "s1"; "s2"; "s3"; "s4" ] in
  List.iter
    (fun k ->
      let order = Ring.order ring k in
      Alcotest.(check int) "order is a permutation" 4 (List.length order);
      Alcotest.(check (list string))
        "order covers all members"
        (List.sort compare (Ring.members ring))
        (List.sort compare order);
      Alcotest.(check (option string))
        "order head is the owner" (Ring.owner ring k)
        (match order with h :: _ -> Some h | [] -> None))
    (keys 100)

(* random distinct shard-name sets for the qcheck properties *)
let arb_shards =
  QCheck.make
    ~print:(String.concat ",")
    QCheck.Gen.(
      let* n = int_range 3 8 in
      let* salt = int_bound 10_000 in
      return (List.init n (fun i -> Printf.sprintf "tcp:10.0.%d.%d:7000" salt i)))

let prop_balance =
  QCheck.Test.make ~count:20 ~name:"ring balance within 2x of fair share" arb_shards
    (fun shards ->
      let n_keys = 6000 in
      let ring = Ring.create shards in
      let counts = tally ring (keys n_keys) in
      let fair = float_of_int n_keys /. float_of_int (List.length shards) in
      List.for_all
        (fun s ->
          let c = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts s)) in
          (* 128 vnodes put per-shard load within a few percent of fair;
             2x is the gross-imbalance alarm, not the expected spread *)
          c > fair /. 2.0 && c < fair *. 2.0)
        shards)

let prop_join_movement =
  QCheck.Test.make ~count:20 ~name:"join moves ~1/(n+1) keys, all to the joiner"
    arb_shards (fun shards ->
      let n_keys = 6000 in
      let before = Ring.create shards in
      let after = Ring.add before "tcp:10.1.1.1:7000" in
      let moved =
        List.filter (fun k -> Ring.owner before k <> Ring.owner after k) (keys n_keys)
      in
      (* every moved key moves TO the joiner: existing shards never
         exchange keys among themselves *)
      List.for_all
        (fun k -> Ring.owner after k = Some "tcp:10.1.1.1:7000")
        moved
      && float_of_int (List.length moved)
         < 2.5 *. float_of_int n_keys /. float_of_int (List.length shards + 1))

let prop_leave_movement =
  QCheck.Test.make ~count:20 ~name:"leave moves only the leaver's keys" arb_shards
    (fun shards ->
      let leaver = List.hd shards in
      let before = Ring.create shards in
      let after = Ring.remove before leaver in
      List.for_all
        (fun k ->
          match Ring.owner before k with
          | Some s when s = leaver ->
            (* the leaver's keys land on surviving members *)
            Ring.owner after k <> Some leaver && Ring.owner after k <> None
          | o -> Ring.owner after k = o)
        (keys 6000))

(* ---------------------------------------------------------------- health *)

let st = Alcotest.testable (Fmt.of_to_string Health.state_to_string) ( = )

let test_health_walk () =
  let h = Health.create ~suspect_after:1 ~down_after:2 2 in
  Alcotest.check st "starts up" Health.Up (Health.state h 0);
  Alcotest.(check bool) "up is routable" true (Health.routable h 0);
  (* Up -> Suspect -> Down by consecutive failures *)
  (match Health.note_failure h 0 with
  | Health.Up, Health.Suspect -> ()
  | b, a ->
    Alcotest.failf "first failure: %s -> %s" (Health.state_to_string b)
      (Health.state_to_string a));
  Alcotest.(check bool) "suspect still routable" true (Health.routable h 0);
  (match Health.note_failure h 0 with
  | Health.Suspect, Health.Down -> ()
  | _ -> Alcotest.fail "second failure must reach Down");
  Alcotest.(check bool) "down is not routable" false (Health.routable h 0);
  (* a Down shard that answers needs a warmup; note_success does NOT
     change its state — only begin_warmup does, exactly once *)
  (match Health.note_success h 0 with
  | `Needs_warmup -> ()
  | _ -> Alcotest.fail "down + answering = needs warmup");
  Alcotest.check st "still down" Health.Down (Health.state h 0);
  Alcotest.(check bool) "warmup claimed" true (Health.begin_warmup h 0);
  Alcotest.(check bool) "warmup claimed once" false (Health.begin_warmup h 0);
  Alcotest.check st "warming" Health.Warming (Health.state h 0);
  Alcotest.(check bool) "warming is not routable" false (Health.routable h 0);
  (match Health.note_success h 0 with
  | `Warming -> ()
  | _ -> Alcotest.fail "success during warmup leaves it to the warmer");
  (* a warmup that fails goes straight back to Down *)
  (match Health.note_failure h 0 with
  | Health.Warming, Health.Down -> ()
  | _ -> Alcotest.fail "warming fails back to Down");
  Alcotest.(check bool) "warmup reclaimable" true (Health.begin_warmup h 0);
  Health.finish_warmup h 0;
  Alcotest.check st "warmed up" Health.Up (Health.state h 0);
  (* the failure count was reset: one failure is Suspect again, and a
     success while Suspect recovers immediately *)
  (match Health.note_failure h 0 with
  | Health.Up, Health.Suspect -> ()
  | _ -> Alcotest.fail "post-warmup failure count must restart");
  (match Health.note_success h 0 with
  | `Recovered -> ()
  | _ -> Alcotest.fail "suspect + success = recovered");
  (match Health.note_success h 0 with
  | `Up_already -> ()
  | _ -> Alcotest.fail "up + success = up already");
  (* shard 1 was never touched *)
  Alcotest.check st "other shard untouched" Health.Up (Health.state h 1);
  Alcotest.(check (pair int int))
    "counts" (2, 0)
    (match Health.counts h with u, s, _, _ -> (u, s))

(* ---------------------------------------------------------------- router *)

let shard_config ~cache_path =
  {
    T.default_config with
    T.engine =
      {
        T.default_engine_config with
        T.workers = 1;
        cache_path = Some cache_path;
      };
  }

let spawn_shard ?cache_path addr =
  let config =
    match cache_path with Some p -> shard_config ~cache_path:p | None -> T.default_config
  in
  let ready = Atomic.make false in
  let actual = ref addr in
  let result = ref (Error "shard did not return") in
  let th =
    Thread.create
      (fun () ->
        result :=
          T.serve ~config
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            addr)
      ()
  in
  let rec wait n =
    if not (Atomic.get ready) then
      if n > 2000 then Alcotest.fail "shard did not become ready"
      else begin
        Thread.delay 0.005;
        wait (n + 1)
      end
  in
  wait 0;
  ( !actual,
    fun () ->
      Thread.join th;
      match !result with
      | Error e -> Alcotest.failf "shard failed: %s" e
      | Ok s -> s )

let spawn_router ?(config = Cluster.Router.default_config) shard_addrs =
  let router =
    match Cluster.Router.create ~config (List.map T.addr_to_string shard_addrs) with
    | Ok r -> r
    | Error e -> Alcotest.failf "router create: %s" e
  in
  let ready = Atomic.make false in
  let actual = ref (T.Tcp ("127.0.0.1", 0)) in
  let result = ref (Error "router did not return") in
  let th =
    Thread.create
      (fun () ->
        result :=
          T.serve_backend
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            (Cluster.Router.backend router)
            (T.Tcp ("127.0.0.1", 0)))
      ()
  in
  let rec wait n =
    if not (Atomic.get ready) then
      if n > 2000 then Alcotest.fail "router did not become ready"
      else begin
        Thread.delay 0.005;
        wait (n + 1)
      end
  in
  wait 0;
  ( !actual,
    fun () ->
      Thread.join th;
      match !result with
      | Error e -> Alcotest.failf "router failed: %s" e
      | Ok s -> s )

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (C.error_to_string e)

let shutdown_body = J.Obj [ ("op", J.Str "shutdown") ]
let stats_body = J.Obj [ ("op", J.Str "stats") ]

let num_at json path =
  let rec go node = function
    | [] -> J.num node
    | k :: rest -> ( match J.member k node with Some n -> go n rest | None -> None)
  in
  go json path

(* a pulses request whose ring key [pred]icate holds — found by scanning
   a coord family with the same ring the router builds *)
let coords_owned_by ~addrs pred =
  let ring = Ring.create (List.map T.addr_to_string addrs) in
  let rec scan i =
    if i >= 4096 then Alcotest.fail "no coord owned by the wanted shard"
    else
      let z = 0.001 +. (0.0002 *. float_of_int i) in
      let body =
        {
          Serve.Protocol.op =
            Serve.Protocol.Pulses
              { target = Serve.Protocol.Coords (0.45, 0.3, z); coupling = "xy"; passes = None };
          budget = None;
          deadline_ms = None;
        }
      in
      let key =
        match Serve.Protocol.body_key body with
        | Some k -> k
        | None -> Alcotest.fail "pulses has a key"
      in
      match Ring.owner ring key with
      | Some owner when pred owner -> (0.45, 0.3, z)
      | _ -> scan (i + 1)
  in
  scan 0

let pulses_req (x, y, z) =
  J.Obj [ ("op", J.Str "pulses"); ("coords", J.Arr [ J.Num x; J.Num y; J.Num z ]) ]

let test_router_end_to_end () =
  (* real cache partitions: the aggregate-hits assertion needs them *)
  let cache1 = Filename.temp_file "reqisc_cluster_test" ".rqcache" in
  let cache2 = Filename.temp_file "reqisc_cluster_test" ".rqcache" in
  let s1, join1 = spawn_shard ~cache_path:cache1 (T.Tcp ("127.0.0.1", 0)) in
  let s2, join2 = spawn_shard ~cache_path:cache2 (T.Tcp ("127.0.0.1", 0)) in
  let router, join_router = spawn_router [ s1; s2 ] in
  let c = ok_or_fail "connect" (C.connect router) in
  (* cnot and cz share a Weyl fingerprint: the second request must be a
     cache hit on whichever shard owns the key *)
  let r1 =
    ok_or_fail "cnot" (C.request c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cnot") ]))
  in
  Alcotest.(check bool) "pulse payload relayed" true (contains (J.to_string r1) "\"tau\"");
  Alcotest.(check (option int))
    "response carries v" (Some Serve.Protocol.version) (J.mem_int "v" r1);
  let r2 =
    ok_or_fail "cz" (C.request c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cz") ]))
  in
  Alcotest.(check (option bool)) "cz ok" (Some true) (J.mem_bool "ok" r2);
  (* the router keeps the client's id through forwarding *)
  let tagged =
    ok_or_fail "tagged"
      (C.request c (J.Obj [ ("id", J.Str "tag-1"); ("op", J.Str "stats") ]))
  in
  Alcotest.(check (option string)) "id preserved" (Some "tag-1") (J.mem_str "id" tagged);
  (* malformed line: typed bad_request from the router itself *)
  ok_or_fail "send junk" (C.send_line c "this is not json");
  (match C.recv c with
  | Ok j ->
    Alcotest.(check (option bool)) "junk rejected" (Some false) (J.mem_bool "ok" j);
    Alcotest.(check bool) "typed bad_request" true (contains (J.to_string j) "bad_request")
  | Error e -> Alcotest.failf "junk reply: %s" (C.error_to_string e));
  (* merged stats: cluster block, aggregate block, one entry per shard *)
  let stats = ok_or_fail "stats" (C.request c stats_body) in
  Alcotest.(check (option (float 1e-6)))
    "both shards up" (Some 2.0)
    (num_at stats [ "result"; "cluster"; "up" ]);
  Alcotest.(check bool)
    "cache hit counted in aggregate" true
    (match num_at stats [ "result"; "aggregate"; "cache"; "hits" ] with
    | Some h -> h >= 1.0
    | None -> false);
  (match J.member "result" stats with
  | Some r -> (
    match J.member "shards" r with
    | Some (J.Arr shards) ->
      Alcotest.(check int) "per-shard array" 2 (List.length shards);
      List.iter
        (fun s ->
          Alcotest.(check (option string)) "shard state" (Some "up") (J.mem_str "state" s))
        shards
    | _ -> Alcotest.fail "stats carries a shards array")
  | None -> Alcotest.fail "stats carries a result");
  (* shutdown fans out to every shard, then drains the router *)
  let bye = ok_or_fail "shutdown" (C.request c shutdown_body) in
  Alcotest.(check (option bool)) "shutdown ok" (Some true) (J.mem_bool "ok" bye);
  Alcotest.(check (option (float 1e-6)))
    "both shards acked" (Some 2.0)
    (num_at bye [ "result"; "shards_acked" ]);
  C.close c;
  ignore (join_router ());
  ignore (join1 ());
  ignore (join2 ());
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ cache1; cache2 ]

let test_router_failover_and_warmup () =
  let cache2 = Filename.temp_file "reqisc_cluster_test" ".rqcache" in
  let s1, join1 = spawn_shard (T.Tcp ("127.0.0.1", 0)) in
  let s2, join2 = spawn_shard ~cache_path:cache2 (T.Tcp ("127.0.0.1", 0)) in
  let config =
    {
      Cluster.Router.default_config with
      Cluster.Router.probe_interval = 0.1;
      connect_retries = 1;
      connect_backoff = 0.01;
    }
  in
  let router, join_router = spawn_router ~config [ s1; s2 ] in
  let victim_name = T.addr_to_string s2 in
  let on_victim = coords_owned_by ~addrs:[ s1; s2 ] (fun o -> o = victim_name) in
  let c = ok_or_fail "connect" (C.connect ~recv_timeout:10.0 router) in
  (* route one request to the victim while it is healthy *)
  let r0 = ok_or_fail "warm victim" (C.request c (pulses_req on_victim)) in
  Alcotest.(check (option bool)) "victim answers" (Some true) (J.mem_bool "ok" r0);
  (* kill the victim out from under the router *)
  ignore (ok_or_fail "victim shutdown" (C.rpc s2 shutdown_body));
  ignore (join2 ());
  (* its keys must now fail over to the ring successor, transparently *)
  let r1 = ok_or_fail "failover" (C.request c (pulses_req on_victim)) in
  Alcotest.(check (option bool)) "failover answers" (Some true) (J.mem_bool "ok" r1);
  let stats = ok_or_fail "stats" (C.request c stats_body) in
  Alcotest.(check bool)
    "failover counted" true
    (match num_at stats [ "result"; "cluster"; "failovers" ] with
    | Some f -> f >= 1.0
    | None -> false);
  (* let the prober walk the dead shard to Down — rejoining while it is
     merely Suspect would recover it without a warmup *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let down = ref false in
  while (not !down) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05;
    let s = ok_or_fail "poll down" (C.rpc router stats_body) in
    down := num_at s [ "result"; "cluster"; "down" ] = Some 1.0
  done;
  Alcotest.(check bool) "probes mark the dead shard down" true !down;
  (* rejoin the victim cold on its old port; the prober must warm it up
     from the journal before reporting the cluster whole again *)
  let rejoin_cache = Filename.temp_file "reqisc_cluster_test" ".rqcache" in
  let _, join2' = spawn_shard ~cache_path:rejoin_cache s2 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let warmed = ref false in
  while (not !warmed) && Unix.gettimeofday () < deadline do
    Thread.delay 0.1;
    let s = ok_or_fail "poll stats" (C.rpc router stats_body) in
    warmed :=
      num_at s [ "result"; "cluster"; "up" ] = Some 2.0
      && (match num_at s [ "result"; "cluster"; "warmups" ] with
         | Some w -> w >= 1.0
         | None -> false)
  done;
  Alcotest.(check bool) "victim warmed up and rejoined" true !warmed;
  (* and its partition serves again — straight from the replayed cache *)
  let r2 = ok_or_fail "after rejoin" (C.request c (pulses_req on_victim)) in
  Alcotest.(check (option bool)) "rejoined shard answers" (Some true) (J.mem_bool "ok" r2);
  ignore (ok_or_fail "cluster shutdown" (C.request c shutdown_body));
  C.close c;
  ignore (join_router ());
  ignore (join1 ());
  ignore (join2' ());
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ cache2; rejoin_cache ]

let test_router_unavailable () =
  let s1, join1 = spawn_shard (T.Tcp ("127.0.0.1", 0)) in
  let config =
    {
      Cluster.Router.default_config with
      Cluster.Router.probe_interval = 30.0 (* no probe interference *);
      connect_retries = 0;
      connect_backoff = 0.01;
      recv_timeout = 2.0;
    }
  in
  let router, join_router = spawn_router ~config [ s1 ] in
  ignore (ok_or_fail "shard shutdown" (C.rpc s1 shutdown_body));
  ignore (join1 ());
  let c = ok_or_fail "connect" (C.connect router) in
  (* every shard (all one of them) fails: the client sees a typed
     unavailable from the routing stage, not a hang or a disconnect *)
  let check_unavailable what =
    match C.request c (J.Obj [ ("op", J.Str "pulses"); ("gate", J.Str "cnot") ]) with
    | Error (C.Server_error { kind; stage; _ }) ->
      Alcotest.(check string) (what ^ " kind") "unavailable" kind;
      Alcotest.(check string) (what ^ " stage") "cluster.route" stage
    | Ok j -> Alcotest.failf "%s: answered with a dead shard: %s" what (J.to_string j)
    | Error e -> Alcotest.failf "%s: expected unavailable, got %s" what (C.error_to_string e)
  in
  (* first request walks the connect-retry path; by the second the shard
     is marked Down, exercising the no-routable-shard fast path *)
  check_unavailable "via forward failure";
  check_unavailable "via health fast path";
  ignore (ok_or_fail "router shutdown" (C.request c shutdown_body));
  C.close c;
  ignore (join_router ())

(* the transport seam the router plugs into, isolated: a trivial backend
   that echoes the parse verdict proves serve_backend needs nothing from
   the engine *)
let test_serve_backend_seam () =
  let served = Atomic.make 0 in
  let drained = Atomic.make false in
  let backend =
    {
      T.submit =
        (fun ~raw:_ parsed ~respond ->
          Atomic.incr served;
          match parsed.Serve.Protocol.body with
          | Ok body ->
            respond
              (Serve.Protocol.ok_response ~id:parsed.Serve.Protocol.id
                 ~op:(Serve.Protocol.op_name body.Serve.Protocol.op)
                 (J.Str "echo"))
          | Error e ->
            respond
              (Serve.Protocol.error_response ~id:parsed.Serve.Protocol.id
                 ~kind:"bad_request" ~stage:"test.echo" e));
      queue_depth = (fun () -> 0);
      drain = (fun () -> Atomic.set drained true);
      served = (fun () -> Atomic.get served);
      errors = (fun () -> 0);
    }
  in
  let ready = Atomic.make false in
  let actual = ref (T.Tcp ("127.0.0.1", 0)) in
  let result = ref (Error "backend server did not return") in
  let th =
    Thread.create
      (fun () ->
        result :=
          T.serve_backend
            ~ready:(fun a ->
              actual := a;
              Atomic.set ready true)
            backend
            (T.Tcp ("127.0.0.1", 0)))
      ()
  in
  while not (Atomic.get ready) do
    Thread.delay 0.005
  done;
  let c = ok_or_fail "connect" (C.connect !actual) in
  let r = ok_or_fail "echo" (C.request c stats_body) in
  Alcotest.(check (option string)) "backend result" (Some "echo")
    (match J.member "result" r with Some (J.Str s) -> Some s | _ -> None);
  ignore (ok_or_fail "shutdown" (C.request c shutdown_body));
  C.close c;
  Thread.join th;
  (match !result with
  | Error e -> Alcotest.failf "serve_backend failed: %s" e
  | Ok summary -> Alcotest.(check int) "served through the seam" 2 summary.T.served);
  Alcotest.(check bool) "backend drained at shutdown" true (Atomic.get drained)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        Alcotest.test_case "determinism" `Quick test_ring_determinism
        :: Alcotest.test_case "order is the preference list" `Quick
             test_ring_order_is_preference_list
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_balance; prop_join_movement; prop_leave_movement ] );
      ("health", [ Alcotest.test_case "transition walk" `Quick test_health_walk ]);
      ( "router",
        [
          Alcotest.test_case "end to end over two shards" `Quick test_router_end_to_end;
          Alcotest.test_case "failover and warmup" `Quick test_router_failover_and_warmup;
          Alcotest.test_case "unavailable when no shard routable" `Quick
            test_router_unavailable;
          Alcotest.test_case "serve_backend seam" `Quick test_serve_backend_seam;
        ] );
    ]
