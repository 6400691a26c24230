module T = Serve.Transport
module C = Serve.Client
module P = Serve.Protocol
module J = Serve.Json
module Jobq = Serve.Jobq

let stage = "serve.cluster"

let count name = Robust.Counters.incr ~stage name

type config = {
  vnodes : int;
  channels : int;
  connect_retries : int;
  connect_backoff : float;
  recv_timeout : float;
  probe_interval : float;
}

let default_config =
  {
    vnodes = 128;
    channels = 2;
    connect_retries = 2;
    connect_backoff = 0.02;
    recv_timeout = 10.0;
    probe_interval = 1.0;
  }

let ring_seed = 0x51C
let probe_timeout = 2.0 (* per-probe receive bound, seconds *)

(* consecutive probe/forward failures before a shard is Suspect, Down *)
let suspect_after = 1
let down_after = 2
let journal_capacity = 4096 (* journalled failover keys kept *)

(* one forwarded request in flight: the id-stripped body travels to the
   shard (Client.send assigns a fresh id per hop), the original id is
   restored on the way back *)
type fwd = {
  body : J.t;
  orig_id : J.t;
  key : string;
  respond : J.t -> unit;  (* counted + once-guarded at submit *)
  mutable tried : int list;  (* shard indices already attempted *)
}

type control =
  | Ctl_stats of { id : J.t; respond : J.t -> unit }
  | Ctl_shutdown of { id : J.t; respond : J.t -> unit }

type shard = { name : string; addr : T.addr; queue : fwd Jobq.t }

type t = {
  config : config;
  ring : Ring.t;
  shards : shard array;
  health : Health.t;
  control : control Jobq.t;
  journal : (string, J.t) Hashtbl.t;  (* failover key -> body, for warmup *)
  journal_fifo : string Queue.t;  (* insertion order, for capacity eviction *)
  journal_lock : Mutex.t;
  served : int Atomic.t;
  errors : int Atomic.t;
  forwarded : int Atomic.t;
  failovers : int Atomic.t;
  warmups : int Atomic.t;
  stop : bool Atomic.t;
  mutable threads : Thread.t list;
  t0 : float;
}

let index_of t name =
  let n = Array.length t.shards in
  let rec go i = if i >= n then None else if t.shards.(i).name = name then Some i else go (i + 1) in
  go 0

(* ------------------------------------------------------------ journal *)

let journal_add t key body =
  Mutex.lock t.journal_lock;
  if not (Hashtbl.mem t.journal key) then begin
    Hashtbl.replace t.journal key body;
    Queue.push key t.journal_fifo;
    (* the fifo may hold keys already taken by a warmup — popping those
       is a no-op, and every live key is in the fifo, so this terminates *)
    while Hashtbl.length t.journal > journal_capacity do
      match Queue.take_opt t.journal_fifo with
      | Some k -> Hashtbl.remove t.journal k
      | None -> Hashtbl.reset t.journal
    done
  end;
  Mutex.unlock t.journal_lock

let journal_take_for t shard_name =
  Mutex.lock t.journal_lock;
  let mine =
    Hashtbl.fold
      (fun k v acc -> if Ring.owner t.ring k = Some shard_name then (k, v) :: acc else acc)
      t.journal []
  in
  List.iter (fun (k, _) -> Hashtbl.remove t.journal k) mine;
  Mutex.unlock t.journal_lock;
  mine

let journal_put_back t entries = List.iter (fun (k, v) -> journal_add t k v) entries

let journal_length t =
  Mutex.lock t.journal_lock;
  let n = Hashtbl.length t.journal in
  Mutex.unlock t.journal_lock;
  n

(* ---------------------------------------------------------- responses *)

(* a fwd's respond must fire exactly once even across reroutes and
   worker crashes; the transport's write path is not double-call safe *)
let once f =
  let fired = Atomic.make false in
  fun x -> if not (Atomic.exchange fired true) then f x

let respond_counted t ~respond json =
  Atomic.incr t.served;
  (match J.mem_bool "ok" json with Some false -> Atomic.incr t.errors | _ -> ());
  try respond json with _ -> Robust.Counters.incr ~stage "response_undeliverable"

(* replace the shard-assigned id with the client's original *)
let relay f resp =
  let stripped =
    match resp with
    | J.Obj fields -> J.Obj (List.filter (fun (k, _) -> k <> "id") fields)
    | other -> other
  in
  f.respond (P.with_id ~id:f.orig_id stripped)

let unavailable f message =
  count "unavailable";
  f.respond (P.error_response ~id:f.orig_id ~kind:"unavailable" ~stage:"cluster.route" message)

(* ------------------------------------------------------------ routing *)

let shard_failure t i =
  let before, after = Health.note_failure t.health i in
  if before <> Health.Down && after = Health.Down then count "shard_down"

let order_indices t key =
  List.filter_map (fun name -> index_of t name) (Ring.order t.ring key)

let dispatch t (f : fwd) =
  let order = order_indices t f.key in
  let owner = match order with i :: _ -> Some i | [] -> None in
  match
    List.find_opt (fun i -> (not (List.mem i f.tried)) && Health.routable t.health i) order
  with
  | None -> unavailable f "no routable shard for request"
  | Some i ->
    if owner <> Some i then journal_add t f.key f.body;
    if not (Jobq.push t.shards.(i).queue f) then unavailable f "router draining"

let reroute t i (f : fwd) =
  f.tried <- i :: f.tried;
  Atomic.incr t.failovers;
  count "failover";
  dispatch t f

(* --------------------------------------------------- channel workers *)

let drop_conn slot =
  match !slot with
  | Some c ->
    (try C.close c with _ -> ());
    slot := None
  | None -> ()

let ensure_conn t i slot =
  match !slot with
  | Some c -> Ok c
  | None -> (
    match
      C.connect ~retries:t.config.connect_retries ~backoff:t.config.connect_backoff
        ~recv_timeout:t.config.recv_timeout t.shards.(i).addr
    with
    | Ok c ->
      slot := Some c;
      Ok c
    | Error e -> Error e)

let handle t i slot (f : fwd) =
  if not (Health.routable t.health i) then reroute t i f
  else
    match ensure_conn t i slot with
    | Error _ ->
      shard_failure t i;
      reroute t i f
    | Ok conn -> (
      count "forward";
      match C.send conn f.body with
      | Error _ ->
        count "forward_error";
        drop_conn slot;
        shard_failure t i;
        reroute t i f
      | Ok id -> (
        match C.recv_id conn id with
        | Ok resp ->
          Atomic.incr t.forwarded;
          (match Health.note_success t.health i with
          | `Recovered -> count "shard_up"
          | `Up_already | `Warming | `Needs_warmup -> ());
          relay f resp
        | Error _ ->
          (* every recv_id failure is connection-shaped (overload
             refusal, timeout, disconnect, bad frame) — the shard did
             not answer this request; try its ring successor *)
          count "forward_error";
          drop_conn slot;
          shard_failure t i;
          reroute t i f))

let channel_worker t i () =
  let slot = ref None in
  let rec loop () =
    match Jobq.pop t.shards.(i).queue with
    | None -> drop_conn slot
    | Some f ->
      (try handle t i slot f
       with e ->
         f.respond
           (P.error_response ~id:f.orig_id ~kind:"internal_error" ~stage:"cluster.route"
              (Printexc.to_string e)));
      loop ()
  in
  loop ()

(* ------------------------------------------------- probing and warmup *)

let shard_rpc t i ~timeout body =
  match C.connect ~retries:0 ~recv_timeout:timeout t.shards.(i).addr with
  | Error e -> Error e
  | Ok conn ->
    let r = C.request conn body in
    (try C.close conn with _ -> ());
    r

let stats_body = J.Obj [ ("op", J.Str "stats") ]

(* replay the journalled keys this shard owns into its (cold) cache,
   then let it take traffic again *)
let warmup t i =
  count "warmup";
  Atomic.incr t.warmups;
  let entries = journal_take_for t t.shards.(i).name in
  let ok =
    match
      C.connect ~retries:1 ~backoff:t.config.connect_backoff
        ~recv_timeout:t.config.recv_timeout t.shards.(i).addr
    with
    | Error _ ->
      journal_put_back t entries;
      false
    | Ok conn ->
      let rec go = function
        | [] -> true
        | ((_, body) :: rest) as left -> (
          match C.request conn body with
          | Ok _ | Error (C.Server_error _) ->
            (* a typed refusal (e.g. a stale deadline in the journalled
               body) still means the shard is answering — keep going *)
            count "warmup_replay";
            go rest
          | Error _ ->
            journal_put_back t left;
            false)
      in
      let r = go entries in
      (try C.close conn with _ -> ());
      r
  in
  if ok then begin
    Health.finish_warmup t.health i;
    count "shard_up"
  end
  else shard_failure t i (* Warming -> Down; entries are back in the journal *)

let probe t i =
  count "probe";
  match shard_rpc t i ~timeout:probe_timeout stats_body with
  | Ok _ -> (
    match Health.note_success t.health i with
    | `Recovered -> count "shard_up"
    | `Needs_warmup -> if Health.begin_warmup t.health i then warmup t i
    | `Up_already | `Warming -> ())
  | Error _ ->
    count "probe_fail";
    shard_failure t i

let prober t () =
  let nap () =
    (* sleep in short steps so drain doesn't wait out a full interval *)
    let steps = int_of_float (ceil (Float.max 0.05 t.config.probe_interval /. 0.05)) in
    let i = ref 0 in
    while !i < steps && not (Atomic.get t.stop) do
      Thread.delay 0.05;
      incr i
    done
  in
  while not (Atomic.get t.stop) do
    nap ();
    Array.iteri (fun i _ -> if not (Atomic.get t.stop) then probe t i) t.shards
  done

(* ----------------------------------------------------------- fan-out *)

let queue_depth t =
  Array.fold_left (fun acc s -> acc + Jobq.length s.queue) (Jobq.length t.control) t.shards

let num v = J.Num (float_of_int v)

let merged_stats t =
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let base =
             [
               ("name", J.Str s.name);
               ("addr", J.Str (T.addr_to_string s.addr));
               ("state", J.Str (Health.state_to_string (Health.state t.health i)));
             ]
           in
           match shard_rpc t i ~timeout:t.config.recv_timeout stats_body with
           | Ok resp ->
             (s, Some resp, J.Obj (base @ [ ("stats", Option.value ~default:J.Null (J.member "result" resp)) ]))
           | Error e -> (s, None, J.Obj (base @ [ ("error", J.Str (C.error_to_string e)) ])))
         t.shards)
  in
  let sum f =
    List.fold_left
      (fun acc (_, resp, _) ->
        match resp with Some r -> acc +. Option.value ~default:0.0 (f r) | None -> acc)
      0.0 per_shard
  in
  let in_result path r =
    let rec go node = function
      | [] -> J.num node
      | k :: rest -> ( match J.member k node with Some n -> go n rest | None -> None)
    in
    go r ("result" :: path)
  in
  let served = sum (in_result [ "served" ]) in
  let errors = sum (in_result [ "counters"; "serve"; "response_error" ]) in
  let hits = sum (in_result [ "cache"; "hits" ]) in
  let misses = sum (in_result [ "cache"; "misses" ]) in
  let inserts = sum (in_result [ "cache"; "inserts" ]) in
  let hit_rate = if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 in
  let up, suspect, down, warming = Health.counts t.health in
  P.ok_item ~op:"stats"
    (J.Obj
       [
         ( "cluster",
           J.Obj
             [
               ("shards", num (Array.length t.shards));
               ("up", num up);
               ("suspect", num suspect);
               ("down", num down);
               ("warming", num warming);
               ("forwarded", num (Atomic.get t.forwarded));
               ("failovers", num (Atomic.get t.failovers));
               ("warmups", num (Atomic.get t.warmups));
               ("journal", num (journal_length t));
               ("queue_depth", num (queue_depth t));
               ("uptime_seconds", J.Num (Unix.gettimeofday () -. t.t0));
             ] );
         ( "aggregate",
           J.Obj
             [
               ("served", J.Num served);
               ("errors", J.Num errors);
               ( "cache",
                 J.Obj
                   [
                     ("hits", J.Num hits);
                     ("misses", J.Num misses);
                     ("inserts", J.Num inserts);
                     ("hit_rate", J.Num hit_rate);
                   ] );
             ] );
         ("shards", J.Arr (List.map (fun (_, _, j) -> j) per_shard));
       ])

let shutdown_body = J.Obj [ ("op", J.Str "shutdown") ]

let control_worker t () =
  let rec loop () =
    match Jobq.pop t.control with
    | None -> ()
    | Some (Ctl_stats { id; respond }) ->
      respond (P.with_id ~id (merged_stats t));
      loop ()
    | Some (Ctl_shutdown { id; respond }) ->
      let acked = ref 0 in
      Array.iteri
        (fun i _ ->
          match shard_rpc t i ~timeout:t.config.recv_timeout shutdown_body with
          | Ok _ -> incr acked
          | Error _ -> ())
        t.shards;
      respond
        (P.with_id ~id
           (P.ok_item ~op:"shutdown"
              (J.Obj [ ("draining", J.Bool true); ("shards_acked", num !acked) ])));
      loop ()
  in
  loop ()

(* ------------------------------------------------------------- submit *)

let strip_id raw =
  match J.parse raw with
  | Error e -> Error ("unparseable forwarded payload: " ^ e)
  | Ok (J.Obj fields) -> Ok (J.Obj (List.filter (fun (k, _) -> k <> "id") fields))
  | Ok _ -> Error "forwarded payload is not an object"

let batch_key body_json =
  let module F = Cache.Fingerprint in
  F.key (F.str (F.create "cluster.batch.v1") (J.to_string body_json))

let submit t ~raw (parsed : P.parsed) ~respond =
  let respond = once (fun j -> respond_counted t ~respond j) in
  match parsed.body with
  | Error msg ->
    respond (P.error_response ~id:parsed.id ~kind:"bad_request" ~stage:"serve.protocol" msg)
  | Ok body -> (
    match body.op with
    | P.Shutdown ->
      if not (Jobq.push t.control (Ctl_shutdown { id = parsed.id; respond })) then
        (* already draining: a second shutdown still answers *)
        respond
          (P.with_id ~id:parsed.id
             (P.ok_item ~op:"shutdown"
                (J.Obj [ ("draining", J.Bool true); ("shards_acked", num 0) ])))
    | P.Stats ->
      if not (Jobq.push t.control (Ctl_stats { id = parsed.id; respond })) then
        respond
          (P.error_response ~id:parsed.id ~kind:"unavailable" ~stage:"cluster.route"
             "router draining")
    | P.Compile _ | P.Pulses _ | P.Batch _ -> (
      match strip_id raw with
      | Error msg ->
        respond
          (P.error_response ~id:parsed.id ~kind:"internal_error" ~stage:"cluster.route" msg)
      | Ok body_json ->
        let key =
          match P.body_key body with Some k -> k | None -> batch_key body_json
        in
        count "route";
        dispatch t { body = body_json; orig_id = parsed.id; key; respond; tried = [] }))

(* ---------------------------------------------------------- lifecycle *)

let drain t =
  if not (Atomic.exchange t.stop true) then begin
    Array.iter (fun s -> Jobq.close s.queue) t.shards;
    Jobq.close t.control;
    List.iter Thread.join t.threads;
    t.threads <- []
  end

let create ?(config = default_config) addr_strings =
  if addr_strings = [] then Error "cluster: no shard addresses given"
  else begin
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | a :: rest -> (
        match T.parse_addr a with
        | Ok addr -> parse_all ((a, addr) :: acc) rest
        | Error e -> Error e)
    in
    match parse_all [] addr_strings with
    | Error e -> Error e
    | Ok pairs ->
      let names = List.map fst pairs in
      if List.length (List.sort_uniq compare names) <> List.length names then
        Error "cluster: duplicate shard address"
      else begin
        let shards =
          Array.of_list
            (List.map (fun (name, addr) -> { name; addr; queue = Jobq.create () }) pairs)
        in
        let t =
          {
            config;
            ring = Ring.create ~vnodes:config.vnodes ~seed:ring_seed names;
            shards;
            health =
              Health.create ~suspect_after ~down_after (Array.length shards);
            control = Jobq.create ();
            journal = Hashtbl.create 256;
            journal_fifo = Queue.create ();
            journal_lock = Mutex.create ();
            served = Atomic.make 0;
            errors = Atomic.make 0;
            forwarded = Atomic.make 0;
            failovers = Atomic.make 0;
            warmups = Atomic.make 0;
            stop = Atomic.make false;
            threads = [];
            t0 = Unix.gettimeofday ();
          }
        in
        let threads = ref [] in
        Array.iteri
          (fun i _ ->
            for _ = 1 to Int.max 1 config.channels do
              threads := Thread.create (channel_worker t i) () :: !threads
            done)
          t.shards;
        threads := Thread.create (control_worker t) () :: !threads;
        threads := Thread.create (prober t) () :: !threads;
        t.threads <- !threads;
        Ok t
      end
  end

let backend t =
  {
    T.submit = (fun ~raw parsed ~respond -> submit t ~raw parsed ~respond);
    queue_depth = (fun () -> queue_depth t);
    drain = (fun () -> drain t);
    served = (fun () -> Atomic.get t.served);
    errors = (fun () -> Atomic.get t.errors);
  }
