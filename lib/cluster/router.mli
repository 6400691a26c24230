(** Fingerprint-routed front-end for a sharded compilation cluster.

    A router is a {!Serve.Transport.backend}: the ordinary event loop
    accepts client connections and hands every parsed request here, and
    the router forwards it — over pooled {!Serve.Client} connections —
    to one of N backend shards, each an ordinary [serve --listen]
    instance owning a disjoint cache partition.

    {b Placement.} Heavy ops ([compile]/[pulses]/[batch]) are routed by
    the {!Cache.Fingerprint} of the request body ({!Serve.Protocol.body_key},
    the same key the engine coalesces on) through a consistent-hash
    {!Ring}, so identical requests always land on the same shard and its
    cache partition stays hot. The client-facing protocol is unchanged:
    a cluster of shards answers exactly like one server.

    {b Failover.} Shard health is probed periodically ([stats] with a
    timeout) and tracked by {!Health}. A forward that dies on a
    connection-shaped error is retried on the ring successor
    ({!Ring.order}); only when every shard has been tried does the
    client see a typed [unavailable] (stage ["cluster.route"]). Requests
    served away from their owner are journalled (bounded FIFO), and a
    shard that answers probes again after being Down is warmed back up —
    its journalled keys are replayed into its cache — before it resumes
    taking traffic.

    {b Fan-out ops.} [stats] answers with a merged view: a ["cluster"]
    block (health counts, forward/failover/warmup totals, journal and
    queue depth), an ["aggregate"] block (served/errors and cache
    hits/misses summed across shards), and a per-shard array.
    [shutdown] is fanned to every shard and then drains the router
    itself. Every routing event is counted in {!Robust.Counters} stage
    ["serve.cluster"].

    Thread model: [channels] forwarding threads per shard (each owning
    its own client connection), one control thread for fan-out ops, one
    prober. {!drain} closes the queues, finishes accepted work, and
    joins them all. *)

type config = {
  vnodes : int;  (** ring points per shard (default 128) *)
  channels : int;  (** forwarding connections per shard (default 2) *)
  connect_retries : int;  (** extra connect attempts per forward (default 2) *)
  connect_backoff : float;  (** connect retry ladder base, seconds (default 0.02) *)
  recv_timeout : float;  (** per-response receive bound, seconds (default 10.) *)
  probe_interval : float;  (** seconds between health probes (default 1.) *)
}

val default_config : config

(** The ring hash seed ([0x51C]): a workload that must place keys exactly
    as the router does rebuilds the ring with [vnodes] and this seed.
    The other fixed policies are a 2 s probe timeout, Suspect after one
    and Down after two consecutive failures, and a 4096-key failover
    journal. *)
val ring_seed : int

type t

(** [create ?config addrs] — one queue + [channels] workers per shard,
    plus control and prober threads, all started immediately.
    [Error] if [addrs] is empty, contains duplicates, or fails
    {!Serve.Transport.parse_addr}. *)
val create : ?config:config -> string list -> (t, string) result

(** The transport seam: pass to {!Serve.Transport.serve_backend}. *)
val backend : t -> Serve.Transport.backend

(** Stop accepting, finish queued work, join every thread. Idempotent.
    (Called by the transport at drain; exposed for tests.) *)
val drain : t -> unit
