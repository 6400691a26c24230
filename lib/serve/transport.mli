(** The one front-end of the compilation service.

    [serve addr] binds a TCP or Unix-domain listener; [serve_fds] serves
    a connected pair of fds (stdin/stdout for [reqisc_cli serve] without
    [--listen]) as a single connection of the same loop, with no
    listener. A {e single event-loop thread} owns every fd: it [select]s
    over the listener, a self-pipe, and all open connections, runs a
    per-connection incremental frame scanner, and feeds complete
    requests to the shared {!Engine} worker pool. Workers never touch
    fds — each job's response is rendered and appended to the
    originating connection's bounded write queue (under that
    connection's lock), and the event loop writes queued bytes out when
    the fd is ready, so many responses coalesce into one [write].
    Responses are matched client-side by ["id"]; completion order may
    differ from send order.

    {b Framing} is negotiated per connection by its first four bytes:
    [{!Frame.magic}] ("RQF1") selects length-prefixed binary frames
    (8-byte header, JSON payload — see {!Frame}); anything else is
    line-delimited JSON. Responses mirror the request framing. Overload
    refusals happen before negotiation and are always JSON lines.

    Lifecycle management (see DESIGN.md "Event loop, framing, and
    coalescing"):

    - {b backpressure} — at [max_connections] active connections a new
      client is answered with one [kind = "overloaded"] error line and
      closed instead of being buffered without bound; a connection whose
      write queue exceeds [8 * Protocol.max_line_bytes] (a peer not
      reading its responses) is dropped;
    - {b load shedding} — at [max_queue_depth] queued engine jobs a
      heavy op is answered [kind = "overloaded"] at parse time, before
      any solver work (stage ["serve.admission"]);
    - {b chaos sites} — with {!Robust.Fault} armed, the transport can
      drop ([frame_drop]) or mangle ([frame_corrupt]) response frames
      and reset connections on receipt ([conn_reset]); every injected
      failure still surfaces to the client as a typed error or clean
      disconnect, never a hang;
    - {b idle timeout} — a connection silent for [idle_timeout] seconds
      is answered with [kind = "timeout"] and closed;
    - {b frame cap} — a JSON line longer than [max_line_bytes], or a
      binary frame declaring a longer payload, is rejected as a
      [bad_request] naming the limit while the scanner discards (never
      buffers) the rest of the frame; a binary frame with a bad magic
      means the stream is desynced — one typed error, then close;
    - {b graceful drain} — a [shutdown] request (from any connection) or
      SIGINT stops accepting and reading, executes everything already
      queued, keeps flushing response bytes until every connection's
      queue is empty, and only then closes the sockets. In-flight
      requests still answer; a request read after the [shutdown] (even
      in the same chunk) is not executed. A loop without a listener
      also drains when its last connection retires — for stdio, on EOF
      once every response is written. *)

type addr = Tcp of string * int | Unix_path of string

(** [parse_addr "tcp:HOST:PORT"] / [parse_addr "unix:PATH"]. *)
val parse_addr : string -> (addr, string) result

val addr_to_string : addr -> string

(** Resolve to a connectable/bindable socket address (TCP hostnames go
    through the resolver). Shared with {!Client}. *)
val sockaddr : addr -> (Unix.sockaddr, string) result

(** The in-process execution engine behind {!serve} and {!serve_fds}. *)
type engine_config = {
  workers : int;  (** worker domains; [0] = auto ({!Numerics.Par.default_domains}) *)
  cache_path : string option;
      (** a {!Cache} store opened here is installed as the process-global
          pulse-synthesis cache (shared by all workers; hits skip
          Algorithm 1) *)
  cache_capacity : int;  (** LRU-tier entries (default 4096) *)
  seed : int64;  (** rng seed for compilation jobs (deterministic per request) *)
  coalesce : bool;
      (** single-flight coalescing of identical in-flight requests
          (default [true]; see {!Engine}) *)
  pace_us : int;
      (** minimum microseconds between heavy-op executions — an explicit
          per-instance capacity model (default [0] = unpaced; see
          {!Engine.create}) *)
}

val default_engine_config : engine_config

(** [open_cache config] opens the configured cache store ([Ok None] when
    [cache_path] is unset). *)
val open_cache : engine_config -> (Cache.t option, string) result

type config = {
  engine : engine_config;
  max_connections : int;  (** accept backpressure threshold (default 64) *)
  idle_timeout : float;  (** seconds; [0.] disables (default 300.) *)
  max_line_bytes : int;  (** request frame cap (default {!Protocol.max_line_bytes}) *)
  max_queue_depth : int;
      (** admission control: a heavy op ([compile]/[pulses]/[batch])
          arriving while the engine queue holds at least this many jobs
          is shed with a typed [overloaded] (stage ["serve.admission"])
          before any solver work; [stats]/[shutdown] and parse errors
          always pass. [0] disables (default 256). *)
}

val default_config : config

type summary = {
  served : int;  (** responses written across all connections *)
  errors : int;  (** responses with [ok = false] *)
  connections : int;  (** connections accepted (admitted, not refused) *)
  refused : int;  (** connections turned away as [overloaded] *)
  elapsed : float;
}

(** The request executor behind the event loop. The loop itself is
    executor-agnostic: it scans frames, applies admission control, and
    hands each parsed request (plus its original [raw] payload text, so a
    forwarding backend can relay without a lossy re-render; [""] for
    synthesized parse-error frames) to [submit], which must arrange for
    [respond] to be called exactly once from any thread. [queue_depth]
    feeds the [max_queue_depth] shed check; [drain] is called once at
    shutdown and must finish all accepted work; [served]/[errors] feed
    the summary. *)
type backend = {
  submit : raw:string -> Protocol.parsed -> respond:(Json.t -> unit) -> unit;
  queue_depth : unit -> int;
  drain : unit -> unit;
  served : unit -> int;
  errors : unit -> int;
}

(** The in-process executor: {!Engine.submit}/[queue_depth]/[drain].
    [raw] is ignored. The engine is NOT drained by [serve_backend]'s
    error path — callers own its lifecycle. *)
val engine_backend : Engine.t -> backend

(** [serve_backend ?config ?ready backend addr] — the event loop alone:
    bind, serve [backend] until drain, report. [config.engine] is unused
    (no engine is created); everything else behaves exactly like
    {!serve}. The cluster router front-end is [serve_backend] over a
    forwarding backend. *)
val serve_backend :
  ?config:config -> ?ready:(addr -> unit) -> backend -> addr -> (summary, string) result

(** [serve ?config ?ready addr] blocks until drain. [ready] fires once
    the listener is bound, with the actual address (a TCP request for
    port [0] reports the kernel-assigned port — the ready banner is how
    tests and cluster scripts spawn shards without port races). [Error]
    on bind failure or when the cache file cannot be opened. Equivalent
    to {!serve_backend} over {!engine_backend} of a fresh engine built
    from [config.engine]. *)
val serve :
  ?config:config -> ?ready:(addr -> unit) -> addr -> (summary, string) result

(** [serve_fds ?config ~input ~output ()] serves one connection that
    reads [input] and writes [output] (e.g. [Unix.stdin]/[Unix.stdout])
    through the same event loop, drain and summary as {!serve}, with no
    listener: EOF on [input], a [shutdown] request or SIGINT drains and
    returns, and so does a write error on [output] (its reader went
    away) once the requests already read have run.
    The caller keeps ownership of both fds (the loop works on duplicates);
    they are nonblocking for the session and set back to blocking on
    return. The stdio CLI passes [idle_timeout = 0.] and
    [max_queue_depth = 0] so a pipe session is never closed for idling
    nor shed. [Error] only when the cache file cannot be opened. *)
val serve_fds :
  ?config:config ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  (summary, string) result
