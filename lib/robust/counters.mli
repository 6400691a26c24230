(** The process-wide registry of event counters and gauges, keyed by
    (stage, name), thread- and domain-safe.

    Always on: no sink decides whether a counter or gauge moves, so the
    numbers that explain a run (solver retries, resynthesis fallbacks,
    cache hits, coalesce hits, load sheds, ...) are the same whether or
    not the process is traced. Conventional counter names: ["ok"],
    ["retry"], ["fallback"], ["degraded"], ["failed"],
    ["budget_exceeded"] — but any name works. [Obs.Export] renders the
    registry (Prometheus text, the nested JSON of the server's [stats]
    and the bench reports). *)

val incr : stage:string -> string -> unit
val add : stage:string -> string -> int -> unit
val get : stage:string -> string -> int

(** [set_gauge ~stage name v] — last write wins. *)
val set_gauge : stage:string -> string -> float -> unit

(** Sorted [(stage, name, value)] listings. *)
val counters : unit -> (string * string * int) list

val gauges : unit -> (string * string * float) list

(** Clears counters and gauges. *)
val reset : unit -> unit
