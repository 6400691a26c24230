(** Fixed log-bucketed latency histograms, keyed by (stage, name).

    Buckets are powers of two in nanoseconds: bucket [j] (for
    [0 <= j < finite_buckets]) counts durations [d] with
    [prev_bound < d <= 2^(first_exp + j)], Prometheus-style inclusive
    upper bounds; the last bucket ([finite_buckets]) is the +Inf
    overflow. With [first_exp = 10] the finite bounds run 1.024 us ..
    2^36 ns (~68.7 s), bracketing everything from a cache probe to a
    full bench sweep.

    The registry is global and mutex-protected (solver spans arrive from
    every worker domain); [reset] scopes measurements per run. *)

val first_exp : int
val finite_buckets : int

(** [bucket_index dur_ns] — which bucket a duration lands in
    ([finite_buckets] = overflow). Durations [<= 0] land in bucket 0. *)
val bucket_index : int -> int

(** [bucket_upper_ns j] — inclusive upper bound of finite bucket [j];
    raises [Invalid_argument] for the overflow bucket. *)
val bucket_upper_ns : int -> int

val observe : stage:string -> name:string -> int -> unit

(** [on_span e] observes the span's duration under its (stage, name). *)
val on_span : Sink.span_event -> unit

(** A sink that keeps only the histograms: no event is stored, so its
    memory stays bounded however long it runs. *)
val sink : Sink.t

type series = {
  stage : string;
  name : string;
  counts : int array;  (** length [finite_buckets + 1], non-cumulative *)
  sum_ns : int;
  count : int;
}

(** Sorted by (stage, name). *)
val snapshot : unit -> series list

(** [quantile s q] — the inclusive upper bound (in ns) of the bucket
    where the cumulative count first reaches [q * count], i.e. an upper
    estimate of the q-quantile; [nan] for an empty series, and the
    largest finite bound when the quantile falls in the overflow
    bucket. *)
val quantile : series -> float -> float

val reset : unit -> unit
