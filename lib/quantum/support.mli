(** A gate's support: its k wires inside an n-qubit register.

    The embedding of a k-qubit gate [g] is zero wherever a row and a
    column differ off the support. The kernels here use a precomputed
    index table of the 2^k rows and columns that agree off the gate's
    wires, so they multiply by [embed g] without forming it. For that they
    need O(4^n 2^k) work instead of O(8^n). They run on the SoA planes
    and allocate nothing.

    Wire conventions are those of {!Gates.embed}: qubit 0 is the most
    significant bit of a register index, and the first listed wire is the
    most significant bit of a gate index.

    Every kernel sums its terms in ascending index order with the
    expressions of {!Numerics.Mat.mul_into}, so it is bit-identical to the
    dense product with [embed g]. The left product keeps exactly the terms
    of the dense product. The right product leaves out only terms that
    are [m[i, p] * 0]. For finite [m] each such term is exactly [±0], and
    adding [±0] never changes an accumulator that starts at [+0]. *)

open Numerics

type t

(** [make ~n qs] is the support of a gate on wires [qs] (in gate tensor
    order) of an [n]-qubit register.
    @raise Invalid_argument on a wire out of range or a repeated wire. *)
val make : n:int -> int array -> t

(** [size s] is [2^k], the dimension of a gate on [s]. *)
val size : t -> int

(** [embed s g] is the dense [2^n x 2^n] embedding of [g]. *)
val embed : t -> Mat.t -> Mat.t

(** [mul_left_into s ~dst g m] computes [dst <- embed g * m]. [dst] must
    not alias [m]. *)
val mul_left_into : t -> dst:Mat.t -> Mat.t -> Mat.t -> unit

(** [mul_right_into s ~dst m g] computes [dst <- m * embed g]. [dst] must
    not alias [m]. *)
val mul_right_into : t -> dst:Mat.t -> Mat.t -> Mat.t -> unit

(** [partial_trace_mul_into s ~dst a b] traces the spectator wires out
    of the [2^n x 2^n] product [a * b] without forming it: [dst[x, y]] is
    the sum over spectator patterns [o], in ascending order, of
    [(a * b)[o + x, o + y]], where [x] and [y] are placed on the support.
    Each entry of the product is summed as {!Numerics.Mat.mul_into} sums
    it, and only the entries the trace reads are formed. Then
    [Tr (a * b * embed g)] equals [Tr (dst * g)] for every gate [g] on
    [s]. [dst] is [2^k x 2^k]. *)
val partial_trace_mul_into : t -> dst:Mat.t -> Mat.t -> Mat.t -> unit
