(** Singular value decomposition of small square complex matrices, built on
    the Hermitian eigensolver, plus the unitary-procrustes helper used by the
    approximate-synthesis sweeps. *)

(** [svd m] returns [(u, s, v)] with [m = u * diag(s) * v†], [u], [v] unitary
    and [s] non-negative, sorted descending. Only square inputs are
    supported. *)
val svd : Mat.t -> Mat.t * float array * Mat.t

(** [unitary_maximizer x] returns the unitary [g] maximizing
    [Re Tr(x * g)]; the maximum value equals the nuclear norm of [x].
    This is the closed-form single-gate update in alternating synthesis. *)
val unitary_maximizer : Mat.t -> Mat.t

(** Buffers for decompositions of one size. *)
type ws

(** [make_ws n] allocates buffers for [n x n] inputs. *)
val make_ws : int -> ws

(** [unitary_maximizer_into ws ~dst x] writes {!unitary_maximizer}[ x]
    into [dst], bit for bit, without allocating unless [x] is
    rank-deficient. *)
val unitary_maximizer_into : ws -> dst:Mat.t -> Mat.t -> unit

(** [nuclear_norm x] is the sum of singular values of [x]. *)
val nuclear_norm : Mat.t -> float
