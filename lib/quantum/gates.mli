(** The standard gate zoo as explicit matrices, plus tensor embedding.

    Conventions:
    - qubit 0 is the leftmost (most significant) tensor factor;
    - for two-qubit controlled gates the first qubit is the control;
    - [can x y z = exp(-i (x XX + y YY + z ZZ))] — the paper's main-text
      canonical-gate convention, used everywhere in this repository. *)

open Numerics

(** {1 Single-qubit gates} *)

val x : Mat.t
val y : Mat.t
val z : Mat.t
val h : Mat.t
val s : Mat.t
val sdg : Mat.t
val t : Mat.t
val tdg : Mat.t

(** [rx theta = exp(-i theta X / 2)], similarly [ry], [rz]. *)
val rx : float -> Mat.t

val ry : float -> Mat.t
val rz : float -> Mat.t

(** [phase theta] is diag(1, e^{i theta}). *)
val phase : float -> Mat.t

(** [u3 theta phi lam] is the standard Euler-angle gate
    [rz phi * ry theta * rz lam] up to the usual OpenQASM phase. *)
val u3 : float -> float -> float -> Mat.t

(** {1 Two-qubit gates} *)

val cnot : Mat.t
val cz : Mat.t
val swap : Mat.t
val iswap : Mat.t

(** [sqisw] is the square root of iSWAP (SQiSW). *)
val sqisw : Mat.t

(** [b_gate] is the Berkeley B gate, locally equivalent to
    [can (pi/4) (pi/8) 0]. *)
val b_gate : Mat.t

(** [can x y z = exp(-i (x XX + y YY + z ZZ))]. *)
val can : float -> float -> float -> Mat.t

(** [cphase theta] is the controlled-phase gate diag(1,1,1,e^{i theta}). *)
val cphase : float -> Mat.t

(** [rxx theta = exp(-i theta XX / 2)], similarly [ryy], [rzz]. *)
val rxx : float -> Mat.t

val ryy : float -> Mat.t
val rzz : float -> Mat.t

(** {1 Three-qubit gates} *)

val ccx : Mat.t
val cswap : Mat.t

(** {1 Embedding} *)

(** [embed ~n ~qubits g] lifts gate [g] (on [List.length qubits] qubits, in
    the order given) to an [n]-qubit unitary acting on those wires
    ({!Support.embed}). Hot loops multiply through {!Support} instead.
    @raise Invalid_argument on a size mismatch, a wire out of range or a
    repeated wire. *)
val embed : n:int -> qubits:int list -> Mat.t -> Mat.t

(** [local2 a b] is [a ⊗ b] for 2x2 [a], [b]. *)
val local2 : Mat.t -> Mat.t -> Mat.t
