(** Source programs of the ReQISC compiler (Section 5.4).

    Compilation itself is {!Passes.compile_plan}: the [Eff]/[Full]/[Nc]
    modes are named plans over the pass registry of {!Passes}. This
    module only names what the compiler consumes and the CNOT-based
    reference form of it. *)

(** Input programs: Type-I reversible networks (CCX/CX/1Q circuits) or
    Type-II Pauli-rotation programs. *)
type program = Pass.program = Gates of Circuit.t | Pauli of Phoenix.program

(** [program_to_cnot_input p] is the CNOT-based form of the program (what
    the baselines consume, and the reference for Table 1/2 metrics). *)
val program_to_cnot_input : program -> Circuit.t
