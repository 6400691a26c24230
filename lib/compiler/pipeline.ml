type program = Pass.program = Gates of Circuit.t | Pauli of Phoenix.program

let program_to_cnot_input = function
  | Gates c -> Decomp.lower_to_cx c
  | Pauli p -> Phoenix.to_cx_circuit p
