open Numerics

let zc = Cx.zero
let oc = Cx.one
let x = Pauli.matrix_1q Pauli.X
let y = Pauli.matrix_1q Pauli.Y
let z = Pauli.matrix_1q Pauli.Z

let h =
  let r = 1.0 /. sqrt 2.0 in
  Mat.of_real_arrays [| [| r; r |]; [| r; -.r |] |]

let s = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.i |] |]
let sdg = Mat.dagger s
let t = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.expi (Float.pi /. 4.0) |] |]
let tdg = Mat.dagger t

let rx theta =
  let c = Cx.of_float (cos (theta /. 2.0)) and s = Cx.mk 0.0 (-.sin (theta /. 2.0)) in
  Mat.of_arrays [| [| c; s |]; [| s; c |] |]

let ry theta =
  let c = cos (theta /. 2.0) and s = sin (theta /. 2.0) in
  Mat.of_real_arrays [| [| c; -.s |]; [| s; c |] |]

let rz theta =
  Mat.of_arrays
    [|
      [| Cx.expi (-.theta /. 2.0); zc |];
      [| zc; Cx.expi (theta /. 2.0) |];
    |]

let phase theta = Mat.of_arrays [| [| oc; zc |]; [| zc; Cx.expi theta |] |]

let u3 theta phi lam =
  let c = cos (theta /. 2.0) and s = sin (theta /. 2.0) in
  Mat.of_arrays
    [|
      [| Cx.of_float c; Cx.neg (Cx.polar s lam) |];
      [| Cx.polar s phi; Cx.polar c (phi +. lam) |];
    |]

let cnot =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 0.; 1. |];
      [| 0.; 0.; 1.; 0. |];
    |]

let cz =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 1.; 0. |];
      [| 0.; 0.; 0.; -1. |];
    |]

let swap =
  Mat.of_real_arrays
    [|
      [| 1.; 0.; 0.; 0. |];
      [| 0.; 0.; 1.; 0. |];
      [| 0.; 1.; 0.; 0. |];
      [| 0.; 0.; 0.; 1. |];
    |]

let iswap =
  Mat.of_arrays
    [|
      [| oc; zc; zc; zc |];
      [| zc; zc; Cx.i; zc |];
      [| zc; Cx.i; zc; zc |];
      [| zc; zc; zc; oc |];
    |]

let sqisw =
  let r = Cx.of_float (1.0 /. sqrt 2.0) in
  let ir = Cx.mk 0.0 (1.0 /. sqrt 2.0) in
  Mat.of_arrays
    [|
      [| oc; zc; zc; zc |];
      [| zc; r; ir; zc |];
      [| zc; ir; r; zc |];
      [| zc; zc; zc; oc |];
    |]

let can cx cy cz =
  let hgen =
    Mat.add
      (Mat.add (Mat.rsmul cx Pauli.xx) (Mat.rsmul cy Pauli.yy))
      (Mat.rsmul cz Pauli.zz)
  in
  Expm.herm_expi hgen ~t:1.0

let b_gate = can (Float.pi /. 4.0) (Float.pi /. 8.0) 0.0
let cphase theta = Mat.of_arrays (Array.init 4 (fun i -> Array.init 4 (fun j -> if i <> j then zc else if i = 3 then Cx.expi theta else oc)))
let rxx theta = can (theta /. 2.0) 0.0 0.0
let ryy theta = can 0.0 (theta /. 2.0) 0.0
let rzz theta = can 0.0 0.0 (theta /. 2.0)

let ccx =
  Mat.init 8 8 (fun i j ->
      let target i = if i < 6 then i else if i = 6 then 7 else 6 in
      if j = target i then oc else zc)

let cswap =
  Mat.init 8 8 (fun i j ->
      let target i = if i = 5 then 6 else if i = 6 then 5 else i in
      if j = target i then oc else zc)

let local2 a b = Mat.kron a b

let embed ~n ~qubits g = Support.embed (Support.make ~n (Array.of_list qubits)) g
