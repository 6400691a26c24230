(* SVD of small square complex matrices via the Hermitian eigensolver,
   operating on the SoA float planes throughout. *)

(* Gram-Schmidt completion: extend the set of columns of [u] marked valid to a
   full unitary by orthonormalizing standard basis vectors against them.
   Columns are kept as (re, im) float-array pairs — no boxed complex. *)
let complete_basis u valid =
  let n = Mat.rows u in
  let ure = Mat.re_plane u and uim = Mat.im_plane u in
  let cols = ref [] in
  for j = n - 1 downto 0 do
    if valid.(j) then begin
      let cre = Array.make n 0.0 and cim = Array.make n 0.0 in
      for i = 0 to n - 1 do
        cre.(i) <- ure.((i * n) + j);
        cim.(i) <- uim.((i * n) + j)
      done;
      cols := (cre, cim) :: !cols
    end
  done;
  let cols = ref !cols in
  (* dot a b = <a|b> = sum conj(a_i) b_i *)
  let dot (are, aim) (bre, bim) =
    let dr = ref 0.0 and di = ref 0.0 in
    for i = 0 to n - 1 do
      dr := !dr +. (are.(i) *. bre.(i)) +. (aim.(i) *. bim.(i));
      di := !di +. (are.(i) *. bim.(i)) -. (aim.(i) *. bre.(i))
    done;
    (!dr, !di)
  in
  let k = ref 0 in
  while List.length !cols < n && !k < n do
    let ere = Array.make n 0.0 and eim = Array.make n 0.0 in
    ere.(!k) <- 1.0;
    List.iter
      (fun (cre, cim) ->
        let dr, di = dot (cre, cim) (ere, eim) in
        for i = 0 to n - 1 do
          ere.(i) <- ere.(i) -. ((dr *. cre.(i)) -. (di *. cim.(i)));
          eim.(i) <- eim.(i) -. ((dr *. cim.(i)) +. (di *. cre.(i)))
        done)
      !cols;
    let nrm2 = ref 0.0 in
    for i = 0 to n - 1 do
      nrm2 := !nrm2 +. (ere.(i) *. ere.(i)) +. (eim.(i) *. eim.(i))
    done;
    let nrm = Float.sqrt !nrm2 in
    if nrm > 1e-8 then begin
      for i = 0 to n - 1 do
        ere.(i) <- ere.(i) /. nrm;
        eim.(i) <- eim.(i) /. nrm
      done;
      cols := !cols @ [ (ere, eim) ]
    end;
    incr k
  done;
  let arr = Array.of_list !cols in
  let out = Mat.create n n in
  let ore = Mat.re_plane out and oim = Mat.im_plane out in
  Array.iteri
    (fun j (cre, cim) ->
      for i = 0 to n - 1 do
        ore.((i * n) + j) <- cre.(i);
        oim.((i * n) + j) <- cim.(i)
      done)
    arr;
  out

(* Buffers for one n x n decomposition, so the synthesis sweep can run
   its thousands of small SVDs without allocating. *)
type ws = {
  n : int;
  xd : Mat.t;  (* x† *)
  gram : Mat.t;  (* x† x *)
  a : Mat.t;  (* Jacobi scratch *)
  v : Mat.t;  (* eigenvectors of the Gram matrix, unsorted *)
  w : float array;  (* its eigenvalues, unsorted *)
  order : int array;  (* eigenpairs by ascending eigenvalue *)
  s : float array;  (* singular values, descending *)
  vs : Mat.t;  (* right singular vectors, descending *)
  xv : Mat.t;  (* x vs *)
  u : Mat.t;  (* left singular vectors *)
  valid : bool array;
  ud : Mat.t;
}

let make_ws n =
  let m () = Mat.create n n in
  {
    n;
    xd = m ();
    gram = m ();
    a = m ();
    v = m ();
    w = Array.make n 0.0;
    order = Array.make n 0;
    s = Array.make n 0.0;
    vs = m ();
    xv = m ();
    u = m ();
    valid = Array.make n false;
    ud = m ();
  }

(* x = u diag(s) vs† from the eigenpairs of x† x = vs diag(s^2) vs†.
   Fills ws.s and ws.vs and returns u (ws.u, or a fresh completed basis
   when x is rank-deficient). *)
let decompose ws x =
  let n = ws.n in
  if Mat.rows x <> n || Mat.cols x <> n then invalid_arg "Svd: input size mismatch";
  Mat.dagger_into ~dst:ws.xd x;
  Mat.mul_into ~dst:ws.gram ws.xd x;
  Eig.hermitian_into ~a:ws.a ~v:ws.v ~w:ws.w ~order:ws.order ws.gram;
  (* descending: column j takes the eigenpair of rank n-1-j *)
  let vre = Mat.re_plane ws.v and vim = Mat.im_plane ws.v in
  let sre = Mat.re_plane ws.vs and sim = Mat.im_plane ws.vs in
  for j = 0 to n - 1 do
    let e = ws.order.(n - 1 - j) in
    ws.s.(j) <- Float.sqrt (Float.max 0.0 ws.w.(e));
    for i = 0 to n - 1 do
      sre.((i * n) + j) <- vre.((i * n) + e);
      sim.((i * n) + j) <- vim.((i * n) + e)
    done
  done;
  Mat.mul_into ~dst:ws.xv x ws.vs;
  Mat.zero_fill ws.u;
  let mre = Mat.re_plane ws.xv and mim = Mat.im_plane ws.xv in
  let ure = Mat.re_plane ws.u and uim = Mat.im_plane ws.u in
  let full = ref true in
  for j = 0 to n - 1 do
    ws.valid.(j) <- ws.s.(j) > 1e-10;
    if ws.valid.(j) then begin
      let inv = 1.0 /. ws.s.(j) in
      for i = 0 to n - 1 do
        ure.((i * n) + j) <- inv *. mre.((i * n) + j);
        uim.((i * n) + j) <- inv *. mim.((i * n) + j)
      done
    end
    else full := false
  done;
  if !full then ws.u else complete_basis ws.u ws.valid

let svd m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Svd.svd: non-square";
  let ws = make_ws (Mat.rows m) in
  let u = decompose ws m in
  (u, ws.s, ws.vs)

(* maximize Re Tr(x g) over unitary g: with x = u s v†, g = v u†. *)
let unitary_maximizer_into ws ~dst x =
  let u = decompose ws x in
  Mat.dagger_into ~dst:ws.ud u;
  Mat.mul_into ~dst ws.vs ws.ud

let unitary_maximizer x =
  let n = Mat.rows x in
  let g = Mat.create n n in
  unitary_maximizer_into (make_ws n) ~dst:g x;
  g

let nuclear_norm x =
  let _, s, _ = svd x in
  Array.fold_left ( +. ) 0.0 s
