open Numerics

(* A k-wire gate inside an n-qubit register. Qubit 0 is the most
   significant bit of an n-bit index and the first listed wire the most
   significant bit of a gate index, as in [Gates.embed]. The embedding
   [E = embed g] is block diagonal up to a permutation: E[r, c] is
   g[sub r, sub c] when r and c agree off the support and exactly zero
   otherwise. The index tables below enumerate those blocks so the kernels
   touch only the 2^k x 2^k entries of a block, never the structural
   zeros. *)

type t = {
  n : int;
  size : int;  (* 2^k *)
  spread : int array;  (* gate index a -> its bits at the support positions *)
  order : int array;  (* gate indices sorted by [spread], i.e. by full index *)
  offsets : int array;  (* spectator bit patterns, ascending *)
}

let make ~n qs =
  let k = Array.length qs in
  Array.iteri
    (fun i q ->
      if q < 0 || q >= n then invalid_arg "Support.make: qubit out of range";
      for j = 0 to i - 1 do
        if qs.(j) = q then invalid_arg "Support.make: repeated qubit"
      done)
    qs;
  let size = 1 lsl k in
  let pos = Array.map (fun q -> n - 1 - q) qs in
  let spread =
    Array.init size (fun a ->
        let v = ref 0 in
        Array.iteri (fun i p -> if (a lsr (k - 1 - i)) land 1 = 1 then v := !v lor (1 lsl p)) pos;
        !v)
  in
  let order = Array.init size Fun.id in
  Array.sort (fun a b -> compare spread.(a) spread.(b)) order;
  let mask = spread.(size - 1) in
  let offsets =
    Array.of_list (List.filter (fun o -> o land mask = 0) (List.init (1 lsl n) Fun.id))
  in
  { n; size; spread; order; offsets }

let size s = s.size

let check_gate op s g =
  if Mat.rows g <> s.size || Mat.cols g <> s.size then
    invalid_arg (Printf.sprintf "Support.%s: gate size mismatch" op)

let check_full op s m =
  let dim = 1 lsl s.n in
  if Mat.rows m <> dim || Mat.cols m <> dim then
    invalid_arg (Printf.sprintf "Support.%s: operator size mismatch" op)

let embed s g =
  check_gate "embed" s g;
  let dim = 1 lsl s.n and sz = s.size in
  let e = Mat.create dim dim in
  let ere = Mat.re_plane e and eim = Mat.im_plane e in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  Array.iter
    (fun o ->
      for a = 0 to sz - 1 do
        let row = (o + s.spread.(a)) * dim in
        for b = 0 to sz - 1 do
          let c = o + s.spread.(b) in
          ere.(row + c) <- gre.((a * sz) + b);
          eim.(row + c) <- gim.((a * sz) + b)
        done
      done)
    s.offsets;
  e

(* dst <- embed g * m. Row r of the product sums g[sub r, sub p] * m[p, :]
   over the p of r's block in ascending order and skips zero gate entries:
   exactly the terms, order and expression of [Mat.mul_into] on the dense
   embedding, whose zero-skip drops the structural zeros too. *)
let mul_left_into s ~dst g m =
  check_gate "mul_left_into" s g;
  check_full "mul_left_into" s m;
  check_full "mul_left_into" s dst;
  if Mat.re_plane dst == Mat.re_plane m then invalid_arg "Support.mul_left_into: dst aliases m";
  let dim = 1 lsl s.n and sz = s.size in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  let mre = Mat.re_plane m and mim = Mat.im_plane m in
  let dre = Mat.re_plane dst and dim_ = Mat.im_plane dst in
  Mat.zero_fill dst;
  for u = 0 to Array.length s.offsets - 1 do
    let o = Array.unsafe_get s.offsets u in
    for a = 0 to sz - 1 do
      let doff = (o + Array.unsafe_get s.spread a) * dim in
      for t = 0 to sz - 1 do
        let b = Array.unsafe_get s.order t in
        let er = Array.unsafe_get gre ((a * sz) + b) and ei = Array.unsafe_get gim ((a * sz) + b) in
        if er <> 0.0 || ei <> 0.0 then begin
          let moff = (o + Array.unsafe_get s.spread b) * dim in
          for j = 0 to dim - 1 do
            let br = Array.unsafe_get mre (moff + j) and bi = Array.unsafe_get mim (moff + j) in
            Array.unsafe_set dre (doff + j)
              (Array.unsafe_get dre (doff + j) +. ((er *. br) -. (ei *. bi)));
            Array.unsafe_set dim_ (doff + j)
              (Array.unsafe_get dim_ (doff + j) +. ((er *. bi) +. (ei *. br)))
          done
        end
      done
    done
  done

(* dst <- m * embed g. Entry (i, c) sums m[i, p] * g[sub p, sub c] over the
   p of c's block in ascending order, skipping zero entries of m as
   [Mat.mul_into] does. The terms left out are m[i, p] * 0 for p outside
   c's block: each is exactly +-0, and adding +-0 to an accumulator that
   starts at +0 never changes it, so for finite m the result is the dense
   product bit for bit. *)
let mul_right_into s ~dst m g =
  check_gate "mul_right_into" s g;
  check_full "mul_right_into" s m;
  check_full "mul_right_into" s dst;
  if Mat.re_plane dst == Mat.re_plane m then invalid_arg "Support.mul_right_into: dst aliases m";
  let dim = 1 lsl s.n and sz = s.size in
  let gre = Mat.re_plane g and gim = Mat.im_plane g in
  let mre = Mat.re_plane m and mim = Mat.im_plane m in
  let dre = Mat.re_plane dst and dim_ = Mat.im_plane dst in
  for i = 0 to dim - 1 do
    let row = i * dim in
    for u = 0 to Array.length s.offsets - 1 do
      let o = row + Array.unsafe_get s.offsets u in
      for b = 0 to sz - 1 do
        let sr = ref 0.0 and si = ref 0.0 in
        for t = 0 to sz - 1 do
          let a = Array.unsafe_get s.order t in
          let p = o + Array.unsafe_get s.spread a in
          let ar = Array.unsafe_get mre p and ai = Array.unsafe_get mim p in
          if ar <> 0.0 || ai <> 0.0 then begin
            let br = Array.unsafe_get gre ((a * sz) + b)
            and bi = Array.unsafe_get gim ((a * sz) + b) in
            sr := !sr +. ((ar *. br) -. (ai *. bi));
            si := !si +. ((ar *. bi) +. (ai *. br))
          end
        done;
        let c = o + Array.unsafe_get s.spread b in
        Array.unsafe_set dre c !sr;
        Array.unsafe_set dim_ c !si
      done
    done
  done

(* dst[x, y] <- sum over spectator patterns o (ascending, from +0) of
   (a * b)[o + spread x, o + spread y]. Each product entry is summed as
   [Mat.mul_into] sums it (ascending, zero entries of a skipped, from +0),
   and only the entries the trace reads are formed. *)
let partial_trace_mul_into s ~dst a b =
  check_full "partial_trace_mul_into" s a;
  check_full "partial_trace_mul_into" s b;
  if Mat.rows dst <> s.size || Mat.cols dst <> s.size then
    invalid_arg "Support.partial_trace_mul_into: output size mismatch";
  let dim = 1 lsl s.n and sz = s.size in
  let are = Mat.re_plane a and aim = Mat.im_plane a in
  let bre = Mat.re_plane b and bim = Mat.im_plane b in
  let dre = Mat.re_plane dst and dim_ = Mat.im_plane dst in
  for x = 0 to sz - 1 do
    for y = 0 to sz - 1 do
      let tr = ref 0.0 and ti = ref 0.0 in
      for u = 0 to Array.length s.offsets - 1 do
        let o = Array.unsafe_get s.offsets u in
        let aoff = (o + Array.unsafe_get s.spread x) * dim in
        let c = o + Array.unsafe_get s.spread y in
        let sr = ref 0.0 and si = ref 0.0 in
        for p = 0 to dim - 1 do
          let ar = Array.unsafe_get are (aoff + p) and ai = Array.unsafe_get aim (aoff + p) in
          if ar <> 0.0 || ai <> 0.0 then begin
            let br = Array.unsafe_get bre ((p * dim) + c) and bi = Array.unsafe_get bim ((p * dim) + c) in
            sr := !sr +. ((ar *. br) -. (ai *. bi));
            si := !si +. ((ar *. bi) +. (ai *. br))
          end
        done;
        tr := !tr +. !sr;
        ti := !ti +. !si
      done;
      dre.((x * sz) + y) <- !tr;
      dim_.((x * sz) + y) <- !ti
    done
  done
