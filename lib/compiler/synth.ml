open Numerics

type slot = Free2q of int * int | Free1q of int | Fixed of Gate.t

let slot_wires = function
  | Free2q (a, b) -> [| a; b |]
  | Free1q q -> [| q |]
  | Fixed g -> g.Gate.qubits

(* |Tr(tdag . p)| with the diagonal of the product summed exactly as
   [Mat.mul_into] then [Mat.trace] would: row i's terms in ascending order
   (zero entries of tdag skipped), then the diagonal in ascending order. *)
let trace_fidelity tdag p =
  let d = Mat.rows p in
  let are = Mat.re_plane tdag and aim = Mat.im_plane tdag in
  let bre = Mat.re_plane p and bim = Mat.im_plane p in
  let tr = ref 0.0 and ti = ref 0.0 in
  for i = 0 to d - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for k = 0 to d - 1 do
      let ar = Array.unsafe_get are ((i * d) + k) and ai = Array.unsafe_get aim ((i * d) + k) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let br = Array.unsafe_get bre ((k * d) + i) and bi = Array.unsafe_get bim ((k * d) + i) in
        sr := !sr +. ((ar *. br) -. (ai *. bi));
        si := !si +. ((ar *. bi) +. (ai *. br))
      end
    done;
    tr := !tr +. !sr;
    ti := !ti +. !si
  done;
  Cx.norm (Cx.mk !tr !ti)

let set_identity m =
  Mat.zero_fill m;
  for i = 0 to Mat.rows m - 1 do
    Mat.set_parts m i i 1.0 0.0
  done

(* The sweep multiplies by each slot through its support and keeps every
   intermediate in a workspace allocated once per call: the suffix
   products, two prefix buffers, tdag times a suffix, one environment
   per slot and the SVD buffers. Each product is bit-identical to the dense
   product with the slot's embedding (see [Quantum.Support]). *)
let optimize ?(sweeps = 400) ?(restarts = 6) ?(tol = 1e-10) rng ~n ~target slots =
  let dim = 1 lsl n in
  let slots_arr = Array.of_list slots in
  let m_slots = Array.length slots_arr in
  let tdag = Mat.dagger target in
  let support = Array.map (fun s -> Quantum.Support.make ~n (slot_wires s)) slots_arr in
  let square () = Mat.create dim dim in
  (* suffix.(k) = emb(m-1) ... emb(k) for k >= 1; suffix.(m) is the identity *)
  let suffix = Array.init (m_slots + 1) (fun _ -> square ()) in
  set_identity suffix.(m_slots);
  let prefix = ref (square ()) and spare = ref (square ()) in
  let tdag_suffix = square () in
  let env =
    Array.map
      (fun sup ->
        let k = Quantum.Support.size sup in
        Mat.create k k)
      support
  in
  let svd1 = Svd.make_ws 2 and svd2 = Svd.make_ws 4 in
  let swept = ref 0 in
  let run_restart () =
    (* current slot matrices, fresh each restart: the sweep updates the
       free ones in place *)
    let mats =
      Array.map
        (function
          | Free2q _ -> Quantum.Haar.su4 rng
          | Free1q _ -> Quantum.Haar.su2 rng
          | Fixed g -> g.Gate.mat)
        slots_arr
    in
    (* prefix <- emb(k) prefix, from the identity *)
    let push k =
      Quantum.Support.mul_left_into support.(k) ~dst:!spare mats.(k) !prefix;
      let p = !prefix in
      prefix := !spare;
      spare := p
    in
    set_identity !prefix;
    for k = 0 to m_slots - 1 do
      push k
    done;
    let best = ref (trace_fidelity tdag !prefix) in
    let stall = ref 0 in
    (try
       for _ = 1 to sweeps do
         incr swept;
         for k = m_slots - 1 downto 1 do
           Quantum.Support.mul_right_into support.(k) ~dst:suffix.(k) suffix.(k + 1) mats.(k)
         done;
         set_identity !prefix;
         (* prefix = emb(k-1) ... emb(0) as k advances *)
         for k = 0 to m_slots - 1 do
           (match slots_arr.(k) with
           | Fixed _ -> ()
           | Free2q _ | Free1q _ ->
             (* the transposed environment: the spectator trace of
                prefix . tdag . suffix *)
             Mat.mul_into ~dst:tdag_suffix tdag suffix.(k + 1);
             Quantum.Support.partial_trace_mul_into support.(k) ~dst:env.(k) !prefix tdag_suffix;
             let svd = match slots_arr.(k) with Free2q _ -> svd2 | _ -> svd1 in
             Svd.unitary_maximizer_into svd ~dst:mats.(k) env.(k));
           push k
         done;
         (* the final prefix is the whole circuit *)
         let f = trace_fidelity tdag !prefix in
         let converged = 1.0 -. (!best /. float_of_int dim) < tol in
         (* once below tol, keep polishing toward machine precision *)
         let thresh = if converged then 1e-16 else 1e-13 *. float_of_int dim in
         if f -. !best < thresh then incr stall else stall := 0;
         if f > !best then best := f;
         if 1.0 -. (!best /. float_of_int dim) < 1e-14 then raise Exit;
         if !stall > (if converged then 6 else 12) then raise Exit
       done
     with Exit -> ());
    (* a NaN trace fidelity must read as "no convergence", not compare
       as false against every threshold downstream *)
    let inf = 1.0 -. (!best /. float_of_int dim) in
    (Array.copy mats, if Float.is_nan inf then Float.infinity else inf)
  in
  let best_mats = ref [||] and best_inf = ref infinity in
  (try
     for _ = 1 to restarts do
       let mats, inf = run_restart () in
       if inf < !best_inf then begin
         best_inf := inf;
         best_mats := mats
       end;
       if !best_inf < tol then raise Exit
     done
   with Exit -> ());
  let gates =
    List.concat
      (List.mapi
         (fun i s ->
           match s with
           | Free2q (a, b) -> [ Gate.su4 a b !best_mats.(i) ]
           | Free1q q ->
             if Mat.equal ~tol:1e-11 !best_mats.(i) (Mat.identity 2) then []
             else [ Gate.one_q q !best_mats.(i) ]
           | Fixed g -> [ g ])
         slots)
  in
  Robust.Counters.add ~stage:"compiler.synth" "sweeps" !swept;
  (gates, !best_inf)

let pair_cycle n =
  match n with
  | 2 -> [| (0, 1) |]
  | 3 -> [| (0, 1); (1, 2); (0, 2) |]
  | _ ->
    Array.of_list
      (List.concat_map (fun i -> List.init (n - i - 1) (fun j -> (i, i + j + 1))) (List.init n (fun i -> i)))

let su4_template ~n m =
  let cyc = pair_cycle n in
  let front = List.init n (fun q -> Free1q q) in
  let mid =
    List.init m (fun k ->
        let a, b = cyc.(k mod Array.length cyc) in
        Free2q (a, b))
  in
  let back = List.init n (fun q -> Free1q q) in
  front @ mid @ back

let cx_template ~n m =
  let cyc = pair_cycle n in
  let front = List.init n (fun q -> Free1q q) in
  let mid =
    List.concat
      (List.init m (fun k ->
           let a, b = cyc.(k mod Array.length cyc) in
           [ Fixed (Gate.cx a b); Free1q a; Free1q b ]))
  in
  front @ mid

let search_counts ?(tol = 1e-9) rng ~n ~target ~max_gates ~template ~count_2q =
  if Mat.has_nan target then begin
    (* a poisoned target would make every restart chase NaN infidelities;
       refuse up front so callers take their exact-synthesis fallback *)
    Robust.Counters.incr ~stage:"compiler.synth" "nan_target";
    None
  end
  else begin
    let rec go m =
      if m > max_gates then None
      else begin
        let slots = template ~n m in
        let restarts = if m <= 1 then 2 else 4 + m in
        let gates, inf = optimize ~restarts ~tol rng ~n ~target slots in
        if inf < tol then Some (gates, count_2q gates) else go (m + 1)
      end
    in
    go 0
  end

let count_su4 gates = List.length (List.filter Gate.is_2q gates)

let min_su4 ?(tol = 1e-9) rng ~n ~target ~max_gates =
  search_counts ~tol rng ~n ~target ~max_gates ~template:su4_template ~count_2q:count_su4

let min_cx ?(tol = 1e-9) rng ~n ~target ~max_gates =
  search_counts ~tol rng ~n ~target ~max_gates ~template:cx_template ~count_2q:count_su4

let min_cx_desc ?(tol = 1e-9) rng ~n ~target ~max_gates ~min_gates =
  let rec go m best =
    if m < min_gates then best
    else begin
      let slots = cx_template ~n m in
      let gates, inf = optimize ~restarts:3 ~sweeps:250 ~tol rng ~n ~target slots in
      if inf < tol then go (m - 1) (Some (gates, count_su4 gates)) else best
    end
  in
  go max_gates None
