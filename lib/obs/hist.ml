let first_exp = 10
let finite_buckets = 27

let bucket_upper_ns j =
  if j < 0 || j >= finite_buckets then invalid_arg "Obs.Hist.bucket_upper_ns"
  else 1 lsl (first_exp + j)

let bucket_index dur_ns =
  if dur_ns <= 1 lsl first_exp then 0
  else begin
    (* smallest j with dur <= 2^(first_exp + j) *)
    let rec go j = if j >= finite_buckets then finite_buckets else if dur_ns <= 1 lsl (first_exp + j) then j else go (j + 1) in
    go 1
  end

type cell = { counts : int array; mutable sum_ns : int; mutable count : int }

type series = {
  stage : string;
  name : string;
  counts : int array;
  sum_ns : int;
  count : int;
}

let lock = Mutex.create ()
let table : (string * string, cell) Hashtbl.t = Hashtbl.create 64

let observe ~stage ~name dur_ns =
  Mutex.lock lock;
  let cell =
    match Hashtbl.find_opt table (stage, name) with
    | Some c -> c
    | None ->
      let c = { counts = Array.make (finite_buckets + 1) 0; sum_ns = 0; count = 0 } in
      Hashtbl.add table (stage, name) c;
      c
  in
  let j = bucket_index dur_ns in
  cell.counts.(j) <- cell.counts.(j) + 1;
  cell.sum_ns <- cell.sum_ns + max 0 dur_ns;
  cell.count <- cell.count + 1;
  Mutex.unlock lock

let on_span (e : Sink.span_event) = observe ~stage:e.stage ~name:e.name e.dur_ns
let sink = { Sink.on_span }

let snapshot () =
  Mutex.lock lock;
  let flat =
    Hashtbl.fold
      (fun (stage, name) (c : cell) acc ->
        { stage; name; counts = Array.copy c.counts; sum_ns = c.sum_ns; count = c.count }
        :: acc)
      table []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.stage, a.name) (b.stage, b.name)) flat

let quantile s q =
  if s.count = 0 then Float.nan
  else begin
    let want = Float.max 1.0 (Float.of_int s.count *. q) in
    let rec go j acc =
      if j > finite_buckets then float_of_int (bucket_upper_ns (finite_buckets - 1))
      else begin
        let acc = acc + s.counts.(j) in
        if float_of_int acc >= want then
          float_of_int (bucket_upper_ns (min j (finite_buckets - 1)))
        else go (j + 1) acc
      end
    in
    go 0 0
  end

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock
