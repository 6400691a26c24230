(* Per-stage event counters and gauges: retries, fallbacks, cache hits,
   queue depths, ...

   One global table per kind keyed by (stage, name); writes are mutex
   protected so solver calls inside domain-parallel sweeps (Numerics.Par)
   and serve workers aggregate correctly. [reset] scopes measurements per
   run. *)

let lock = Mutex.create ()
let counter_table : (string * string, int ref) Hashtbl.t = Hashtbl.create 64
let gauge_table : (string * string, float ref) Hashtbl.t = Hashtbl.create 16

let add ~stage name n =
  Mutex.lock lock;
  (match Hashtbl.find_opt counter_table (stage, name) with
  | Some r -> r := !r + n
  | None -> Hashtbl.add counter_table (stage, name) (ref n));
  Mutex.unlock lock

let incr ~stage name = add ~stage name 1

let get ~stage name =
  Mutex.lock lock;
  let v =
    match Hashtbl.find_opt counter_table (stage, name) with Some r -> !r | None -> 0
  in
  Mutex.unlock lock;
  v

let set_gauge ~stage name v =
  Mutex.lock lock;
  (match Hashtbl.find_opt gauge_table (stage, name) with
  | Some r -> r := v
  | None -> Hashtbl.add gauge_table (stage, name) (ref v));
  Mutex.unlock lock

let sorted table =
  Mutex.lock lock;
  let flat = Hashtbl.fold (fun (st, n) r acc -> (st, n, !r) :: acc) table [] in
  Mutex.unlock lock;
  List.sort compare flat

let counters () = sorted counter_table
let gauges () = sorted gauge_table

let reset () =
  Mutex.lock lock;
  Hashtbl.reset counter_table;
  Hashtbl.reset gauge_table;
  Mutex.unlock lock
