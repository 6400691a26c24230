type t = {
  lock : Mutex.t;
  capacity : int;
  ring : Sink.span_event option array;
  mutable next : int;  (* total events ever pushed *)
}

let create ?(capacity = 65536) () =
  { lock = Mutex.create (); capacity; ring = Array.make (max 1 capacity) None; next = 0 }

let on_span t (e : Sink.span_event) =
  Hist.on_span e;
  Mutex.lock t.lock;
  t.ring.(t.next mod Array.length t.ring) <- Some e;
  t.next <- t.next + 1;
  Mutex.unlock t.lock

let sink t = { Sink.on_span = on_span t }

let start ?capacity () =
  let t = create ?capacity () in
  Sink.install (sink t);
  t

let stop _ = Sink.uninstall ()

let events t =
  Mutex.lock t.lock;
  let len = Array.length t.ring in
  let stored = min t.next len in
  let first = t.next - stored in
  let out = ref [] in
  for i = t.next - 1 downto first do
    match t.ring.(i mod len) with Some e -> out := e :: !out | None -> ()
  done;
  Mutex.unlock t.lock;
  !out

let event_count t =
  Mutex.lock t.lock;
  let n = t.next in
  Mutex.unlock t.lock;
  n

let dropped t =
  Mutex.lock t.lock;
  let d = max 0 (t.next - Array.length t.ring) in
  Mutex.unlock t.lock;
  d

let with_recorder ?capacity f =
  let prev = Sink.installed () in
  let t = create ?capacity () in
  Sink.install (sink t);
  let finally () = match prev with Some s -> Sink.install s | None -> Sink.uninstall () in
  let v = Fun.protect ~finally f in
  (v, t)
