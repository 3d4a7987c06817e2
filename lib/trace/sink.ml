(* Per-processor ring-buffer event sink.

   The run-time holds [Sink.t option]; every instrumentation site guards on
   it before building an event, so a disabled trace costs one pointer
   comparison and allocates nothing. When enabled, emission appends to the
   emitting processor's ring (dropping the oldest events past [capacity])
   and never touches the simulated clocks or statistics, so tracing cannot
   perturb the cost model.

   Rings start empty and double on demand up to [capacity]; a ring wraps
   only once it has reached [capacity], so growth is a plain prefix copy.

   Vector clocks change far less often than events are emitted: an event
   shares its processor's previous snapshot when the live clock still
   equals it, and a fresh copy is taken only on a change. Snapshots are
   never mutated after they are taken.

   Every run executes on the sequential engine one slice at a time, so
   the rings need no locks, and placing each surviving event at its id
   reproduces the run's event stream in emission order. *)

type t = {
  nprocs : int;
  capacity : int;  (* per processor *)
  mask : int;  (* capacity - 1 when a power of two, -1 otherwise *)
  rings : Event.t array array;
  count : int array;  (* total emitted per processor *)
  snap : int array array;  (* each processor's latest vc snapshot *)
  mutable next_id : int;
}

let default_capacity = 1 lsl 18

(* Fills ring slots not yet written; never visible to a consumer. *)
let hole =
  { Event.id = -1; proc = -1; time = 0.0; vc = [||]; kind = Twin { page = 0 } }

let create ?(capacity = default_capacity) ~nprocs () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    nprocs;
    capacity;
    mask = (if capacity land (capacity - 1) = 0 then capacity - 1 else -1);
    rings = Array.make nprocs [||];
    count = Array.make nprocs 0;
    snap = Array.make nprocs [||];
    next_id = 0;
  }

let nprocs t = t.nprocs
let capacity t = t.capacity

let same_vc (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let emit t ~proc ~time ~vc kind =
  Dsm_prof.Prof.tick Dsm_prof.Prof.Trace;
  let id = t.next_id in
  t.next_id <- id + 1;
  let vc =
    let prev = t.snap.(proc) in
    if same_vc prev vc then prev
    else begin
      let s = Array.copy vc in
      t.snap.(proc) <- s;
      s
    end
  in
  let c = t.count.(proc) in
  let slot =
    if c < t.capacity then begin
      let ring = t.rings.(proc) in
      let len = Array.length ring in
      if c = len then begin
        let grown = Array.make (min t.capacity (max 16 (2 * len))) hole in
        Array.blit ring 0 grown 0 len;
        t.rings.(proc) <- grown
      end;
      c
    end
    else if t.mask >= 0 then c land t.mask
    else c mod t.capacity
  in
  t.rings.(proc).(slot) <- { Event.id; proc; time; vc; kind };
  t.count.(proc) <- c + 1

let emitted t = Array.fold_left ( + ) 0 t.count

let dropped_of t p = max 0 (t.count.(p) - t.capacity)
let dropped t =
  let d = ref 0 in
  for p = 0 to t.nprocs - 1 do
    d := !d + dropped_of t p
  done;
  !d

(* Surviving events of one processor, oldest first. *)
let proc_events t p =
  let n = min t.count.(p) t.capacity in
  let start = t.count.(p) - n in
  List.init n (fun i -> t.rings.(p).((start + i) mod t.capacity))

(* Every surviving event at index [id]; slots of dropped events keep
   [hole]. *)
let by_id t =
  let placed = Array.make t.next_id hole in
  Array.iteri
    (fun p ring ->
      for i = 0 to min t.count.(p) t.capacity - 1 do
        let e = ring.(i) in
        placed.(e.Event.id) <- e
      done)
    t.rings;
  placed

let iter f t = Array.iter (fun e -> if e != hole then f e) (by_id t)

let events t =
  Array.fold_right
    (fun e acc -> if e != hole then e :: acc else acc)
    (by_id t) []

let clear t =
  Array.fill t.rings 0 t.nprocs [||];
  Array.fill t.count 0 t.nprocs 0;
  Array.fill t.snap 0 t.nprocs [||];
  t.next_id <- 0

let write_jsonl oc t =
  iter
    (fun e ->
      output_string oc (Event.to_json e);
      output_char oc '\n')
    t
