(* Typed shared-memory accessors and array views. *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Config = Dsm_sim.Config

let cfg = { Config.default with Config.nprocs = 2; page_size = 128 }

let test_scalar_accessors () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  let base = a.Dsm_rsd.Section.base in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.set_f64 t base 3.25;
        Shm.set_i64 t (base + 8) (-42);
        Shm.set_i32 t (base + 16) 123456;
        Alcotest.(check (float 0.0)) "f64" 3.25 (Shm.get_f64 t base);
        Alcotest.(check int) "i64" (-42) (Shm.get_i64 t (base + 8));
        Alcotest.(check int) "i32" 123456 (Shm.get_i32 t (base + 16))
      end)

let test_views_addressing () =
  let sys = Tmk.make cfg in
  let m2 = Tmk.Alloc.array sys "m2" Tmk.F64 ~dims:[ 8; 4 ] in
  let m3 = Tmk.Alloc.array sys "m3" Tmk.F64 ~dims:[ 4; 3; 2 ] in
  (* column-major: first index contiguous *)
  Alcotest.(check int) "m2 (1,0) next to (0,0)" 8
    (Shm.F64_2.addr m2 1 0 - Shm.F64_2.addr m2 0 0);
  Alcotest.(check int) "m2 (0,1) one column later" (8 * 8)
    (Shm.F64_2.addr m2 0 1 - Shm.F64_2.addr m2 0 0);
  Alcotest.(check int) "m3 plane stride" (4 * 3 * 8)
    (Shm.F64_3.addr m3 0 0 1 - Shm.F64_3.addr m3 0 0 0);
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_2.set t m2 3 2 7.5;
        Alcotest.(check (float 0.0)) "get=set" 7.5 (Shm.F64_2.get t m2 3 2);
        Shm.F64_3.set t m3 1 2 1 9.0;
        Alcotest.(check (float 0.0)) "3d get=set" 9.0 (Shm.F64_3.get t m3 1 2 1)
      end)

let test_rmw () =
  let sys = Tmk.make cfg in
  let m2 = Tmk.Alloc.array sys "m2" Tmk.F64 ~dims:[ 8; 4 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_2.set t m2 2 1 10.0;
        Shm.F64_2.rmw t m2 2 1 (fun x -> x *. 3.0);
        Alcotest.(check (float 0.0)) "rmw applied" 30.0 (Shm.F64_2.get t m2 2 1)
      end)

let test_section_helpers () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  let s = Shm.F64_1.section a (8, 15, 1) in
  Alcotest.(check int) "section bytes" 64 (Dsm_rsd.Section.size_bytes s);
  Alcotest.(check int) "length" 64 (Shm.F64_1.length a);
  let s2 =
    Shm.F64_2.section (Tmk.Alloc.array sys "b" Tmk.F64 ~dims:[ 16; 16 ]) (0, 15, 1) (2, 3, 1)
  in
  Alcotest.(check int) "2d section" (16 * 2 * 8) (Dsm_rsd.Section.size_bytes s2)

let test_fault_counting () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p = 0 then
        for k = 0 to 15 do
          Shm.F64_1.set t a k 1.0
        done;
      Tmk.barrier t;
      if p = 1 then ignore (Shm.F64_1.get t a 0));
  let st = Tmk.total_stats sys in
  (* one write fault at p0 (one 128B page touched), one read fault at p1 *)
  Alcotest.(check int) "exactly two faults" 2 st.Dsm_sim.Stats.segv;
  Alcotest.(check int) "one twin" 1 st.Dsm_sim.Stats.twins

let test_write_detection_reset () =
  (* after a release, the next interval's first write faults again (write
     detection), but the twin is kept and the pending diff accumulates
     lazily: one diff will later cover both intervals (TreadMarks' diff
     accumulation) *)
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 16 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then begin
        Shm.F64_1.set t a 0 1.0;
        Tmk.barrier t;
        Shm.F64_1.set t a 0 2.0;
        Tmk.barrier t
      end
      else begin
        Tmk.barrier t;
        Tmk.barrier t
      end);
  let st = Tmk.total_stats sys in
  Alcotest.(check int) "two write faults" 2 st.Dsm_sim.Stats.segv;
  Alcotest.(check int) "one twin copy" 1 st.Dsm_sim.Stats.twins;
  Alcotest.(check int) "no diff materialized until requested" 0
    st.Dsm_sim.Stats.diffs_created

(* {1 Page runs}

   The run accessors must be indistinguishable from the per-element loops
   they replace: same values, same statistics, same trace events. Each
   scenario runs twice, once per access style, and the two observations
   are compared whole. *)

module Sink = Dsm_trace.Sink
module Event = Dsm_trace.Event

let backends =
  [
    ("lrc", Config.Lrc);
    ("hlrc", Config.Hlrc);
    ("inval", Config.Inval);
    ("adaptive", Config.Adaptive);
  ]

type style = Elem | Run

let rows = 40
let cols = 6

type observation = {
  seen : float array array;  (* what processor 0 read *)
  final : float array;  (* the array afterwards, read back by processor 1 *)
  stats : string;  (* Stats.pp of the totals: segv, mprotects, twins, msgs ... *)
  events : Event.t list;
}

(* Processor 1 fills a [rows x cols] array, allocated after a [pad]-word
   array (an odd pad leaves its base, and every column, off page
   boundaries). After a barrier processor 0 reads column 1, read-modify-
   writes column 2 and overwrites column 3 over rows [lo..hi], then reads
   columns 5, 4 and 0 in lockstep, column 5 one row ahead (a stencil's
   touch order); processor 1 reads everything back after a second
   barrier. *)
let scenario ~backend ~page_size ~pad ~lo ~hi style =
  let cfg =
    { Config.default with Config.nprocs = 2; page_size; backend }
  in
  let sys = Tmk.make cfg in
  if pad > 0 then ignore (Tmk.Alloc.array sys "pad" Tmk.F64 ~dims:[ pad ]);
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ rows; cols ] in
  let sink = Sink.create ~nprocs:2 () in
  let seen = Array.make_matrix 4 rows 0.0 in
  let final = Array.make (rows * cols) 0.0 in
  (* lockstep steps: column 5 covers rows lo+1 .. lo+len *)
  let len = max 0 (min (hi - lo + 1) (rows - 1 - lo)) in
  Tmk.run ~trace:sink sys (fun t ->
      let p = Tmk.pid t in
      if p = 1 then
        for j = 0 to cols - 1 do
          for i = 0 to rows - 1 do
            Shm.F64_2.set t a i j (float_of_int ((100 * j) + i))
          done
        done;
      Tmk.barrier t;
      (if p = 0 then
         match style with
         | Elem ->
             for i = lo to hi do
               seen.(0).(i) <- Shm.F64_2.get t a i 1
             done;
             for i = lo to hi do
               Shm.F64_2.rmw t a i 2 (fun x -> (2.0 *. x) +. 1.0)
             done;
             for i = lo to hi do
               Shm.F64_2.set t a i 3 (float_of_int (-i))
             done;
             for s = 0 to len - 1 do
               seen.(1).(lo + 1 + s) <- Shm.F64_2.get t a (lo + 1 + s) 5;
               seen.(2).(lo + s) <- Shm.F64_2.get t a (lo + s) 4;
               seen.(3).(lo + s) <- Shm.F64_2.get t a (lo + s) 0
             done
         | Run ->
             Shm.F64_2.read_col t a 1 ~lo ~hi seen.(0);
             let buf = Array.make rows 0.0 in
             Shm.F64_2.read_col_for_write t a 2 ~lo ~hi buf;
             for i = lo to hi do
               buf.(i) <- (2.0 *. buf.(i)) +. 1.0
             done;
             Shm.F64_2.write_col t a 2 ~lo ~hi buf;
             for i = lo to hi do
               buf.(i) <- float_of_int (-i)
             done;
             Shm.F64_2.write_col t a 3 ~lo ~hi buf;
             Shm.F64_2.read_cols t a ~cols:[| 5; 4; 0 |]
               ~los:[| lo + 1; lo; lo |] ~len
               [| seen.(1); seen.(2); seen.(3) |]);
      Tmk.barrier t;
      if p = 1 then
        for j = 0 to cols - 1 do
          for i = 0 to rows - 1 do
            final.((j * rows) + i) <- Shm.F64_2.get t a i j
          done
        done);
  {
    seen;
    final;
    stats = Format.asprintf "%a" Dsm_sim.Stats.pp (Tmk.total_stats sys);
    events = Sink.events sink;
  }

let same_observation name (e : observation) (r : observation) =
  let floats = Alcotest.(array (float 0.0)) in
  Array.iteri
    (fun k col -> Alcotest.check floats (Printf.sprintf "%s: read %d" name k) col r.seen.(k))
    e.seen;
  Alcotest.check floats (name ^ ": final array") e.final r.final;
  Alcotest.(check string) (name ^ ": stats") e.stats r.stats;
  Alcotest.(check int) (name ^ ": event count") (List.length e.events)
    (List.length r.events);
  Alcotest.(check bool) (name ^ ": event sequence") true (e.events = r.events)

let test_runs_match_elements () =
  List.iter
    (fun (bname, backend) ->
      List.iter
        (fun (page_size, pad, lo, hi) ->
          let name =
            Printf.sprintf "%s ps=%d pad=%d rows %d..%d" bname page_size pad lo hi
          in
          let obs = scenario ~backend ~page_size ~pad ~lo ~hi in
          same_observation name (obs Elem) (obs Run))
        [
          (128, 0, 0, rows - 1) (* aligned base, whole columns *);
          (128, 3, 5, 33) (* unaligned base, mid-page start and end *);
          (64, 5, 1, 38) (* several pages per column *);
          (96, 3, 2, 30) (* page size not a power of two *);
          (128, 3, 7, 6) (* empty runs *);
        ])
    backends

(* Read-for-write faults like [rmw]: one write fault per page touched and
   no read fault, then writing the same rows back faults nothing. *)
let test_read_for_write_faults () =
  List.iter
    (fun (bname, backend) ->
      let page_size = 64 in
      let cfg = { Config.default with Config.nprocs = 2; page_size; backend } in
      let sys = Tmk.make cfg in
      let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ rows; 1 ] in
      let sink = Sink.create ~nprocs:2 () in
      Tmk.run ~trace:sink sys (fun t ->
          if Tmk.pid t = 1 then
            for i = 0 to rows - 1 do
              Shm.F64_2.set t a i 0 (float_of_int i)
            done;
          Tmk.barrier t;
          if Tmk.pid t = 0 then begin
            let buf = Array.make rows 0.0 in
            Shm.F64_2.read_col_for_write t a 0 ~lo:3 ~hi:(rows - 1) buf;
            Shm.F64_2.write_col t a 0 ~lo:3 ~hi:(rows - 1) buf
          end);
      (* rows 3..39 span bytes 24..319: pages 0..4 of 64 bytes *)
      let faults write =
        List.length
          (List.filter
             (fun (e : Event.t) ->
               e.Event.proc = 0
               &&
               match e.Event.kind with
               | Event.Page_fault f -> f.write = write
               | _ -> false)
             (Sink.events sink))
      in
      Alcotest.(check int) (bname ^ ": one write fault per page") 5 (faults true);
      Alcotest.(check int) (bname ^ ": no read fault") 0 (faults false);
      Alcotest.(check int) (bname ^ ": segv at p0") 5
        (Tmk.stats sys).(0).Dsm_sim.Stats.segv)
    backends

let prop_runs_match_elements =
  QCheck.Test.make ~count:40 ~name:"page runs = per-element loops"
    QCheck.(
      make
        ~print:(fun (pad, lo, hi, ps, b) ->
          Printf.sprintf "pad=%d lo=%d hi=%d page_size=%d backend=%d" pad lo hi
            ps b)
        Gen.(
          let* pad = int_bound 9 in
          let* lo = int_bound (rows - 1) in
          let* hi = int_range (lo - 1) (rows - 1) in
          let* ps = map (fun k -> 8 * k) (int_range 2 24) in
          let* b = int_bound (List.length backends - 1) in
          return (pad, lo, hi, ps, b)))
    (fun (pad, lo, hi, page_size, b) ->
      let backend = snd (List.nth backends b) in
      let obs = scenario ~backend ~page_size ~pad ~lo ~hi in
      let e = obs Elem and r = obs Run in
      e.seen = r.seen && e.final = r.final && e.stats = r.stats
      && e.events = r.events)

let test_run_bounds () =
  let sys = Tmk.make cfg in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 8; 2 ] in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then
        Alcotest.check_raises "buffer too short"
          (Invalid_argument "Shm.read_f64s") (fun () ->
            Shm.F64_2.read_col t a 0 ~lo:0 ~hi:7 (Array.make 4 0.0)))

let tests =
  [
    Alcotest.test_case "scalar accessors" `Quick test_scalar_accessors;
    Alcotest.test_case "view addressing" `Quick test_views_addressing;
    Alcotest.test_case "rmw" `Quick test_rmw;
    Alcotest.test_case "section helpers" `Quick test_section_helpers;
    Alcotest.test_case "fault counting" `Quick test_fault_counting;
    Alcotest.test_case "write detection reset" `Quick test_write_detection_reset;
    Alcotest.test_case "page runs = per-element loops" `Quick
      test_runs_match_elements;
    Alcotest.test_case "read-for-write faults like rmw" `Quick
      test_read_for_write_faults;
    Alcotest.test_case "page run bounds" `Quick test_run_bounds;
    QCheck_alcotest.to_alcotest prop_runs_match_elements;
  ]
