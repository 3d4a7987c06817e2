(* Protocol event tracing and the LRC invariant checker.

   Covers: the checker over every application at 1/2/4/8 processors (zero
   violations), trace-on/trace-off determinism (clocks, statistics and
   results bit-identical), the ring-buffer sink, synthetic violating traces
   (the checker must catch them), per-phase summaries, the bounded
   piggy-backed-request table, lock grant ordering under contention, and
   exception propagation out of the fiber scheduler. *)

module Config = Dsm_sim.Config
module Engine = Dsm_sim.Engine
module Event = Dsm_trace.Event
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
module Tmk = Dsm_tmk.Tmk
module Types = Dsm_tmk.Types
open Dsm_apps.App_common

let cfg_n nprocs = { Config.default with Config.nprocs = nprocs }

let check_clean name sink =
  Alcotest.(check int) (name ^ ": no dropped events") 0 (Sink.dropped sink);
  match Check.run_sink sink with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d violations, first: %a" name (List.length vs)
        Check.pp_violation (List.hd vs)

(* {1 Checker over the applications}

   Reduced data sets (the checker cost is linear in the trace, and every
   protocol path is exercised at these sizes too): every app, first and
   last optimization level, 1/2/4/8 processors. *)

let last l = List.fold_left (fun _ x -> x) (List.hd l) l

let check_app_levels (type p)
    (module A : Dsm_apps.Workload.KERNEL with type params = p) (prm : p) () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun level ->
          let sink = Sink.create ~nprocs () in
          let r = A.run_tmk ~trace:sink (cfg_n nprocs) prm ~level ~async:true in
          let name =
            Printf.sprintf "%s %s p%d" A.name (opt_level_name level) nprocs
          in
          Alcotest.(check (float 1e-6)) (name ^ ": verified") 0.0 r.max_err;
          Alcotest.(check bool)
            (name ^ ": traced something")
            true
            (Sink.emitted sink > 0);
          check_clean name sink)
        [ List.hd A.levels; last A.levels ])
    [ 1; 2; 4; 8 ]

let jacobi_prm =
  let open Dsm_apps.Jacobi in
  { small with m = 128; iters = 3 }

let shallow_prm =
  let open Dsm_apps.Shallow in
  { small with m = 64; n = 32; steps = 3 }

let gauss_prm =
  let open Dsm_apps.Gauss in
  { small with m = 64 }

let mgs_prm =
  let open Dsm_apps.Mgs in
  { small with m = 48; n = 32 }

let fft3d_prm =
  let open Dsm_apps.Fft3d in
  { small with n = 8; iters = 2 }

let is_prm =
  let open Dsm_apps.Is in
  { small with n_keys = 1 lsl 12; n_buckets = 1 lsl 8; reps = 2 }

(* {1 Determinism: tracing is invisible to the simulation} *)

let test_trace_off_identical () =
  let run trace =
    let sink = if trace then Some (Sink.create ~nprocs:4 ()) else None in
    Dsm_apps.Jacobi.run_tmk ?trace:sink (cfg_n 4) jacobi_prm
      ~level:Sync_merge ~async:true
  in
  let off = run false
  and on_ = run true in
  Alcotest.(check (float 0.0)) "elapsed identical" off.time_us on_.time_us;
  Alcotest.(check bool) "stats identical" true (off.stats = on_.stats);
  Alcotest.(check (float 0.0)) "results identical" off.max_err on_.max_err

let test_trace_off_identical_locks () =
  (* lock-heavy program compared field by field, including per-processor
     clocks and the shared array contents *)
  let build () = Tmk.make (cfg_n 4) in
  let program a t =
    let p = Tmk.pid t in
    for i = 0 to 19 do
      Tmk.lock_acquire t 0;
      let v = Dsm_tmk.Shm.F64_1.get t a 0 in
      Dsm_tmk.Shm.F64_1.set t a 0 (v +. 1.0);
      Tmk.charge t (float_of_int (((p + i) mod 3) * 100));
      Tmk.lock_release t 0;
      if i mod 5 = 4 then Tmk.barrier t
    done
  in
  let final sys a =
    let v = ref [] in
    Tmk.run sys (fun t ->
        if Tmk.pid t = 0 then
          v := [ Dsm_tmk.Shm.F64_1.get t a 0 ]);
    !v
  in
  let sys0 = build () in
  let a0 = Tmk.Alloc.array sys0 "a" Tmk.F64 ~dims:[ 8 ] in
  Tmk.run sys0 (program a0);
  let t0 = Tmk.elapsed sys0
  and s0 = Array.to_list (Tmk.stats sys0) in
  let sys1 = build () in
  let a1 = Tmk.Alloc.array sys1 "a" Tmk.F64 ~dims:[ 8 ] in
  let sink = Sink.create ~nprocs:4 () in
  Tmk.run ~trace:sink sys1 (program a1);
  let t1 = Tmk.elapsed sys1
  and s1 = Array.to_list (Tmk.stats sys1) in
  Alcotest.(check (float 0.0)) "elapsed identical" t0 t1;
  Alcotest.(check bool) "per-processor stats identical" true (s0 = s1);
  let m0 = final sys0 a0
  and m1 = final sys1 a1 in
  Alcotest.(check bool) "memory identical" true (m0 = m1);
  Alcotest.(check int) "counter" 80 (int_of_float (List.hd m0));
  check_clean "lock program" sink

(* {1 Sink mechanics} *)

let dummy_kind = Event.Lock_request { lock = 0 }

let test_sink_ring () =
  let s = Sink.create ~capacity:4 ~nprocs:1 () in
  for i = 0 to 9 do
    Sink.emit s ~proc:0 ~time:(float_of_int i) ~vc:[| 0 |] dummy_kind
  done;
  Alcotest.(check int) "emitted" 10 (Sink.emitted s);
  Alcotest.(check int) "dropped" 6 (Sink.dropped s);
  let evs = Sink.events s in
  Alcotest.(check (list int)) "oldest dropped, order kept" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Event.t) -> e.id) evs);
  (* an overflowed sink must not claim a clean replay *)
  Alcotest.(check bool) "trace-dropped violation" true
    (List.exists
       (fun (v : Check.violation) -> v.rule = "trace-dropped")
       (Check.run_sink s));
  Sink.clear s;
  Alcotest.(check int) "cleared" 0 (Sink.emitted s)

let test_sink_jsonl () =
  let s = Sink.create ~nprocs:2 () in
  Sink.emit s ~proc:0 ~time:1.5 ~vc:[| 1; 0 |]
    (Event.Notice_send { seq = 1; pages = [ 3; 4 ] });
  Sink.emit s ~proc:1 ~time:2.0 ~vc:[| 0; 0 |]
    (Event.Page_fault { page = 3; write = false; fetch = true });
  let file = Filename.temp_file "dsm_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      Sink.write_jsonl oc s;
      close_out oc;
      let ic = open_in file in
      let lines = In_channel.input_lines ic in
      close_in ic;
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "looks like a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        lines;
      let contains hay needle =
        let nh = String.length hay
        and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "event name serialized" true
        (contains (List.hd lines) "\"ev\":\"notice_send\""))

(* The sink reads the live vector clock: later mutation of the caller's
   array never reaches a stored event, and a processor's consecutive
   events with equal clocks share one snapshot. *)
let test_sink_vc_snapshots () =
  let s = Sink.create ~nprocs:2 () in
  let vc = [| 0; 0 |] in
  Sink.emit s ~proc:0 ~time:0.0 ~vc dummy_kind;
  vc.(0) <- 1;
  Sink.emit s ~proc:0 ~time:1.0 ~vc dummy_kind;
  Sink.emit s ~proc:0 ~time:2.0 ~vc:(Array.copy vc) dummy_kind;
  Sink.emit s ~proc:1 ~time:3.0 ~vc dummy_kind;
  vc.(1) <- 5;
  Sink.emit s ~proc:0 ~time:4.0 ~vc dummy_kind;
  match List.map (fun (e : Event.t) -> e.vc) (Sink.events s) with
  | [ v0; v1; v2; v3; v4 ] ->
      Alcotest.(check (array int)) "first event unchanged" [| 0; 0 |] v0;
      Alcotest.(check (array int)) "second event" [| 1; 0 |] v1;
      Alcotest.(check bool) "equal consecutive vcs shared" true (v1 == v2);
      Alcotest.(check bool) "snapshot, not the live array" true (v1 != vc);
      Alcotest.(check (array int)) "other processor" [| 1; 0 |] v3;
      Alcotest.(check (array int)) "changed vc copied" [| 1; 5 |] v4;
      Alcotest.(check (array int)) "earlier snapshot kept" [| 1; 0 |] v2
  | l -> Alcotest.failf "%d events" (List.length l)

(* Rings grow on demand, then wrap at [capacity] (power of two or not):
   each processor keeps its newest [capacity] events, and [iter] and
   [events] merge them in id order. *)
let test_sink_growth () =
  List.iter
    (fun capacity ->
      let counts = [| 0; 7; 250; 33 |] in
      let s = Sink.create ~capacity ~nprocs:4 () in
      let ids = Array.make 4 [] and next = ref 0 in
      for i = 0 to 249 do
        Array.iteri
          (fun p n ->
            if i < n then begin
              Sink.emit s ~proc:p ~time:(float_of_int !next) ~vc:[| i |]
                dummy_kind;
              ids.(p) <- !next :: ids.(p);
              incr next
            end)
          counts
      done;
      let name what = Printf.sprintf "capacity %d: %s" capacity what in
      let kept p =
        List.filteri (fun i _ -> i < capacity) ids.(p) |> List.rev
      in
      let id_of (e : Event.t) =
        Alcotest.(check (float 0.0)) (name "payload") (float_of_int e.id)
          e.time;
        e.id
      in
      Alcotest.(check int) (name "emitted") 290 (Sink.emitted s);
      Array.iteri
        (fun p n ->
          Alcotest.(check int) (name "dropped_of")
            (max 0 (n - capacity)) (Sink.dropped_of s p);
          Alcotest.(check (list int)) (name "proc_events") (kept p)
            (List.map id_of (Sink.proc_events s p)))
        counts;
      let all = List.sort compare (List.concat_map kept [ 0; 1; 2; 3 ]) in
      Alcotest.(check (list int)) (name "events") all
        (List.map id_of (Sink.events s));
      let visited = ref [] in
      Sink.iter (fun e -> visited := e.id :: !visited) s;
      Alcotest.(check (list int)) (name "iter") all (List.rev !visited))
    [ 1; 3; 4; 5; 16; 100; 256; 1000 ]

(* The checker over a sink consumes the events in place; it must report
   exactly what the replay of the event list reports. *)
let test_run_sink_is_replay () =
  let agree name ~nprocs sink =
    let dropped, rest =
      List.partition
        (fun (v : Check.violation) -> v.rule = "trace-dropped")
        (Check.run_sink sink)
    in
    Alcotest.(check int) (name ^ ": trace-dropped iff overflow")
      (if Sink.dropped sink > 0 then 1 else 0)
      (List.length dropped);
    Alcotest.(check bool) (name ^ ": run_sink = run events") true
      (rest = Check.run ~nprocs (Sink.events sink))
  in
  let kernels =
    [
      ("jacobi", fun ?trace cfg ->
          Dsm_apps.Jacobi.run_tmk ?trace cfg jacobi_prm ~level:Push_opt
            ~async:true);
      ("shallow", fun ?trace cfg ->
          Dsm_apps.Shallow.run_tmk ?trace cfg shallow_prm ~level:Cons_elim
            ~async:true);
      ("gauss", fun ?trace cfg ->
          Dsm_apps.Gauss.run_tmk ?trace cfg gauss_prm ~level:Base ~async:true);
      ("mgs", fun ?trace cfg ->
          Dsm_apps.Mgs.run_tmk ?trace cfg mgs_prm ~level:Push_opt ~async:true);
      ("fft3d", fun ?trace cfg ->
          Dsm_apps.Fft3d.run_tmk ?trace cfg fft3d_prm ~level:Base ~async:true);
      ("is", fun ?trace cfg ->
          Dsm_apps.Is.run_tmk ?trace cfg is_prm ~level:Comm_aggr ~async:true);
    ]
  in
  let run name ?capacity cfg kernel =
    let nprocs = cfg.Config.nprocs in
    let sink = Sink.create ?capacity ~nprocs () in
    ignore (kernel ?trace:(Some sink) cfg);
    agree name ~nprocs sink
  in
  List.iter
    (fun (app, kernel) ->
      List.iter
        (fun (bname, backend) ->
          run (app ^ "/" ^ bname) { (cfg_n 4) with Config.backend } kernel)
        [
          ("lrc", Config.Lrc);
          ("hlrc", Config.Hlrc);
          ("inval", Config.Inval);
          ("adaptive", Config.Adaptive);
        ])
    kernels;
  let jacobi = List.assoc "jacobi" kernels in
  run "jacobi/drop"
    { (cfg_n 4) with Config.net_drop = 0.05; net_dup = 0.02 }
    jacobi;
  run "jacobi/crash"
    {
      (cfg_n 4) with
      Config.backend = Config.Hlrc;
      replicas = 3;
      crash = [ (1, 5000.0, 3000.0) ];
    }
    jacobi;
  (* an overflowed ring: replay over the surviving suffix *)
  run "jacobi/overflow" ~capacity:64 (cfg_n 4) jacobi

(* More processors than slabs: the tail processors own empty slabs and
   must charge no compute (a negative width once ran their clocks
   backwards, which the checker reports as time-monotone violations). *)
let test_fft3d_empty_slabs () =
  let sink = Sink.create ~nprocs:32 () in
  let r =
    Dsm_apps.Fft3d.run_tmk ~trace:sink (cfg_n 32) Dsm_apps.Fft3d.small
      ~level:Push_opt ~async:true
  in
  Alcotest.(check (float 1e-6)) "verified" 0.0 r.max_err;
  (* 101096 us, the figure of the busy processors, bit for bit *)
  Alcotest.(check (float 0.0))
    "parallel time unchanged" 0x1.8ae7e45a1ca93p+16 r.time_us;
  check_clean "fft3d small p32" sink

(* {1 The checker catches bad traces} *)

let ev id proc time vc kind = { Event.id; proc; time; vc; kind }

let rules vs = List.map (fun (v : Check.violation) -> v.rule) vs

let test_checker_catches_vc_regression () =
  let vs =
    Check.run ~nprocs:1
      [
        ev 0 0 1.0 [| 1 |] (Event.Notice_send { seq = 1; pages = [ 0 ] });
        ev 1 0 2.0 [| 0 |] dummy_kind;
      ]
  in
  Alcotest.(check bool) "vc-monotone flagged" true
    (List.mem "vc-monotone" (rules vs))

let test_checker_catches_stale_read () =
  (* a notice leaves the page with unapplied foreign modifications but the
     copy stays readable: the core no-stale-read invariant *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 0 2.0 [| 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = false });
      ]
  in
  Alcotest.(check bool) "notice-invalidate flagged" true
    (List.mem "notice-invalidate" (rules vs))

let test_checker_catches_unserviced_fault () =
  let vs =
    Check.run ~nprocs:1
      [
        ev 0 0 1.0 [| 0 |]
          (Event.Page_fault { page = 3; write = false; fetch = true });
        ev 1 0 2.0 [| 0 |] (Event.Barrier_arrive { epoch = 0 });
      ]
  in
  Alcotest.(check bool) "fault-serviced flagged" true
    (List.mem "fault-serviced" (rules vs))

let test_checker_catches_future_notice () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 3; page = 1; invalidated = true });
      ]
  in
  Alcotest.(check bool) "notice-future flagged" true
    (List.mem "notice-future" (rules vs))

let test_checker_catches_out_of_order_apply () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 1 2.0 [| 0; 2 |] (Event.Notice_send { seq = 2; pages = [ 2 ] });
        ev 2 0 3.0 [| 0; 0 |]
          (Event.Diff_apply
             { writer = 1; page = 2; order = 9; upto_seq = 2; bytes = 8 });
        ev 3 0 4.0 [| 0; 0 |]
          (Event.Diff_apply
             { writer = 1; page = 2; order = 5; upto_seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "apply-order-writer flagged" true
    (List.mem "apply-order-writer" (rules vs))

(* {2 HLRC home rules} *)

let test_home_events_json_roundtrip () =
  List.iter
    (fun kind ->
      let e = ev 7 1 3.25 [| 2; 5 |] kind in
      let e' = Event.of_json (Event.to_json e) in
      Alcotest.(check bool)
        (Event.kind_name kind ^ " round-trips")
        true (e' = e))
    [
      Event.Home_flush { page = 12; home = 3; seq = 9; bytes = 128 };
      Event.Home_fetch { page = 12; home = 3; bytes = 4096 };
      Event.Home_fetch { page = 0; home = 0; bytes = 0 };
    ]

(* {2 Invalidate / adaptive events} *)

let test_inval_events_json_roundtrip () =
  List.iter
    (fun kind ->
      let e = ev 7 1 3.25 [| 2; 5 |] kind in
      let e' = Event.of_json (Event.to_json e) in
      Alcotest.(check bool)
        (Event.kind_name kind ^ " round-trips")
        true (e' = e))
    [
      Event.Inval_send { page = 12; dst = 3 };
      Event.Inval_ack { page = 12; writer = 0 };
      Event.Downgrade { page = 4095; reader = 7 };
      Event.Proto_switch { page = 3; proto = "hlrc"; owner = 2; epoch = 11 };
      Event.Proto_switch { page = 0; proto = "lrc"; owner = -1; epoch = 0 };
    ]

let test_checker_catches_redundant_inval () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
        ev 1 1 2.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 });
        ev 2 0 3.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
      ]
  in
  Alcotest.(check bool) "inval-redundant flagged" true
    (List.mem "inval-redundant" (rules vs))

let test_checker_catches_unrequested_ack () =
  let vs =
    Check.run ~nprocs:2
      [ ev 0 1 1.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 }) ]
  in
  Alcotest.(check bool) "inval-ack-unrequested flagged" true
    (List.mem "inval-ack-unrequested" (rules vs))

let test_checker_catches_unacked_inval () =
  let vs =
    Check.run ~nprocs:2
      [ ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 }) ]
  in
  Alcotest.(check bool) "inval-unacked flagged" true
    (List.mem "inval-unacked" (rules vs))

let test_checker_catches_stale_writer () =
  (* exclusivity granted to p1 whose own copy was invalidated and never
     refetched *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 1 });
        ev 1 1 2.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 0 });
        ev 2 0 3.0 [| 0; 0 |] (Event.Inval_send { page = 2; dst = 0 });
        ev 3 0 4.0 [| 0; 0 |] (Event.Inval_ack { page = 2; writer = 1 });
      ]
  in
  Alcotest.(check bool) "inval-writer-stale flagged" true
    (List.mem "inval-writer-stale" (rules vs))

(* {2 Tolerant line parsing and file loading} *)

let good_line =
  Event.to_json (ev 0 1 1.5 [| 0; 1 |] (Event.Inval_send { page = 1; dst = 0 }))

(* a structurally valid line whose kind this parser does not know, as a
   trace written by some future binary would contain *)
let unknown_line =
  {|{"id":9,"proc":0,"time":2.000,"vc":[0,0],"ev":"warp_speculate","page":3}|}

let test_parse_line_variants () =
  (match Event.parse_line good_line with
  | Event.Event e ->
      Alcotest.(check string)
        "kind preserved" "inval_send"
        (Event.kind_name e.Event.kind)
  | Event.Unknown_kind _ | Event.Malformed _ ->
      Alcotest.fail "valid line must parse");
  (match Event.parse_line unknown_line with
  | Event.Unknown_kind k ->
      Alcotest.(check string) "kind name reported" "warp_speculate" k
  | Event.Event _ | Event.Malformed _ ->
      Alcotest.fail "unknown kind must be classified, not rejected");
  (match
     Event.parse_line (String.sub good_line 0 (String.length good_line / 2))
   with
  | Event.Malformed _ -> ()
  | Event.Event _ | Event.Unknown_kind _ ->
      Alcotest.fail "torn line must be malformed");
  (match Event.parse_line (good_line ^ " {}") with
  | Event.Malformed _ -> ()
  | Event.Event _ | Event.Unknown_kind _ ->
      Alcotest.fail "trailing garbage must be malformed");
  match
    Event.parse_line
      {|{"id":9,"proc":0,"time":2.000,"vc":[0,0],"ev":"twin","page":2.5}|}
  with
  | Event.Malformed _ -> ()
  | Event.Event _ | Event.Unknown_kind _ ->
      Alcotest.fail "a fractional page must be malformed, not truncated"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let write_tmp contents =
  let path = Filename.temp_file "dsm_trace_test" ".jsonl" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let load_tmp contents =
  let path = write_tmp contents in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Event.load_jsonl path)

let test_load_jsonl_unknown_kind () =
  let l = load_tmp (good_line ^ "\n" ^ unknown_line ^ "\n" ^ good_line ^ "\n") in
  Alcotest.(check int) "known events kept" 2 (List.length l.Event.events);
  Alcotest.(check int) "one unknown kind" 1 l.Event.unknown_kinds;
  match l.Event.warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning on line 2" 2 line;
      Alcotest.(check bool)
        "warning names the kind" true
        (contains ~sub:"warp_speculate" msg)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_load_jsonl_truncated () =
  (* a crash mid-write leaves a torn final line with no newline *)
  let torn = String.sub good_line 0 (String.length good_line - 7) in
  let l = load_tmp (good_line ^ "\n" ^ good_line ^ "\n" ^ torn) in
  Alcotest.(check int) "whole lines kept" 2 (List.length l.Event.events);
  Alcotest.(check int) "no unknown kinds" 0 l.Event.unknown_kinds;
  match l.Event.warnings with
  | [ (line, msg) ] ->
      Alcotest.(check int) "warning on the final line" 3 line;
      Alcotest.(check bool)
        "reported as truncation" true
        (contains ~sub:"truncated final line" msg)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws)

let test_load_jsonl_roundtrip () =
  let evs =
    [
      ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
      ev 1 1 2.0 [| 0; 1 |] (Event.Downgrade { page = 2; reader = 0 });
      ev 2 0 3.0 [| 1; 1 |]
        (Event.Proto_switch { page = 2; proto = "inval"; owner = 1; epoch = 4 });
    ]
  in
  let l =
    load_tmp (String.concat "\n" (List.map Event.to_json evs) ^ "\n")
  in
  Alcotest.(check int) "no warnings" 0 (List.length l.Event.warnings);
  Alcotest.(check bool) "events round-trip" true (l.Event.events = evs)

let test_checker_catches_moving_home () =
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 0 1.0 [| 1; 0; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
        ev 2 0 1.2 [| 1; 0; 0 |]
          (Event.Home_fetch { page = 2; home = 2; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-consistent flagged" true
    (List.mem "home-consistent" (rules vs))

let test_checker_catches_self_flush () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 0; seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-self flagged" true
    (List.mem "home-flush-self" (rules vs))

let test_checker_catches_future_flush () =
  (* flushing an interval the processor never released *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 5; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-future flagged" true
    (List.mem "home-flush-future" (rules vs))

let test_checker_catches_repeated_flush () =
  (* the home-flushed watermark must advance: re-flushing an interval the
     home already covers would re-apply stale bytes *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 2 ] });
        ev 1 0 1.1 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
        ev 2 0 1.2 [| 1; 0 |]
          (Event.Home_flush { page = 2; home = 1; seq = 1; bytes = 8 });
      ]
  in
  Alcotest.(check bool) "home-flush-stale flagged" true
    (List.mem "home-flush-stale" (rules vs))

let test_checker_catches_nonempty_self_fetch () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_fetch { page = 3; home = 0; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-fetch-self flagged" true
    (List.mem "home-fetch-self" (rules vs))

let test_checker_catches_empty_remote_fetch () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 0 1.0 [| 0; 0 |]
          (Event.Home_fetch { page = 3; home = 1; bytes = 0 });
      ]
  in
  Alcotest.(check bool) "home-fetch-bytes flagged" true
    (List.mem "home-fetch-bytes" (rules vs))

let test_checker_catches_behind_home () =
  (* the fetcher holds a notice for p1's interval 1 but the home copy never
     received a flush for it: the flush-precedes-notice soundness condition *)
  let vs =
    Check.run ~nprocs:3
      [
        ev 0 1 1.0 [| 0; 1; 0 |] (Event.Notice_send { seq = 1; pages = [ 4 ] });
        ev 1 0 2.0 [| 0; 0; 0 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 4; invalidated = true });
        ev 2 0 3.0 [| 0; 1; 0 |]
          (Event.Home_fetch { page = 4; home = 2; bytes = 64 });
      ]
  in
  Alcotest.(check bool) "home-fetch-current flagged" true
    (List.mem "home-fetch-current" (rules vs))

let test_checker_accepts_clean_hlrc_trace () =
  (* writer 1 flushes to home 0 before its notice travels; the home
     revalidates locally (zero-byte self fetch) at its fault *)
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 1 1.1 [| 0; 1 |]
          (Event.Home_flush { page = 5; home = 0; seq = 1; bytes = 24 });
        ev 2 1 1.5 [| 0; 1 |] (Event.Barrier_arrive { epoch = 0 });
        ev 3 0 1.6 [| 0; 0 |] (Event.Barrier_arrive { epoch = 0 });
        ev 4 0 2.0 [| 0; 0 |] (Event.Barrier_depart { epoch = 0 });
        ev 5 0 2.1 [| 0; 1 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = true });
        ev 6 1 2.2 [| 0; 1 |] (Event.Barrier_depart { epoch = 0 });
        ev 7 0 3.0 [| 0; 1 |]
          (Event.Page_fault { page = 5; write = false; fetch = true });
        ev 8 0 3.1 [| 0; 1 |]
          (Event.Home_fetch { page = 5; home = 0; bytes = 0 });
        ev 9 0 3.2 [| 0; 1 |] (Event.Fetch_done { page = 5; full = true });
      ]
  in
  (match vs with
  | [] -> ()
  | v :: _ -> Alcotest.failf "unexpected: %a" Check.pp_violation v);
  Alcotest.(check int) "clean" 0 (List.length vs)

let test_checker_accepts_clean_trace () =
  let vs =
    Check.run ~nprocs:2
      [
        ev 0 1 1.0 [| 0; 1 |] (Event.Notice_send { seq = 1; pages = [ 5 ] });
        ev 1 1 1.5 [| 0; 1 |] (Event.Barrier_arrive { epoch = 0 });
        ev 2 0 1.6 [| 0; 0 |] (Event.Barrier_arrive { epoch = 0 });
        ev 3 0 2.0 [| 0; 0 |] (Event.Barrier_depart { epoch = 0 });
        ev 4 0 2.1 [| 0; 1 |]
          (Event.Notice_apply
             { writer = 1; seq = 1; page = 5; invalidated = true });
        ev 5 1 2.2 [| 0; 1 |] (Event.Barrier_depart { epoch = 0 });
        ev 6 0 3.0 [| 0; 1 |]
          (Event.Page_fault { page = 5; write = false; fetch = true });
        ev 7 0 3.5 [| 0; 1 |]
          (Event.Diff_fetch { writer = 1; page = 5; after = 0; upto = 1 });
        ev 8 0 3.6 [| 0; 1 |]
          (Event.Diff_apply
             { writer = 1; page = 5; order = 1; upto_seq = 1; bytes = 16 });
        ev 9 0 4.0 [| 0; 1 |] (Event.Fetch_done { page = 5; full = true });
      ]
  in
  Alcotest.(check int) "clean" 0 (List.length vs)

(* {1 Per-phase summaries} *)

let test_phases () =
  let nprocs = 4 in
  let sink = Sink.create ~nprocs () in
  let r =
    Dsm_apps.Jacobi.run_tmk ~trace:sink (cfg_n nprocs) jacobi_prm ~level:Base
      ~async:false
  in
  Alcotest.(check (float 1e-6)) "verified" 0.0 r.max_err;
  let phases = Dsm_harness.Phases.of_events (Sink.events sink) in
  Alcotest.(check bool) "several phases" true (List.length phases >= 3);
  Alcotest.(check int) "every event attributed"
    (Sink.emitted sink)
    (List.fold_left
       (fun acc (p : Dsm_harness.Phases.phase) -> acc + p.events)
       0 phases);
  let rec monotone = function
    | (a : Dsm_harness.Phases.phase) :: (b : Dsm_harness.Phases.phase) :: tl ->
        a.end_time <= b.end_time && a.epoch < b.epoch && monotone (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "epochs and end times increase" true (monotone phases);
  ignore (Format.asprintf "%a" Dsm_harness.Phases.pp phases)

(* {1 Bounded piggy-backed-request table} *)

let test_wsync_table_bounded () =
  let nprocs = 4 in
  let sys = Tmk.make (cfg_n nprocs) in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 512 ] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      for i = 0 to 49 do
        Tmk.validate_w_sync t
          [ Dsm_tmk.Shm.F64_1.section a (0, 511, 1) ]
          Tmk.Read;
        Tmk.barrier t;
        Dsm_tmk.Shm.F64_1.set t a ((i + (p * 64)) mod 512) 1.0;
        Tmk.barrier t
      done);
  (* every epoch fully departed: both per-epoch tables must be empty (the
     seed kept one wsync_tbl entry per requesting epoch forever) *)
  let b = sys.Types.barrier in
  Alcotest.(check int) "wsync_tbl pruned" 0 (Hashtbl.length b.Types.wsync_tbl);
  Alcotest.(check int) "wsync_done pruned" 0
    (Hashtbl.length b.Types.wsync_done)

(* {1 Lock grant ordering} *)

let test_lock_fifo_staged () =
  (* proc 0 takes the lock at once and holds it long enough for every other
     processor's request to arrive, staggered by known charges: grants must
     follow arrival order *)
  let sys = Tmk.make (cfg_n 4) in
  let order = ref [] in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      if p > 0 then Tmk.charge t (float_of_int p *. 5_000.0);
      Tmk.lock_acquire t 0;
      order := p :: !order;
      if p = 0 then Tmk.charge t 100_000.0;
      Tmk.lock_release t 0);
  Alcotest.(check (list int)) "grants follow arrival order" [ 0; 1; 2; 3 ]
    (List.rev !order)

let test_lock_contention () =
  (* 8 processors x 100 acquires on one lock: mutual exclusion holds, every
     processor gets every grant it asked for, and the run is deterministic *)
  let run () =
    let sys = Tmk.make (cfg_n 8) in
    let counter = ref 0 in
    let grants = ref [] in
    let sink = Sink.create ~nprocs:8 () in
    Tmk.run ~trace:sink sys (fun t ->
        let p = Tmk.pid t in
        for i = 0 to 99 do
          Tmk.lock_acquire t 0;
          counter := !counter + 1;
          grants := p :: !grants;
          Tmk.charge t (float_of_int (((p * 7) + i) mod 5));
          Tmk.lock_release t 0
        done);
    (!counter, List.rev !grants, Tmk.elapsed sys, sink)
  in
  let c0, g0, t0, sink = run () in
  let c1, g1, t1, _ = run () in
  Alcotest.(check int) "all 800 sections ran" 800 c0;
  List.iteri
    (fun p n ->
      Alcotest.(check int) (Printf.sprintf "p%d got 100 grants" p) 100 n)
    (List.init 8 (fun p -> List.length (List.filter (( = ) p) g0)));
  Alcotest.(check bool) "grant order deterministic" true (g0 = g1);
  Alcotest.(check int) "counter deterministic" c0 c1;
  Alcotest.(check (float 0.0)) "elapsed deterministic" t0 t1;
  let requests, granted =
    List.fold_left
      (fun (r, g) (e : Event.t) ->
        match e.kind with
        | Event.Lock_request _ -> (r + 1, g)
        | Event.Lock_grant _ -> (r, g + 1)
        | _ -> (r, g))
      (0, 0) (Sink.events sink)
  in
  Alcotest.(check int) "every request traced" 800 requests;
  Alcotest.(check int) "every grant traced" 800 granted;
  check_clean "contended locks" sink

(* {1 Exception propagation out of the scheduler} *)

let test_engine_proc_failure () =
  let cleaned = Array.make 3 false in
  let flag = ref false in
  let result =
    try
      Engine.run ~nprocs:3 (fun p ->
          Fun.protect
            ~finally:(fun () -> cleaned.(p) <- true)
            (fun () ->
              if p = 1 then begin
                Engine.yield ();
                failwith "boom"
              end
              else Engine.block ~until:(fun () -> !flag)));
      `Returned
    with
    | Engine.Proc_failure (1, Failure m) when m = "boom" ->
        `Failed_as_expected
    | e -> `Wrong_exn (Printexc.to_string e)
  in
  (match result with
  | `Failed_as_expected -> ()
  | `Returned -> Alcotest.fail "expected Proc_failure, got normal return"
  | `Wrong_exn s -> Alcotest.failf "expected Proc_failure (1, boom), got %s" s);
  Alcotest.(check bool) "raising fiber unwound" true cleaned.(1);
  (* the blocked siblings were discontinued, not leaked: their cleanup
     handlers ran *)
  Alcotest.(check bool) "waiting fiber 0 unwound" true cleaned.(0);
  Alcotest.(check bool) "waiting fiber 2 unwound" true cleaned.(2)

let test_tmk_failure_mid_barrier () =
  (* processors 0,1,3 are parked inside the barrier when 2 fails: the
     failure must surface (annotated) instead of leaving the run stuck with
     leaked continuations, and the engine must stay usable afterwards *)
  let sys = Tmk.make (cfg_n 4) in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ 64 ] in
  (match
     Tmk.run sys (fun t ->
         let p = Tmk.pid t in
         Dsm_tmk.Shm.F64_1.set t a p 1.0;
         if p = 2 then failwith "app bug";
         Tmk.barrier t)
   with
  | () -> Alcotest.fail "expected Proc_failure"
  | exception Engine.Proc_failure (2, Failure m) when m = "app bug" -> ()
  | exception e ->
      Alcotest.failf "expected Proc_failure (2, ...), got %s"
        (Printexc.to_string e));
  let sys2 = Tmk.make (cfg_n 4) in
  let b = Tmk.Alloc.array sys2 "b" Tmk.F64 ~dims:[ 64 ] in
  let ok = ref 0 in
  Tmk.run sys2 (fun t ->
      Dsm_tmk.Shm.F64_1.set t b (Tmk.pid t) 2.0;
      Tmk.barrier t;
      if Tmk.pid t = 0 then
        for q = 0 to 3 do
          if Dsm_tmk.Shm.F64_1.get t b q = 2.0 then incr ok
        done);
  Alcotest.(check int) "fresh run works after a failure" 4 !ok

let tests =
  [
    Alcotest.test_case "checker: jacobi 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Jacobi) jacobi_prm);
    Alcotest.test_case "checker: shallow 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Shallow) shallow_prm);
    Alcotest.test_case "checker: gauss 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Gauss) gauss_prm);
    Alcotest.test_case "checker: mgs 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Mgs) mgs_prm);
    Alcotest.test_case "checker: fft3d 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Fft3d) fft3d_prm);
    Alcotest.test_case "checker: is 1/2/4/8 procs" `Quick
      (check_app_levels (module Dsm_apps.Is) is_prm);
    Alcotest.test_case "tracing off = tracing on (app)" `Quick
      test_trace_off_identical;
    Alcotest.test_case "tracing off = tracing on (locks)" `Quick
      test_trace_off_identical_locks;
    Alcotest.test_case "sink: ring overflow" `Quick test_sink_ring;
    Alcotest.test_case "sink: jsonl serialization" `Quick test_sink_jsonl;
    Alcotest.test_case "checker catches vc regression" `Quick
      test_checker_catches_vc_regression;
    Alcotest.test_case "checker catches stale readable page" `Quick
      test_checker_catches_stale_read;
    Alcotest.test_case "checker catches unserviced fault" `Quick
      test_checker_catches_unserviced_fault;
    Alcotest.test_case "checker catches future notice" `Quick
      test_checker_catches_future_notice;
    Alcotest.test_case "checker catches out-of-order apply" `Quick
      test_checker_catches_out_of_order_apply;
    Alcotest.test_case "checker accepts clean trace" `Quick
      test_checker_accepts_clean_trace;
    Alcotest.test_case "home events: json round-trip" `Quick
      test_home_events_json_roundtrip;
    Alcotest.test_case "inval events: json round-trip" `Quick
      test_inval_events_json_roundtrip;
    Alcotest.test_case "parse_line classifies lines" `Quick
      test_parse_line_variants;
    Alcotest.test_case "load_jsonl skips unknown kinds" `Quick
      test_load_jsonl_unknown_kind;
    Alcotest.test_case "load_jsonl tolerates torn final line" `Quick
      test_load_jsonl_truncated;
    Alcotest.test_case "load_jsonl round-trips clean files" `Quick
      test_load_jsonl_roundtrip;
    Alcotest.test_case "checker catches redundant invalidation" `Quick
      test_checker_catches_redundant_inval;
    Alcotest.test_case "checker catches unrequested inval ack" `Quick
      test_checker_catches_unrequested_ack;
    Alcotest.test_case "checker catches unacked invalidation" `Quick
      test_checker_catches_unacked_inval;
    Alcotest.test_case "checker catches stale exclusive writer" `Quick
      test_checker_catches_stale_writer;
    Alcotest.test_case "checker catches moving home" `Quick
      test_checker_catches_moving_home;
    Alcotest.test_case "checker catches self flush" `Quick
      test_checker_catches_self_flush;
    Alcotest.test_case "checker catches future flush" `Quick
      test_checker_catches_future_flush;
    Alcotest.test_case "checker catches repeated flush" `Quick
      test_checker_catches_repeated_flush;
    Alcotest.test_case "checker catches nonempty self fetch" `Quick
      test_checker_catches_nonempty_self_fetch;
    Alcotest.test_case "checker catches empty remote fetch" `Quick
      test_checker_catches_empty_remote_fetch;
    Alcotest.test_case "checker catches fetch from behind home" `Quick
      test_checker_catches_behind_home;
    Alcotest.test_case "checker accepts clean hlrc trace" `Quick
      test_checker_accepts_clean_hlrc_trace;
    Alcotest.test_case "per-phase summaries" `Quick test_phases;
    Alcotest.test_case "wsync table bounded" `Quick test_wsync_table_bounded;
    Alcotest.test_case "lock grants follow arrival order" `Quick
      test_lock_fifo_staged;
    Alcotest.test_case "contended lock: 8 procs x 100" `Quick
      test_lock_contention;
    Alcotest.test_case "engine: fiber failure discontinues siblings" `Quick
      test_engine_proc_failure;
    Alcotest.test_case "tmk: failure mid-barrier" `Quick
      test_tmk_failure_mid_barrier;
    Alcotest.test_case "sink: vc read, not captured" `Quick
      test_sink_vc_snapshots;
    Alcotest.test_case "sink: rings grow, then wrap" `Quick test_sink_growth;
    Alcotest.test_case "checker: run_sink = replay of events" `Quick
      test_run_sink_is_replay;
    Alcotest.test_case "checker: fft3d with empty slabs" `Quick
      test_fft3d_empty_slabs;
  ]
