(* perfbench: the repository benchmark (see README.md in this directory).

   One invocation measures one workload in one process on one OCaml
   domain. Each workload is a closed loop: one client runs one simulated
   run after another, each on a fresh DSM system.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1
              --expect-digest HEX [--size large|small]

   [--trace 0] runs the timed passes with every profiler off and prints
   the end-to-end metrics; [--trace 1] runs untraced passes and one traced
   pass and prints the per-layer metrics. The last line of standard
   output is one JSON object: {correct, attempted, failed, metrics}. Any
   failed run (wrong answer, checker violation, dropped trace event,
   unexpected digest, virtual results that differ between passes) makes
   the exit code 1. *)

module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
module Prof = Dsm_prof.Prof
module A = Dsm_apps.App_common
module Workload = Dsm_apps.Workload

(* {1 Workloads} *)

type workload = {
  name : string;
  app : string;  (** {!Dsm_apps.Registry} name *)
  procs : int;
  backend : Config.backend_kind;
  level : A.opt_level;
  knobs : (string * string) list;
  checked : bool;
      (** record protocol events and replay them through {!Check} on
          every run, as [dsm_run --check] does *)
  paper_speedup : float option;
      (** the paper's Figure 5 speedup for this configuration, read off
          the chart (EXPERIMENTS.md) *)
}

let workloads =
  [
    {
      name = "jacobi8";
      app = "jacobi";
      procs = 8;
      backend = Config.Lrc;
      level = A.Push_opt;
      knobs = [];
      checked = false;
      paper_speedup = Some 7.2;
    };
    {
      name = "kv_write";
      app = "kv";
      procs = 8;
      backend = Config.Lrc;
      level = A.Base;
      knobs = [ ("mix", "write90"); ("granularity", "object") ];
      checked = false;
      paper_speedup = None;
    };
    {
      name = "kv_read";
      app = "kv";
      procs = 8;
      backend = Config.Lrc;
      level = A.Base;
      knobs = [ ("mix", "read90"); ("granularity", "object") ];
      checked = false;
      paper_speedup = None;
    };
    {
      name = "jacobi64_checked";
      app = "jacobi";
      procs = 64;
      backend = Config.Hlrc;
      level = A.Base;
      knobs = [];
      checked = true;
      paper_speedup = None;
    };
  ]

(* {1 Host clock and the benchmark's own spans}

   Spans wrap the benchmark's calls into the library; nothing inside the
   library is instrumented by them. They are recorded only during the
   traced run and kept in memory until the report. *)

(* monotonic, nanosecond resolution: a span around a no-op call must
   still read as the few nanoseconds it took *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = { sname : string; parent : string option; t0 : float; t1 : float }

let spans_on = ref false
let spans : span list ref = ref []
let open_spans : string list ref = ref []

let span name f =
  if not !spans_on then f ()
  else begin
    let parent = match !open_spans with p :: _ -> Some p | [] -> None in
    open_spans := name :: !open_spans;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        spans := { sname = name; parent; t0; t1 = now () } :: !spans)
      f
  end

let span_total name =
  List.fold_left
    (fun acc s -> if s.sname = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !spans

(* A span's self time: its duration minus the time its children cover. *)
let span_self name =
  span_total name
  -. List.fold_left
       (fun acc s -> if s.parent = Some name then acc +. (s.t1 -. s.t0) else acc)
       0.0 !spans

(* {1 One simulated run and its correctness gate} *)

type pass = {
  host_s : float;  (** run plus, for checked workloads, the trace check *)
  minor_mw : float;
  result : A.result;
  fingerprint : string;  (** of every virtual output, see {!fingerprint} *)
  emitted : int;
  dropped : int;
  failures : string list;
}

(* The virtual outputs that must repeat exactly between passes and
   between the traced and untraced runs: clock, every statistics
   counter, the op latencies and the final-memory digest. *)
let fingerprint (r : A.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (r.A.time_us, r.A.stats, r.A.latencies_us, r.A.digest) []))

type runner = {
  w : workload;
  run : Sink.t option -> A.result;
  seq_time_us : float;
  expect_digest : string;
}

let make_runner w ~size_name ~seed ~expect_digest =
  match Dsm_apps.Registry.find w.app with
  | None -> Error ("unknown application " ^ w.app)
  | Some (module W : Workload.S) -> (
      match List.assoc_opt size_name W.sizes with
      | None -> Error ("unknown size " ^ size_name)
      | Some size -> (
          match
            Workload.apply_knobs ~with_knob:W.with_knob
              ~default:W.default_behavior w.knobs
          with
          | Error e -> Error e
          | Ok behavior ->
              (* the seed is the fault plan's PRNG seed, the one seed the
                 system takes; with network faults off it changes nothing *)
              let cfg =
                {
                  Config.default with
                  Config.nprocs = w.procs;
                  backend = w.backend;
                  net_seed = seed;
                }
              in
              Ok
                {
                  w;
                  run =
                    (fun trace ->
                      W.tmk ?trace ~digest:true cfg ~size ~behavior
                        ~level:w.level ~async:true);
                  seq_time_us = W.seq_time_us size;
                  expect_digest;
                }))

let run_pass ?(traced = false) ?reference rn =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let sink =
    if rn.w.checked then Some (Sink.create ~nprocs:rn.w.procs ()) else None
  in
  let result =
    span "span.run" (fun () ->
        if traced then Prof.enable ();
        Fun.protect
          ~finally:(fun () -> if traced then Prof.disable ())
          (fun () -> rn.run sink))
  in
  let t_run = now () in
  let violations = ref 0 and t_check = ref 0.0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  span "span.check" (fun () ->
      let tc = now () in
      span "trace.check" (fun () ->
          Option.iter
            (fun s -> violations := List.length (Check.run_sink s))
            sink);
      t_check := now () -. tc;
      if result.A.max_err <> 0.0 then fail "max_err=%g" result.A.max_err;
      if !violations > 0 then fail "%d checker violations" !violations);
  let host_s = t_run -. t0 +. !t_check in
  let minor_mw = (Gc.minor_words () -. w0) /. 1e6 in
  let emitted, dropped =
    match sink with
    | None -> (0, 0)
    | Some s -> (Sink.emitted s, Sink.dropped s)
  in
  let fp =
    span "span.digest" (fun () ->
        let fp = fingerprint result in
        if dropped > 0 then fail "%d trace events dropped" dropped;
        if result.A.digest <> rn.expect_digest then
          fail "digest %s, expected %s" result.A.digest rn.expect_digest;
        (match reference with
        | Some r when r <> fp ->
            fail "virtual results differ from the first run"
        | _ -> ());
        fp)
  in
  {
    host_s;
    minor_mw;
    result;
    fingerprint = fp;
    emitted;
    dropped;
    failures = List.rev !failures;
  }

(* {1 Statistics} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* {1 Output} *)

type metric = { mname : string; unit_ : string; value : float; note : string }

let m ?(note = "") mname unit_ value = { mname; unit_; value; note }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_report ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "  %-22s %18s %-6s %s\n" x.mname (json_number x.value)
        x.unit_ x.note)
    metrics;
  Printf.printf "  fail_ratio %d/%d = %g\n" failed attempted
    (float_of_int failed /. float_of_int attempted);
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
             (json_number x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body

let report_failures p =
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) p.failures;
  if p.failures = [] then 0 else 1

(* {1 Set-up}

   Set-up is the first, untimed run, which also computes the sequential
   references and fills the memo tables the workload uses. Extra set-up
   samples need a fresh process (the memo tables are process-wide), so
   the benchmark re-executes itself with [--setup-only], one child at a
   time, while they fit in half the run length. *)

let setup rn =
  let t0 = now () in
  let p = run_pass rn in
  (p, now () -. t0)

let child_setup args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.append [| Sys.executable_name; "--setup-only" |] args)
  in
  let line = try Some (input_line ic) with End_of_file -> None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (
      match float_of_string_opt (String.trim l) with
      | Some s -> Ok s
      | None -> Error ("set-up child printed " ^ l))
  | _, Some l -> Error ("set-up child failed: " ^ l)
  | _, None -> Error "set-up child failed"

(* {1 The timed passes: end-to-end metrics} *)

let timed rn ~seconds ~child_args =
  let first, s0 = setup rn in
  (* the heap peak of one run from a fresh process: later runs reuse and
     fragment the heap, so a peak taken after them depends on how many
     fitted in the run length *)
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let failed = ref (report_failures first) and attempted = ref 1 in
  let setups = ref [ s0 ] and spent = ref s0 in
  (* up to two more samples, each taken only if it is expected (at the
     first sample's length) to keep set-up within half the run length *)
  for _ = 1 to 2 do
    if !spent +. s0 <= seconds /. 2.0 then begin
      incr attempted;
      let t0 = now () in
      (match child_setup child_args with
      | Ok s -> setups := s :: !setups
      | Error e ->
          Printf.printf "  FAILED: %s\n" e;
          incr failed);
      spent := !spent +. (now () -. t0)
    end
  done;
  let passes = ref [] and n = ref 0 in
  let start = now () in
  (* at least three runs, so that the median is never the first run
     after set-up, which on the 64-processor workload still grows the
     heap *)
  while !n < 3 || now () -. start < seconds do
    (* each pass starts from a fully collected heap, so garbage of the
       previous one is not charged to it *)
    Gc.compact ();
    let p = run_pass ~reference:first.fingerprint rn in
    incr attempted;
    failed := !failed + report_failures p;
    passes := p :: !passes;
    incr n
  done;
  let r = first.result in
  let virt_us = r.A.time_us in
  let p50, p99 =
    match r.A.latencies_us with
    | Some l when Array.length l > 0 -> (percentile l 0.50, percentile l 0.99)
    | _ -> (virt_us, virt_us)
  in
  let op_note =
    match r.A.latencies_us with
    | Some l -> Printf.sprintf "over %d op latencies" (Array.length l)
    | None -> "kernel: one op is the whole run"
  in
  Printf.printf "  timed runs (s):%s\n"
    (String.concat ""
       (List.rev_map (fun p -> Printf.sprintf " %.3f" p.host_s) !passes));
  let metrics =
    [
      m "run_s" "s"
        (median (List.map (fun p -> p.host_s) !passes))
        ~note:(Printf.sprintf "median of %d timed runs" !n);
      m "alloc_mw" "Mw"
        (median (List.map (fun p -> p.minor_mw) !passes))
        ~note:"minor-heap words per run, median";
      m "peak_heap_mb" "MB"
        (float_of_int (heap * (Sys.word_size / 8)) /. 1e6)
        ~note:"major-heap peak of the set-up run";
      m "setup_s" "s" (median !setups)
        ~note:(Printf.sprintf "median of %d set-ups" (List.length !setups));
      m "virt_s" "sim_s" (virt_us /. 1e6) ~note:"simulated parallel time";
      m "msgs" "count" (float_of_int r.A.stats.Stats.messages);
      m "bytes_mb" "MB" (float_of_int r.A.stats.Stats.bytes /. 1e6);
      m "op_p50_us" "sim_us" p50 ~note:op_note;
      m "op_p99_us" "sim_us" p99 ~note:op_note;
    ]
  in
  (match rn.w.paper_speedup with
  | Some paper ->
      let s = rn.seq_time_us /. virt_us in
      Printf.printf
        "  simulated speedup %.2f; paper Figure 5 Opt ~%.1f (read off the \
         chart); difference %+.1f%%\n"
        s paper
        (100.0 *. (s -. paper) /. paper)
  | None ->
      Printf.printf
        "  no paper reference for this workload: its simulated figures are \
         unvalidated\n");
  (metrics, !attempted, !failed)

(* {1 The traced run: per-layer metrics} *)

(* Per-access host cost of the DSM load/store path: [Shm.F64_2.get/set]
   over warm pages of a 1024^2 array inside a 1-processor run. *)
let shm_micro () =
  let sys = Tmk.make { Config.default with Config.nprocs = 1 } in
  let n = 1024 and reps = 3 in
  let a = Tmk.Alloc.array sys "a" Tmk.F64 ~dims:[ n; n ] in
  let out = ref (0.0, 0.0, 0.0) in
  Tmk.run sys (fun t ->
      for j = 0 to n - 1 do
        for i = 0 to n - 1 do
          Shm.F64_2.set t a i j 1.0
        done
      done;
      let acc = ref 0.0 in
      let w0 = Gc.minor_words () and t0 = now () in
      for _ = 1 to reps do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            acc := !acc +. Shm.F64_2.get t a i j
          done
        done
      done;
      let t1 = now () in
      for _ = 1 to reps do
        for j = 0 to n - 1 do
          for i = 0 to n - 1 do
            Shm.F64_2.set t a i j 2.0
          done
        done
      done;
      let t2 = now () and w2 = Gc.minor_words () in
      let accesses = float_of_int (reps * n * n) in
      if !acc <> accesses then failwith "shm micro-benchmark read wrong values";
      out :=
        ( (t1 -. t0) *. 1e9 /. accesses,
          (t2 -. t1) *. 1e9 /. accesses,
          (w2 -. w0) /. (2.0 *. accesses) ));
  !out

let traced rn =
  let first, setup_s = setup rn in
  let failed = ref (report_failures first) in
  (* two untraced runs: the first lets the heap reach its steady size,
     the second is the base of [trace_overhead] *)
  let pass ~traced =
    Gc.compact ();
    spans_on := traced;
    let p = run_pass ~traced ~reference:first.fingerprint rn in
    spans_on := false;
    failed := !failed + report_failures p;
    p
  in
  let _warm = pass ~traced:false in
  let plain = pass ~traced:false in
  let tr = pass ~traced:true in
  let rows, _ = Prof.report () in
  (* sections without activity have no row *)
  let row name =
    match List.find_opt (fun (r : Prof.row) -> r.Prof.name = name) rows with
    | Some r -> r
    | None -> { Prof.name; calls = 0; ops = 0; self_s = 0.0; alloc_mw = 0.0 }
  in
  let self name = (row name).Prof.self_s in
  let alloc name = (row name).Prof.alloc_mw in
  let calls name = float_of_int (row name).Prof.calls in
  let get_ns, set_ns, words = shm_micro () in
  let s = tr.result.A.stats in
  let c = float_of_int in
  let metrics =
    [
      m "engine_app.self_s" "s" (self "engine+app");
      m "engine_app.alloc_mw" "Mw" (alloc "engine+app");
      m "shm.get_ns" "ns" get_ns;
      m "shm.set_ns" "ns" set_ns;
      m "shm.words_per_access" "words" words;
      m "protocol.self_s" "s" (self "protocol");
      m "protocol.alloc_mw" "Mw" (alloc "protocol");
      m "protocol.calls" "count" (calls "protocol");
      m "tmk.segv" "count" (c s.Stats.segv);
      m "tmk.mprotects" "count" (c s.Stats.mprotects);
      m "tmk.twins" "count" (c s.Stats.twins);
      m "tmk.validates" "count" (c s.Stats.validates);
      m "tmk.obj_skips" "count" (c s.Stats.obj_skips);
      m "tmk.obj_skip_ratio" "ratio"
        (if s.Stats.validates = 0 then 0.0
         else c s.Stats.obj_skips /. c s.Stats.validates);
      m "sync.self_s" "s" (self "sync");
      m "sync.calls" "count" (calls "sync");
      m "tmk.lock_acquires" "count" (c s.Stats.lock_acquires);
      m "tmk.barriers" "count" (c s.Stats.barriers);
      m "tmk.pushes" "count" (c s.Stats.pushes);
      m "diff_create.self_s" "s" (self "diff-create");
      m "diff_create.calls" "count" (calls "diff-create");
      m "diff_apply.self_s" "s" (self "diff-apply");
      m "diff_apply.calls" "count" (calls "diff-apply");
      m "tmk.diffs_created" "count" (c s.Stats.diffs_created);
      m "tmk.diff_bytes_applied" "bytes" (c s.Stats.diff_bytes_applied);
      m "net.self_s" "s" (self "net");
      m "net.calls" "count" (calls "net");
      m "net.retransmits" "count" (c s.Stats.retransmits);
      m "hlrc.home_flushes" "count" (c s.Stats.home_flushes);
      m "hlrc.home_fetches" "count" (c s.Stats.home_fetches);
      m "hlrc.home_flush_mb" "MB" (c s.Stats.home_flush_bytes /. 1e6);
      m "vc.ops" "count" (c (row "vc").Prof.ops);
      m "trace.events" "count" (float_of_int tr.emitted);
      m "trace.dropped" "count" (float_of_int tr.dropped);
      m "trace.check_s" "s" (span_total "trace.check");
      m "unattributed.self_s" "s" (self "(unattributed)");
      m "span.setup" "s" setup_s ~note:"set-up, no child spans";
      m "span.run" "s" (span_self "span.run");
      m "span.check" "s" (span_self "span.check");
      m "span.digest" "s" (span_self "span.digest");
      m "trace_overhead" "ratio" (tr.host_s /. plain.host_s)
        ~note:"traced run / the untraced run before it";
    ]
  in
  Printf.printf "  benchmark spans of the traced run:\n";
  List.iter
    (fun name ->
      Printf.printf "    %-12s total %10.6f s  self %10.6f s\n" name
        (span_total name) (span_self name))
    [ "span.run"; "span.check"; "trace.check"; "span.digest" ];
  Printf.printf "  host profile of the traced run:\n";
  Format.printf "%a@." Prof.pp_table ();
  (metrics, 4, !failed)

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and size = ref "large" and expect = ref "" in
  let setup_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (recorded)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed passes");
      ("--trace", Arg.Set_int trace, "0|1 timed passes or the traced run");
      ("--size", Arg.Set_string size, "NAME problem size (default large)");
      ("--expect-digest", Arg.Set_string expect, "HEX expected final digest");
      ("--setup-only", Arg.Set setup_only, " time one set-up and exit");
    ]
  in
  let usage = "perf.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (choices: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !expect = "" then die "--expect-digest is required";
  let rn =
    match
      make_runner w ~size_name:!size ~seed:!seed ~expect_digest:!expect
    with
    | Ok rn -> rn
    | Error e -> die e
  in
  if !setup_only then begin
    let p, s = setup rn in
    if p.failures <> [] then begin
      print_endline (String.concat "; " p.failures);
      exit 1
    end;
    Printf.printf "%.17g\n" s;
    exit 0
  end;
  Printf.printf
    "perfbench %s: %s%s, %d procs, %s, level %s%s; size %s; seed %d \
     (Config.net_seed: no effect with network faults off; the workloads \
     take no other seed); trace %d\n\
     %!"
    w.name w.app
    (String.concat "" (List.map (fun (k, v) -> " " ^ k ^ "=" ^ v) w.knobs))
    w.procs
    (Config.backend_name w.backend)
    (A.opt_level_name w.level)
    (if w.checked then ", checked" else "")
    !size !seed !trace;
  let child_args =
    [|
      "--workload"; w.name; "--seed"; string_of_int !seed; "--size"; !size;
      "--expect-digest"; !expect;
    |]
  in
  let metrics, attempted, failed =
    if !trace = 0 then timed rn ~seconds:!seconds ~child_args else traced rn
  in
  print_report ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
