(* Optimization-safety goldens: performance work on the hot path may
   change host wall-clock and allocation only — never the simulated
   results. A fixed QCheck generator samples random
   app/size/procs/level/async (and a few faulty-network) configurations;
   every sampled run's simulated time, verification error and Stats
   counters are rendered to a line ([%h] for floats: exact, bit-identical
   or bust) and compared against [perf_goldens.expected], which was
   recorded from the seed implementation before the first optimisation
   pass. A fixed list of message-passing (pvm/xhpf) cases follows the
   sampled ones in the same file.

   Regenerating (ONLY legitimate after a PR that intentionally changes the
   simulation — new cost model, protocol change — never for an
   optimisation PR):

     DSM_GOLDENS_OUT=$PWD/test/perf_goldens.expected dune test --force

   A trace-and-check pass over a subset additionally asserts that the
   sampled runs stay checker-clean and that enabling tracing does not
   perturb the simulated time. *)

module A = Dsm_apps.App_common
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats

let apps : (string * (module Dsm_apps.Workload.KERNEL)) list =
  [
    ("jacobi", (module Dsm_apps.Jacobi));
    ("fft3d", (module Dsm_apps.Fft3d));
    ("shallow", (module Dsm_apps.Shallow));
    ("is", (module Dsm_apps.Is));
    ("gauss", (module Dsm_apps.Gauss));
    ("mgs", (module Dsm_apps.Mgs));
  ]

type version = Tmk | Pvm | Xhpf

type case = {
  app : string;
  version : version;
  size : string;  (* "small" | "large" *)
  procs : int;
  level : A.opt_level;
  async : bool;
  drop : float;  (* 0.0 = reliable network *)
  seed : int;
}

(* Deterministic sampling: QCheck generators driven by a fixed-state PRNG.
   The sequence of draws is part of the golden contract — do not reorder. *)
let gen_case : case QCheck.Gen.t =
  let open QCheck.Gen in
  let* app_idx = int_bound (List.length apps - 1) in
  let app, (module App : Dsm_apps.Workload.KERNEL) = List.nth apps app_idx in
  let* size = frequency [ (4, return "small"); (1, return "large") ] in
  let* procs = oneofl [ 1; 2; 4; 8 ] in
  let* level = oneofl App.levels in
  let* async = bool in
  let* drop = frequency [ (5, return 0.0); (1, return 0.02) ] in
  return { app; version = Tmk; size; procs; level; async; drop; seed = 1 }

let cases =
  let st = Random.State.make [| 0x5eed; 3 |] in
  List.init 22 (fun _ -> gen_case st)

(* Fixed message-passing cases, appended after the sampled ones so the
   sampled draws stay untouched: every app's pvm and xhpf version (IS
   has no xhpf) at small size on 8 procs, Jacobi pvm at large size on 64
   procs, and one pvm run on a lossy network. [level]/[async] do not
   apply to these versions and are not rendered. *)
let mp_cases =
  let mp ?(size = "small") ?(procs = 8) ?(drop = 0.0) app version =
    { app; version; size; procs; level = A.Base; async = false; drop; seed = 1 }
  in
  List.concat_map
    (fun (app, _) ->
      mp app Pvm :: (if app = "is" then [] else [ mp app Xhpf ]))
    apps
  @ [ mp ~size:"large" ~procs:64 "jacobi" Pvm; mp ~drop:0.02 "jacobi" Pvm ]

let run_case ?trace c =
  let (module App : Dsm_apps.Workload.KERNEL) = List.assoc c.app apps in
  let params = if c.size = "large" then App.large else App.small in
  let cfg =
    {
      Config.default with
      Config.nprocs = c.procs;
      net_drop = c.drop;
      net_dup = (if c.drop > 0.0 then 0.01 else 0.0);
      net_jitter_us = (if c.drop > 0.0 then 50.0 else 0.0);
      net_seed = c.seed;
    }
  in
  match c.version with
  | Tmk -> App.run_tmk ?trace cfg params ~level:c.level ~async:c.async
  | Pvm -> App.run_pvm cfg params
  | Xhpf -> (Option.get App.run_xhpf) cfg params

let render c (r : A.result) =
  let s = r.A.stats in
  let head =
    match c.version with
    | Tmk ->
        Printf.sprintf "%s %s procs=%d level=%s async=%b drop=%h" c.app c.size
          c.procs
          (A.opt_level_name c.level)
          c.async c.drop
    | Pvm | Xhpf ->
        Printf.sprintf "%s %s %s procs=%d drop=%h" c.app c.size
          (if c.version = Pvm then "pvm" else "xhpf")
          c.procs c.drop
  in
  Printf.sprintf
    "%s | time=%h err=%h msgs=%d bytes=%d segv=%d mprot=%d twins=%d dc=%d \
     da=%d db=%d locks=%d bar=%d val=%d push=%d bcast=%d retx=%d tmo=%d \
     drop=%d dup=%d"
    head r.A.time_us r.A.max_err s.Stats.messages s.Stats.bytes
    s.Stats.segv s.Stats.mprotects s.Stats.twins s.Stats.diffs_created
    s.Stats.diffs_applied s.Stats.diff_bytes_applied s.Stats.lock_acquires
    s.Stats.barriers s.Stats.validates s.Stats.pushes s.Stats.broadcasts
    s.Stats.retransmits s.Stats.timeouts s.Stats.dropped s.Stats.duplicates

let golden_file = "perf_goldens.expected"

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Results are computed once, at suite-construction time, from the cwd the
   runner starts in (alcotest may chdir later). *)
let actual = lazy (List.map (fun c -> (c, run_case c)) (cases @ mp_cases))

let write_goldens path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (c, r) -> output_string oc (render c r ^ "\n"))
        (Lazy.force actual))

let test_goldens () =
  match Sys.getenv_opt "DSM_GOLDENS_OUT" with
  | Some path ->
      write_goldens path;
      Printf.printf "goldens written to %s\n" path
  | None ->
      let expected = read_lines golden_file in
      let got = List.map (fun (c, r) -> render c r) (Lazy.force actual) in
      Alcotest.(check int)
        "number of configurations" (List.length expected)
        (List.length got);
      List.iteri
        (fun i (e, g) ->
          Alcotest.(check string) (Printf.sprintf "case %d" i) e g)
        (List.combine expected got)

(* Tracing must not perturb the simulation, and the sampled runs must be
   checker-clean (reliable-network cases only: fault recovery is checked
   separately by the net suite). *)
let test_traced_subset () =
  let subset =
    List.filteri (fun i _ -> i mod 5 = 0) cases
    |> List.filter (fun c -> c.drop = 0.0)
  in
  List.iter
    (fun c ->
      let plain = run_case c in
      let sink = Dsm_trace.Sink.create ~nprocs:c.procs () in
      let traced = run_case ~trace:sink c in
      if traced.A.time_us <> plain.A.time_us then
        Alcotest.failf "%s %s: tracing changed simulated time (%h vs %h)"
          c.app c.size traced.A.time_us plain.A.time_us;
      match Dsm_trace.Check.run_sink sink with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s %s procs=%d level=%s: %d checker violations"
            c.app c.size c.procs
            (A.opt_level_name c.level)
            (List.length vs))
    subset

let tests =
  [
    Alcotest.test_case "simulated results match seed goldens" `Slow
      test_goldens;
    Alcotest.test_case "traced subset: invariant time + checker-clean" `Slow
      test_traced_subset;
  ]
