(* The windowed conservative engine must match the sequential one on its
   supported (isolated, message-passing) workloads, keep the same
   Deadlock/Proc_failure contracts across shard boundaries, and lay out
   its shards as a partition of the processors. *)

module A = Dsm_apps.App_common
module Config = Dsm_sim.Config
module Engine = Dsm_sim.Engine
module Stats = Dsm_sim.Stats
module G = Test_perf_goldens

(* {1 Sharding layout} *)

let test_shard_layout () =
  List.iter
    (fun (domains, nprocs) ->
      let covered = Array.make nprocs 0 in
      for d = 0 to domains - 1 do
        let lo, hi = Engine.shard_bounds ~domains ~nprocs d in
        Alcotest.(check bool)
          (Printf.sprintf "D=%d n=%d shard %d non-decreasing" domains nprocs d)
          true (lo <= hi);
        for p = lo to hi - 1 do
          covered.(p) <- covered.(p) + 1
        done
      done;
      Array.iteri
        (fun p c ->
          Alcotest.(check int)
            (Printf.sprintf "D=%d n=%d proc %d covered once" domains nprocs p)
            1 c)
        covered)
    [ (1, 1); (2, 2); (2, 8); (3, 8); (4, 8); (4, 5); (7, 8); (8, 8) ]

exception Boom

(* {1 The windowed conservative engine (message passing)} *)

let test_windowed_mp_equality () =
  List.iter
    (fun (name, m) ->
      let (module App : Dsm_apps.Workload.KERNEL) = m in
      let seq = App.run_pvm Config.default App.small in
      List.iter
        (fun domains ->
          let cfg = { Config.default with Config.domains } in
          let par = App.run_pvm cfg App.small in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s pvm at %d domains: time" name domains)
            seq.A.time_us par.A.time_us;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s pvm at %d domains: err" name domains)
            seq.A.max_err par.A.max_err;
          Alcotest.(check int)
            (Printf.sprintf "%s pvm at %d domains: messages" name domains)
            seq.A.stats.Stats.messages par.A.stats.Stats.messages)
        [ 2; 4 ])
    G.apps

let test_windowed_deadlock () =
  let clocks = [| 0.0; 0.0; 0.0; 0.0 |] in
  match
    Engine.run_windowed ~domains:2 ~nprocs:4 ~lookahead:100.0
      ~clock:(fun p -> clocks.(p))
      (fun p ->
        clocks.(p) <- float_of_int (10 * (p + 1));
        if p = 2 then Engine.block ~until:(fun () -> false))
  with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Engine.Deadlock m ->
      Alcotest.(check string) "blocked list" "fibers blocked: [2]" m

let test_windowed_failure_unwinds () =
  let unwound = ref false in
  let clocks = Array.make 4 0.0 in
  (* fiber 3 must not raise before fiber 0 has entered its Fun.protect and
     blocked — otherwise the abort flag legitimately stops fiber 0 from
     ever starting and there is no finalizer to run *)
  let started = Atomic.make false in
  match
    Engine.run_windowed ~domains:2 ~nprocs:4 ~lookahead:100.0
      ~clock:(fun p -> clocks.(p))
      (fun p ->
        if p = 3 then begin
          Engine.block ~until:(fun () -> Atomic.get started);
          raise Boom
        end
        else if p = 0 then
          Fun.protect
            ~finally:(fun () -> unwound := true)
            (fun () ->
              Atomic.set started true;
              Engine.block ~until:(fun () -> false)))
  with
  | () -> Alcotest.fail "expected Proc_failure"
  | exception Engine.Proc_failure (3, Boom) ->
      Alcotest.(check bool) "fiber 0 finalizer ran" true !unwound
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

(* Clamping: more domains than processors must behave as nprocs shards. *)
let test_domain_clamp () =
  let hits = Array.make 3 0 in
  Engine.run_windowed ~domains:8 ~nprocs:3 ~lookahead:1.0
    ~clock:(fun _ -> 0.0)
    (fun p -> hits.(p) <- hits.(p) + 1);
  Array.iter (fun h -> Alcotest.(check int) "ran once" 1 h) hits

let tests =
  [
    Alcotest.test_case "shard layout partitions processors" `Quick
      test_shard_layout;
    Alcotest.test_case "windowed engine: mp runs bit-identical" `Slow
      test_windowed_mp_equality;
    Alcotest.test_case "windowed engine: deadlock detection" `Quick
      test_windowed_deadlock;
    Alcotest.test_case "windowed engine: failure unwinds" `Quick
      test_windowed_failure_unwinds;
    Alcotest.test_case "domains clamped to nprocs" `Quick test_domain_clamp;
  ]
