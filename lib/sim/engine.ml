(* Deterministic scheduler for simulated processors, in two engines:

   - {!run}, the sequential cooperative scheduler: one round-robin pass
     resumes every runnable fiber in processor order. Every DSM run uses
     it; its fixed slice order is the single SP/2 interleaving the
     perf goldens pin.
   - {!run_windowed}, the conservative parallel-discrete-event
     (CMB-style) engine on OCaml 5 domains: shards advance truly
     concurrently inside virtual-time windows bounded by the lookahead.
     It is only deterministic for isolated workloads (see the mli);
     the message-passing runtime qualifies, the DSM runtime does not. *)

exception Deadlock of string

exception Proc_failure of int * exn
(* An exception escaped one simulated processor's fiber; carries the
   processor id and the original exception. The scheduler discontinues the
   surviving fibers before re-raising, so no continuation is leaked. *)

let () =
  Printexc.register_printer (function
    | Proc_failure (p, e) ->
        Some (Printf.sprintf "Proc_failure (p%d, %s)" p (Printexc.to_string e))
    | _ -> None)

type _ Effect.t += Block : (unit -> bool) -> unit Effect.t

let block ~until = Effect.perform (Block until)

let yield () =
  (* Blocking with an immediately-true predicate re-enters the scheduler:
     every other runnable fiber gets its turn before this one resumes. *)
  Effect.perform (Block (fun () -> true))

type cell =
  | Not_started of (unit -> unit)
  | Waiting of { pred : unit -> bool; k : (unit, unit) Effect.Deep.continuation }
  | Running
  | Finished

(* {1 Sharding}

   Balanced contiguous shards: shard [d] of [D] owns processors
   [d*n/D .. (d+1)*n/D - 1]. Contiguity keeps the neighbour exchanges
   of block-partitioned programs mostly shard-local. *)

let shard_bounds ~domains ~nprocs d =
  (d * nprocs / domains, (d + 1) * nprocs / domains)

(* Shared fiber-table helpers (both engines). *)

let handler cells p =
  {
    Effect.Deep.retc = (fun () -> cells.(p) <- Finished);
    exnc =
      (fun e ->
        (* the raising fiber is done; mark it so the cleanup pass below
           only discontinues the genuinely suspended siblings *)
        cells.(p) <- Finished;
        match e with
        | Proc_failure _ -> raise e
        | e -> raise (Proc_failure (p, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block pred ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                cells.(p) <- Waiting { pred; k })
        | _ -> None);
  }

(* Unwind the suspended fibers in [lo, hi) (running their cleanup
   handlers) so the scheduler never leaks a continuation when one
   processor fails. Each continuation is discontinued on the domain that
   owns its shard — a continuation never moves across domains. *)
let discontinue_range cells lo hi =
  for q = lo to hi - 1 do
    match cells.(q) with
    | Waiting { k; _ } ->
        cells.(q) <- Finished;
        (try Effect.Deep.discontinue k Exit with _ -> ())
    | Not_started _ | Running | Finished -> ()
  done

let blocked_list cells =
  Array.to_seq cells
  |> Seq.mapi (fun p c -> (p, c))
  |> Seq.filter_map (fun (p, c) ->
         match c with
         | Waiting _ -> Some (string_of_int p)
         | Not_started _ | Running | Finished -> None)
  |> List.of_seq |> String.concat ","

let deadlock cells =
  Deadlock (Printf.sprintf "fibers blocked: [%s]" (blocked_list cells))

(* {1 The sequential engine} *)

let run ~nprocs main =
  let cells = Array.init nprocs (fun p -> Not_started (fun () -> main p)) in
  let rec loop () =
    let progress = ref false in
    let unfinished = ref false in
    for p = 0 to nprocs - 1 do
      match cells.(p) with
      | Not_started f ->
          progress := true;
          cells.(p) <- Running;
          Effect.Deep.match_with f () (handler cells p)
      | Waiting { pred; k } ->
          if pred () then begin
            progress := true;
            cells.(p) <- Running;
            Effect.Deep.continue k ()
          end
      | Running -> ()
      | Finished -> ()
    done;
    Array.iter (function Finished -> () | _ -> unfinished := true) cells;
    if !unfinished then
      if !progress then loop () else raise (deadlock cells)
  in
  Dsm_prof.Prof.enter Dsm_prof.Prof.Engine;
  Fun.protect
    ~finally:(fun () -> Dsm_prof.Prof.exit Dsm_prof.Prof.Engine)
    (fun () ->
      try loop ()
      with e ->
        discontinue_range cells 0 nprocs;
        raise e)

(* {1 The windowed conservative engine}

   Classic CMB-style conservative parallel simulation: each domain
   advances its own shard's fibers truly concurrently, but only while
   their virtual clocks stay below the current window end
   [min unfinished clock + lookahead]. When no fiber of a shard is
   eligible the domain enters the window barrier; the last arriver
   recomputes the window from the (now quiescent, and therefore
   consistent) global clock minimum, detects termination and deadlock,
   and releases a new round. A round with no global progress whose
   runnable fibers are all beyond the window advances the window to the
   earliest runnable clock instead of deadlocking — the engine's
   substitute for CMB null messages. On deadlock or a fiber failure the
   run enters [Unwinding]: each domain discontinues its own shard's
   suspended fibers, and the first failure is re-raised on the calling
   domain once every shard has unwound. *)

type phase = Scheduling | Unwinding | Stopped

let run_windowed ~domains ~nprocs ~lookahead ~clock main =
  let domains = max 1 (min domains nprocs) in
  let cells = Array.init nprocs (fun p -> Not_started (fun () -> main p)) in
  let m = Mutex.create () in
  let round_cv = Condition.create () in
  let window_end = ref lookahead in
  let round = ref 0 in
  let arrived = ref 0 in
  let any_progress = ref false in
  let phase = ref Scheduling in
  let failure = ref None in
  let unwound = Array.make domains false in
  let n_unwound = ref 0 in
  (* cross-domain "stop scanning" signal readable without the mutex *)
  let abort = Atomic.make false in
  let fail e =
    if !failure = None then failure := Some e;
    phase := Unwinding;
    Atomic.set abort true
  in
  (* Window-barrier close, by the last arriver, engine mutex held: every
     other domain is parked, so reading all clocks and predicates here is
     race-free and current. *)
  let close_round () =
    if !phase = Scheduling then begin
      let unfinished = ref false
      and min_clock = ref infinity
      and min_runnable = ref infinity in
      Array.iteri
        (fun p c ->
          match c with
          | Finished -> ()
          | Running ->
              (* unreachable: a quiescent shard has no Running cell *)
              unfinished := true
          | Not_started _ ->
              unfinished := true;
              min_clock := Float.min !min_clock (clock p);
              min_runnable := Float.min !min_runnable (clock p)
          | Waiting { pred; _ } ->
              unfinished := true;
              min_clock := Float.min !min_clock (clock p);
              if pred () then min_runnable := Float.min !min_runnable (clock p))
        cells;
      if not !unfinished then phase := Stopped
      else if (not !any_progress) && !min_runnable = infinity then
        fail (deadlock cells)
      else begin
        (* conservative base; escape via the earliest runnable when the
           window alone gated a whole quiescent round *)
        let base = if !any_progress then !min_clock else !min_runnable in
        window_end := base +. lookahead
      end
    end;
    any_progress := false;
    arrived := 0;
    incr round;
    Condition.broadcast round_cv
  in
  let worker d =
    let lo, hi = shard_bounds ~domains ~nprocs d in
    (* Run eligible fibers of [lo,hi) until a full scan runs none.
       Outside the mutex: cells of this shard are domain-private, and the
       caller's shared structures are the caller's to lock (see mli). *)
    let scan_until_quiescent () =
      let again = ref true in
      let ran = ref false in
      while !again && not (Atomic.get abort) do
        again := false;
        for p = lo to hi - 1 do
          if not (Atomic.get abort) then
            match cells.(p) with
            | Not_started f when clock p < !window_end ->
                ran := true;
                again := true;
                cells.(p) <- Running;
                Effect.Deep.match_with f () (handler cells p)
            | Waiting { pred; k } when clock p < !window_end && pred () ->
                ran := true;
                again := true;
                cells.(p) <- Running;
                Effect.Deep.continue k ()
            | _ -> ()
        done
      done;
      !ran
    in
    Dsm_prof.Prof.enter Dsm_prof.Prof.Engine;
    Fun.protect
      ~finally:(fun () -> Dsm_prof.Prof.exit Dsm_prof.Prof.Engine)
    @@ fun () ->
    let continue_ = ref true in
    while !continue_ do
      let ran = try scan_until_quiescent () with e -> Mutex.lock m; fail e;
                                                     Mutex.unlock m; false in
      Mutex.lock m;
      if ran then any_progress := true;
      incr arrived;
      let my_round = !round in
      if !arrived = domains then close_round ()
      else
        while !round = my_round && !phase <> Stopped do
          Condition.wait round_cv m
        done;
      (match !phase with
      | Unwinding ->
          (* unwind order across shards is whoever reaches here first;
             a failing run makes no determinism promise *)
          if not unwound.(d) then begin
            unwound.(d) <- true;
            discontinue_range cells lo hi;
            incr n_unwound;
            if !n_unwound = domains then begin
              phase := Stopped;
              (* peers may be parked at the round barrier: the round will
                 never close (we exit without arriving), so wake them *)
              Condition.broadcast round_cv
            end
          end;
          if !phase = Stopped then continue_ := false
      | Stopped -> continue_ := false
      | Scheduling -> ());
      Mutex.unlock m
    done
  in
  let spawned =
    Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let join_all () = Array.iter Domain.join spawned in
  (match worker 0 with
  | () -> join_all ()
  | exception e ->
      Mutex.lock m;
      fail e;
      phase := Stopped;
      incr round;
      Condition.broadcast round_cv;
      Mutex.unlock m;
      join_all ());
  match !failure with Some e -> raise e | None -> ()
