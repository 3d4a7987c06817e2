(* Barrier and lock operations.

   Timing model (calibrated against Section 5 of the paper, see
   {!Dsm_sim.Config}): a barrier costs the arrival messages to the master,
   sequential processing of the n-1 arrivals, n-1 departure sends and the
   return latency; a free remote lock costs a request/grant roundtrip plus
   the manager's service time. Write notices travel on arrival/departure and
   grant messages; piggy-backed section requests (Validate_w_sync) are
   answered with diff messages sent at departure/grant time. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Engine = Dsm_sim.Engine
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Prof = Dsm_prof.Prof

let wsync_req_bytes sys reqs =
  List.fold_left
    (fun acc r ->
      acc
      + (16 * List.length r.wr_ranges)
      + (8 * List.length (Range.pages ~page_size:sys.page_size r.wr_ranges)))
    0 reqs

let wsync_req_pages sys reqs =
  List.concat_map
    (fun r -> Range.pages ~page_size:sys.page_size r.wr_ranges)
    reqs
  |> List.sort_uniq compare

(* Number of write notices in my log newer than what I last shipped. *)
let new_notice_count sys p =
  let st = sys.states.(p) in
  Ilog.count_since sys.logs.(p) st.notices_sent_seq

(* {1 Barrier} *)

(* Detect the broadcast opportunity: every requester asked for the same
   ranges and a single processor holds all the new data for them. *)
let detect_bcast sys ~epoch ~departure_clock entries =
  if not sys.cluster.Cluster.cfg.Config.enable_bcast then None
  else
  match entries with
  | [] | [ _ ] -> None
  | (_, reqs0) :: _ -> (
      let ranges0 =
        match reqs0 with [ r ] -> Some r.wr_ranges | _ -> None
      in
      match ranges0 with
      | None -> None
      | Some ranges0 ->
          let same =
            List.for_all
              (fun (_, reqs) ->
                match reqs with
                | [ r ] -> r.wr_ranges = ranges0
                | _ -> false)
              entries
          in
          if not same || List.length entries < sys.nprocs - 1 then None
          else begin
            let pages = Range.pages ~page_size:sys.page_size ranges0 in
            let requesters = List.map fst entries in
            (* candidate senders: processors whose write notices — already
               received, or about to be distributed with this departure —
               some requester has not applied yet for the requested pages *)
            let pending_seq q page r =
              (* newest interval of [q] touching [page] within the window
                 the requester [r] is about to learn of *)
              let upto = Vc.get sys.barrier.departure_vc q in
              let lo = Vc.get sys.states.(r).vc q in
              Ilog.newest_containing sys.logs.(q) ~lo ~upto page
            in
            let writers = ref [] in
            List.iter
              (fun (r, _) ->
                List.iter
                  (fun page ->
                    let m = Protocol.meta sys.states.(r) page in
                    for q = 0 to sys.nprocs - 1 do
                      if
                        q <> r
                        && (Wmap.get m.applied q < Wmap.get m.known q
                           || Wmap.get m.applied q < pending_seq q page r)
                        && not (List.mem q !writers)
                      then writers := q :: !writers
                    done)
                  pages)
              entries;
            match !writers with
            | [ q ] when not (List.mem q requesters) ->
                (* the minimum applied watermark among the requesters
                   determines how much history the broadcast must carry *)
                let bytes =
                  List.fold_left
                    (fun acc page ->
                      ignore (Protocol.materialize sys ~writer:q ~page);
                      let after =
                        List.fold_left
                          (fun acc (r, _) ->
                            let m = Protocol.meta sys.states.(r) page in
                            min acc (Wmap.get m.applied q))
                          max_int entries
                      in
                      let f =
                        Diff_store.fetch sys.store ~writer:q ~page ~after
                          ~upto:max_int
                      in
                      acc + f.Diff_store.charge_bytes)
                    0 pages
                in
                Some
                  ( epoch,
                    {
                      bp_src = q;
                      bp_pages = pages;
                      bp_base = departure_clock;
                      bp_per_hop = Cluster.bcast_per_hop sys.cluster ~bytes;
                      bp_requesters = requesters;
                      bp_bytes = bytes;
                    } )
            | _ -> None
          end)

(* Requester/responder processing of piggy-backed section requests, executed
   by each processor right after barrier departure. *)
let handle_wsync_at_barrier sys p ~epoch ~departure_clock ~my_reqs =
  let b = sys.barrier in
  let cfg = sys.cluster.Cluster.cfg in
  let entries = Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl epoch) in
  (* Responder side: every processor must match every other requester's
     sections against its page list — the per-page overhead that makes
     sync+data merging unprofitable for large page lists (Section 3.3). *)
  List.iter
    (fun (r, reqs) ->
      if r <> p then
        Cluster.charge sys.cluster p
          (cfg.Config.wsync_scan_per_page_us
          *. float_of_int (List.length (wsync_req_pages sys reqs))))
    entries;
  (* Broadcast source side. *)
  (match b.bcast_plan with
  | Some (e, plan) when e = epoch && plan.bp_src = p ->
      let bytes = plan.bp_bytes in
      Cluster.count_bcast sys.cluster p ~bytes;
      Cluster.charge sys.cluster p
        (float_of_int (Cluster.bcast_hops sys.cluster)
        *. (cfg.Config.msg_overhead_us
           +. (cfg.Config.per_byte_us *. float_of_int bytes)));
      if sys.trace <> None then
        Protocol.emit sys p
          (Dsm_trace.Event.Broadcast
             { bytes; requesters = plan.bp_requesters })
  | Some _ | None -> ());
  (* Requester side: consume responses. The asynchronous variant does not
     wait for the data messages: their arrival times are recorded and the
     page-fault handler completes the work (Section 3.2.3 applies to
     Validate_w_sync as well). *)
  let st = sys.states.(p) in
  List.iter
    (fun req ->
      let pages = Range.pages ~page_size:sys.page_size req.wr_ranges in
      let bcast_for_me =
        match b.bcast_plan with
        | Some (e, plan)
          when e = epoch
               && List.mem p plan.bp_requesters
               && List.for_all (fun pg -> List.mem pg plan.bp_pages) pages ->
            Some plan
        | Some _ | None -> None
      in
      match (req.wr_async, bcast_for_me) with
      | true, Some plan ->
          (* broadcast initiated at departure; don't wait for it *)
          let pos =
            let rec idx i = function
              | [] -> 0
              | r :: _ when r = p -> i
              | _ :: tl -> idx (i + 1) tl
            in
            idx 0 plan.bp_requesters
          in
          let depth = ceil (log (float_of_int (pos + 2)) /. log 2.0) in
          let arrival = plan.bp_base +. (depth *. plan.bp_per_hop) in
          List.iter
            (fun page ->
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt st.pending_async page)
              in
              Hashtbl.replace st.pending_async page (Float.max prev arrival))
            pages;
          (match req.wr_access with
          | Write_all | Read_write_all ->
              Protocol.record_write_all sys p req.wr_ranges
          | Read | Write | Read_write -> ())
      | true, None -> begin
        (* one transfer per responding writer arriving after the departure;
           leave the pages invalid for the faults to consume *)
        let by_writer, _ = Protocol.gather_needs sys p pages () in
        Hashtbl.iter
          (fun q reqs ->
            let bytes =
              List.fold_left
                (fun acc (page, after, upto) ->
                  let f = Diff_store.fetch sys.store ~writer:q ~page ~after ~upto in
                  acc + f.Diff_store.charge_bytes)
                0 reqs
            in
            if bytes > 0 then begin
              let arrival =
                Cluster.reply sys.cluster ~src:q ~dst:p ~at:departure_clock
                  ~bytes
              in
              List.iter
                (fun (page, _, _) ->
                  let prev =
                    Option.value ~default:0.0
                      (Hashtbl.find_opt st.pending_async page)
                  in
                  Hashtbl.replace st.pending_async page (Float.max prev arrival))
                reqs
            end)
          by_writer;
        match req.wr_access with
        | Write_all | Read_write_all ->
            Protocol.record_write_all sys p req.wr_ranges
        | Read | Write | Read_write -> ()
      end
      | false, Some plan ->
          (* arrival depends on the receiver's depth in the binomial tree *)
          let pos =
            let rec idx i = function
              | [] -> 0
              | r :: _ when r = p -> i
              | _ :: tl -> idx (i + 1) tl
            in
            idx 0 plan.bp_requesters
          in
          let depth = ceil (log (float_of_int (pos + 2)) /. log 2.0) in
          Cluster.sync_clock sys.cluster p
            (plan.bp_base +. (depth *. plan.bp_per_hop));
          Protocol.fetch_and_apply sys p pages ~mode:Protocol.Prepaid ();
          Protocol.apply_access_state sys p ~ranges:req.wr_ranges
            ~access:req.wr_access
      | false, None ->
          Protocol.fetch_and_apply sys p pages
            ~mode:(Protocol.Piggyback departure_clock) ();
          Protocol.apply_access_state sys p ~ranges:req.wr_ranges
            ~access:req.wr_access)
    my_reqs

(* The barrier skeleton is shared by every backend: arrival/departure
   timing, notice redistribution and the piggy-backed-request plumbing are
   protocol-independent. What varies — how an interval is closed at the
   arrival ([release]), whether a departure may turn fetch responses into a
   broadcast ([plan_bcast]) and how the piggy-backed section requests are
   answered ([handle_wsync]) — comes in as closures, so the homeless LRC
   instantiation below stays bit-identical to the pre-backend code (same
   operations in the same floating-point order). *)
let barrier_with ~release ~plan_bcast ~handle_wsync t =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let st = state t in
  let b = sys.barrier in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.barriers <- pstats.Stats.barriers + 1;
  ignore (release sys p);
  (* fault-tolerance hook: checkpoints and scheduled crashes execute at
     barrier arrival, right after the interval closed (and, under hlrc,
     its diffs reached the replica homes) — the fail-stop point where an
     acknowledged write can no longer be lost. A single cheap test when
     the subsystem is idle. *)
  Recover.at_barrier_arrival t;
  let my_epoch = st.barrier_epoch in
  st.barrier_epoch <- my_epoch + 1;
  let my_reqs = st.pending_wsync in
  st.pending_wsync <- [];
  if my_reqs <> [] then begin
    let prev = Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl my_epoch) in
    Hashtbl.replace b.wsync_tbl my_epoch ((p, my_reqs) :: prev)
  end;
  let nbytes =
    (cfg.Config.notice_bytes * new_notice_count sys p)
    + wsync_req_bytes sys my_reqs
  in
  st.notices_sent_seq <- Vc.get st.vc p;
  if p <> 0 then ignore (Net.send sys.net ~src:p ~dst:0 ~bytes:nbytes);
  b.arrival_clock.(p) <- Cluster.time sys.cluster p;
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Barrier_arrive { epoch = my_epoch });
  b.arrived <- b.arrived + 1;
  if b.arrived = sys.nprocs then begin
    (* Last arriver performs the master's merge on its behalf. *)
    let alpha = cfg.Config.wire_latency_us
    and o = cfg.Config.msg_overhead_us
    and i = cfg.Config.interrupt_us in
    let latest = ref b.arrival_clock.(0) in
    for q = 1 to sys.nprocs - 1 do
      let at_master = b.arrival_clock.(q) +. alpha in
      if at_master > !latest then latest := at_master
    done;
    let n1 = float_of_int (sys.nprocs - 1) in
    let ready = !latest +. (n1 *. (i +. o)) in
    let dep_send = ready +. (n1 *. o) in
    b.master_resume_clock <- dep_send;
    b.departure_clock <- dep_send +. alpha +. o;
    (* Master's departure messages redistribute all new notices. *)
    let total_new =
      let sum = ref 0 in
      for q = 0 to sys.nprocs - 1 do
        sum := !sum + new_notice_count sys q
      done;
      !sum
    in
    Cluster.count sys.cluster 0 ~msgs:(sys.nprocs - 1)
      ~bytes:((sys.nprocs - 1) * cfg.Config.notice_bytes * total_new);
    let dvc = Vc.create sys.nprocs in
    Array.iter (fun stq -> Vc.merge dvc stq.vc) sys.states;
    b.departure_vc <- dvc;
    b.bcast_plan <-
      plan_bcast sys ~epoch:my_epoch ~departure_clock:b.departure_clock
        (Option.value ~default:[] (Hashtbl.find_opt b.wsync_tbl my_epoch));
    b.epoch <- b.epoch + 1;
    b.arrived <- 0
  end;
  (* close the span across the suspension: scheduling and sibling fibers'
     work must not be charged to Sync *)
  Prof.exit Prof.Sync;
  Engine.block ~until:(fun () -> b.epoch > my_epoch);
  Prof.enter Prof.Sync;
  if p = 0 then Cluster.sync_clock sys.cluster 0 b.master_resume_clock
  else Cluster.sync_clock sys.cluster p b.departure_clock;
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Barrier_depart { epoch = my_epoch });
  ignore (Protocol.pull_notices sys p ~upto:b.departure_vc);
  (* restore full consistency for pages only partially covered by pushes:
     roll the applied watermark back so the next access refetches the whole
     modification set *)
  let rolled = ref [] in
  List.iter
    (fun (page, writer, seq) ->
      let m = Protocol.meta st page in
      if Wmap.get m.applied writer = seq then begin
        if sys.trace <> None then
          Protocol.emit sys p
            (Dsm_trace.Event.Push_rollback { page; writer; seq });
        Wmap.set m.applied writer (seq - 1);
        (* the rollback regresses [applied], so the stale-slot tracking no
           longer under-approximates what a fetch would bring: stale the
           whole object page conservatively *)
        (if sys.has_objs then
           match Hashtbl.find_opt sys.obj_regions page with
           | None -> ()
           | Some osz -> m.ob_stale <- Protocol.obj_all_slots sys osz);
        let pg = Dsm_mem.Page_table.get st.pt page in
        if pg.Dsm_mem.Page_table.prot <> Dsm_mem.Page_table.No_access then begin
          pg.Dsm_mem.Page_table.prot <- Dsm_mem.Page_table.No_access;
          rolled := page :: !rolled
        end
      end)
    st.partial_push;
  st.partial_push <- [];
  if !rolled <> [] then Protocol.protect_runs sys p !rolled;
  handle_wsync sys p ~epoch:my_epoch ~departure_clock:b.departure_clock
    ~my_reqs;
  (* prune the piggy-backed-request table once every processor has finished
     this epoch's departure processing — without this the table (and the
     departure-count table) grow without bound over a run *)
  let ndone =
    1 + Option.value ~default:0 (Hashtbl.find_opt b.wsync_done my_epoch)
  in
  if ndone >= sys.nprocs then begin
    Hashtbl.remove b.wsync_done my_epoch;
    Hashtbl.remove b.wsync_tbl my_epoch
  end
  else Hashtbl.replace b.wsync_done my_epoch ndone;
  Prof.exit Prof.Sync

let barrier t =
  barrier_with ~release:Protocol.release ~plan_bcast:detect_bcast
    ~handle_wsync:handle_wsync_at_barrier t

(* {1 Locks} *)

let get_lock sys lid =
  match Hashtbl.find_opt sys.locks lid with
  | Some lk -> lk
  | None ->
      let lk =
        {
          lid;
          held_by = None;
          last_releaser = lid mod sys.nprocs;
          release_clock = 0.0;
          release_vc = None;
          pending = [];
          granted = None;
          grant_clock = 0.0;
        }
      in
      Hashtbl.replace sys.locks lid lk;
      lk

(* Homeless-LRC answer to a piggy-backed section request on a lock grant:
   the grantor scans its page list and ships the diffs it holds locally on
   the grant message. *)
let answer_wsync_from_grantor sys p ~grantor ~grant_ready req =
  let cfg = sys.cluster.Cluster.cfg in
  let pages = Range.pages ~page_size:sys.page_size req.wr_ranges in
  if grantor <> p then begin
    Cluster.charge sys.cluster grantor
      (cfg.Config.wsync_scan_per_page_us *. float_of_int (List.length pages));
    Protocol.fetch_and_apply sys p pages ~mode:(Protocol.Piggyback grant_ready)
      ~only_via:grantor ()
  end;
  Protocol.apply_access_state sys p ~ranges:req.wr_ranges ~access:req.wr_access

let lock_acquire_with ~answer_wsync t lid =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let st = state t in
  let cfg = sys.cluster.Cluster.cfg in
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.lock_acquires <- pstats.Stats.lock_acquires + 1;
  let lk = get_lock sys lid in
  let my_reqs = st.pending_wsync in
  st.pending_wsync <- [];
  let req_bytes = 16 + wsync_req_bytes sys my_reqs in
  let manager = lid mod sys.nprocs in
  let arrival = Net.send sys.net ~src:p ~dst:manager ~bytes:req_bytes in
  let arrival =
    if manager <> lk.last_releaser && manager <> p then begin
      (* the manager forwards the request to the current owner *)
      Cluster.count sys.cluster manager ~msgs:1 ~bytes:req_bytes;
      Cluster.charge sys.cluster manager
        (cfg.Config.interrupt_us +. (2.0 *. cfg.Config.msg_overhead_us));
      arrival
      +. cfg.Config.interrupt_us
      +. (2.0 *. cfg.Config.msg_overhead_us)
      +. cfg.Config.wire_latency_us
    end
    else arrival
  in
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Lock_request { lock = lid });
  if lk.held_by = None && lk.granted = None && lk.pending = [] then begin
    lk.granted <- Some p;
    lk.grant_clock <- Float.max arrival lk.release_clock
  end
  else
    (* newest first: O(1) instead of a quadratic append; {!lock_release}
       still grants by earliest arrival, oldest enqueued on ties *)
    lk.pending <- (p, arrival) :: lk.pending;
  Prof.exit Prof.Sync;
  Engine.block ~until:(fun () -> lk.granted = Some p);
  Prof.enter Prof.Sync;
  lk.granted <- None;
  lk.held_by <- Some p;
  let grantor = lk.last_releaser in
  let grant_ready =
    lk.grant_clock +. cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
    +. cfg.Config.lock_service_us
  in
  let ncount =
    if grantor <> p then begin
      (* grant handling steals cycles from the grantor *)
      Cluster.charge sys.cluster grantor
        (cfg.Config.interrupt_us +. cfg.Config.msg_overhead_us
       +. cfg.Config.lock_service_us);
      Cluster.sync_clock sys.cluster p
        (grant_ready +. cfg.Config.wire_latency_us +. cfg.Config.msg_overhead_us);
      let upto = match lk.release_vc with Some v -> v | None -> st.vc in
      let ncount = Protocol.pull_notices sys p ~upto in
      let grant_bytes = 16 + (cfg.Config.notice_bytes * ncount) in
      Cluster.count sys.cluster grantor ~msgs:1 ~bytes:grant_bytes;
      Cluster.charge sys.cluster p
        (cfg.Config.per_byte_us *. float_of_int grant_bytes);
      ncount
    end
    else begin
      (* re-acquiring a lock this processor released last: local grant *)
      Cluster.sync_clock sys.cluster p grant_ready;
      0
    end
  in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Lock_grant { lock = lid; grantor; notices = ncount });
  (* piggy-backed section requests are answered on the grant message *)
  List.iter (fun req -> answer_wsync sys p ~grantor ~grant_ready req) my_reqs;
  Prof.exit Prof.Sync

let lock_acquire t lid =
  lock_acquire_with ~answer_wsync:answer_wsync_from_grantor t lid

let lock_release_with ~release t lid =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let lk = get_lock sys lid in
  if lk.held_by <> Some p then invalid_arg "lock_release: not the holder";
  ignore (release sys p);
  lk.release_clock <- Cluster.time sys.cluster p;
  lk.release_vc <- Some (Vc.copy (state t).vc);
  lk.last_releaser <- p;
  lk.held_by <- None;
  (match lk.pending with
  | [] -> ()
  | pending ->
      (* [pending] is newest first; grant the earliest arrival, breaking
         ties towards the oldest enqueued request ([<=] walking
         newest-to-oldest leaves the oldest tied element as winner, exactly
         as the former append-order list with a strict [<] did) *)
      let (next, arr), rest =
        List.fold_left
          (fun ((bp, ba), rest) (q, a) ->
            if a <= ba then ((q, a), (bp, ba) :: rest)
            else ((bp, ba), (q, a) :: rest))
          (List.hd pending, [])
          (List.tl pending)
      in
      lk.pending <- List.rev rest;
      lk.granted <- Some next;
      lk.grant_clock <- Float.max arr lk.release_clock);
  Prof.exit Prof.Sync

let lock_release t lid = lock_release_with ~release:Protocol.release t lid
