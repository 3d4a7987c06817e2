(* Adaptive per-page protocol switching.

   A meta-backend: every page is governed at any moment by one of the
   three concrete protocols — homeless LRC ({!Protocol}/{!Backend_lrc}),
   home-based LRC ({!Hlrc}) or single-writer invalidate ({!Invalidate}) —
   and the backend reclassifies pages online from their observed sharing
   pattern. Pages start under LRC (the paper's default, correct for
   anything); every [adapt_window] barrier epochs the per-window
   read/write processor masks decide:

   - one processor both reads and writes the page (private, or migratory
     when the processor changes between windows) -> invalidate, owned by
     that processor: after one exclusivity grant it runs at memory speed
     with no per-epoch twin/diff/notice work;
   - exactly one writer, other readers (producer-consumer) -> home-based
     LRC with the home at the writer: flushes are local, consumers pay one
     full-page fetch;
   - several writers (fine-grained or false sharing) -> homeless LRC,
     whose diffs are exactly the concurrent-writer mechanism;
   - untouched or read-only windows change nothing.

   Switching happens inside the barrier's [plan_bcast] hook: it runs once,
   in the last arriver's engine turn, after every processor has closed its
   interval (all dirty sets are empty) and after the departure vector
   clock has been merged — global quiescence. The switch first brings the
   new copy-holder fully current through the ordinary traced protocol
   paths (so the checker follows for free), then rewrites protections,
   watermarks and per-protocol directory state; the reconfiguration itself
   is charged nothing, like the protection fixups of a real mprotect-based
   system would be amortized into the barrier it rides on. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Page_table = Dsm_mem.Page_table
module Prof = Dsm_prof.Prof

let name = "adaptive"

let ap sys page =
  match Hashtbl.find_opt sys.adapt page with
  | Some a -> a
  | None ->
      let a =
        {
          ap_proto = P_lrc;
          ap_readers = Pset.empty;
          ap_writers = Pset.empty;
          ap_last_writer = -1;
          ap_migrations = 0;
        }
      in
      Hashtbl.replace sys.adapt page a;
      a

let proto_of sys page =
  match Hashtbl.find_opt sys.adapt page with
  | Some a -> a.ap_proto
  | None -> P_lrc

let observe_read sys p page =
  let a = ap sys page in
  a.ap_readers <- Pset.add p a.ap_readers

let observe_write sys p page =
  let a = ap sys page in
  a.ap_writers <- Pset.add p a.ap_writers

let observe sys p access page =
  match access with
  | Read -> observe_read sys p page
  | Write | Read_write | Write_all | Read_write_all -> observe_write sys p page

(* {1 Fault dispatch} *)

let read_fault sys p page =
  observe_read sys p page;
  match proto_of sys page with
  | P_lrc -> Protocol.read_fault sys p page
  | P_hlrc -> Hlrc.read_fault sys p page
  | P_inval -> Invalidate.read_fault sys p page

let write_fault sys p page =
  observe_write sys p page;
  match proto_of sys page with
  | P_lrc -> Protocol.write_fault sys p page
  | P_hlrc -> Hlrc.write_fault sys p page
  | P_inval -> Invalidate.write_fault sys p page

(* {1 Release}

   One shared interval close (write notices for every LRC/HLRC-mode page
   dirtied — invalidate-mode pages never enter the dirty set), then an
   eager home flush for just the pages currently under HLRC. *)

let release sys p =
  match Protocol.release sys p with
  | None -> None
  | Some (seq, pages) as entry ->
      let hpages = List.filter (fun g -> proto_of sys g = P_hlrc) pages in
      if hpages <> [] then Hlrc.flush_pages sys p ~seq hpages;
      entry

(* {1 Classification and switching} *)

(* A page may only change protocol when no processor holds transitional
   state for it: an outstanding asynchronous fetch, a partially pushed
   copy awaiting its barrier rollback, an open write interval, or a live
   WRITE_ALL window. *)
let switchable sys page =
  let ok = ref true in
  Array.iter
    (fun st ->
      if Hashtbl.mem st.pending_async page then ok := false;
      if List.exists (fun (g, _, _) -> g = page) st.partial_push then
        ok := false;
      if Hashtbl.mem st.dirty page then ok := false;
      (match Hashtbl.find_opt st.meta page with
      | Some m -> if not (Range.is_empty m.write_all) then ok := false
      | None -> ());
      let pg = Page_table.get st.pt page in
      if pg.Page_table.prot = Page_table.Read_write then ok := false)
    sys.states;
  !ok

(* Square up one processor's LRC watermarks after its copy was made
   current by a switch. *)
let mark_current sys q page =
  let m = Protocol.meta sys.states.(q) page in
  List.iter
    (fun w ->
      let kv = Wmap.get m.known w in
      if kv > Wmap.get m.applied w then Wmap.set m.applied w kv;
      Diff_store.note_applied sys.store ~writer:w ~page ~by:q
        ~seq:(Wmap.get m.applied w))
    (Wmap.union_keys m.known m.applied)

let switch sys page a ~to_ ~owner:o ~epoch =
  (* 1. Bring the owner current through the ordinary traced protocol
     paths. The owner must first learn this epoch's write notices — its
     own departure pull has not run yet (we are inside the last arriver's
     turn) — and any lazily deferred diff for the page must be
     materialized so no twin survives the switch. *)
  ignore (Protocol.pull_notices sys o ~upto:sys.barrier.departure_vc);
  for w = 0 to sys.nprocs - 1 do
    let pg = Page_table.get sys.states.(w).pt page in
    if pg.Page_table.twin <> None then begin
      let c = Protocol.materialize sys ~writer:w ~page in
      if c > 0.0 then Cluster.charge sys.cluster w c
    end
  done;
  let src =
    match a.ap_proto with
    | P_inval -> (
        (* the invalidate owner's copy is current by protocol invariant *)
        match Hashtbl.find_opt sys.iv_dir page with
        | Some e -> e.iv_owner
        | None -> o)
    | P_lrc ->
        Protocol.fetch_and_apply sys o [ page ] ~mode:Protocol.Prepaid ();
        o
    | P_hlrc ->
        Hlrc.fetch_pages sys o [ page ] ~mode:Protocol.Prepaid;
        o
  in
  mark_current sys src page;
  (* 2. The switch point: resets the checker's per-protocol tracking. *)
  let pstats = sys.cluster.Cluster.stats.(src) in
  pstats.Stats.proto_switches <- pstats.Stats.proto_switches + 1;
  if sys.trace <> None then
    Protocol.emit sys src
      (Dsm_trace.Event.Proto_switch
         { page; proto = page_proto_name to_; owner = o; epoch });
  (* 3. Install the new protocol's state. *)
  (match to_ with
  | P_inval ->
      Hashtbl.remove sys.homes page;
      Hashtbl.replace sys.iv_dir page
        { iv_owner = src; iv_excl = false; iv_sharers = [ src ] };
      for q = 0 to sys.nprocs - 1 do
        let pg = Page_table.get sys.states.(q).pt page in
        pg.Page_table.prot <-
          (if q = src then Page_table.Read_only else Page_table.No_access)
      done
  | P_lrc | P_hlrc ->
      (* distribute the current copy to every processor — exact at
         quiescence: it includes every closed interval — so the new
         protocol starts with no history to fetch (old diffs may already
         have been pruned or superseded by invalidate-era writes) *)
      Hashtbl.remove sys.iv_dir page;
      for q = 0 to sys.nprocs - 1 do
        if q <> src then begin
          let spg = Page_table.get sys.states.(src).pt page in
          let qpg = Page_table.get sys.states.(q).pt page in
          Bytes.blit spg.Page_table.data 0 qpg.Page_table.data 0 sys.page_size;
          (match qpg.Page_table.twin with
          | Some twin ->
              Bytes.blit spg.Page_table.data 0 twin 0 sys.page_size
          | None -> ());
          mark_current sys q page;
          if sys.trace <> None then
            Protocol.emit sys q
              (Dsm_trace.Event.Fetch_done { page; full = true })
        end;
        let qpg = Page_table.get sys.states.(q).pt page in
        if qpg.Page_table.prot = Page_table.No_access then
          qpg.Page_table.prot <- Page_table.Read_only
      done;
      (match to_ with
      | P_hlrc ->
          Hashtbl.replace sys.homes page o;
          (* every released interval is reflected in the distributed copy:
             no writer must ever re-flush pre-switch history *)
          for w = 0 to sys.nprocs - 1 do
            let m = Protocol.meta sys.states.(w) page in
            let own = Vc.get sys.states.(w).vc w in
            if own > m.home_flushed then m.home_flushed <- own
          done
      | P_lrc | P_inval -> Hashtbl.remove sys.homes page));
  a.ap_proto <- to_

let reclassify sys ~epoch =
  let pages =
    Hashtbl.fold (fun g _ acc -> g :: acc) sys.adapt [] |> List.sort compare
  in
  List.iter
    (fun page ->
      let a = Hashtbl.find sys.adapt page in
      let readers = a.ap_readers
      and writers = a.ap_writers in
      let users = Pset.union readers writers in
      let nw = Pset.cardinal writers in
      let decision =
        if nw = 0 then None (* untouched / read-only window *)
        else if nw = 1 && Pset.equal users writers then
          Some (P_inval, Pset.min_elt writers)
        else if nw = 1 then Some (P_hlrc, Pset.min_elt writers)
        else Some (P_lrc, if a.ap_last_writer >= 0 then a.ap_last_writer else 0)
      in
      if nw = 1 then begin
        let w = Pset.min_elt writers in
        if a.ap_last_writer >= 0 && a.ap_last_writer <> w then
          a.ap_migrations <- a.ap_migrations + 1;
        a.ap_last_writer <- w
      end;
      a.ap_readers <- Pset.empty;
      a.ap_writers <- Pset.empty;
      match decision with
      | Some (np, o) when np <> a.ap_proto && switchable sys page ->
          switch sys page a ~to_:np ~owner:o ~epoch
      | _ -> ())
    pages

(* Runs once per barrier, in the last arriver's turn, at quiescence. *)
let plan_bcast sys ~epoch ~departure_clock:_ _entries =
  sys.adapt_tick <- sys.adapt_tick + 1;
  let w = max 1 sys.cluster.Cluster.cfg.Config.adapt_window in
  if sys.adapt_tick >= w then begin
    sys.adapt_tick <- 0;
    reclassify sys ~epoch
  end;
  None

(* {1 Synchronization} *)

(* Answer one piggy-backed section request, each page through its current
   protocol; [at] is when the responses travel (barrier departure or lock
   grant). *)
let satisfy_req sys p ~at req =
  let pages = Range.pages ~page_size:sys.page_size req.wr_ranges in
  List.iter (observe sys p req.wr_access) pages;
  let inval_pages = List.filter (fun g -> proto_of sys g = P_inval) pages in
  let hlrc_pages = List.filter (fun g -> proto_of sys g = P_hlrc) pages in
  let lrc_pages = List.filter (fun g -> proto_of sys g = P_lrc) pages in
  (match req.wr_access with
  | Read -> List.iter (Invalidate.ensure_shared sys p) inval_pages
  | Write | Read_write | Write_all | Read_write_all ->
      List.iter (Invalidate.ensure_excl sys p) inval_pages);
  if lrc_pages <> [] then
    Protocol.fetch_and_apply sys p lrc_pages ~mode:(Protocol.Piggyback at) ();
  if hlrc_pages <> [] then
    Hlrc.fetch_pages sys p hlrc_pages ~mode:(Protocol.Piggyback at);
  let rest =
    List.fold_left
      (fun acc g ->
        Range.union acc
          (Range.of_interval (g * sys.page_size) ((g + 1) * sys.page_size)))
      Range.empty (lrc_pages @ hlrc_pages)
  in
  let rest = Range.inter req.wr_ranges rest in
  if not (Range.is_empty rest) then
    Protocol.apply_access_state sys p ~ranges:rest ~access:req.wr_access

let handle_wsync sys p ~epoch:_ ~departure_clock ~my_reqs =
  List.iter (satisfy_req sys p ~at:departure_clock) my_reqs

let barrier t = Sync_ops.barrier_with ~release ~plan_bcast ~handle_wsync t

let answer_wsync sys p ~grantor:_ ~grant_ready req =
  satisfy_req sys p ~at:grant_ready req

let lock_acquire t lid = Sync_ops.lock_acquire_with ~answer_wsync t lid
let lock_release t lid = Sync_ops.lock_release_with ~release t lid

(* {1 The augmented interface} *)

let validate t ~async sections access =
  Prof.enter Prof.Sync;
  let sys = t.sys
  and p = t.p in
  let pstats = Types.stats t in
  pstats.Stats.validates <- pstats.Stats.validates + 1;
  let ranges = Validate.ranges_of_sections sections in
  let pages = Range.pages ~page_size:sys.page_size ranges in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Validate
         {
           access = access_to_string access;
           npages = List.length pages;
           async;
           w_sync = false;
         });
  List.iter (observe sys p access) pages;
  let inval_pages = List.filter (fun g -> proto_of sys g = P_inval) pages in
  let hlrc_pages = List.filter (fun g -> proto_of sys g = P_hlrc) pages in
  let lrc_pages = List.filter (fun g -> proto_of sys g = P_lrc) pages in
  (* invalidate-mode pages: a directory transaction is always synchronous
     and leaves nothing for a fault handler to finish *)
  (match access with
  | Read -> List.iter (Invalidate.ensure_shared sys p) inval_pages
  | Write | Read_write | Write_all | Read_write_all ->
      List.iter (Invalidate.ensure_excl sys p) inval_pages);
  let sub proto_pages =
    Range.inter ranges
      (List.fold_left
         (fun acc g ->
           Range.union acc
             (Range.of_interval (g * sys.page_size) ((g + 1) * sys.page_size)))
         Range.empty proto_pages)
  in
  let per_proto fetch afetch proto_pages =
    if proto_pages <> [] then
      match access with
      | Read | Write | Read_write ->
          if async then afetch proto_pages
          else begin
            fetch proto_pages;
            Protocol.apply_access_state sys p ~ranges:(sub proto_pages)
              ~access
          end
      | Write_all ->
          Protocol.apply_access_state sys p ~ranges:(sub proto_pages) ~access
      | Read_write_all ->
          if async then begin
            afetch proto_pages;
            Protocol.record_write_all sys p (sub proto_pages)
          end
          else begin
            fetch proto_pages;
            Protocol.apply_access_state sys p ~ranges:(sub proto_pages)
              ~access
          end
  in
  per_proto
    (fun pgs -> Protocol.fetch_and_apply sys p pgs ~mode:Protocol.Rpc ())
    (fun pgs -> Protocol.async_fetch sys p pgs)
    lrc_pages;
  per_proto
    (fun pgs -> Hlrc.fetch_pages sys p pgs ~mode:Protocol.Rpc)
    (fun pgs -> Hlrc.async_fetch sys p pgs)
    hlrc_pages;
  Prof.exit Prof.Sync

let validate_w_sync t ~async sections access =
  Validate.validate_w_sync t ~async sections access

let push t ~read_sections ~write_sections =
  let sys = t.sys
  and p = t.p in
  List.iter
    (fun g -> observe_write sys p g)
    (Range.pages ~page_size:sys.page_size
       (Validate.ranges_of_sections write_sections.(p)));
  List.iter
    (fun g -> observe_read sys p g)
    (Range.pages ~page_size:sys.page_size
       (Validate.ranges_of_sections read_sections.(p)));
  Validate.push_with ~release
    ~is_inval:(fun g -> proto_of sys g = P_inval)
    ~on_inval:(Invalidate.push_received sys p)
    t ~read_sections ~write_sections
