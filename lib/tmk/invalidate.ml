(* Directory-based single-writer invalidate protocol.

   A sequentially consistent protocol family deliberately unlike the LRC
   variants, proving {!Backend.S} spans consistency models: each page has
   a directory entry (conceptually on processor [page mod nprocs]) holding
   an M/S/I summary — an owner whose copy is always current, an exclusive
   bit, and the sharer set. A read miss fetches the full page from the
   owner (downgrading it to shared if it held the page exclusively); a
   write fault invalidates every other valid copy before the writer is
   granted exclusivity. There are no twins, diffs, write notices or
   vector-clock traffic: data-race-free programs observe the same memory
   contents as under LRC, one whole page at a time.

   Simulator soundness notes:

   - The page table auto-creates zero-filled readable frames on first
     touch. Before the first directory transaction for a page that is
     fine (every copy is zero, all are valid); at entry creation the
     protocol neutralizes the artifact by forcing every non-directory
     frame to [No_access], so no processor can keep silently reading a
     copy the directory does not track.
   - Fault service never yields the engine turn, so a transaction reads
     quiescent remote state, exactly like the LRC fetch paths.
   - [Validate] with a [WRITE_ALL] access still fetches the page when the
     local copy is invalid: the validated ranges may cover only part of
     the page, and exclusivity over a stale frame would make the
     unwritten bytes authoritative. *)

open Types
module Cluster = Dsm_sim.Cluster
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Net = Dsm_net.Net
module Range = Dsm_rsd.Range
module Page_table = Dsm_mem.Page_table
module Prof = Dsm_prof.Prof

let name = "inval"
let dir_of sys page = page mod sys.nprocs

(* Directory entry, created at the first transaction for the page. The
   zero-frame neutralization costs nothing: it models the page starting
   unmapped everywhere except at the directory node, whose zero frame is
   the authoritative initial copy. *)
let entry sys page =
  match Hashtbl.find_opt sys.iv_dir page with
  | Some e -> e
  | None ->
      let d = dir_of sys page in
      for q = 0 to sys.nprocs - 1 do
        if q <> d then ignore (Page_table.invalidate sys.states.(q).pt page)
      done;
      let e = { iv_owner = d; iv_excl = false; iv_sharers = [ d ] } in
      Hashtbl.replace sys.iv_dir page e;
      e

(* The copy just installed (or pushed whole) is current: advance the LRC
   watermarks so a later protocol switch (adaptive backend) or checker
   replay sees [applied = known]. A no-op under the pure invalidate
   backend, where no write notices ever flow. *)
let mark_current sys p page =
  let m = Protocol.meta sys.states.(p) page in
  Wmap.iter
    (fun q kv ->
      if kv > Wmap.get m.applied q then begin
        Wmap.set m.applied q kv;
        Diff_store.note_applied sys.store ~writer:q ~page ~by:p ~seq:kv
      end)
    m.known

(* Install the authoritative copy held by [src] into [p]'s frame, paying
   one data roundtrip (plus a control roundtrip to a remote directory node
   when it is neither endpoint). *)
let fetch_from sys p page ~src =
  let cfg = sys.cluster.Cluster.cfg in
  let d = dir_of sys page in
  if d <> p && d <> src then
    Net.rpc sys.net ~src:p ~dst:d ~req_bytes:16 ~resp_bytes:16 ~service:0.0;
  Net.rpc sys.net ~src:p ~dst:src ~req_bytes:16
    ~resp_bytes:(sys.page_size + 16) ~service:cfg.Config.diff_service_us;
  let spg = Page_table.get sys.states.(src).pt page in
  let pg = Page_table.get sys.states.(p).pt page in
  Bytes.blit spg.Page_table.data 0 pg.Page_table.data 0 sys.page_size;
  Cluster.charge sys.cluster p
    (cfg.Config.diff_apply_per_byte_us *. float_of_int sys.page_size);
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.diff_bytes_applied <-
    pstats.Stats.diff_bytes_applied + sys.page_size;
  mark_current sys p page;
  if sys.trace <> None then
    Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true })

(* Which processor serves the data: the exclusive owner when there is
   one, otherwise the directory node if its copy is valid (two-hop miss),
   otherwise the owner of record (three-hop miss). *)
let source_of sys e page =
  if e.iv_excl then e.iv_owner
  else
    let d = dir_of sys page in
    if List.mem d e.iv_sharers then d else e.iv_owner

(* {1 The two directory transactions} *)

(* Read miss: join the sharers, downgrading an exclusive owner. *)
let ensure_shared sys p page =
  let e = entry sys page in
  if not (List.mem p e.iv_sharers) then begin
    if e.iv_excl then begin
      let o = e.iv_owner in
      let opg = Page_table.get sys.states.(o).pt page in
      if opg.Page_table.prot = Page_table.Read_write then
        opg.Page_table.prot <- Page_table.Read_only;
      e.iv_excl <- false;
      let ostats = sys.cluster.Cluster.stats.(o) in
      ostats.Stats.downgrades <- ostats.Stats.downgrades + 1;
      if sys.trace <> None then
        Protocol.emit sys o (Dsm_trace.Event.Downgrade { page; reader = p })
    end;
    fetch_from sys p page ~src:(source_of sys e page);
    e.iv_sharers <- List.sort_uniq compare (p :: e.iv_sharers)
  end;
  let pg = Page_table.get sys.states.(p).pt page in
  if pg.Page_table.prot = Page_table.No_access then
    pg.Page_table.prot <- Page_table.Read_only

(* Write fault/upgrade: invalidate every other valid copy, fetching the
   current contents first when the writer's own copy is invalid. *)
let ensure_excl sys p page =
  let e = entry sys page in
  if not (e.iv_excl && e.iv_owner = p) then begin
    let cfg = sys.cluster.Cluster.cfg in
    let d = dir_of sys page in
    if not (List.mem p e.iv_sharers) then
      fetch_from sys p page ~src:(source_of sys e page)
    else if d <> p then
      (* upgrade: control roundtrip to the directory only *)
      Net.rpc sys.net ~src:p ~dst:d ~req_bytes:16 ~resp_bytes:16 ~service:0.0;
    let victims = List.filter (fun q -> q <> p) e.iv_sharers in
    if victims <> [] then begin
      let acks =
        List.map
          (fun q ->
            if sys.trace <> None then
              Protocol.emit sys d (Dsm_trace.Event.Inval_send { page; dst = q });
            let arrival = Net.send sys.net ~src:d ~dst:q ~bytes:16 in
            ignore (Page_table.invalidate sys.states.(q).pt page);
            (* the victim's handler drops the copy and acks to the writer *)
            let ack =
              Cluster.serve sys.cluster ~dst:q ~arrival
                ~handler_time:
                  (cfg.Config.interrupt_us
                  +. (2.0 *. cfg.Config.msg_overhead_us))
                ~bytes:16
            in
            if sys.trace <> None then
              Protocol.emit sys q
                (Dsm_trace.Event.Inval_ack { page; writer = p });
            ack)
          victims
      in
      List.iter
        (fun ack ->
          Cluster.recv_charge sys.cluster ~dst:p ~arrival:ack ~interrupt:false)
        acks;
      let pstats = sys.cluster.Cluster.stats.(p) in
      pstats.Stats.invals <- pstats.Stats.invals + List.length victims
    end;
    e.iv_owner <- p;
    e.iv_excl <- true;
    e.iv_sharers <- [ p ]
  end;
  (Page_table.get sys.states.(p).pt page).Page_table.prot <-
    Page_table.Read_write

(* {1 Fault handlers} *)

let read_fault sys p page =
  Prof.enter Prof.Protocol;
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.segv <- pstats.Stats.segv + 1;
  Cluster.mm_op sys.cluster p ~npages:1;
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Page_fault { page; write = false; fetch = true });
  ensure_shared sys p page;
  Prof.exit Prof.Protocol

let write_fault sys p page =
  Prof.enter Prof.Protocol;
  let pstats = sys.cluster.Cluster.stats.(p) in
  pstats.Stats.segv <- pstats.Stats.segv + 1;
  Cluster.mm_op sys.cluster p ~npages:1;
  let pg = Page_table.get sys.states.(p).pt page in
  let fetch = pg.Page_table.prot = Page_table.No_access in
  if sys.trace <> None then
    Protocol.emit sys p
      (Dsm_trace.Event.Page_fault { page; write = true; fetch });
  ensure_excl sys p page;
  Prof.exit Prof.Protocol

(* {1 Synchronization}

   The shared skeletons provide the timing; the protocol closes no
   intervals at a release (there are none), and piggy-backed section
   requests are answered by running the directory transactions at the
   synchronization point. *)

let release _sys _p = None
let no_bcast _sys ~epoch:_ ~departure_clock:_ _entries = None

let satisfy_req sys p req =
  let pages = Range.pages ~page_size:sys.page_size req.wr_ranges in
  match req.wr_access with
  | Read -> List.iter (ensure_shared sys p) pages
  | Write | Read_write | Write_all | Read_write_all ->
      List.iter (ensure_excl sys p) pages

let handle_wsync sys p ~epoch:_ ~departure_clock:_ ~my_reqs =
  List.iter (satisfy_req sys p) my_reqs

let barrier t =
  Sync_ops.barrier_with ~release ~plan_bcast:no_bcast ~handle_wsync t

let answer_wsync sys p ~grantor:_ ~grant_ready:_ req = satisfy_req sys p req
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
  (* the asynchronous variant has nothing to overlap with here: a
     directory transaction completes within the call, which is always
     correct (async is a pure optimization hint) *)
  (match access with
  | Read -> List.iter (ensure_shared sys p) pages
  | Write | Read_write | Write_all | Read_write_all ->
      List.iter (ensure_excl sys p) pages);
  Prof.exit Prof.Sync

let validate_w_sync t ~async sections access =
  Validate.validate_w_sync t ~async sections access

(* Push: the sender necessarily owns every page it pushes (it wrote the
   data), so the in-place payload is valid. A receiver whose copy the
   push covers completely joins the sharers — which is a downgrade of the
   exclusive sender, exactly as if the receiver had read-missed: the
   owner loses write access (its next write must re-invalidate the new
   sharers) and the receiver's copy becomes a tracked, current one. A
   partially covered copy stays invalid — the compiler-guaranteed reads
   of the pushed region then fault and fetch the whole page from the
   owner, which the push rendezvous has already ordered after the
   writes. *)
let push_received sys p ~src:_ ~page ~covered =
  if covered then begin
    let e = entry sys page in
    if e.iv_excl then begin
      let o = e.iv_owner in
      let opg = Page_table.get sys.states.(o).pt page in
      if opg.Page_table.prot = Page_table.Read_write then
        opg.Page_table.prot <- Page_table.Read_only;
      e.iv_excl <- false;
      let ostats = sys.cluster.Cluster.stats.(o) in
      ostats.Stats.downgrades <- ostats.Stats.downgrades + 1;
      if sys.trace <> None then
        Protocol.emit sys o (Dsm_trace.Event.Downgrade { page; reader = p })
    end;
    e.iv_sharers <- List.sort_uniq compare (p :: e.iv_sharers);
    mark_current sys p page;
    let pg = Page_table.get sys.states.(p).pt page in
    if pg.Page_table.prot = Page_table.No_access then
      pg.Page_table.prot <- Page_table.Read_only;
    if sys.trace <> None then
      Protocol.emit sys p (Dsm_trace.Event.Fetch_done { page; full = true })
  end

let push t ~read_sections ~write_sections =
  let sys = t.sys
  and p = t.p in
  Validate.push_with ~release
    ~is_inval:(fun _ -> true)
    ~on_inval:(push_received sys p)
    t ~read_sections ~write_sections
