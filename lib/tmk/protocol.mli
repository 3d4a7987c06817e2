(** Core lazy-release-consistency protocol operations.

    The functions here are the run-time's internals, shared by the fault
    handlers ({!Shm}), the synchronization operations ({!Sync_ops}) and the
    augmented interface ({!Validate}); applications use {!Tmk}.

    Protocol summary (Section 2 of the paper):

    - a {e release} (lock release or barrier arrival) starts a new interval
      and records write notices for the pages dirtied in the closing one;
      pages are write-protected again, twins are kept, and no diff is
      computed (lazy diffing);
    - an {e acquire} (lock grant or barrier departure) delivers the write
      notices of every interval that happens-before it; stale pages are
      invalidated;
    - an {e access miss} fetches the missing diffs from their writers (one
      request per writer), applies them in happens-before order to the copy
      and its twin, and restores access;
    - a diff is {e materialized} at the writer when first requested,
      covering every interval since the twin was made; a foreign write
      notice for a page with pending modifications forces materialization,
      which bounds accumulation to spans with no ordered-in-between foreign
      interval. *)

open Types

val debug : bool
(** [DSM_DEBUG] environment toggle: traces fetches and diff applications. *)

val emit : system -> int -> Dsm_trace.Event.kind -> unit
(** Append a protocol event to the system's sink (no-op when tracing is
    off). Guard call sites with [sys.trace <> None] before building the
    event payload so a disabled trace allocates nothing; emission never
    charges simulated time. *)

val meta : pstate -> int -> page_meta
(** Per-page protocol metadata (applied/known watermarks, WRITE_ALL ranges,
    pending lazy interval), created on first use. *)

val runs_of_pages : int list -> (int * int) list
(** Group pages into maximal runs of consecutive numbers: protection
    operations cost one call per contiguous run. *)

val protect_runs : system -> int -> int list -> unit
(** Charge and count one protection operation per contiguous run. *)

val release : system -> int -> (int * int list) option
(** Close the current interval: returns the new log entry [(seq, pages)],
    or [None] when nothing was dirtied. *)

val materialize : system -> writer:int -> page:int -> float
(** Create the writer's pending diff for the page, if any; returns the cost
    to charge (as request service time — the work happens in the writer's
    interrupt handler). Cleans the page (twin dropped, write-protected,
    off the dirty list) unless the writer is mid-interval on it. *)

val apply_notice : system -> int -> writer:int -> seq:int -> pages:int list -> unit
(** Record write notices; invalidate stale local copies; force local
    materialization where needed. *)

val pull_notices : system -> int -> upto:Vc.t -> int
(** Apply every notice in the global interval logs between the processor's
    vector clock and [upto]; advance the clock. Returns the notice count
    (for message-size accounting). *)

(** How a fetch is paid for. *)
type fetch_mode =
  | Rpc  (** on-demand request/response pair(s), one per writer *)
  | Prepaid  (** data already charged (async response consumed at a fault) *)
  | Piggyback of float
      (** one data message per writer, sent at the given time (responses to
          section requests piggy-backed on a synchronization operation) *)

val pay_fetch :
  system -> int -> q:int -> mode:fetch_mode -> req_bytes:int ->
  resp_bytes:int -> mat_cost:float -> ndiffs:int -> unit
(** Pay for one aggregated answer of [resp_bytes] from responder [q] to
    processor [p] according to [mode]: an [Rpc] whose service is the diff
    service time plus [mat_cost] (the responder's materialization work) and
    2 us per diff of the [ndiffs] carried; [Prepaid] charges only
    [mat_cost]; [Piggyback at] charges [mat_cost] and sends a
    {!Dsm_sim.Cluster.reply} leaving [q] at [at] (none when [resp_bytes]
    is 0), which bypasses the fault plan. *)

val gather_needs :
  system -> int -> int list -> ?only_via:int -> unit ->
  (int, (int * int * int) list) Hashtbl.t * (int, float ref) Hashtbl.t
(** Which writers' diffs the processor misses for [pages]: a table from
    writer to [(page, applied, known)] requests, plus the materialization
    costs incurred per writer. Applies supersede pruning: when the
    happens-latest candidate diff overwrites a whole page, the older diffs
    are dead data and are marked applied instead of fetched. [only_via r]
    restricts to diffs processor [r] holds locally (lock-grant
    piggy-backing). *)

val fetch_and_apply :
  system -> int -> int list -> mode:fetch_mode -> ?only_via:int -> unit -> unit
(** Fetch and apply every missing diff for [pages], grouped by writer (the
    communication-aggregation optimization passes many pages; the base
    run-time passes the single faulting page). *)

val async_fetch : system -> int -> int list -> unit
(** Asynchronous [Fetch_diffs]: send the requests and record the response
    arrival times; the page-fault handler completes the work at the first
    access (Section 3.2.3). Pages with an outstanding request are
    skipped. *)

val make_consistent : system -> int -> int -> unit
(** Bring one page's copy up to date, consuming a pending asynchronous
    response when present, paying on-demand requests otherwise. *)

val in_dirty : pstate -> int -> bool
(** Membership in the current interval's write set (hash set; O(1)). *)

val mark_dirty : pstate -> int -> unit
(** Add a page to the current interval's write set. *)

val record_write_all : system -> int -> Dsm_rsd.Range.t -> unit
(** Mark byte ranges as validated WRITE_ALL: the fault handler skips twin
    creation for them and materialization copies them verbatim. *)

val apply_access_state :
  system -> int -> ranges:Dsm_rsd.Range.t -> access:access -> unit
(** The protection/twin actions of Figure 3 for a validated section, after
    any required data movement has happened: [READ] write-protects,
    [WRITE]/[READ&WRITE] create twins and enable writing, the [_ALL] types
    enable writing without twins and record the WRITE_ALL ranges. *)

val obj_all_slots : system -> int -> Pset.t
(** Every slot of a page holding objects of the given size: the
    conservative "whole page stale" extent. *)

val obj_slots_of_ranges :
  system -> page:int -> osz:int -> Dsm_rsd.Range.t -> Pset.t
(** Slots of [page] (object size [osz]) covered by [ranges]; a partially
    covered slot counts as covered. *)

val obj_skip :
  system -> int -> ranges:Dsm_rsd.Range.t -> int list -> int list * int list
(** Split a validate's page list into [(fetch, skipped)]. A page is skipped
    when it lies in an object-granularity region, is genuinely stale, its
    stale-slot tracking is live, and every validated object is disjoint
    from the stale slots — page-granularity false sharing with no true
    communication. Counts {!Dsm_sim.Stats.obj_skips} and emits [Obj_skip]
    per skipped page. Identity when [sys.has_objs] is unset or homes are
    replicated. *)

val split_unfaultable :
  system -> int -> int list -> int list * int list
(** Split an asynchronous validate's fetch list into
    [(faultable, unfaultable)]: pages left accessible by an earlier
    object-granularity skip never fault, so their fetch cannot be left to
    the fault handler — the caller fetches them synchronously. Identity
    ([pages], []) when [sys.has_objs] is unset. *)

val read_fault : system -> int -> int -> unit
(** Access-miss handler for a read: counts the fault, makes the page
    consistent, restores read (or read-write, if mid-interval) access. *)

val write_fault : system -> int -> int -> unit
(** Write-detection handler: counts the fault, makes an invalid page
    consistent, creates the twin (unless WRITE_ALL), enables writing and
    adds the page to the dirty list. *)
