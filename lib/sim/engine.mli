(** Deterministic scheduler for simulated processors — sequential, plus
    a windowed parallel engine for isolated (message-passing) workloads.

    Each simulated processor runs as an OCaml-5 effect-based fiber. A
    fiber that must wait for another processor (barrier arrival, lock
    grant, message receive) performs {!block} with a predicate that some
    {e other} fiber's action will make true; the scheduler suspends it
    and resumes the next runnable fiber. Virtual time lives entirely in
    {!Cluster} — the engine never looks at clocks except in
    {!run_windowed}, which is handed an explicit [clock] function.

    {2 Execution model and determinism}

    {!run} executes fibers in {e slices}: a slice is the host-time span
    from resuming a fiber to its next [Block] (or its return). Slices
    are scheduled in {e pass order}: repeatedly sweep processors
    [0..nprocs-1], resuming each runnable fiber once per pass. Because
    the programs executed on the DSM are data-race free (conflicting
    accesses are ordered by synchronization), this fixed order at
    blocking points fully determines the result: clocks, statistics,
    memory contents and trace are functions of the configuration alone.
    The DSM runtime always runs on {!run}: its processors interact
    through RPC charges, hot-spot occupancy and barrier-arrival order,
    so no concurrent schedule reproduces this one interleaving.

    {!run_windowed} is the genuinely concurrent engine — conservative
    parallel discrete-event simulation in the Chandy–Misra–Bryant
    style — and trades the universal determinism guarantee for an
    isolation contract stated below. *)

exception Deadlock of string
(** Raised when some fibers have not terminated but no fiber can make
    progress: a full pass (or, in {!run_windowed}, a full window round)
    resumed nothing and every remaining fiber's predicate is false. The
    message lists the blocked processor ids, e.g.
    ["fibers blocked: [1,3]"]. All engines raise it with the same
    message format, and both unwind the remaining fibers (as for
    {!Proc_failure}) before the exception escapes. *)

exception Proc_failure of int * exn
(** An exception escaped processor [p]'s fiber: re-raised as
    [Proc_failure (p, original)] after every suspended sibling fiber
    has been discontinued (unwound through its cleanup handlers, each
    on the domain that owns it), so a failing run leaks no continuation
    and leaves no fiber marked running. If several fibers fail in one
    {!run_windowed} run, the first failure recorded wins; the rest are
    unwound like any other sibling. *)

val block : until:(unit -> bool) -> unit
(** Suspend the calling fiber until [until ()] holds. Must be called
    from within {!run} or {!run_windowed}.

    The predicate is re-evaluated by the scheduler — at least once per
    pass while the fiber is suspended — and must be made true by the
    action of some other fiber (or be immediately true, as in
    {!yield}). It must be pure apart from reading simulator state: it
    can run many times, and under {!run_windowed} it may be evaluated
    by the window-barrier closer on a different domain than the fiber's
    own, so anything it reads that another domain mutates must be
    protected by the caller (the message-passing runtime locks its
    mailboxes for exactly this reason). *)

val yield : unit -> unit
(** Re-enter the scheduler with an immediately-true predicate: every
    other runnable fiber gets one slice before the caller continues.
    Useful to break one processor's long computation into slices that
    interleave deterministically with its peers. *)

val run : nprocs:int -> (int -> unit) -> unit
(** [run ~nprocs main] executes [main p] for [p = 0..nprocs-1] as
    cooperative fibers on the calling domain until all terminate.

    @raise Deadlock if all remaining fibers are blocked on predicates
    that no runnable fiber can satisfy.
    @raise Proc_failure if an exception escapes one of the fibers; the
    remaining fibers are discontinued first. *)

val run_windowed :
  domains:int ->
  nprocs:int ->
  lookahead:float ->
  clock:(int -> float) ->
  (int -> unit) ->
  unit
(** [run_windowed ~domains ~nprocs ~lookahead ~clock main] is the
    conservative parallel engine: shards advance truly concurrently
    inside virtual-time windows.

    A fiber is eligible only while [clock p < window_end]; when a shard
    has no eligible fiber its domain enters the window barrier; the
    last arriver recomputes [window_end = min unfinished clock +
    lookahead] (all shards being quiescent, the minimum is consistent)
    and releases the next round. [lookahead] is the minimum virtual
    latency of any cross-processor interaction — for the simulated
    cluster, the wire latency — so within a window no fiber can affect
    a peer earlier than the window end. A quiescent round gated only by
    the window (runnable fibers exist beyond it) advances the window to
    the earliest runnable clock instead — the engine's substitute for
    CMB null messages; a quiescent round with no runnable fiber at all
    is a {!Deadlock}.

    {b Isolation contract} — results are deterministic (and equal to
    {!run}) only if concurrently-running fibers are
    {e isolated}: a fiber may freely mutate state owned by its
    processor (its clock, its statistics row, its pages), and may
    interact with other processors only through order-insensitive
    channels — per-pair FIFO queues whose contents and costs do not
    depend on the global interleaving, with sends charged to the sender
    alone. The message-passing runtime with a pass-through network plan
    satisfies this; the DSM runtime (cross-processor RPC charges,
    hot-spot occupancy, barrier-arrival ordering) does not and must use
    {!run}. Shared structures touched from predicates or slices of
    different shards must be locked by the caller.

    @raise Deadlock / @raise Proc_failure as for {!run}, except that
    the unwind order across shards is not deterministic (a failing run
    makes no determinism promise). *)

(** {2 Sharding layout} *)

val shard_bounds : domains:int -> nprocs:int -> int -> int * int
(** [shard_bounds ~domains ~nprocs d] is the half-open processor range
    [(lo, hi)] that {!run_windowed} assigns to shard [d]: contiguous,
    balanced to within one processor ([lo = d*nprocs/domains]). *)
