(** Modeled unreliable transport with a reliable-delivery layer on top.

    Drop-in replacements for the {!Dsm_sim.Cluster} cost functions
    ([send]/[rpc]/[bcast]) that route every message over a network which
    may drop, duplicate, delay or reorder copies according to the run's
    {!Plan}, and recover exactly-once in-order delivery with sequence
    numbers, acks, timeout + exponential-backoff retransmission,
    duplicate suppression and per-flow resequencing. Recovery costs
    (retransmit wire time, timeout stalls, ack overhead) are charged to
    the virtual clocks and counted in the {!Dsm_sim.Stats} fields
    [retransmits], [timeouts], [dropped] and [duplicates]; every
    message, retransmissions and acks included, is counted through
    {!Dsm_sim.Cluster.count}.

    With a passthrough plan (all fault rates zero) every function
    delegates directly to the corresponding [Cluster] function —
    bit-identical clocks, statistics and trace. All fault decisions come
    from a counter-based deterministic PRNG, so a faulty run is exactly
    reproducible from [(config, seed)]. *)

type t

val create : ?plan:Plan.t -> Dsm_sim.Cluster.t -> t
(** Build a transport over a cluster. [plan] defaults to
    {!Plan.of_config} of the cluster's configuration.
    @raise Invalid_argument if the plan fails {!Plan.validate}. *)

val cluster : t -> Dsm_sim.Cluster.t
val plan : t -> Plan.t

val passthrough : t -> bool
(** The plan has no faults: this transport is a bit-identical
    pass-through to the raw cluster cost functions. *)

val set_trace : t -> Dsm_trace.Sink.t option -> unit
(** Attach/detach the sink that receives [Msg_drop]/[Msg_dup]/
    [Retransmit]/[Timeout_fire]/[Ack] events. *)

val set_vc_source : t -> (int -> int array) -> unit
(** Provide the per-processor vector clocks stamped on emitted events (the
    DSM run-time points this at its live protocol vector clocks, which the
    sink snapshots, so net events satisfy the checker's vc rules).
    Defaults to all-zero clocks. *)

val send : t -> src:int -> dst:int -> bytes:int -> float
(** Reliable one-way message of [bytes] payload bytes; returns the
    delivery time at [dst] as a virtual clock value in µs (resequenced:
    never earlier than the previous [src]→[dst] delivery, after any
    retransmissions and jitter). The sender's CPU is charged for the
    initial attempt and every retransmission; the ack leg is charged to
    both ends. None of this touches the host clock — like every cost
    function here it is deterministic given [(plan, call sequence)]. *)

val rpc :
  t -> src:int -> dst:int -> req_bytes:int -> resp_bytes:int ->
  service:float -> unit
(** Synchronous request/response over two reliable legs, with [service]
    µs of handler time at [dst] between them. Request-leg faults delay
    handler occupancy at [dst] (and so every later request serialized
    behind it — the hot-spot effect); response-leg faults delay the
    requester's unblock time and charge the responder's CPU. Advances
    [src]'s virtual clock past the full roundtrip; does not suspend the
    calling fiber. *)

val bcast : t -> src:int -> bytes:int -> float
(** Binary-tree broadcast of [bytes] to all other processors; each tree
    hop is its own reliable leg, so a fault on one hop delays that whole
    subtree. Returns the root's completion time (virtual µs). *)

(** {1 Exposed for tests} *)

val u01 : seed:int -> int -> float
(** [u01 ~seed n] is the [n]-th uniform draw in [0,1) of the
    counter-based splitmix64 generator driving all fault decisions: a
    pure function of [(seed, n)], so tests can predict — and replay
    tools re-derive — every drop/duplicate/jitter choice of a run
    without sharing generator state. *)
