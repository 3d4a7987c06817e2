(** Shared state of a simulated cluster run: per-processor virtual clocks,
    statistics, and the network cost model.

    All times are in microseconds of virtual time. Computation is charged
    explicitly with {!charge}; communication with the cost functions below,
    which update both clocks and statistics.

    This is the only module that counts messages: every write to the
    [messages], [bytes] and [broadcasts] statistics goes through {!count}
    (or {!count_bcast}). A message has one of five cost shapes: a one-way
    {!send}, a blocking {!rpc}, a {!bcast}, a {!reply} that leaves a
    responder at a known time, and a handler that {!serve}s a request that
    arrived earlier. [Dsm_net.Net] layers its fault plan over [send], [rpc]
    and [bcast] and reuses {!handler_time}, {!bcast_hops} and
    {!bcast_per_hop} for its faulty paths.

    Request handlers (diff requests, lock grants) in the DSM run synchronously
    in simulation: the requester directly manipulates the target's state and
    the cost functions account for the interrupt time stolen from the target
    processor (see DESIGN.md section 4).

    Nothing here is locked: {!Engine.run} executes every slice — and
    therefore every call into this module — on the calling domain, one at
    a time. *)

type t = {
  cfg : Config.t;
  clocks : float array;  (** per-processor virtual clock, us *)
  stats : Stats.t array;
  busy_start : float array;
  busy_until : float array;
      (** per-processor request-handler occupancy interval: overlapping
          requests to one processor serialize (hot-spot contention) *)
  mutable pages_in_use : int;
      (** shared-space pages allocated so far; fault and mprotect costs are a
          linear function of this, as measured on AIX 3.2.5 in Section 5 *)
}

val create : Config.t -> t
val nprocs : t -> int

val time : t -> int -> float
(** Current virtual clock of a processor. *)

val elapsed : t -> float
(** Maximum clock over all processors: the parallel execution time. *)

val charge : t -> int -> float -> unit
(** [charge t p dt] advances processor [p]'s clock by [dt] us of local work. *)

val sync_clock : t -> int -> float -> unit
(** [sync_clock t p at] sets [p]'s clock to [max (time t p) at]: the causal
    effect of consuming an event that happened at time [at] elsewhere. *)

(** {1 Network cost functions} *)

val count : t -> int -> msgs:int -> bytes:int -> unit
(** [count t p ~msgs ~bytes] adds [msgs] messages carrying [bytes] payload
    bytes to processor [p]'s statistics: the counting primitive behind
    every cost function. Costs nothing in virtual time. *)

val count_bcast : t -> int -> bytes:int -> unit
(** Count one broadcast of [bytes] from [p]: [nprocs-1] messages and
    [bytes * (nprocs-1)] bytes. *)

val send : t -> src:int -> dst:int -> bytes:int -> float
(** One-way message: charges the sender its CPU overhead and the wire time,
    counts one message and [bytes] payload bytes, and returns the arrival
    time at [dst]. The receiver's costs are charged when it consumes the
    message (see {!recv_charge}). *)

val reply : t -> src:int -> dst:int -> at:float -> bytes:int -> float
(** A response of [bytes] that leaves responder [src] at virtual time [at]
    (a piggy-backed answer sent at barrier departure or on a lock grant):
    counts one message at [src], charges [src] the send overhead
    [o + β·bytes], and returns the arrival time at [dst],
    [at + β·bytes + α + o]. [src]'s clock does not gate [at]. *)

val recv_charge : t -> dst:int -> arrival:float -> interrupt:bool -> unit
(** Consume a message that arrived at [arrival]: advances [dst]'s clock to
    the arrival time plus receive overhead (plus interrupt dispatch if
    [interrupt]). *)

val handler_time : t -> service:float -> resp_bytes:int -> float
(** Processor time a request handler takes to receive a request, run
    [service] us of work and send a [resp_bytes] answer: interrupt, two
    message overheads and the answer's wire bytes. *)

val serve :
  t -> dst:int -> arrival:float -> handler_time:float -> bytes:int -> float
(** A request that reached [dst] at [arrival] is handled there and
    answered with [bytes]: charges [dst] [handler_time], counts the answer
    at [dst], serializes behind [dst]'s handler occupancy (see {!occupy})
    and returns the answer's arrival time back at the requester,
    [start + handler_time + α]. *)

val rpc :
  t -> src:int -> dst:int -> req_bytes:int -> resp_bytes:int ->
  service:float -> unit
(** Synchronous request/response pair ([src] blocks for the reply): a
    request leg followed by {!serve} with {!handler_time}. Charges the
    requester the full roundtrip and the target the interrupt-stolen
    handler time; counts two messages. With zero payloads and zero service
    this costs the paper's 365 us minimum roundtrip. *)

val bcast_hops : t -> int
(** Sequential hops a broadcast takes at its root: [ceil (log2 nprocs)]
    with [cfg.bcast_log_tree], [nprocs-1] otherwise. *)

val bcast_per_hop : t -> bytes:int -> float
(** Virtual time of one broadcast hop of [bytes]: send overhead, wire
    bytes, latency and receive overhead. *)

val bcast : t -> src:int -> bytes:int -> float
(** Broadcast from [src] to all other processors; returns the completion
    time (arrival at the last receiver). Counts it with {!count_bcast} and
    charges [src] {!bcast_hops} times {!bcast_per_hop}. *)

val occupy : t -> int -> arrival:float -> handler_time:float -> float
(** Claim a processor's request handler: returns the service start time,
    serializing behind an overlapping busy period. *)

val mm_op : t -> int -> npages:int -> unit
(** Charge a memory-management operation (page fault handling or an mprotect
    call covering [npages] pages) to processor [p]; cost is linear in
    {!field-pages_in_use}. Counts as one mprotect in the statistics only when
    recorded separately by the caller. *)
