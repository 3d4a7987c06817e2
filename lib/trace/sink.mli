(** Per-processor ring-buffer event sink.

    The run-time carries a [Sink.t option]; instrumentation sites test it
    before building an event, so a disabled trace costs one comparison and
    allocates nothing. Emission never touches the simulated clocks or the
    statistics counters: enabling tracing cannot perturb the cost model
    (verified by the determinism property test). *)

type t

val default_capacity : int
(** 262144 events per processor. *)

val create : ?capacity:int -> nprocs:int -> unit -> t
(** One ring of at most [capacity] events per processor, grown on demand;
    the oldest events are dropped on overflow (see {!dropped}). *)

val nprocs : t -> int
val capacity : t -> int

val emit : t -> proc:int -> time:float -> vc:int array -> Event.kind -> unit
(** Append an event to [proc]'s ring, stamping it with the next global
    emission id. [vc] is read, not captured: pass the live vector clock.
    The event holds a snapshot of it, shared with [proc]'s previous event
    when the clock has not changed since; snapshots are never mutated, so
    consumers must not mutate an event's [vc] either. *)

val emitted : t -> int
(** Total events emitted, including dropped ones. *)

val dropped : t -> int
(** Events lost to ring overflow (0 means {!events} is the full trace). *)

val dropped_of : t -> int -> int
(** [dropped_of t p]: events of processor [p] lost to its ring's
    overflow — lets consumers report drops per processor instead of
    silently under-counting coverage. *)

val proc_events : t -> int -> Event.t list
(** Surviving events of one processor, oldest first. *)

val iter : (Event.t -> unit) -> t -> unit
(** Visit all surviving events in global emission order. *)

val events : t -> Event.t list
(** All surviving events in global emission order, as a list. *)

val clear : t -> unit

val write_jsonl : out_channel -> t -> unit
(** One JSON object per line, in global emission order. *)
