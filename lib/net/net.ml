(* Modeled unreliable transport with a reliable-delivery layer on top.

   Every protocol message of the DSM run-time and the message-passing
   library is routed through here instead of calling the raw
   {!Dsm_sim.Cluster} cost functions. The network below can drop,
   duplicate, reorder (jitter) or delay message copies according to the
   run's {!Plan}; the reliable layer recovers exactly-once in-order
   delivery with sequence numbers, acknowledgements, timeout-driven
   retransmission with exponential backoff, duplicate suppression and
   per-flow resequencing, and charges every recovery cost (retransmit
   wire time, timeout stalls, ack overhead) to the virtual clocks and the
   per-processor {!Dsm_sim.Stats}.

   Two properties the tests pin down:

   - With a passthrough plan (drop = dup = jitter = 0) every function
     delegates directly to the corresponding [Cluster] function: no PRNG
     draws, no acks, no events — bit-identical clocks, stats and results.
   - All fault decisions come from a counter-based splitmix64 stream, and
     the simulator's fiber scheduler is deterministic, so a faulty run is
     exactly reproducible from [(config, seed)].

   Modeling notes (documented approximations):
   - Acks are 8-byte wire messages whose CPU overhead is charged (sender
     and receiver) but whose wire latency never blocks anyone; they are
     modeled as never lost — losing an ack only causes a spurious
     retransmit that duplicate suppression absorbs, a second-order cost
     folded into the drop rate itself.
   - For a *blocking* transfer (an RPC leg) retransmission delay
     surfaces purely as a later delivery time: the requester is stalled
     waiting either way. For a *non-blocking* send the sender's CPU is
     charged for each retransmission (timeout interrupt + resend
     overhead) since it happens concurrently with its own progress.
   - In-order delivery per flow is modeled by flooring each delivery at
     the flow's previous delivery time (a reordered copy waits in the
     resequencing buffer). *)

module Config = Dsm_sim.Config
module Cluster = Dsm_sim.Cluster
module Stats = Dsm_sim.Stats
module Event = Dsm_trace.Event
module Sink = Dsm_trace.Sink
module Prof = Dsm_prof.Prof

(* {1 Deterministic counter-based PRNG (splitmix64)} *)

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform float in [0,1) from (seed, counter): draw [ctr]'s position in
   the splitmix64 sequence seeded with [seed], keep the top 53 bits. *)
let u01 ~seed ctr =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int ctr) 0x9e3779b97f4a7c15L)
         (Int64.of_int seed))
  in
  let mant = Int64.to_int (Int64.shift_right_logical z 11) in
  float_of_int mant *. (1.0 /. 9007199254740992.0)

let ack_bytes = 8

type t = {
  cluster : Cluster.t;
  plan : Plan.t;
  passthrough : bool;
  mutable rng_ctr : int;  (* next PRNG counter: the fault-stream cursor *)
  mutable next_msg : int;  (* next reliable-layer sequence number *)
  last_delivery : (int * int, float) Hashtbl.t;
      (* per-flow (src,dst) resequencing floor: in-order delivery *)
  mutable trace : Sink.t option;
  mutable vc_of : int -> int array;
      (* vector clock stamped on emitted events; the DSM run-time points
         this at its live per-processor vector clocks so net events
         satisfy the checker's vc rules *)
}

let create ?plan cluster =
  let plan =
    match plan with
    | Some p -> p
    | None -> Plan.of_config cluster.Cluster.cfg
  in
  match Plan.validate plan with
  | Error msg -> invalid_arg ("Net.create: " ^ msg)
  | Ok plan ->
      {
        cluster;
        plan;
        passthrough = Plan.is_passthrough plan;
        rng_ctr = 0;
        next_msg = 0;
        last_delivery = Hashtbl.create 64;
        trace = None;
        vc_of = (fun _ -> Array.make (Cluster.nprocs cluster) 0);
      }

let cluster t = t.cluster
let plan t = t.plan
let passthrough t = t.passthrough
let set_trace t sink = t.trace <- sink
let set_vc_source t f = t.vc_of <- f

let draw t =
  let u = u01 ~seed:t.plan.Plan.seed t.rng_ctr in
  t.rng_ctr <- t.rng_ctr + 1;
  u

let emit t p kind =
  match t.trace with
  | None -> ()
  | Some sink ->
      Sink.emit sink ~proc:p ~time:(Cluster.time t.cluster p) ~vc:(t.vc_of p)
        kind

(* {1 The reliable leg} *)

type leg = {
  msg : int;
  attempts : int;  (* delivery attempts including the first transmission *)
  deliver : float;  (* delivery time at the receiver, after resequencing *)
  dup : bool;  (* the network duplicated the final delivery *)
}

(* Sample the fate of one reliable one-way transfer of [bytes] from [src]
   to [dst] whose first copy hits the wire at [xmit]. Updates statistics
   and emits trace events for every drop, timeout, retransmission and
   duplicate, but performs NO clock charging: where retransmit CPU time
   and duplicate-suppression overhead land depends on whether the sender
   blocks, so the callers charge. *)
let reliable_leg t ~src ~dst ~bytes ~xmit =
  let c = t.cluster.Cluster.cfg in
  let plan = t.plan in
  let msg = t.next_msg in
  t.next_msg <- msg + 1;
  let st_src = t.cluster.Cluster.stats.(src) in
  let st_dst = t.cluster.Cluster.stats.(dst) in
  let rec attempt k x =
    (* Short-circuit at the cap without consuming a draw: the final
       attempt is forced through, so even drop = 1.0 terminates. *)
    if
      k < plan.Plan.max_attempts
      && plan.Plan.drop > 0.0
      && draw t < plan.Plan.drop
    then begin
      st_src.Stats.dropped <- st_src.Stats.dropped + 1;
      emit t src (Event.Msg_drop { msg; src; dst; attempt = k });
      let backoff = plan.Plan.rto_us *. (2.0 ** float_of_int (k - 1)) in
      st_src.Stats.timeouts <- st_src.Stats.timeouts + 1;
      emit t src
        (Event.Timeout_fire { msg; src; dst; attempt = k; backoff_us = backoff });
      st_src.Stats.retransmits <- st_src.Stats.retransmits + 1;
      Cluster.count t.cluster src ~msgs:1 ~bytes;
      emit t src (Event.Retransmit { msg; src; dst; attempt = k + 1 });
      attempt (k + 1) (x +. backoff)
    end
    else (k, x)
  in
  let attempts, last_xmit = attempt 1 xmit in
  let jitter =
    if plan.Plan.jitter_us > 0.0 then draw t *. plan.Plan.jitter_us else 0.0
  in
  let arrival = last_xmit +. c.Config.wire_latency_us +. jitter in
  let flow = (src, dst) in
  let deliver =
    match Hashtbl.find_opt t.last_delivery flow with
    | Some floor when floor > arrival -> floor
    | _ -> arrival
  in
  Hashtbl.replace t.last_delivery flow deliver;
  let dup = plan.Plan.dup > 0.0 && draw t < plan.Plan.dup in
  if dup then begin
    st_dst.Stats.duplicates <- st_dst.Stats.duplicates + 1;
    emit t dst (Event.Msg_dup { msg; src; dst })
  end;
  { msg; attempts; deliver; dup }

(* Acknowledge a delivered leg: the receiver returns an [ack_bytes] wire
   message (charged to its CPU and message counts); the original sender
   pays receive overhead. *)
let ack t ~src ~dst ~msg ~attempts =
  let c = t.cluster.Cluster.cfg in
  Cluster.count t.cluster dst ~msgs:1 ~bytes:ack_bytes;
  Cluster.charge t.cluster dst
    (c.Config.msg_overhead_us
    +. (c.Config.per_byte_us *. float_of_int ack_bytes));
  Cluster.charge t.cluster src c.Config.msg_overhead_us;
  emit t dst (Event.Ack { msg; src; dst; attempts })

(* CPU cost one retransmission imposes on the resending processor:
   timeout interrupt plus the resend overhead. *)
let retransmit_cpu c ~bytes =
  c.Config.interrupt_us +. c.Config.msg_overhead_us
  +. (c.Config.per_byte_us *. float_of_int bytes)

(* {1 The transport cost functions} *)

let send t ~src ~dst ~bytes =
  Prof.enter Prof.Net;
  let r =
  if t.passthrough then Cluster.send t.cluster ~src ~dst ~bytes
  else begin
    let c = t.cluster.Cluster.cfg in
    let base_arrival = Cluster.send t.cluster ~src ~dst ~bytes in
    let xmit = base_arrival -. c.Config.wire_latency_us in
    let l = reliable_leg t ~src ~dst ~bytes ~xmit in
    (* Non-blocking send: the sender's CPU pays for each retransmission. *)
    if l.attempts > 1 then
      Cluster.charge t.cluster src
        (float_of_int (l.attempts - 1) *. retransmit_cpu c ~bytes);
    (* Duplicate suppression: the receiver takes the interrupt, matches
       the sequence number against its window and discards the copy. *)
    if l.dup then Cluster.charge t.cluster dst c.Config.msg_overhead_us;
    ack t ~src ~dst ~msg:l.msg ~attempts:l.attempts;
    l.deliver
  end
  in
  Prof.exit Prof.Net;
  r

let rpc t ~src ~dst ~req_bytes ~resp_bytes ~service =
  Prof.enter Prof.Net;
  (if t.passthrough then
    Cluster.rpc t.cluster ~src ~dst ~req_bytes ~resp_bytes ~service
  else begin
    let c = t.cluster.Cluster.cfg in
    (* Cluster.rpc's counts and handler time, both legs made reliable. *)
    Cluster.count t.cluster src ~msgs:1 ~bytes:req_bytes;
    Cluster.count t.cluster dst ~msgs:1 ~bytes:resp_bytes;
    let handler_time = Cluster.handler_time t.cluster ~service ~resp_bytes in
    Cluster.charge t.cluster dst handler_time;
    let send_done =
      Cluster.time t.cluster src
      +. c.Config.msg_overhead_us
      +. (c.Config.per_byte_us *. float_of_int req_bytes)
    in
    (* Request leg: [src] blocks for the reply, so retransmission delay
       shows up purely as a later arrival at the handler. *)
    let rl = reliable_leg t ~src ~dst ~bytes:req_bytes ~xmit:send_done in
    if rl.dup then Cluster.charge t.cluster dst c.Config.msg_overhead_us;
    let start = Cluster.occupy t.cluster dst ~arrival:rl.deliver ~handler_time in
    ack t ~src ~dst ~msg:rl.msg ~attempts:rl.attempts;
    (* Response leg: the responder's CPU pays for each retransmission of
       the reply (it is not blocked on the requester). *)
    let resp_xmit = start +. handler_time in
    let sl =
      reliable_leg t ~src:dst ~dst:src ~bytes:resp_bytes ~xmit:resp_xmit
    in
    if sl.attempts > 1 then
      Cluster.charge t.cluster dst
        (float_of_int (sl.attempts - 1) *. retransmit_cpu c ~bytes:resp_bytes);
    Cluster.sync_clock t.cluster src (sl.deliver +. c.Config.msg_overhead_us);
    if sl.dup then Cluster.charge t.cluster src c.Config.msg_overhead_us;
    ack t ~src:dst ~dst:src ~msg:sl.msg ~attempts:sl.attempts
  end);
  Prof.exit Prof.Net

let bcast t ~src ~bytes =
  Prof.enter Prof.Net;
  let r =
  if t.passthrough then Cluster.bcast t.cluster ~src ~bytes
  else begin
    let c = t.cluster.Cluster.cfg in
    let n = Cluster.nprocs t.cluster in
    Cluster.count_bcast t.cluster src ~bytes;
    let per_hop = Cluster.bcast_per_hop t.cluster ~bytes in
    let hops = Cluster.bcast_hops t.cluster in
    (* Model each of the root's tree hops as a reliable leg to that hop's
       first receiver; faults on a hop delay every later hop (the tree
       stages serialize at the root). [penalty] accumulates the extra
       delay plus the root's retransmission CPU. *)
    let penalty = ref 0.0 in
    for h = 0 to hops - 1 do
      let dst =
        if c.Config.bcast_log_tree then (src + (1 lsl h)) mod n
        else (src + h + 1) mod n
      in
      let xmit =
        t.cluster.Cluster.clocks.(src)
        +. !penalty
        +. (float_of_int h *. per_hop)
        +. c.Config.msg_overhead_us
        +. (c.Config.per_byte_us *. float_of_int bytes)
      in
      let l = reliable_leg t ~src ~dst ~bytes ~xmit in
      penalty :=
        !penalty
        +. (l.deliver -. (xmit +. c.Config.wire_latency_us))
        +. float_of_int (l.attempts - 1) *. retransmit_cpu c ~bytes;
      if l.dup then Cluster.charge t.cluster dst c.Config.msg_overhead_us;
      ack t ~src ~dst ~msg:l.msg ~attempts:l.attempts
    done;
    Cluster.charge t.cluster src ((float_of_int hops *. per_hop) +. !penalty);
    Cluster.time t.cluster src
  end
  in
  Prof.exit Prof.Net;
  r
