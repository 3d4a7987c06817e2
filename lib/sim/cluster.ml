type t = {
  cfg : Config.t;
  clocks : float array;
  stats : Stats.t array;
  busy_start : float array;
  busy_until : float array;
      (* per-processor interrupt-handler occupancy interval: requests that
         arrive inside it serialize behind it (the hot-spot effect that
         barrier-time broadcast avoids); requests arriving before it (a
         processor whose virtual time lags the simulation order) are served
         at their own arrival time *)
  mutable pages_in_use : int;
}

let create cfg =
  {
    cfg;
    clocks = Array.make cfg.Config.nprocs 0.0;
    stats = Array.init cfg.Config.nprocs (fun _ -> Stats.create ());
    busy_start = Array.make cfg.Config.nprocs 0.0;
    busy_until = Array.make cfg.Config.nprocs 0.0;
    pages_in_use = 0;
  }

let nprocs t = t.cfg.Config.nprocs
let time t p = t.clocks.(p)

let elapsed t = Array.fold_left max 0.0 t.clocks

(* [@inline] on [charge], [occupy] and the cost formulas keeps their float
   arguments and results unboxed inside the cost functions below: costing a
   message allocates nothing beyond a returned arrival time. *)
let[@inline] charge t p dt = t.clocks.(p) <- t.clocks.(p) +. dt

let sync_clock t p at = if at > t.clocks.(p) then t.clocks.(p) <- at

(* The one place a message is counted: every write to the [messages],
   [bytes] and [broadcasts] statistics goes through here. *)
let count t p ~msgs ~bytes =
  let st = t.stats.(p) in
  st.Stats.messages <- st.Stats.messages + msgs;
  st.Stats.bytes <- st.Stats.bytes + bytes

let count_bcast t p ~bytes =
  let n1 = nprocs t - 1 in
  count t p ~msgs:n1 ~bytes:(bytes * n1);
  let st = t.stats.(p) in
  st.Stats.broadcasts <- st.Stats.broadcasts + 1

let send t ~src ~dst:_ ~bytes =
  let c = t.cfg in
  count t src ~msgs:1 ~bytes;
  charge t src (c.Config.msg_overhead_us +. (c.Config.per_byte_us *. float_of_int bytes));
  t.clocks.(src) +. c.Config.wire_latency_us

let reply t ~src ~dst:_ ~at ~bytes =
  let c = t.cfg in
  count t src ~msgs:1 ~bytes;
  (* sender-side cost, stolen from the responder's cpu *)
  charge t src
    (c.Config.msg_overhead_us +. (c.Config.per_byte_us *. float_of_int bytes));
  at
  +. (c.Config.per_byte_us *. float_of_int bytes)
  +. c.Config.wire_latency_us +. c.Config.msg_overhead_us

let recv_charge t ~dst ~arrival ~interrupt =
  let c = t.cfg in
  sync_clock t dst arrival;
  charge t dst
    (c.Config.msg_overhead_us
    +. if interrupt then c.Config.interrupt_us else 0.0)

(* Claim the target's handler: serialize behind an overlapping busy period,
   start a new one otherwise. *)
let[@inline] occupy t dst ~arrival ~handler_time =
  if not t.cfg.Config.enable_hotspot_queueing then arrival
  else if arrival >= t.busy_until.(dst) then begin
    t.busy_start.(dst) <- arrival;
    t.busy_until.(dst) <- arrival +. handler_time;
    arrival
  end
  else if arrival >= t.busy_start.(dst) then begin
    let start = t.busy_until.(dst) in
    t.busy_until.(dst) <- start +. handler_time;
    start
  end
  else arrival (* served in the past; occupancy unknown, assume free *)

let[@inline] handler_time t ~service ~resp_bytes =
  let c = t.cfg in
  c.Config.interrupt_us +. c.Config.msg_overhead_us +. service
  +. c.Config.msg_overhead_us
  +. (c.Config.per_byte_us *. float_of_int resp_bytes)

(* Interrupt handling steals cycles from the target processor; back-to-back
   requests to the same target serialize behind its handler occupancy. *)
let[@inline] serve t ~dst ~arrival ~handler_time ~bytes =
  charge t dst handler_time;
  count t dst ~msgs:1 ~bytes;
  let start = occupy t dst ~arrival ~handler_time in
  start +. handler_time +. t.cfg.Config.wire_latency_us

let rpc t ~src ~dst ~req_bytes ~resp_bytes ~service =
  let c = t.cfg in
  count t src ~msgs:1 ~bytes:req_bytes;
  let handler_time = handler_time t ~service ~resp_bytes in
  let arrival =
    t.clocks.(src)
    +. c.Config.msg_overhead_us
    +. (c.Config.per_byte_us *. float_of_int req_bytes)
    +. c.Config.wire_latency_us
  in
  t.clocks.(src) <-
    serve t ~dst ~arrival ~handler_time ~bytes:resp_bytes
    +. c.Config.msg_overhead_us

let bcast_hops t =
  let n = nprocs t in
  if t.cfg.Config.bcast_log_tree then
    int_of_float (ceil (log (float_of_int n) /. log 2.0))
  else n - 1

let[@inline] bcast_per_hop t ~bytes =
  let c = t.cfg in
  c.Config.msg_overhead_us
  +. (c.Config.per_byte_us *. float_of_int bytes)
  +. c.Config.wire_latency_us +. c.Config.msg_overhead_us

let bcast t ~src ~bytes =
  count_bcast t src ~bytes;
  charge t src (float_of_int (bcast_hops t) *. bcast_per_hop t ~bytes);
  t.clocks.(src)

let mm_op t p ~npages =
  let c = t.cfg in
  charge t p
    (c.Config.mm_base_us
    +. (c.Config.mm_per_inuse_page_us *. float_of_int t.pages_in_use)
    +. (c.Config.mm_per_op_page_us *. float_of_int npages))
