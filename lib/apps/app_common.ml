type opt_level = Base | Comm_aggr | Cons_elim | Sync_merge | Push_opt

let opt_level_name = function
  | Base -> "base"
  | Comm_aggr -> "comm-aggr"
  | Cons_elim -> "cons-elim"
  | Sync_merge -> "sync-merge"
  | Push_opt -> "push"

let rank = function
  | Base -> 0
  | Comm_aggr -> 1
  | Cons_elim -> 2
  | Sync_merge -> 3
  | Push_opt -> 4

let level_leq a b = rank a <= rank b

type result = {
  time_us : float;
  stats : Dsm_sim.Stats.t;
  max_err : float;
  digest : string;
      (* content digest of the final shared state, observed through the
         protocol ({!Dsm_tmk.Tmk.digest}); computed only when [run_tmk
         ~digest:true] asks for it (an extra read pass), and [""]
         otherwise. A string, never a closure over the system: results
         are memoized across the whole benchmark suite, and anything
         that kept the run-time state reachable would pin every page,
         twin and diff store of every completed run in the heap. *)
  homes : (int * int) list;
      (* page-to-home assignments the run made ({!Dsm_tmk.Tmk.homes}),
         snapshotted before the digest pass; [[]] for non-tmk versions
         and for backends that assign none. The first-touch determinism
         regression compares these across traced and untraced runs. *)
  classes : (int * string * int) list;
      (* final per-page (page, protocol, owner) classification of the
         adaptive backend ({!Dsm_tmk.Tmk.adapt_classes}), snapshotted with
         [homes]; [[]] for non-tmk versions and other backends. The static
         plan grading compares these against the compile-time
         predictions. *)
  latencies_us : float array option;
      (* per-operation latencies of a transaction-style workload (KV),
         sorted ascending; [None] for the kernels, whose unit of work is
         the whole run. Plain data, like [digest]: memoized results must
         never pin run-time state. *)
  nops : int;
      (* operations completed by a transaction-style workload, the
         denominator of msgs/op and bytes/op; [0] for the kernels. *)
}

(* Results are built through this constructor so new optional fields
   (latencies, op counts) extend the record without touching the six
   kernels' construction sites again. *)
let make_result ~time_us ~stats ~max_err ?(digest = "") ?(homes = [])
    ?(classes = []) ?latencies_us ?(nops = 0) () =
  { time_us; stats; max_err; digest; homes; classes; latencies_us; nops }

let block ~lo ~hi nprocs p =
  let w = (hi - lo + nprocs) / nprocs in
  let b = min (hi + 1) (lo + (p * w)) in
  (b, min hi (b + w - 1))

let combine_err a b = Float.max a (abs_float b)

(* Memoization of each app's sequential reference solution; the tables
   are tiny (a handful of problem sizes) and the compute deterministic. *)
let memo tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute () in
      Hashtbl.replace tbl key v;
      v

