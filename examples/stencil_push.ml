(* Replacing a barrier with Push: the paper's Figure 2, by hand.

   A two-phase stencil loop over a shared grid (the Jacobi pattern): the
   optimized version validates its own partition with WRITE_ALL (no twins,
   no diffs) and replaces the end-of-iteration barrier with a Push that
   sends each neighbour exactly the boundary columns it will read —
   message-passing behaviour inside the shared-memory programming model.

   Shared columns move through page runs ({!Shm.F64_2.read_cols},
   {!Shm.F64_2.write_col}): one protection check per page instead of one
   per element. The stencil's four references become four lockstep runs,
   listed in the order the per-element expression evaluated them, so the
   runs fault exactly where element accesses would have.

     dune exec examples/stencil_push.exe *)

module Tmk = Core.Tmk
module Shm = Core.Shm

let m = 256
let iters = 8

let bounds nprocs p =
  let w = (m - 2 + nprocs - 1) / nprocs in
  (1 + (p * w), min (m - 2) (p * w + w))

let run ~push =
  let cfg = Core.Config.default in
  let sys = Tmk.make cfg in
  let b = Tmk.Alloc.array sys "b" Tmk.F64 ~dims:[ m; m ] in
  let np = cfg.Core.Config.nprocs in
  let read_sections =
    Array.init np (fun q ->
        let lo, hi = bounds np q in
        [ Shm.F64_2.section b (0, m - 1, 1) (lo - 1, hi + 1, 1) ])
  and write_sections =
    Array.init np (fun q ->
        let lo, hi = bounds np q in
        [ Shm.F64_2.section b (0, m - 1, 1) (lo, hi, 1) ])
  in
  Tmk.run sys (fun t ->
      let p = Tmk.pid t in
      let lo, hi = bounds np p in
      let a = Array.make_matrix (hi - lo + 1) m 0.0 in
      let cj = Array.make m 0.0
      and cl = Array.make m 0.0
      and cr = Array.make m 0.0 in
      for j = lo to hi do
        for i = 0 to m - 1 do
          cj.(i) <- float_of_int ((i + j) mod 17)
        done;
        Shm.F64_2.write_col t b j ~lo:0 ~hi:(m - 1) cj
      done;
      Tmk.barrier t;
      for _k = 1 to iters do
        for j = lo to hi do
          (* step i reads b(i,j+1), b(i,j-1), b(i+1,j), b(i-1,j) *)
          Shm.F64_2.read_cols t b ~cols:[| j + 1; j - 1; j; j |]
            ~los:[| 1; 1; 2; 0 |] ~len:(m - 2) [| cr; cl; cj; cj |];
          for i = 1 to m - 2 do
            a.(j - lo).(i) <-
              0.25 *. (cj.(i - 1) +. cj.(i + 1) +. cl.(i) +. cr.(i))
          done
        done;
        Tmk.charge t (0.5 *. float_of_int ((hi - lo + 1) * m));
        Tmk.barrier t;
        if push then Tmk.validate t write_sections.(p) Tmk.Write_all;
        for j = lo to hi do
          Shm.F64_2.write_col t b j ~lo:1 ~hi:(m - 2) a.(j - lo)
        done;
        Tmk.charge t (0.2 *. float_of_int ((hi - lo + 1) * m));
        if push then Tmk.push t ~read_sections ~write_sections
        else Tmk.barrier t
      done);
  (Tmk.elapsed sys, Tmk.total_stats sys)

let () =
  let bt, bs = run ~push:false in
  let pt, ps = run ~push:true in
  Format.printf "barrier version: %8.0f us  msgs=%5d segv=%5d twins=%4d@." bt
    bs.Core.Stats.messages bs.Core.Stats.segv bs.Core.Stats.twins;
  Format.printf "push version:    %8.0f us  msgs=%5d segv=%5d twins=%4d@." pt
    ps.Core.Stats.messages ps.Core.Stats.segv ps.Core.Stats.twins;
  Format.printf "@.execution time improvement: %.1f%%@."
    (100.0 *. (bt -. pt) /. bt)
