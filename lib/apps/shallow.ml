(* The NCAR shallow-water benchmark: finite-difference weather model on a
   two-dimensional periodic grid. Three compute phases per time step
   (velocity fluxes/potential vorticity; new time level; time smoothing),
   separated by barriers; columns are block-partitioned and sharing happens
   only across partition edges. As in the paper, only communication
   aggregation and consistency elimination apply (merging with
   synchronization and Push would need interprocedural analysis); the
   consistency-elimination gains are relatively larger than Jacobi's
   because many more pages are in use (13 shared arrays). Periodic
   continuation is expressed with wrap-around indexing rather than the
   original's copy loops (a documented simplification with the same
   cross-processor communication pattern). *)

module Tmk = Dsm_tmk.Tmk
module Shm = Dsm_tmk.Shm
module Mp = Dsm_mp.Mp
module Hpf = Dsm_hpf.Hpf
open App_common

let name = "Shallow"

type params = { m : int; n : int; steps : int; point_cost : float }

(* 256x256 and 256x128 stand in for the paper's 1024x1024 and 1024x512;
   per-step uniprocessor compute calibrated to Table 1. *)
let large = { m = 256; n = 256; steps = 8; point_cost = 7.6 }
let small = { m = 256; n = 128; steps = 8; point_cost = 7.6 }
let size_name p = Printf.sprintf "%dx%d" p.m p.n
let levels = [ Base; Comm_aggr; Cons_elim ]

(* physical constants of the benchmark *)
let dt = 90.0
let dx = 100000.0
let dy = 100000.0
let a_const = 1000000.0
let alpha = 0.001
let el = 102400000.0  (* n * dx for the original; any constant works *)
let pi = 4.0 *. atan 1.0
let tpi = pi +. pi
let pcf = (pi *. pi *. a_const *. a_const) /. (el *. el)

let fsdx = 4.0 /. dx
let fsdy = 4.0 /. dy

let psi_init m n i j =
  a_const
  *. sin ((float_of_int i +. 0.5) *. tpi /. float_of_int m)
  *. sin ((float_of_int j +. 0.5) *. tpi /. float_of_int n)

let u_init m n i j =
  -.(psi_init m n i ((j + 1) mod n) -. psi_init m n i j) /. dy

let v_init m n i j =
  (psi_init m n ((i + 1) mod m) j -. psi_init m n i j) /. dx

let p_init m n i j =
  pcf
  *. (cos (2.0 *. float_of_int i *. tpi /. float_of_int m)
     +. cos (2.0 *. float_of_int j *. tpi /. float_of_int n))
  +. 50000.0

(* {1 The model, over an abstract array accessor}

   The same phase functions drive the sequential arrays, the DSM and the
   message-passing versions, guaranteeing an identical operation order. *)

type grid = {
  get : int -> int -> int -> float;  (* array-id, i, j *)
  set : int -> int -> int -> float -> unit;
}

(* array ids *)
let iu = 0
and iv = 1
and ip = 2
and iunew = 3
and ivnew = 4
and ipnew = 5
and iuold = 6
and ivold = 7
and ipold = 8
and icu = 9
and icv = 10
and iz = 11
and ih = 12

let n_arrays = 13

let phase1 g m n jlo jhi =
  for j = jlo to jhi do
    let jp = (j + 1) mod n in
    for i = 0 to m - 1 do
      let ipp = (i + 1) mod m in
      g.set icu i j (0.5 *. (g.get ip i j +. g.get ip ((i + m - 1) mod m) j) *. g.get iu i j);
      g.set icv i j (0.5 *. (g.get ip i j +. g.get ip i ((j + n - 1) mod n)) *. g.get iv i j);
      g.set iz i j
        (((fsdx *. (g.get iv ipp j -. g.get iv i j))
         -. (fsdy *. (g.get iu i jp -. g.get iu i j)))
        /. (g.get ip i j +. g.get ip ipp j +. g.get ip ipp jp +. g.get ip i jp));
      g.set ih i j
        (g.get ip i j
        +. (0.25
           *. ((g.get iu i j *. g.get iu i j)
              +. (g.get iu ipp j *. g.get iu ipp j)
              +. (g.get iv i j *. g.get iv i j)
              +. (g.get iv i jp *. g.get iv i jp))))
    done
  done

let phase2 g m n ~tdt jlo jhi =
  let tdts8 = tdt /. 8.0
  and tdtsdx = tdt /. dx
  and tdtsdy = tdt /. dy in
  for j = jlo to jhi do
    let jm = (j + n - 1) mod n in
    for i = 0 to m - 1 do
      let im = (i + m - 1) mod m in
      g.set iunew i j
        (g.get iuold i j
        +. (tdts8
           *. (g.get iz i j +. g.get iz i ((j + 1) mod n))
           *. (g.get icv i j +. g.get icv im j
              +. g.get icv im ((j + 1) mod n)
              +. g.get icv i ((j + 1) mod n)))
        -. (tdtsdx *. (g.get ih i j -. g.get ih im j)));
      g.set ivnew i j
        (g.get ivold i j
        -. (tdts8
           *. (g.get iz i j +. g.get iz ((i + 1) mod m) j)
           *. (g.get icu i j +. g.get icu ((i + 1) mod m) j
              +. g.get icu ((i + 1) mod m) jm
              +. g.get icu i jm))
        -. (tdtsdy *. (g.get ih i j -. g.get ih i jm)));
      g.set ipnew i j
        (g.get ipold i j
        -. (tdtsdx *. (g.get icu ((i + 1) mod m) j -. g.get icu i j))
        -. (tdtsdy *. (g.get icv i ((j + 1) mod n) -. g.get icv i j)))
    done
  done

let phase3 g m ~first jlo jhi =
  ignore m;
  for j = jlo to jhi do
    for i = 0 to m - 1 do
      if first then begin
        g.set iuold i j (g.get iu i j);
        g.set ivold i j (g.get iv i j);
        g.set ipold i j (g.get ip i j);
        g.set iu i j (g.get iunew i j);
        g.set iv i j (g.get ivnew i j);
        g.set ip i j (g.get ipnew i j)
      end
      else begin
        let su = g.get iu i j
        and sv = g.get iv i j
        and sp = g.get ip i j in
        g.set iuold i j
          (su +. (alpha *. (g.get iunew i j -. (2.0 *. su) +. g.get iuold i j)));
        g.set ivold i j
          (sv +. (alpha *. (g.get ivnew i j -. (2.0 *. sv) +. g.get ivold i j)));
        g.set ipold i j
          (sp +. (alpha *. (g.get ipnew i j -. (2.0 *. sp) +. g.get ipold i j)));
        g.set iu i j (g.get iunew i j);
        g.set iv i j (g.get ivnew i j);
        g.set ip i j (g.get ipnew i j)
      end
    done
  done

let init g m n jlo jhi =
  for j = jlo to jhi do
    for i = 0 to m - 1 do
      g.set iu i j (u_init m n i j);
      g.set iv i j (v_init m n i j);
      g.set ip i j (p_init m n i j);
      g.set iuold i j (u_init m n i j);
      g.set ivold i j (v_init m n i j);
      g.set ipold i j (p_init m n i j)
    done
  done

(* {1 Sequential reference} *)

let seq_arrays { m; n; steps; _ } =
  let data = Array.init n_arrays (fun _ -> Array.make (m * n) 0.0) in
  let g =
    {
      get = (fun a i j -> data.(a).((j * m) + i));
      set = (fun a i j v -> data.(a).((j * m) + i) <- v);
    }
  in
  init g m n 0 (n - 1);
  let tdt = ref dt in
  for step = 1 to steps do
    phase1 g m n 0 (n - 1);
    phase2 g m n ~tdt:!tdt 0 (n - 1);
    phase3 g m ~first:(step = 1) 0 (n - 1);
    if step = 1 then tdt := !tdt +. !tdt
  done;
  data

let seq_memo : (int * int * int, float array array) Hashtbl.t = Hashtbl.create 4

let reference prm =
  memo seq_memo (prm.m, prm.n, prm.steps) (fun () -> seq_arrays prm)

let seq_time_us { m; n; steps; point_cost } =
  float_of_int steps *. 3.0 *. float_of_int (m * n) *. point_cost
  +. (float_of_int (m * n) *. point_cost)

(* {1 TreadMarks versions} *)

let bounds n nprocs p = block ~lo:0 ~hi:(n - 1) nprocs p

let run_tmk ?trace ?(digest = false) ?plan cfg ({ m; n; steps; point_cost } as prm) ~level ~async =
  let sys = Tmk.make ?plan cfg in
  let names =
    [| "u"; "v"; "p"; "unew"; "vnew"; "pnew"; "uold"; "vold"; "pold";
       "cu"; "cv"; "z"; "h" |]
  in
  let arrs = Array.map (fun nm -> Tmk.Alloc.array sys nm Tmk.F64 ~dims:[ m; n ]) names in
  let np = cfg.Dsm_sim.Config.nprocs in
  Tmk.run ?trace sys (fun t ->
      let p = Tmk.pid t in
      let jlo, jhi = bounds n np p in
      let width = jhi - jlo + 1 in
      (* Element by element, not page runs: each grid point reads up to
         eight of the thirteen arrays (with wrap-around neighbours) and
         writes others in between, so a page's first touch depends on that
         read/write interleaving across arrays, which no lockstep read
         reproduces. The kernels are also shared with the sequential
         reference and the message-passing versions through [g]. *)
      let g =
        {
          get = (fun a i j -> Shm.F64_2.get t arrs.(a) i j);
          set = (fun a i j v -> Shm.F64_2.set t arrs.(a) i j v);
        }
      in
      (* sections: own partition and the (wrapped) neighbour columns *)
      let own a = Shm.F64_2.section arrs.(a) (0, m - 1, 1) (jlo, jhi, 1) in
      let left_col = (jlo + n - 1) mod n
      and right_col = (jhi + 1) mod n in
      let halo a side =
        let c = match side with `L -> left_col | `R -> right_col in
        Shm.F64_2.section arrs.(a) (0, m - 1, 1) (c, c, 1)
      in
      (* one-sided sections, exactly what regular section analysis derives
         from the stencils of each phase *)
      let validate_reads specs =
        match level with
        | Comm_aggr | Cons_elim ->
            Tmk.validate t ~async
              (List.map (fun (a, side) -> halo a side) specs)
              Tmk.Read
        | Base | Sync_merge | Push_opt -> ()
      in
      let validate_writes ids =
        match level with
        | Comm_aggr -> Tmk.validate t (List.map own ids) Tmk.Write
        | Cons_elim -> Tmk.validate t (List.map own ids) Tmk.Write_all
        | Base | Sync_merge | Push_opt -> ()
      in
      let validate_rw ids =
        (* phase-3 arrays are read and fully overwritten, all locally *)
        match level with
        | Comm_aggr -> Tmk.validate t (List.map own ids) Tmk.Read_write
        | Cons_elim -> Tmk.validate t (List.map own ids) Tmk.Read_write_all
        | Base | Sync_merge | Push_opt -> ()
      in
      validate_writes [ iu; iv; ip; iuold; ivold; ipold ];
      init g m n jlo jhi;
      Tmk.charge t (point_cost *. float_of_int (m * width));
      Tmk.barrier t;
      let tdt = ref dt in
      for step = 1 to steps do
        validate_reads [ (ip, `L); (ip, `R); (iu, `R) ];
        validate_writes [ icu; icv; iz; ih ];
        phase1 g m n jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        validate_reads [ (icu, `L); (ih, `L); (iz, `R); (icv, `R) ];
        validate_writes [ iunew; ivnew; ipnew ];
        phase2 g m n ~tdt:!tdt jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        validate_rw [ iu; iv; ip; iuold; ivold; ipold ];
        phase3 g m ~first:(step = 1) jlo jhi;
        Tmk.charge t (point_cost *. float_of_int (m * width));
        Tmk.barrier t;
        if step = 1 then tdt := !tdt +. !tdt
      done);
  let time_us = Tmk.elapsed sys in
  let stats = Tmk.total_stats sys in
  let dref = reference prm in
  let err = ref 0.0 in
  Tmk.run sys (fun t ->
      if Tmk.pid t = 0 then
        List.iter
          (fun a ->
            for j = 0 to n - 1 do
              for i = 0 to m - 1 do
                err :=
                  combine_err !err
                    (Shm.F64_2.get t arrs.(a) i j -. dref.(a).((j * m) + i))
              done
            done)
          [ iu; iv; ip ]);
  let homes = Tmk.homes sys in
  let classes = Tmk.adapt_classes sys in
  make_result ~time_us ~stats ~max_err:!err
    ~digest:(if digest then Tmk.digest sys else "")
    ~homes ~classes ()

(* {1 Message-passing versions}

   Each processor holds full columns for its partition plus one halo column
   on each side; the halos of the arrays a phase reads are refreshed by a
   ring exchange before the phase. *)

let run_mp ~pack cfg ({ m; n; steps; point_cost } as prm) =
  let sys = Mp.make cfg in
  let np = cfg.Dsm_sim.Config.nprocs in
  let results = Array.make np [||] in
  Mp.run sys (fun t ->
      let p = Mp.pid t in
      let jlo, jhi = bounds n np p in
      let width = jhi - jlo + 1 in
      (* local storage: every array gets all n columns, but only the own
         partition and the two halo columns are ever valid *)
      let data = Array.init n_arrays (fun _ -> Array.make (m * n) 0.0) in
      let g =
        {
          get = (fun a i j -> data.(a).((j * m) + i));
          set = (fun a i j v -> data.(a).((j * m) + i) <- v);
        }
      in
      let left_n = (p + np - 1) mod np
      and right_n = (p + 1) mod np in
      let left_col = (jlo + n - 1) mod n
      and right_col = (jhi + 1) mod n in
      let exchange ids =
        (* send own edge columns, receive halos (periodic ring) *)
        let count = List.length ids in
        let sendbuf edge =
          let buf = Array.make (count * m) 0.0 in
          List.iteri
            (fun k a -> Array.blit data.(a) (edge * m) buf (k * m) m)
            ids;
          buf
        in
        pack t (count * m * 2);
        Mp.send_floats t ~dst:left_n ~tag:7 (sendbuf jlo);
        Mp.send_floats t ~dst:right_n ~tag:8 (sendbuf jhi);
        let from_right = Mp.recv_floats t ~src:right_n ~tag:7 in
        let from_left = Mp.recv_floats t ~src:left_n ~tag:8 in
        pack t (count * m * 2);
        List.iteri
          (fun k a ->
            Array.blit from_left (k * m) data.(a) (left_col * m) m;
            Array.blit from_right (k * m) data.(a) (right_col * m) m)
          ids
      in
      init g m n jlo jhi;
      init g m n left_col left_col;
      init g m n right_col right_col;
      Mp.charge t (point_cost *. float_of_int (m * width));
      let tdt = ref dt in
      for step = 1 to steps do
        phase1 g m n jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        exchange [ icu; icv; iz; ih ];
        phase2 g m n ~tdt:!tdt jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        phase3 g m ~first:(step = 1) jlo jhi;
        Mp.charge t (point_cost *. float_of_int (m * width));
        exchange [ iu; iv; ip ];
        if step = 1 then tdt := !tdt +. !tdt
      done;
      results.(p) <- Array.concat (Array.to_list data));
  let dref = reference prm in
  let err = ref 0.0 in
  Array.iteri
    (fun q res ->
      let jlo, jhi = bounds n np q in
      List.iter
        (fun a ->
          for j = jlo to jhi do
            for i = 0 to m - 1 do
              err :=
                combine_err !err
                  (res.((a * m * n) + (j * m) + i) -. dref.(a).((j * m) + i))
            done
          done)
        [ iu; iv; ip ])
    results;
  make_result ~time_us:(Mp.elapsed sys) ~stats:(Mp.total_stats sys)
    ~max_err:!err ()

let run_pvm cfg prm = run_mp ~pack:(fun _ _ -> ()) cfg prm

let run_xhpf =
  Some (fun cfg prm -> run_mp ~pack:(fun t e -> Hpf.charge_pack t e) cfg prm)

(* {1 Workload.S instance: sizes are the params records, no behavior
      knobs} *)

type size = params
type behavior = unit

let sizes = [ ("large", large); ("small", small) ]
let default_behavior = ()
let knob_doc = []
let with_knob = Workload.no_knobs ~workload:name

let tmk ?trace ?digest ?plan cfg ~size ~behavior:() ~level ~async =
  run_tmk ?trace ?digest ?plan cfg size ~level ~async

let pvm cfg ~size ~behavior:() = run_pvm cfg size
let xhpf = Option.map (fun f cfg ~size ~behavior:() -> f cfg size) run_xhpf
