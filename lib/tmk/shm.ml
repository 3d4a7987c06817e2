(* Typed access to the simulated shared segment.

   This is the load/store interface of the DSM: each access consults the
   page protection bits and enters the protocol's fault handlers exactly
   where a hardware MMU would deliver SIGSEGV. Elements are 4- or 8-byte
   aligned, and the page size is a multiple of 8, so no element straddles a
   page boundary. *)

open Types
module Page_table = Dsm_mem.Page_table
module Section = Dsm_rsd.Section

(* The common page sizes are powers of two; {!Types.system} caches the
   shift and mask so each access costs two bit ops instead of an integer
   division and a modulo (the dominant host cost of a run is exactly this
   per-element path). *)
let[@inline] page_of t addr =
  let s = t.sys.page_shift in
  if s >= 0 then addr lsr s else addr / t.sys.page_size

let[@inline] offset_of t addr =
  let s = t.sys.page_shift in
  if s >= 0 then addr land t.sys.page_mask else addr mod t.sys.page_size

let[@inline] page_for_read t addr =
  let page = page_of t addr in
  let pg = Page_table.get t.st.pt page in
  match pg.Page_table.prot with
  | Page_table.No_access ->
      (* cold path: enter the selected backend's fault handler *)
      t.sys.bops.b_read_fault t.sys t.p page;
      Page_table.get t.st.pt page
  | Page_table.Read_only | Page_table.Read_write -> pg

let[@inline] page_for_write t addr =
  let page = page_of t addr in
  let pg = Page_table.get t.st.pt page in
  match pg.Page_table.prot with
  | Page_table.Read_write -> pg
  | Page_table.No_access | Page_table.Read_only ->
      t.sys.bops.b_write_fault t.sys t.p page;
      Page_table.get t.st.pt page

(* Unchecked native-order 64-bit access. Eight-byte elements are 8-aligned
   ({!Dsm_mem.Addr_space} aligns every base to 8) and the page size is a
   multiple of 8, so the in-page offset is always within [0, page_size-8]:
   the bound check on every load/store would never fire. Native order
   equals the little-endian wire format everywhere this simulator runs; on
   a big-endian host we fall back to the checked LE accessors so results
   stay identical ([Sys.big_endian] is a compile-time constant). *)
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] get_64_le b off =
  if Sys.big_endian then Bytes.get_int64_le b off else unsafe_get_64 b off

let[@inline] set_64_le b off v =
  if Sys.big_endian then Bytes.set_int64_le b off v else unsafe_set_64 b off v

let get_f64 t addr =
  let pg = page_for_read t addr in
  Int64.float_of_bits (get_64_le pg.Page_table.data (offset_of t addr))

let set_f64 t addr v =
  let pg = page_for_write t addr in
  set_64_le pg.Page_table.data (offset_of t addr) (Int64.bits_of_float v)

let get_i64 t addr =
  let pg = page_for_read t addr in
  get_64_le pg.Page_table.data (offset_of t addr) |> Int64.to_int

let set_i64 t addr v =
  let pg = page_for_write t addr in
  set_64_le pg.Page_table.data (offset_of t addr) (Int64.of_int v)

let get_i32 t addr =
  let pg = page_for_read t addr in
  Bytes.get_int32_le pg.Page_table.data (offset_of t addr) |> Int32.to_int

let set_i32 t addr v =
  let pg = page_for_write t addr in
  Bytes.set_int32_le pg.Page_table.data (offset_of t addr) (Int32.of_int v)

(* {1 Page runs}

   Contiguous runs of 8-byte floats, resolved one page at a time: each
   page piece costs one protection check (and at most one fault), then an
   unboxed copy loop. The faults a run takes, and their order, are those
   of the equivalent per-element loop in increasing address order: the
   first access to a page is the only one that can fault, and nothing
   between two page pieces can change a page's protection (faults never
   yield the fiber; only synchronization does). *)

let f64s_in_page t addr = (t.sys.page_size - offset_of t addr) lsr 3

let check_run name len (a : float array) off =
  if len < 0 || (len > 0 && (off < 0 || off + len > Array.length a)) then
    invalid_arg name

(* [write] selects the fault taken per page: the write fault (as {!set_f64}
   and [rmw] take it) or the read fault (as {!get_f64}). The page-piece
   walk is spelled out here and in [write_f64s] rather than shared through
   a closure, which would allocate on every call. *)
let[@inline] load_run ~write t addr len (dst : float array) off =
  let addr = ref addr and o = ref off and rem = ref len in
  while !rem > 0 do
    let a = !addr in
    let pg = if write then page_for_write t a else page_for_read t a in
    let data = pg.Page_table.data and boff = offset_of t a in
    let n = min !rem ((t.sys.page_size - boff) lsr 3) and o0 = !o in
    for k = 0 to n - 1 do
      Array.unsafe_set dst (o0 + k)
        (Int64.float_of_bits (get_64_le data (boff + (8 * k))))
    done;
    addr := a + (8 * n);
    o := o0 + n;
    rem := !rem - n
  done

let read_f64s t addr len dst off =
  check_run "Shm.read_f64s" len dst off;
  load_run ~write:false t addr len dst off

let read_f64s_for_write t addr len dst off =
  check_run "Shm.read_f64s_for_write" len dst off;
  load_run ~write:true t addr len dst off

let write_f64s t addr len (src : float array) off =
  check_run "Shm.write_f64s" len src off;
  let addr = ref addr and o = ref off and rem = ref len in
  while !rem > 0 do
    let a = !addr in
    let pg = page_for_write t a in
    let data = pg.Page_table.data and boff = offset_of t a in
    let n = min !rem ((t.sys.page_size - boff) lsr 3) and o0 = !o in
    for k = 0 to n - 1 do
      set_64_le data (boff + (8 * k))
        (Int64.bits_of_float (Array.unsafe_get src (o0 + k)))
    done;
    addr := a + (8 * n);
    o := o0 + n;
    rem := !rem - n
  done

(* Lockstep runs: step [s] of [len] touches element [s] of every run, in
   the caller's run order. Steps are cut into segments within which no run
   crosses a page boundary; each segment costs one protection check per
   run, and the first touches land in the per-element loop's order. *)
let read_lockstep t (addrs : int array) len (dsts : float array array)
    (offs : int array) =
  let nr = Array.length addrs in
  if Array.length dsts <> nr || Array.length offs <> nr then
    invalid_arg "Shm.read_lockstep";
  for r = 0 to nr - 1 do
    check_run "Shm.read_lockstep" len dsts.(r) offs.(r)
  done;
  let s = ref 0 in
  while !s < len do
    let s0 = !s in
    let seg = ref (len - s0) in
    for r = 0 to nr - 1 do
      seg := min !seg (f64s_in_page t (addrs.(r) + (8 * s0)))
    done;
    let n = !seg in
    for r = 0 to nr - 1 do
      load_run ~write:false t (addrs.(r) + (8 * s0)) n dsts.(r) (offs.(r) + s0)
    done;
    s := s0 + n
  done

(* {1 Array views}

   Thin wrappers computing byte addresses from indices (column-major, as in
   the Fortran originals: the first index is contiguous). *)

module F64_1 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i = a.Section.base + (8 * i)
  let get tmk a i = get_f64 tmk (addr a i)
  let set tmk a i v = set_f64 tmk (addr a i) v
  let length (a : t) = a.Section.extents.(0)

  let section (a : t) (lo, hi, st) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo, hi, st) ])
end

module F64_2 = struct
  type t = Section.array_info

  (* a 2-D view always carries two extents, so the bound check is dead *)
  let[@inline] addr (a : t) i j =
    a.Section.base + (8 * (i + (Array.unsafe_get a.Section.extents 0 * j)))

  let get tmk a i j = get_f64 tmk (addr a i j)
  let set tmk a i j v = set_f64 tmk (addr a i j) v

  (* read-modify-write with a single page lookup *)
  let rmw tmk a i j f =
    let ad = addr a i j in
    let pg = page_for_write tmk ad in
    let off = offset_of tmk ad in
    let x = Int64.float_of_bits (get_64_le pg.Page_table.data off) in
    set_64_le pg.Page_table.data off (Int64.bits_of_float (f x))

  (* column runs: row [i] of the run is element [i] of the buffer; a run
     with [hi < lo] is empty *)
  let read_col tmk a j ~lo ~hi dst =
    read_f64s tmk (addr a lo j) (max 0 (hi - lo + 1)) dst lo

  let read_col_for_write tmk a j ~lo ~hi dst =
    read_f64s_for_write tmk (addr a lo j) (max 0 (hi - lo + 1)) dst lo

  let write_col tmk a j ~lo ~hi src =
    write_f64s tmk (addr a lo j) (max 0 (hi - lo + 1)) src lo

  let read_cols tmk a ~cols ~los ~len dsts =
    if Array.length los <> Array.length cols then invalid_arg "Shm.F64_2.read_cols";
    read_lockstep tmk (Array.mapi (fun k j -> addr a los.(k) j) cols) len dsts los

  let dim0 (a : t) = a.Section.extents.(0)
  let dim1 (a : t) = a.Section.extents.(1)

  let section (a : t) (lo0, hi0, st0) (lo1, hi1, st1) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo0, hi0, st0); (lo1, hi1, st1) ])
end

module F64_3 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i j k =
    let e = a.Section.extents in
    a.Section.base
    + 8 * (i + (Array.unsafe_get e 0 * (j + (Array.unsafe_get e 1 * k))))

  let get tmk a i j k = get_f64 tmk (addr a i j k)
  let set tmk a i j k v = set_f64 tmk (addr a i j k) v

  let section (a : t) d0 d1 d2 =
    let tr (lo, hi, st) = (lo, hi, st) in
    Section.make a (Dsm_rsd.Rsd.make [ tr d0; tr d1; tr d2 ])
end

module I64_1 = struct
  type t = Section.array_info

  let[@inline] addr (a : t) i = a.Section.base + (8 * i)
  let get tmk a i = get_i64 tmk (addr a i)
  let set tmk a i v = set_i64 tmk (addr a i) v
  let length (a : t) = a.Section.extents.(0)

  let section (a : t) (lo, hi, st) =
    Section.make a (Dsm_rsd.Rsd.make [ (lo, hi, st) ])
end
