(** Typed access to the simulated shared segment: the DSM's load/store
    interface.

    Every access consults the page's protection bits and enters the
    selected coherence backend's fault handlers (via {!Types.backend_ops})
    exactly where a hardware MMU would deliver SIGSEGV: a read of an
    invalid page triggers the backend's read fault (diff or home-page
    fetch), the first write to a write-protected page its write fault
    (twin creation, write detection). Elements are 4- or 8-byte aligned
    and never straddle a page boundary. *)

val page_for_read : Types.t -> int -> Dsm_mem.Page_table.page
val page_for_write : Types.t -> int -> Dsm_mem.Page_table.page

val get_f64 : Types.t -> int -> float
val set_f64 : Types.t -> int -> float -> unit
val get_i64 : Types.t -> int -> int
val set_i64 : Types.t -> int -> int -> unit

val get_i32 : Types.t -> int -> int
val set_i32 : Types.t -> int -> int -> unit

(** {1 Page runs}

    Bulk access to contiguous runs of 8-byte floats. A run is resolved one
    page at a time: one protection check per page piece (entering the
    backend's fault handler when it fails), then an unboxed copy between
    the page and a [float array]. The contract, which the tests check
    against the per-element loops on every backend:

    - {b Same faults, same order.} A run takes exactly the faults of the
      per-element loop over the same elements in increasing address order
      ([get_f64] for reads, [set_f64] for writes), page by page, so
      statistics, virtual time and recorded trace events are identical.
      This holds because only the first access to a page can fault and
      faults never yield the fiber: nothing between two page pieces can
      revoke a permission the run already obtained.
    - {b Read-for-write} takes the write fault first on each page, exactly
      as {!F64_2.rmw} does (one fault, no read fault), so a later write of
      the same run within the same interval faults nothing.
    - {b Lockstep runs} ({!F64_2.read_cols}) interleave several runs:
      step [s] touches element [s] of each run in the caller's order, like
      a per-element loop whose body reads one element of every run. Pages
      are resolved one segment at a time (a segment ends wherever any run
      crosses a page boundary), so first touches — and hence faults —
      come in that loop's order.

    Keep the per-element path when the loop interleaves reads and writes
    (of one element or of different runs), touches pages in an order no
    lockstep read reproduces (wrap-around or strided indices), or
    synchronizes between elements: a run replays a loop's faults only
    when the loop's touches form such a sweep. Addresses must be
    8-aligned; buffers are bounds-checked, shared addresses are not (as
    with the scalar accessors). *)

val f64s_in_page : Types.t -> int -> int
(** [f64s_in_page t addr]: the 8-byte elements from [addr] to the end of
    its page — the length of the run's first page piece. *)

val read_f64s : Types.t -> int -> int -> float array -> int -> unit
(** [read_f64s t addr len dst off] loads the [len] floats starting at byte
    address [addr] into [dst.(off) .. dst.(off + len - 1)], taking read
    faults. *)

val write_f64s : Types.t -> int -> int -> float array -> int -> unit
(** [write_f64s t addr len src off] stores [src.(off) .. src.(off+len-1)]
    to the [len] floats starting at [addr], taking write faults. *)

(** 1-dimensional float array view. *)
module F64_1 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int
  val get : Types.t -> t -> int -> float
  val set : Types.t -> t -> int -> float -> unit
  val length : t -> int

  val section : t -> int * int * int -> Dsm_rsd.Section.t
  (** [(lo, hi, stride)], inclusive element indices. *)
end

(** 2-dimensional float array view; column-major (the first index is
    contiguous, as in the paper's Fortran programs). *)
module F64_2 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int -> int
  val get : Types.t -> t -> int -> int -> float
  val set : Types.t -> t -> int -> int -> float -> unit

  val rmw : Types.t -> t -> int -> int -> (float -> float) -> unit
  (** Read-modify-write with a single page lookup. *)

  (** Column runs (see {e Page runs}): rows [lo .. hi] of column [j], row
      [i] at index [i] of the buffer; [hi < lo] is an empty run. *)

  val read_col : Types.t -> t -> int -> lo:int -> hi:int -> float array -> unit

  val read_col_for_write :
    Types.t -> t -> int -> lo:int -> hi:int -> float array -> unit
  (** Like [read_col], taking each page's write fault instead of its read
      fault (see {e Page runs}). *)

  val write_col : Types.t -> t -> int -> lo:int -> hi:int -> float array -> unit

  val read_cols :
    Types.t -> t -> cols:int array -> los:int array -> len:int ->
    float array array -> unit
  (** [read_cols t a ~cols ~los ~len dsts]: lockstep read of [len] rows
      of each column [cols.(k)], starting at row [los.(k)], into
      [dsts.(k)] (row [i] at index [i]). Step [s] touches row [los.(k)+s]
      of every column in the order of [cols]: one run per stencil
      reference, listed in the order the per-element code evaluated them,
      replays that code's faults. For rows [1 .. m-2], the expression
      [b(i-1,j) +. b(i+1,j) +. b(i,j-1) +. b(i,j+1)] (OCaml evaluates it
      right to left) becomes [~cols:[|j+1; j-1; j; j|] ~los:[|1; 1; 2; 0|]
      ~len:(m-2)]. *)

  val dim0 : t -> int
  val dim1 : t -> int
  val section : t -> int * int * int -> int * int * int -> Dsm_rsd.Section.t
end

(** 3-dimensional float array view. *)
module F64_3 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int -> int -> int
  val get : Types.t -> t -> int -> int -> int -> float
  val set : Types.t -> t -> int -> int -> int -> float -> unit

  val section :
    t -> int * int * int -> int * int * int -> int * int * int ->
    Dsm_rsd.Section.t
end

(** 1-dimensional integer (boxed as 64-bit) array view. *)
module I64_1 : sig
  type t = Dsm_rsd.Section.array_info

  val addr : t -> int -> int
  val get : Types.t -> t -> int -> int
  val set : Types.t -> t -> int -> int -> unit
  val length : t -> int
  val section : t -> int * int * int -> Dsm_rsd.Section.t
end
