(** Per-processor page table for the simulated shared segment.

    This is the software stand-in for the hardware MMU: every shared load
    and store consults the page's protection bits, and the DSM protocol
    manipulates them exactly as TreadMarks manipulates [mprotect] state.

    Page data is allocated lazily: a page holds no memory until a
    processor first reaches it through {!get} or {!find}, and invalidating
    a page nobody touched ({!invalidate}) only records its protection, as
    an [mprotect] of an unmapped frame would. *)

type prot =
  | No_access  (** invalid: any access faults *)
  | Read_only  (** valid: writes fault (write detection) *)
  | Read_write  (** valid and dirty-capable *)

type page = {
  data : Bytes.t;
  mutable prot : prot;
  mutable twin : Bytes.t option;  (** copy made at the first write *)
}

type t

val create : page_size:int -> t
val page_size : t -> int

val get : t -> int -> page
(** Page record for page number [n]. On first use it is created
    zero-filled (all replicas start consistent: the segment is zero
    initialized), [Read_only], or [No_access] if the page was
    {!invalidate}d before it was touched. *)

val find : t -> int -> page option
(** [None] for a page that was never touched; otherwise [Some] of what
    {!get} returns. An invalidated untouched page counts as touched: it is
    materialized, zero-filled and [No_access]. *)

val prot : t -> int -> prot
(** Protection of page [n] as {!get} would report it, without
    materializing the page. *)

val invalidate : t -> int -> bool
(** Set page [n] to [No_access] without materializing it; [true] iff its
    protection changed. *)

val resident : t -> int
(** Number of pages holding data (materialized by {!get} or {!find}). *)

val page_of_addr : t -> int -> int
val offset_in_page : t -> int -> int

val make_twin : page -> unit
val drop_twin : page -> unit
