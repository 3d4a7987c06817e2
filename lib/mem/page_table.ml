type prot = No_access | Read_only | Read_write

type page = {
  data : Bytes.t;
  mutable prot : prot;
  mutable twin : Bytes.t option;
}

(* A slot holds no page data until a processor touches the page: an
   untouched page reads as a zeroed [Read_only] copy, and an untouched
   page the protocol invalidated as a zeroed [No_access] one, exactly as
   [get] would then materialize it. Invalidation, like an [mprotect] of
   an unmapped frame, thus costs no memory. *)
type slot = Untouched | Invalid | Mapped of page

type t = { page_size : int; mutable slots : slot array }

let create ~page_size = { page_size; slots = Array.make 64 Untouched }

let page_size t = t.page_size

let ensure_capacity t n =
  let len = Array.length t.slots in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    let slots = Array.make len' Untouched in
    Array.blit t.slots 0 slots 0 len;
    t.slots <- slots
  end

let materialize t n prot =
  let p = { data = Bytes.make t.page_size '\000'; prot; twin = None } in
  t.slots.(n) <- Mapped p;
  p

let get_slow t n =
  ensure_capacity t n;
  match t.slots.(n) with
  | Mapped p -> p
  | Untouched -> materialize t n Read_only
  | Invalid -> materialize t n No_access

(* Every simulated load/store goes through here; the fast path is one
   bounds check and one array read. *)
let[@inline] get t n =
  let slots = t.slots in
  if n >= 0 && n < Array.length slots then
    match Array.unsafe_get slots n with Mapped p -> p | _ -> get_slow t n
  else get_slow t n

let find t n =
  if n < Array.length t.slots then
    match t.slots.(n) with
    | Mapped p -> Some p
    | Invalid -> Some (materialize t n No_access)
    | Untouched -> None
  else None

let prot t n =
  if n < Array.length t.slots then
    match t.slots.(n) with
    | Mapped p -> p.prot
    | Invalid -> No_access
    | Untouched -> Read_only
  else Read_only

let invalidate t n =
  ensure_capacity t n;
  match t.slots.(n) with
  | Mapped p ->
      let changed = p.prot <> No_access in
      p.prot <- No_access;
      changed
  | Untouched ->
      t.slots.(n) <- Invalid;
      true
  | Invalid -> false

let resident t =
  Array.fold_left
    (fun n -> function Mapped _ -> n + 1 | Untouched | Invalid -> n)
    0 t.slots

let page_of_addr t addr = addr / t.page_size
let offset_in_page t addr = addr mod t.page_size

let make_twin p =
  match p.twin with
  | Some _ -> ()
  | None -> p.twin <- Some (Bytes.copy p.data)

let drop_twin p = p.twin <- None
