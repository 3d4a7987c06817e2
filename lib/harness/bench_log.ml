module Jflat = Dsm_util.Jflat

type entry = {
  e_name : string;
  e_wall_ms : float;
  e_alloc_mwords : float;
  e_top_heap_words : int;
  e_digest : string;
}

type t = {
  pr : int;
  label : string;
  quick : bool;
  mutable entries : entry list;  (* reverse order of measurement *)
  mutable prof_invariant : bool option;
  mutable profile : string option;  (* Dsm_prof.Prof.to_json of a profiled run *)
}

let create ~pr ~label ~quick =
  { pr; label; quick; entries = []; prof_invariant = None; profile = None }

let measure t ~name f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  f ppf;
  Format.pp_print_flush ppf ();
  let t1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let out = Buffer.contents buf in
  let alloc =
    g1.Gc.minor_words -. g0.Gc.minor_words
    +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  t.entries <-
    {
      e_name = name;
      e_wall_ms = (t1 -. t0) *. 1000.0;
      e_alloc_mwords = alloc /. 1e6;
      e_top_heap_words = g1.Gc.top_heap_words;
      e_digest = Digest.to_hex (Digest.string out);
    }
    :: t.entries;
  out

let set_prof_invariant t ok = t.prof_invariant <- Some ok
let set_profile t json = t.profile <- Some json
let entries t = List.rev t.entries

(* Best-of-N: keep each experiment's fastest measurement. Wall-clock on a
   busy host is min-stable (noise only ever adds time); digests must not
   disagree between repeats — that would mean nondeterministic simulated
   output, which the comparison gate reports via the surviving entry.
   Allocation takes its own minimum: the first round also fills the
   process's memo tables, later rounds repeat exactly, so the minimum does
   not depend on which round happened to be faster. *)
let min_merge a b =
  let pick (ea : entry) =
    match List.find_opt (fun e -> e.e_name = ea.e_name) b.entries with
    | Some eb ->
        let e = if eb.e_wall_ms < ea.e_wall_ms then eb else ea in
        { e with e_alloc_mwords = Float.min ea.e_alloc_mwords eb.e_alloc_mwords }
    | None -> ea
  in
  {
    a with
    entries = List.map pick a.entries;
    profile = (match a.profile with Some _ as p -> p | None -> b.profile);
    prof_invariant =
      (match (a.prof_invariant, b.prof_invariant) with
      | Some x, Some y -> Some (x && y)
      | x, None | None, x -> x);
  }

let total_wall_ms t =
  List.fold_left (fun a e -> a +. e.e_wall_ms) 0.0 t.entries

(* One experiment object per line, so {!load} can hand each line to the
   flat-object parser. *)
let entry_to_json e =
  Printf.sprintf
    {|    { "name": %S, "wall_ms": %.3f, "alloc_mwords": %.3f, "top_heap_words": %d, "digest": %S }|}
    e.e_name e.e_wall_ms e.e_alloc_mwords e.e_top_heap_words e.e_digest

let to_json t =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"schema\": 1,\n");
  Buffer.add_string b (Printf.sprintf "  \"pr\": %d,\n" t.pr);
  Buffer.add_string b (Printf.sprintf "  \"label\": %S,\n" t.label);
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" t.quick);
  (match t.prof_invariant with
  | Some ok -> Buffer.add_string b (Printf.sprintf "  \"prof_invariant\": %b,\n" ok)
  | None -> ());
  (match t.profile with
  | Some json -> Buffer.add_string b (Printf.sprintf "  \"profile\": %s,\n" json)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "  \"total_wall_ms\": %.3f,\n" (total_wall_ms t));
  Buffer.add_string b "  \"experiments\": [\n";
  let es = entries t in
  List.iteri
    (fun i e ->
      Buffer.add_string b (entry_to_json e);
      if i < List.length es - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    es;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let write t ~path =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

(* An entry line is an indented [{ "name": ...}] object, followed by a
   comma except for the last. Every other line of the file is skipped. *)
let load ~path =
  let entry i line =
    let s = String.trim line in
    if not (String.starts_with ~prefix:"{ \"name\":" s) then None
    else
      let s =
        if String.ends_with ~suffix:"," s then
          String.sub s 0 (String.length s - 1)
        else s
      in
      try
        let f = Jflat.parse_exn s in
        Some
          {
            e_name = Jflat.str f "name";
            e_wall_ms = Jflat.num f "wall_ms";
            e_alloc_mwords = Jflat.num f "alloc_mwords";
            e_top_heap_words = Jflat.int f "top_heap_words";
            e_digest = Jflat.str f "digest";
          }
      with Jflat.Parse_error msg ->
        failwith (Printf.sprintf "%s:%d: %s" path (i + 1) msg)
  in
  let text = In_channel.with_open_text path In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  match List.filter_map Fun.id (List.mapi entry lines) with
  | [] -> failwith (path ^ ": no benchmark entries found")
  | entries -> entries

(* Allocation is a property of the program, not of the host, so unlike wall
   time it gates per experiment. The absolute slack covers the 0.001 Mw
   rounding of the file format on the smallest experiments. *)
let alloc_tolerance = 0.02
let alloc_slack_mwords = 0.01

let compare_against ppf ~baseline ~current ~tolerance =
  let ok = ref true in
  let matched = ref 0 in
  let base_total = ref 0.0 and cur_total = ref 0.0 in
  Format.fprintf ppf
    "regression gate (total wall %+.0f%%, per-experiment alloc %+.0f%%):@."
    (tolerance *. 100.0) (alloc_tolerance *. 100.0);
  Format.fprintf ppf "  %-12s %10s %10s %8s %10s %10s  %s@." "experiment"
    "base(ms)" "now(ms)" "ratio" "base(Mw)" "now(Mw)" "digest";
  List.iter
    (fun (c : entry) ->
      match List.find_opt (fun b -> b.e_name = c.e_name) baseline with
      | None -> ()
      | Some b ->
          incr matched;
          base_total := !base_total +. b.e_wall_ms;
          cur_total := !cur_total +. c.e_wall_ms;
          let ratio = if b.e_wall_ms > 0.0 then c.e_wall_ms /. b.e_wall_ms else 1.0 in
          let same = b.e_digest = c.e_digest in
          let slow = c.e_wall_ms > b.e_wall_ms *. (1.0 +. tolerance) in
          let fat =
            c.e_alloc_mwords
            > (b.e_alloc_mwords *. (1.0 +. alloc_tolerance)) +. alloc_slack_mwords
          in
          if (not same) || fat then ok := false;
          (* per-experiment slowdowns are reported but do not gate: short
             experiments are dominated by host noise — the digest, the
             allocation and the suite total decide pass/fail *)
          Format.fprintf ppf "  %-12s %10.1f %10.1f %7.2fx %10.3f %10.3f  %s%s%s@."
            c.e_name b.e_wall_ms c.e_wall_ms ratio b.e_alloc_mwords
            c.e_alloc_mwords
            (if same then "same" else "DIFFERENT OUTPUT")
            (if fat then "  ALLOC REGRESSION" else "")
            (if slow then "  slow (not gating)" else ""))
    (entries current);
  if !matched = 0 then begin
    Format.fprintf ppf "  no common experiments with the baseline@.";
    ok := false
  end
  else begin
    let ratio =
      if !base_total > 0.0 then !cur_total /. !base_total else 1.0
    in
    if !cur_total > !base_total *. (1.0 +. tolerance) then ok := false;
    Format.fprintf ppf "  %-12s %10.1f %10.1f %7.2fx@." "total" !base_total
      !cur_total ratio
  end;
  Format.fprintf ppf "  => %s@." (if !ok then "PASS" else "FAIL");
  !ok
