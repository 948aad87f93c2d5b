type prot =
  | No_access
  | Read_only
  | Read_write

type fault_kind =
  | Unmapped_access
  | Protection_violation

exception Fault of fault_kind * int

let page_size = 4096
let word_size = 8
let granule = 16

type page = {
  base : int;
  mutable data : Bytes.t; (* [no_backing] while decommitted *)
  mutable prot : prot;
  mutable soft_dirty : bool;
  mutable write_gen : int; (* scan generation of the last content change *)
  mutable summary : int array; (* heap-range words, or [stale] *)
}

type frame = page

(* The frame of every decommitted page: empty, compared physically, so
   "decommitted" is a property of the frame rather than an option. *)
let no_backing = Bytes.create 0

(* The summary of a page whose heap-range words must be recomputed:
   compared physically, never handed out. *)
let stale = Array.make 1 0

let no_words : int array = [||]

(* The page directory's empty slot. Never stored and never mutated:
   every mutator goes through [find_page], which faults on it. *)
let unmapped =
  {
    base = -1;
    data = no_backing;
    prot = No_access;
    soft_dirty = false;
    write_gen = 0;
    summary = stale;
  }

let backed p = p.data != no_backing

let readable p =
  backed p
  && match p.prot with No_access -> false | Read_only | Read_write -> true

type t = {
  pages : page Pagedir.t; (* keyed by page index *)
  mutable committed : int; (* resident bytes *)
  mutable demand_commit_hook : pages:int -> unit;
  mutable generation : int; (* current scan generation (see mli) *)
  mutable write_observer : (addr:int -> value:int -> gen:int -> unit) option;
  mutable commit_observer : (addr:int -> len:int -> unit) option;
  mutable decommit_observer : (addr:int -> len:int -> unit) option;
}

let create () =
  {
    pages = Pagedir.create ~absent:unmapped;
    committed = 0;
    demand_commit_hook = (fun ~pages:_ -> ());
    generation = 0;
    write_observer = None;
    commit_observer = None;
    decommit_observer = None;
  }

let generation t = t.generation

let advance_generation t =
  t.generation <- t.generation + 1;
  t.generation

let set_demand_commit_hook t f = t.demand_commit_hook <- f
let set_write_observer t f = t.write_observer <- Some f
let clear_write_observer t = t.write_observer <- None
let set_commit_observer t f = t.commit_observer <- Some f
let clear_commit_observer t = t.commit_observer <- None
let set_decommit_observer t f = t.decommit_observer <- Some f
let clear_decommit_observer t = t.decommit_observer <- None

let notify_commit t ~addr ~len =
  match t.commit_observer with
  | None -> ()
  | Some f -> f ~addr ~len

let page_index addr = addr / page_size
let page_base addr = addr - (addr mod page_size)

let check_page_range addr len =
  assert (len > 0);
  assert (addr mod page_size = 0);
  assert (len mod page_size = 0)

let iter_page_indices ~addr ~len f =
  let first = page_index addr in
  let last = page_index (addr + len - 1) in
  for i = first to last do
    f i
  done

let map t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      assert (not (Pagedir.mem t.pages i));
      Pagedir.set t.pages i
        {
          base = i * page_size;
          data = Bytes.make page_size '\000';
          prot = Read_write;
          soft_dirty = false;
          write_gen = t.generation;
          summary = no_words;
        };
      t.committed <- t.committed + page_size);
  notify_commit t ~addr ~len

let unmap t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      let p = Pagedir.find t.pages i in
      if p != unmapped then begin
        if backed p then t.committed <- t.committed - page_size;
        Pagedir.remove t.pages i
      end)

let find_page t addr =
  match Pagedir.find t.pages (page_index addr) with
  | p when p == unmapped -> raise (Fault (Unmapped_access, addr))
  | p -> p

let decommit t ~addr ~len =
  check_page_range addr len;
  (match t.decommit_observer with
  | None -> ()
  | Some f -> f ~addr ~len);
  iter_page_indices ~addr ~len (fun i ->
      let p = find_page t (i * page_size) in
      if backed p then begin
        p.data <- no_backing;
        p.write_gen <- t.generation;
        p.summary <- stale;
        t.committed <- t.committed - page_size
      end)

let commit_page t i p =
  if not (backed p) then begin
    p.data <- Bytes.make page_size '\000';
    p.write_gen <- t.generation;
    p.summary <- no_words;
    t.committed <- t.committed + page_size;
    notify_commit t ~addr:(i * page_size) ~len:page_size
  end

let commit t ~addr ~len =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      commit_page t i (find_page t (i * page_size)))

let protect t ~addr ~len prot =
  check_page_range addr len;
  iter_page_indices ~addr ~len (fun i ->
      let p = find_page t (i * page_size) in
      (* A visibility change stamps the page, so the simulated sweeper
         pays to re-read it; the summary stays, the bytes are untouched. *)
      if p.prot <> prot then p.write_gen <- t.generation;
      p.prot <- prot)

let is_mapped t addr = Pagedir.mem t.pages (page_index addr)

let is_committed t addr = backed (Pagedir.find t.pages (page_index addr))

let protection t addr = (find_page t addr).prot

(* Demand-commit on access: a decommitted-but-accessible page behaves like
   madvise(DONTNEED)'d memory — the OS hands back a zeroed page. *)
let accessible_page t addr ~write =
  let p = find_page t addr in
  (match p.prot with
  | No_access -> raise (Fault (Protection_violation, addr))
  | Read_only when write -> raise (Fault (Protection_violation, addr))
  | Read_only | Read_write -> ());
  if not (backed p) then begin
    commit_page t (page_index addr) p;
    t.demand_commit_hook ~pages:1
  end;
  p

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] frame_word bytes off =
  let w = get64u bytes off in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

let words_per_page = page_size / word_size

(* One scratch buffer per domain: [frame_words] runs on worker domains
   during the Mark stage, and a single pass into a page-sized buffer
   sizes the result exactly with one allocation. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make words_per_page 0)

(* The length check up front is what makes the unchecked loads safe.
   Unrolled by four words (page_size is a multiple of 32): the loop
   overhead is a visible share of a scan that mostly reads zeros. *)
let frame_words bytes ~lo ~hi =
  if Bytes.length bytes < page_size then invalid_arg "Vmem.frame_words";
  let buf = Domain.DLS.get scratch in
  let n = ref 0 in
  let off = ref 0 in
  while !off < page_size do
    let o = !off in
    let w0 = frame_word bytes o
    and w1 = frame_word bytes (o + 8)
    and w2 = frame_word bytes (o + 16)
    and w3 = frame_word bytes (o + 24) in
    if w0 >= lo && w0 < hi then begin Array.unsafe_set buf !n w0; incr n end;
    if w1 >= lo && w1 < hi then begin Array.unsafe_set buf !n w1; incr n end;
    if w2 >= lo && w2 < hi then begin Array.unsafe_set buf !n w2; incr n end;
    if w3 >= lo && w3 < hi then begin Array.unsafe_set buf !n w3; incr n end;
    off := o + 32
  done;
  if !n = 0 then no_words else Array.sub buf 0 !n

let[@inline] heap_word w = w >= Layout.heap_base && w < Layout.heap_limit

(* Rounds a page offset down to its word. *)
let word_mask = lnot (word_size - 1)

(* ---- Pointer summaries --------------------------------------------- *)

let frame_base p = p.base
let frame_bytes p = p.data
let frame_write_gen p = p.write_gen
let summary p = if p.summary == stale then None else Some p.summary

let scan_summary p =
  let words =
    frame_words p.data ~lo:Layout.heap_base ~hi:Layout.heap_limit
  in
  let n = Array.length words in
  if n <= 1 then words
  else begin
    Array.sort (fun (a : int) b -> compare a b) words;
    (* Dedup the sorted run in place. *)
    let kept = ref 1 in
    for i = 1 to n - 1 do
      if words.(i) <> words.(!kept - 1) then begin
        words.(!kept) <- words.(i);
        incr kept
      end
    done;
    if !kept = n then words else Array.sub words 0 !kept
  end

let set_summary p words = p.summary <- words

let load t addr =
  assert (addr mod word_size = 0);
  let p = accessible_page t addr ~write:false in
  Int64.to_int (Bytes.get_int64_le p.data (addr mod page_size))

let store t addr w =
  assert (addr mod word_size = 0);
  let p = accessible_page t addr ~write:true in
  let off = addr mod page_size in
  if
    p.summary != stale
    && (heap_word w || heap_word (frame_word p.data off))
  then p.summary <- stale;
  Bytes.set_int64_le p.data off (Int64.of_int w);
  p.soft_dirty <- true;
  p.write_gen <- t.generation;
  match t.write_observer with
  | None -> ()
  | Some f -> f ~addr ~value:w ~gen:p.write_gen

let zero_range t ~addr ~len =
  if len > 0 then begin
    let finish = addr + len in
    let pos = ref addr in
    while !pos < finish do
      let p = accessible_page t !pos ~write:true in
      let off = !pos mod page_size in
      let n = min (page_size - off) (finish - !pos) in
      Bytes.fill p.data off n '\000';
      (* Zeroing removes heap-range words, so it only invalidates a page
         that had some — except at a ragged edge, where a partly zeroed
         word can become one. (With today's power-of-two heap bounds only
         the first word can: the last loses low bytes only. Checking
         both keeps the rule independent of [Layout].) Two word checks,
         however long the range. *)
      if
        p.summary != stale
        && (Array.length p.summary > 0
           || heap_word (frame_word p.data (off land word_mask))
           || heap_word (frame_word p.data ((off + n - 1) land word_mask)))
      then p.summary <- stale;
      p.soft_dirty <- true;
      p.write_gen <- t.generation;
      pos := !pos + n
    done
  end

let committed_bytes t = t.committed

let mapped_bytes t = Pagedir.length t.pages * page_size

let iter_committed_words t ~addr ~len f =
  if len > 0 then begin
    let finish = addr + len in
    (* Walk page by page; words are always page-aligned chunks so a word
       never straddles two pages. *)
    let pos = ref (max addr (page_base addr)) in
    while !pos < finish do
      let next_page = page_base !pos + page_size in
      let chunk_end = min next_page finish in
      let p = Pagedir.find t.pages (page_index !pos) in
      if readable p then begin
        let off0 = !pos mod page_size in
        let words = (chunk_end - !pos) / word_size in
        for k = 0 to words - 1 do
          let off = off0 + (k * word_size) in
          f (page_base !pos + off) (frame_word p.data off)
        done
      end;
      pos := chunk_end
    done
  end

let iter_readable_pages t f =
  Pagedir.iter t.pages (fun i p -> if readable p then f (i * page_size) p.data)

(* Zero-copy snapshot for the markers: the live page records themselves,
   in the directory's ascending page order — the one canonical order
   every consumer sees. Callers must treat the frames as read-only and
   must not interleave stores, protection changes or unmaps with reads
   of the snapshot (the marking phase holds that property: nothing
   mutates the address space while it scans). *)
let snapshot_readable_pages t =
  let n =
    Pagedir.fold t.pages (fun _ p n -> if readable p then n + 1 else n) 0
  in
  let pages = Array.make n unmapped in
  let k = ref 0 in
  Pagedir.iter t.pages (fun _ p ->
      if readable p then begin
        pages.(!k) <- p;
        incr k
      end);
  pages

let write_generation t addr = (find_page t addr).write_gen

let readable_bytes t =
  Pagedir.fold t.pages
    (fun _ p acc -> if readable p then acc + page_size else acc)
    0

let clear_soft_dirty t = Pagedir.iter t.pages (fun _ p -> p.soft_dirty <- false)

let soft_dirty_pages t =
  Pagedir.fold t.pages (fun _ p acc -> if p.soft_dirty then acc + 1 else acc) 0

(* Pages that were dirtied and then decommitted or protected [No_access]
   carry nothing a re-scan could read: visiting them would inflate the
   simulated pause with bytes no sweep ever touches. *)
let iter_soft_dirty_pages t f =
  Pagedir.iter t.pages (fun i p ->
      if p.soft_dirty && readable p then f (i * page_size))

(* Publish the address-space accounting as read-through metrics: the
   registry consults these at export time, so the hot paths above carry
   no extra bookkeeping. *)
let attach_obs ?(prefix = "") t reg =
  let n name = prefix ^ name in
  Obs.Registry.derive_gauge reg (n "vmem.committed_bytes") (fun () ->
      committed_bytes t);
  Obs.Registry.derive_gauge reg (n "vmem.mapped_bytes") (fun () ->
      mapped_bytes t);
  Obs.Registry.derive_gauge reg (n "vmem.readable_bytes") (fun () ->
      readable_bytes t);
  Obs.Registry.derive_counter reg (n "vmem.scan_generation") (fun () ->
      generation t)
