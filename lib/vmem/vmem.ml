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
  mutable data : Bytes.t; (* [no_backing] while decommitted *)
  mutable prot : prot;
  mutable soft_dirty : bool;
  mutable write_gen : int; (* scan generation of the last content change *)
}

(* The frame of every decommitted page: empty, compared physically, so
   "decommitted" is a property of the frame rather than an option. *)
let no_backing = Bytes.create 0

(* The page directory's empty slot. Never stored and never mutated:
   every mutator goes through [find_page], which faults on it. *)
let unmapped =
  { data = no_backing; prot = No_access; soft_dirty = false; write_gen = 0 }

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
        { data = Bytes.make page_size '\000';
          prot = Read_write;
          soft_dirty = false;
          write_gen = t.generation };
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
        t.committed <- t.committed - page_size
      end)

let commit_page t i p =
  if not (backed p) then begin
    p.data <- Bytes.make page_size '\000';
    p.write_gen <- t.generation;
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
      (* Conservative: visibility changes invalidate cached page
         summaries even though the bytes themselves are untouched. *)
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

let no_words : int array = [||]

(* Two passes (count, then fill) so the result is sized exactly without
   a scratch buffer: the function runs on worker domains. The length
   check up front is what makes the unchecked loads safe. *)
let frame_words bytes ~lo ~hi =
  if Bytes.length bytes < page_size then invalid_arg "Vmem.frame_words";
  let n = ref 0 in
  for k = 0 to (page_size / word_size) - 1 do
    let w = frame_word bytes (k * word_size) in
    if w >= lo && w < hi then incr n
  done;
  if !n = 0 then no_words
  else begin
    let words = Array.make !n 0 in
    let i = ref 0 in
    for k = 0 to (page_size / word_size) - 1 do
      let w = frame_word bytes (k * word_size) in
      if w >= lo && w < hi then begin
        Array.unsafe_set words !i w;
        incr i
      end
    done;
    words
  end

let load t addr =
  assert (addr mod word_size = 0);
  let p = accessible_page t addr ~write:false in
  Int64.to_int (Bytes.get_int64_le p.data (addr mod page_size))

let store t addr w =
  assert (addr mod word_size = 0);
  let p = accessible_page t addr ~write:true in
  Bytes.set_int64_le p.data (addr mod page_size) (Int64.of_int w);
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

let iter_readable_pages_gen t f =
  Pagedir.iter t.pages (fun i p ->
      if readable p then f (i * page_size) p.data ~write_gen:p.write_gen)

let iter_readable_pages t f =
  iter_readable_pages_gen t (fun base bytes ~write_gen:_ -> f base bytes)

(* Zero-copy snapshot for the markers: the live page frames themselves,
   in the directory's ascending page order — the one canonical order
   every consumer sees. No Bytes are copied — callers must treat the
   frames as read-only and must not interleave stores, protection
   changes or unmaps with reads of the snapshot (the marking phase holds
   that property: nothing mutates the address space while it scans). *)
let snapshot_readable_pages t =
  let n =
    Pagedir.fold t.pages (fun _ p n -> if readable p then n + 1 else n) 0
  in
  let pages = Array.make n (0, no_backing, 0) in
  let k = ref 0 in
  Pagedir.iter t.pages (fun i p ->
      if readable p then begin
        pages.(!k) <- (i * page_size, p.data, p.write_gen);
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
