module Instance = Minesweeper.Instance
module Quarantine = Minesweeper.Quarantine
module Shadow = Minesweeper.Shadow

let page = Vmem.page_size

let finding ~rule fmt =
  Printf.ksprintf (fun m -> Diagnostic.make ~rule ~severity:Diagnostic.Error m) fmt

(* ------------------------------------------------------------------ *)
(* Extent map: alignment, containment, non-overlap, accounting.        *)

let check_extent je out =
  let extent = Alloc.Jemalloc.extent je in
  let wilderness = Alloc.Extent.wilderness extent in
  let prev_end = ref Layout.heap_base in
  let total = ref 0 in
  let dirty = ref 0 in
  Alloc.Extent.iter_retained extent (fun ~addr ~pages ~committed ->
      if addr mod page <> 0 then
        out (finding ~rule:"inv-extent" "retained extent %#x not page-aligned" addr);
      if pages <= 0 then
        out (finding ~rule:"inv-extent" "retained extent %#x has %d pages" addr pages);
      if addr < Layout.heap_base || addr + (pages * page) > wilderness then
        out
          (finding ~rule:"inv-extent"
             "retained extent %#x+%d pages outside [heap_base, wilderness)"
             addr pages);
      if addr < !prev_end then
        out
          (finding ~rule:"inv-extent"
             "retained extent %#x overlaps the previous one ending at %#x" addr
             !prev_end);
      prev_end := addr + (pages * page);
      total := !total + (pages * page);
      if committed then dirty := !dirty + (pages * page));
  if !total <> Alloc.Extent.retained_bytes extent then
    out
      (finding ~rule:"inv-extent"
         "retained_bytes counter %d <> sum over ranges %d"
         (Alloc.Extent.retained_bytes extent)
         !total);
  if !dirty <> Alloc.Extent.retained_dirty_bytes extent then
    out
      (finding ~rule:"inv-extent"
         "retained_dirty_bytes counter %d <> sum over committed ranges %d"
         (Alloc.Extent.retained_dirty_bytes extent)
         !dirty);
  (* Conservation: every byte below the heap break is either handed out
     or retained for reuse — the extent map loses nothing. *)
  let used = Alloc.Extent.heap_used_bytes extent in
  if used + !total <> wilderness - Layout.heap_base then
    out
      (finding ~rule:"inv-extent"
         "address-space conservation: used %d + retained %d <> wilderness - \
          heap_base = %d"
         used !total
         (wilderness - Layout.heap_base))

(* ------------------------------------------------------------------ *)
(* Size-class bins vs the allocator's live accounting.                 *)

let check_bins je out =
  let wilderness = Alloc.Jemalloc.wilderness je in
  let slab_bytes = ref 0 in
  Alloc.Jemalloc.iter_slabs je
    (fun ~base ~cls ~slots ~used ~free_slots ->
      let nfree = List.length free_slots in
      if used + nfree <> slots then
        out
          (finding ~rule:"inv-bin"
             "slab %#x (class %d): used %d + free %d <> slots %d" base cls used
             nfree slots);
      if used < 0 then
        out (finding ~rule:"inv-bin" "slab %#x: negative used count %d" base used);
      if base mod page <> 0 || base < Layout.heap_base || base >= wilderness
      then out (finding ~rule:"inv-bin" "slab %#x misplaced or misaligned" base);
      let seen = Hashtbl.create 16 in
      List.iter
        (fun slot ->
          if slot < 0 || slot >= slots then
            out
              (finding ~rule:"inv-bin" "slab %#x: free slot %d out of range"
                 base slot);
          if Hashtbl.mem seen slot then
            out
              (finding ~rule:"inv-bin" "slab %#x: free slot %d listed twice"
                 base slot);
          Hashtbl.replace seen slot ())
        free_slots;
      slab_bytes := !slab_bytes + (used * Alloc.Size_class.size_of_class cls));
  let cached_bytes = ref 0 in
  for cls = 0 to Alloc.Size_class.count - 1 do
    let count = Alloc.Jemalloc.tcache_count je cls in
    let items = Alloc.Jemalloc.tcache_items je cls in
    if count <> List.length items then
      out
        (finding ~rule:"inv-bin" "tcache class %d: count %d <> %d items" cls
           count (List.length items));
    cached_bytes := !cached_bytes + (count * Alloc.Size_class.size_of_class cls)
  done;
  let large_bytes = ref 0 in
  Alloc.Jemalloc.iter_large je (fun ~base ~pages ->
      if base mod page <> 0 || base < Layout.heap_base || base >= wilderness
      then
        out
          (finding ~rule:"inv-bin" "large allocation %#x misplaced or misaligned"
             base);
      large_bytes := !large_bytes + (pages * page));
  (* Slab slots handed out include thread-cached ones; those were
     already subtracted from live_bytes when they were freed. *)
  let recount = !slab_bytes - !cached_bytes + !large_bytes in
  if recount <> Alloc.Jemalloc.live_bytes je then
    out
      (finding ~rule:"inv-bin"
         "live_bytes counter %d <> recount %d (slabs %d - tcache %d + large %d)"
         (Alloc.Jemalloc.live_bytes je)
         recount !slab_bytes !cached_bytes !large_bytes)

(* ------------------------------------------------------------------ *)
(* Vmem state of extents and allocations.                              *)

let check_vmem je mem out =
  Alloc.Extent.iter_retained (Alloc.Jemalloc.extent je)
    (fun ~addr ~pages ~committed ->
      if not committed then
        for i = 0 to pages - 1 do
          let p = addr + (i * page) in
          if Vmem.is_committed mem p then
            out
              (finding ~rule:"inv-vmem"
                 "purged retained page %#x still committed" p)
          else if Vmem.protection mem p <> Vmem.No_access then
            out
              (finding ~rule:"inv-vmem"
                 "purged retained page %#x not protected No_access (extent \
                  hook missed it)"
                 p)
        done);
  Alloc.Jemalloc.iter_slabs je (fun ~base ~cls:_ ~slots:_ ~used:_ ~free_slots:_ ->
      if not (Vmem.is_mapped mem base) then
        out (finding ~rule:"inv-vmem" "slab %#x not mapped" base));
  Alloc.Jemalloc.iter_large je (fun ~base ~pages:_ ->
      if not (Vmem.is_mapped mem base) then
        out (finding ~rule:"inv-vmem" "large allocation %#x not mapped" base))

(* ------------------------------------------------------------------ *)
(* Quarantine accounting vs its entry lists.                           *)

let check_quarantine ms je q out =
  let fresh_mapped = ref 0 in
  let failed_total = ref 0 in
  let unmapped = ref 0 in
  let each_entry ~counted (e : Quarantine.entry) =
    if e.Quarantine.usable <= 0 then
      out
        (finding ~rule:"inv-quarantine" "entry %#x has usable %d"
           e.Quarantine.addr e.Quarantine.usable);
    if e.Quarantine.unmapped_len < 0 || e.Quarantine.unmapped_len > e.Quarantine.usable
    then
      out
        (finding ~rule:"inv-quarantine" "entry %#x: unmapped %d of usable %d"
           e.Quarantine.addr e.Quarantine.unmapped_len e.Quarantine.usable);
    if not (Layout.in_heap e.Quarantine.addr) then
      out
        (finding ~rule:"inv-quarantine" "entry %#x outside the heap"
           e.Quarantine.addr);
    if not (Quarantine.contains q e.Quarantine.addr) then
      out
        (finding ~rule:"inv-quarantine"
           "entry %#x missing from the dedup table (double frees would slip \
            through)"
           e.Quarantine.addr);
    if not (Alloc.Jemalloc.is_live je e.Quarantine.addr) then
      out
        (finding ~rule:"inv-quarantine"
           "entry %#x already recycled by the backend while quarantined"
           e.Quarantine.addr);
    if counted then
      unmapped := !unmapped + e.Quarantine.unmapped_len
  in
  Quarantine.iter_fresh q (fun e ->
      each_entry ~counted:true e;
      fresh_mapped := !fresh_mapped + (e.Quarantine.usable - e.Quarantine.unmapped_len));
  Quarantine.iter_failed q (fun e ->
      each_entry ~counted:true e;
      failed_total := !failed_total + (e.Quarantine.usable - e.Quarantine.unmapped_len));
  Quarantine.iter_buffered q (fun e -> each_entry ~counted:false e);
  if !fresh_mapped <> Quarantine.fresh_mapped_bytes q then
    out
      (finding ~rule:"inv-quarantine"
         "fresh_mapped_bytes counter %d <> sum over fresh entries %d"
         (Quarantine.fresh_mapped_bytes q)
         !fresh_mapped);
  if !failed_total <> Quarantine.failed_bytes q then
    out
      (finding ~rule:"inv-quarantine"
         "failed_bytes counter %d <> sum over failed entries %d"
         (Quarantine.failed_bytes q)
         !failed_total);
  if !unmapped <> Quarantine.unmapped_bytes q then
    out
      (finding ~rule:"inv-quarantine"
         "unmapped_bytes counter %d <> sum over entries %d"
         (Quarantine.unmapped_bytes q)
         !unmapped);
  ignore ms

(* ------------------------------------------------------------------ *)
(* Unmapped-in-quarantine page bookkeeping.                            *)

let check_unmapped ms mem q out =
  let pages_bytes = ref 0 in
  Instance.iter_unmapped_pages ms (fun addr ->
      pages_bytes := !pages_bytes + page;
      if not (Vmem.is_mapped mem addr) then
        out
          (finding ~rule:"inv-unmapped" "unmapped-quarantine page %#x not mapped"
             addr)
      else begin
        if Vmem.is_committed mem addr then
          out
            (finding ~rule:"inv-unmapped"
               "unmapped-quarantine page %#x still committed" addr);
        if Vmem.protection mem addr <> Vmem.No_access then
          out
            (finding ~rule:"inv-unmapped"
               "unmapped-quarantine page %#x accessible (use-after-free would \
                not fault)"
               addr)
      end);
  (* During a sweep, locked-in entries keep their pages in the table but
     out of the quarantine's counters; compare only at rest. *)
  if (not (Instance.sweep_in_progress ms)) && !pages_bytes <> Quarantine.unmapped_bytes q
  then
    out
      (finding ~rule:"inv-unmapped"
         "unmapped page table holds %d bytes but the quarantine accounts %d"
         !pages_bytes
         (Quarantine.unmapped_bytes q))

(* ------------------------------------------------------------------ *)
(* Shadow-map bookkeeping.                                             *)

let check_shadow ms je shadow out =
  let config = Instance.config ms in
  if Shadow.granule shadow <> config.Minesweeper.Config.shadow_granule then
    out
      (finding ~rule:"inv-shadow" "shadow granule %d <> configured %d"
         (Shadow.granule shadow)
         config.Minesweeper.Config.shadow_granule);
  let wilderness = Alloc.Jemalloc.wilderness je in
  let count = ref 0 in
  Shadow.iter_marked shadow (fun addr ->
      incr count;
      if not (Layout.in_heap addr) then
        out (finding ~rule:"inv-shadow" "mark at %#x outside the heap" addr)
      else if addr >= wilderness then
        out
          (finding ~rule:"inv-shadow" "mark at %#x beyond the wilderness %#x"
             addr wilderness));
  if !count <> Shadow.marked_granules shadow then
    out
      (finding ~rule:"inv-shadow" "marked_granules %d <> recount %d"
         (Shadow.marked_granules shadow)
         !count)

(* ------------------------------------------------------------------ *)
(* Pointer summaries vs a from-scratch full mark.                       *)

let check_summary ms out =
  (* Both sweep modes mark from the summaries vmem keeps with each page,
     so replaying them must be indistinguishable from rescanning: the
     mark set they give right now must equal the ground-truth full mark,
     granule for granule. Any divergence means an invalidation rule
     (store/zero/decommit/commit/map) was missed or a frame was written
     behind vmem's back. *)
  let full = Instance.reference_full_mark ms in
  let summed = Instance.reference_summary_mark ms in
  Shadow.iter_marked full (fun addr ->
      if not (Shadow.is_marked summed addr) then
        out
          (finding ~rule:"inv-summary"
             "full mark at %#x missing from the summary mark (stale summary \
              hides a dangling pointer)"
             addr));
  Shadow.iter_marked summed (fun addr ->
      if not (Shadow.is_marked full addr) then
        out
          (finding ~rule:"inv-summary"
             "summary mark at %#x absent from the full mark (summary replays \
              a dead pointer)"
             addr));
  if Shadow.marked_granules full <> Shadow.marked_granules summed then
    out
      (finding ~rule:"inv-summary" "mark counts diverge: full %d vs summary %d"
         (Shadow.marked_granules full)
         (Shadow.marked_granules summed))

(* ------------------------------------------------------------------ *)

let audit ms =
  let je = Instance.jemalloc ms in
  let machine = Instance.machine ms in
  let mem = machine.Alloc.Machine.mem in
  let q = Instance.quarantine ms in
  let shadow = Instance.shadow ms in
  let findings = ref [] in
  let out d = findings := d :: !findings in
  check_extent je out;
  check_bins je out;
  check_vmem je mem out;
  check_quarantine ms je q out;
  check_unmapped ms mem q out;
  check_shadow ms je shadow out;
  check_summary ms out;
  List.rev !findings

let attach ms f =
  Instance.set_post_sweep_hook ms (fun () ->
      match audit ms with [] -> () | findings -> f findings)
