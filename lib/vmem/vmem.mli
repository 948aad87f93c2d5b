(** Simulated virtual memory.

    This is the substrate the whole reproduction runs on: a paged, sparse
    64-bit-style address space with the operations MineSweeper needs from
    the OS — map/unmap, commit/decommit of physical backing, page
    protection, soft-dirty tracking (Linux's [/proc/pid/pagemap] feature
    used by the mostly-concurrent mode) and resident-set accounting.

    Addresses are plain OCaml [int]s. Loads and stores operate on aligned
    8-byte words so that sweeps can interpret every word of memory as a
    potential pointer, exactly as the paper does. *)

type t

type prot =
  | No_access
  | Read_only
  | Read_write

type fault_kind =
  | Unmapped_access
  | Protection_violation

exception Fault of fault_kind * int
(** Raised on an access the simulated MMU refuses; carries the faulting
    address. A use-after-free on an unmapped quarantined page surfaces as
    this exception — the "clean termination" of Section 2. *)

val page_size : int
(** 4096 bytes. *)

val word_size : int
(** 8 bytes. *)

val granule : int
(** 16 bytes — the smallest allocation granule, one shadow-map bit each. *)

val create : unit -> t

val set_demand_commit_hook : t -> (pages:int -> unit) -> unit
(** Called whenever an access demand-commits decommitted pages, so the
    caller can charge page-fault costs. *)

val set_write_observer :
  t -> (addr:int -> value:int -> gen:int -> unit) -> unit
(** Observe every word {!store} (address, stored value, and the page's
    resulting write generation). [zero_range] is deliberately not
    observed: it only ever writes zeros, which can never encode a heap
    pointer. Used by the race checker ({!Racecheck}) to attribute
    mutator writes to pages with their dirty-generation ordering edge;
    at most one observer is active. *)

val clear_write_observer : t -> unit

val set_commit_observer : t -> (addr:int -> len:int -> unit) -> unit
(** Observe every transition of pages to the committed (resident) state:
    fresh {!map}s, explicit {!commit}s, and demand-commits triggered by
    access to a decommitted page. The callback fires after the pages are
    resident, so [committed_bytes] already reflects them. The mirror of
    {!set_decommit_observer} — together the two observers see every
    change to the resident set, which is how the fleet layer
    ({!Fleet.Machine}) tracks a machine-wide physical-page budget across
    tenant address spaces; at most one observer is active. *)

val clear_commit_observer : t -> unit

val set_decommit_observer : t -> (addr:int -> len:int -> unit) -> unit
(** Observe every {!decommit} of a page-aligned range, before the backing
    is dropped. Used by the sweep pipeline's Purge stage to account
    decommit work (madvise-equivalent syscalls) without the allocator
    backends needing any extra plumbing; at most one observer is
    active. *)

val clear_decommit_observer : t -> unit

(** {1 Mapping and physical backing} *)

val map : t -> addr:int -> len:int -> unit
(** Reserve and commit a page-aligned range. Fresh pages are zeroed. *)

val unmap : t -> addr:int -> len:int -> unit
(** Remove the range entirely; later accesses fault. *)

val decommit : t -> addr:int -> len:int -> unit
(** Drop the physical backing (contents are lost) but keep the range
    mapped. A later access demand-commits zeroed pages — unless the range
    is also protected [No_access]. *)

val commit : t -> addr:int -> len:int -> unit
(** Restore physical backing (zeroed) for a decommitted range. *)

val protect : t -> addr:int -> len:int -> prot -> unit

val is_mapped : t -> int -> bool
val is_committed : t -> int -> bool
val protection : t -> int -> prot
(** [protection t addr] — the page must be mapped. *)

(** {1 Word access} *)

val load : t -> int -> int
(** [load t addr] reads the aligned word at [addr]. *)

val store : t -> int -> int -> unit
(** [store t addr w] writes [w] at the aligned address [addr] and marks
    the page soft-dirty. *)

val zero_range : t -> addr:int -> len:int -> unit
(** Zero an arbitrary byte range (must be mapped and writable). *)

(** {1 Accounting} *)

val committed_bytes : t -> int
(** Resident set size of the simulated process. *)

val mapped_bytes : t -> int

(** {1 Sweeping support} *)

val iter_committed_words :
  t -> addr:int -> len:int -> (int -> int -> unit) -> unit
(** [iter_committed_words t ~addr ~len f] calls [f address word] for every
    aligned word in the committed, readable portion of the range.
    Decommitted or [No_access] pages are skipped without faulting — this
    is how sweeps avoid touching purged memory (Section 4.5). *)

val iter_readable_pages : t -> (int -> Bytes.t -> unit) -> unit
(** [iter_readable_pages t f] calls [f page_base bytes] for every
    committed page that is readable. This is the sweep's view of "all
    program memory": decommitted and [No_access] (unmapped-in-quarantine)
    pages are excluded. Pages are visited in ascending address order.
    The [bytes] are the live page frame, not a copy — callers must not
    mutate it. *)

(** {1 Frames and pointer summaries}

    Every page carries a {e pointer summary}: the words of its frame that
    lie in the heap address range [[Layout.heap_base, Layout.heap_limit)],
    sorted ascending and deduplicated — all a sweep needs from the page.
    The summary is a host-side cache of the bytes, not part of the
    simulated machine: whenever it is {e known} it is exact, and it is
    {e stale} when it must be recomputed. This module keeps it that way
    at the only places that write frame bytes, in O(1) per page touched:

    - {!map}, {!commit} and demand-commit give the page the empty summary
      (a fresh frame is all zeros);
    - {!decommit} makes it stale ({!unmap} drops the page with it);
    - {!store} makes it stale only when the old or the new word is a
      heap-range word;
    - {!zero_range} makes a page with a non-empty summary stale; on a page
      with an empty one it re-reads just the two boundary words after the
      fill, since a partly zeroed word can become a heap-range word;
    - {!protect} leaves it alone: the bytes do not change.

    The sweep fills stale summaries in with {!scan_summary} and
    {!set_summary}; see {!write_generation} for the separate question of
    what the {e simulated} sweeper must re-read. *)

type frame
(** A page as seen by one {!snapshot_readable_pages}: a live handle, not
    a copy. *)

val snapshot_readable_pages : t -> frame array
(** Zero-copy snapshot of every committed readable page in ascending
    base order — the canonical page order of the marking phase, the one
    every parallel merge reproduces. The order is the page directory's
    own, so no sort is needed, and the array holds the page records
    themselves (no per-page allocation). Callers must not interleave
    stores, protection changes or unmaps with reads of the snapshot. *)

val frame_base : frame -> int

val frame_bytes : frame -> Bytes.t
(** The live page frame. Read-only: writing it behind this module's back
    breaks the summary's exactness (the sanitizer's [inv-summary] audit
    exists to notice exactly that). *)

val frame_write_gen : frame -> int
(** The page's last-write generation (see {!write_generation}). *)

val summary : frame -> int array option
(** The page's pointer summary, or [None] when it is stale. The array is
    shared: do not mutate it. *)

val scan_summary : frame -> int array
(** Compute the page's summary from its bytes: {!frame_words} over the
    heap range, sorted and deduplicated. Pure up to a per-domain scratch
    buffer, so worker domains may run it concurrently on different
    frames. *)

val set_summary : frame -> int array -> unit
(** [set_summary f s] records [s = scan_summary f] as [f]'s summary. The
    caller must not have changed the address space in between; the
    sweep's merge, on the coordinating domain, is the only caller. *)

val frame_words : Bytes.t -> lo:int -> hi:int -> int array
(** [frame_words bytes ~lo ~hi] — the words of a page frame handed out
    by this module whose values lie in [[lo, hi)], in address order, as
    a fresh array (the shared empty array when there are none). The
    sweep's inner loop: one pass over the frame into a per-domain
    scratch buffer, with no per-word bounds checks (raises
    [Invalid_argument] if [bytes] is shorter than a page); worker
    domains may run it concurrently on different frames. *)

(** {1 Scan generations}

    What the {e simulated} incremental sweeper must re-read: the address
    space carries a monotonically increasing {e scan generation}, and
    every page records the generation of its last content change
    ([store], [zero_range], decommit, (re-)commit, demand-commit,
    protection change, or fresh mapping). A page whose [write_gen] is
    below the generation of the last incremental sweep is unchanged since
    that sweep read it, and its summary (which that sweep made known) is
    replayed at a charge per word; every other page is charged as a
    rescan. The stamps are deliberately coarser than the summary's own
    invalidation (a protection change stamps but keeps the summary), so
    they decide the charge, never the marks. Generations never reset, so
    soft-dirty clearing (used by the stop-the-world re-scan) and the
    stamps are independent. *)

val generation : t -> int
(** The current scan generation. *)

val advance_generation : t -> int
(** Start a new scan generation (the beginning of an incremental sweep's
    marking phase) and return it. *)

val write_generation : t -> int -> int
(** [write_generation t addr] — generation of the page's last content
    change. The page must be mapped. *)

val readable_bytes : t -> int
(** Total bytes {!iter_readable_pages} would visit. *)

val clear_soft_dirty : t -> unit

val soft_dirty_pages : t -> int
(** Number of pages written since the last {!clear_soft_dirty}
    (readable or not — the raw kernel-style counter). *)

val iter_soft_dirty_pages : t -> (int -> unit) -> unit
(** Iterate the start addresses of soft-dirty pages that are still
    committed and readable. Pages dirtied and then decommitted or
    protected [No_access] (e.g. unmapped-in-quarantine allocations) are
    skipped: a re-scan has nothing to read there, so counting them would
    overstate the stop-the-world pause. *)

val attach_obs : ?prefix:string -> t -> Obs.Registry.t -> unit
(** Register read-through metrics ([vmem.committed_bytes],
    [vmem.mapped_bytes], [vmem.readable_bytes], [vmem.scan_generation])
    in the registry, each name prepended with [prefix] (default [""]).
    Read-through means the gauges consult the live accounting at export
    time — commit and decommit round-trip the gauge back to its prior
    value with no extra bookkeeping on the hot paths. A namespaced
    [prefix] (e.g. ["ms."] for an instance, ["fleet.t3."] for a fleet
    tenant) lets several address spaces publish into one registry.
    Raises {!Obs.Registry.Duplicate} if the prefixed names are already
    claimed there. *)
