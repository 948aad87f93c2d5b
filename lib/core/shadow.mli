(** The shadow map: one mark bit per 16-byte granule of heap address
    space (Section 3.2).

    During the marking phase of a sweep, every word of program memory is
    interpreted as a pointer and the granule it targets is marked. The
    release phase then checks, for each quarantined allocation, whether
    any granule in its range carries a mark — if none does, no dangling
    pointer to it exists and it can be recycled.

    The map is sparse (one bitmap per page holding a mark, in a
    {!Pagedir} page directory), so its footprint follows the used portion
    of the address space: 32 bytes of shadow per 4 KiB page, i.e. less
    than 1 % overhead as in the paper. *)

type t

val create : ?granule:int -> unit -> t
(** [granule] (default 16, the smallest allocation granule) sets the
    bytes covered per mark bit. A coarser shadow is smaller but aliases
    adjacent allocations, causing spurious failed frees — the trade-off
    Section 3.2 notes and the [ablation-granule] bench measures. *)

val granule : t -> int

val clear : t -> unit
(** Reset all marks (start of a sweep's marking phase). The directory's
    leaves are reset in place and reused by the next sweep. *)

val mark : t -> int -> unit
(** [mark t p] marks the granule containing address [p]. [p] must lie in
    the heap region. *)

val is_marked : t -> int -> bool
(** Whether the granule containing the address carries a mark. *)

val range_marked : t -> addr:int -> len:int -> bool
(** [range_marked t ~addr ~len] — is any granule intersecting
    [addr, addr+len) marked? This is the release-phase test; [len] must
    cover the allocation's full usable size (which already includes the
    extra byte for past-the-end pointers). One bitmap lookup per page
    the range touches. *)

val iter_marked : t -> (int -> unit) -> unit
(** Visit the start address of every marked granule in ascending order
    (audit support). *)

val marked_granules : t -> int
(** Total marks, for stats/tests. *)

val shadow_bytes : t -> int
(** Memory used by the shadow structure itself. *)
