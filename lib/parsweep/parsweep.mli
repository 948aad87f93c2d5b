(** Parallel marking engine: domain-sharded page scans with a
    deterministic merge.

    The mark phase is embarrassingly parallel — every readable page can
    be scanned for quarantine hits independently — but MineSweeper's
    outputs (shadow set, counters, sweep decisions, telemetry exports)
    must not depend on how many domains did the scanning or on which
    domain happened to steal which chunk. This engine makes that a
    structural property rather than a testing hope:

    - The coordinator takes a canonical snapshot of the readable pages
      (sorted by base address, zero-copy) and slices it into fixed-size
      chunks of consecutive pages, numbered [0, 1, 2, ...].
    - Chunks are seeded round-robin into per-domain work-stealing
      deques ({!Deque}); idle domains steal from the top of their
      neighbours' deques.
    - Each domain runs a pure [scan] over the chunks it claims: it
      reads page bytes and writes a private result buffer slot indexed
      by chunk id. No shared mutable state is touched from workers —
      the only cross-domain writes are disjoint result slots and the
      steal counter.
    - After joining the pool, the {e coordinator alone} merges the
      per-chunk results in chunk-id order. Since each result is a pure
      function of its pages' bytes and the merge order is fixed, the
      merged outcome is bit-for-bit identical for any domain count and
      any steal schedule.

    The engine is policy-free: it does not know what a page is, about
    shadow maps or about summaries. The sweep pipeline's Mark stage
    ([Instance.Sweep.run]) shards vmem frames and passes a [scan] that
    computes the pointer summary of every frame whose summary is stale. *)

type 'p chunk = {
  cid : int;  (** dense chunk id: the canonical merge order *)
  pages : 'p array;  (** consecutive pages, ascending base *)
  chunk_bytes : int;  (** total payload bytes in [pages] *)
}

val default_chunk_pages : int
(** Pages per chunk (32 = 128 KiB of 4 KiB pages): small enough that
    stealing can rebalance a skewed address space, large enough that
    deque traffic is noise against the scan cost. *)

val shard : ?chunk_pages:int -> page_bytes:int -> 'p array -> 'p chunk array
(** Slice a base-sorted page snapshot into chunks of [chunk_pages]
    consecutive pages (last chunk may be short), each page [page_bytes]
    long. Chunk ids number the slices in address order. *)

type stats = {
  domains : int;  (** pool size actually used *)
  chunks : int;  (** chunks sharded this run *)
  total_bytes : int;  (** payload bytes across all chunks *)
  stolen : int;
      (** chunks executed by a domain other than the one they were
          seeded into — observational (depends on the host scheduler),
          which is why it only ever feeds [par.*] telemetry *)
  seeded_bytes : int array;
      (** per-domain payload bytes under the static round-robin seeding
          — deterministic, the basis of the imbalance gauge, the
          per-domain spans and the cost projection *)
}

val imbalance : stats -> int
(** Max minus min of {!stats.seeded_bytes}: how unevenly the static
    seeding splits the address space (work stealing erases this at run
    time; the gauge records what there was to erase). *)

val map_chunks :
  domains:int -> scan:('p chunk -> 'a) -> 'p chunk array -> 'a array * stats
(** [map_chunks ~domains ~scan chunks] executes [scan] on every chunk
    across a pool of [domains] worker domains (the calling domain works
    too: [domains - 1] are spawned, then joined before returning) and
    returns the results indexed by chunk id, plus run statistics.
    [scan] must be pure up to its private result (it runs off the
    coordinator domain, concurrently with other chunks' scans).
    [domains <= 1] runs inline on the caller with no spawns. *)

val pipeline_cycles : domains:int -> batches:int -> int array -> int
(** [pipeline_cycles ~domains ~batches stage_cycles] is the modeled
    finish time of running the given per-stage cycle totals as a
    software pipeline over [batches] work batches: stage [s] of batch
    [k] starts when stage [s-1] of batch [k] and stage [s] of batch
    [k-1] are both done, so independent stages of different batches
    overlap. Stage totals are split across batches by deterministic
    integer prefix shares (they sum exactly). With [domains <= 1] or
    [batches <= 1] there is nothing to overlap with and the result is
    the sequential sum of [stage_cycles]; the result never exceeds that
    sum. A pure projection of the stage totals — like
    {!critical_path_cycles} it feeds telemetry only and never the
    simulated clock, so exports stay byte-identical across domain
    counts. *)

val critical_path_cycles :
  single_per_byte:float -> bandwidth_per_byte:float -> stats -> int
(** Modeled mark-phase critical path under the static seeding: the
    slowest domain's streaming cost
    [bytes_cost single_per_byte seeded_bytes.(d)] or the DRAM floor
    [bytes_cost bandwidth_per_byte total_bytes], whichever binds. A
    deterministic projection (it ignores the observed steal schedule),
    so it can be exported as a [par.*] metric without breaking export
    determinism; it is how the speedup figure measures scaling on a
    host with fewer cores than domains. *)

(** The work-stealing deque, re-exported for tests and tooling (the
    library is wrapped, so [Deque] is otherwise hidden). *)
module Deque = Deque
