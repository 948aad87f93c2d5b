(** Allocator stacks: a uniform face over the schemes under evaluation.

    A stack bundles the scheme's entry points with the accounting the
    driver needs: how much extra metadata it keeps resident, how cold its
    served memory is (delayed reuse causes the cache misses the paper
    identifies as MineSweeper's main run-time cost), and scheme-specific
    statistics for the result tables. *)

type scheme =
  | Baseline  (** unmodified JeMalloc (the paper's comparison baseline) *)
  | Mine_sweeper of Minesweeper.Config.t
  | Mark_us
  | Ff_malloc
  | Scudo_baseline  (** the Scudo hardened-allocator model, unprotected *)
  | Scudo_sweeper of Minesweeper.Config.t
      (** MineSweeper layered over Scudo (the Section 7 integration) *)
  | Cr_count  (** reference-counting pointer invalidation (CRCount) *)
  | P_sweeper  (** concurrent live-pointer-table sweeping (pSweeper-1s) *)
  | Dang_san  (** log-based pointer nullification (DangSan) *)
  | Dl_baseline
      (** GNU-malloc-style allocator with in-band metadata (exploitable
          free-list links, Section 2's footnote) *)
  | Dl_sweeper of Minesweeper.Config.t
      (** MineSweeper layered over the dlmalloc model *)
  | Pooled of Alloc.Poolalloc.plan option
      (** SeMalloc/CAMP-style site-keyed pooling driven by a flowcheck
          siteflow plan; [None] uses [Poolalloc.identity_plan] over
          {!default_pool_sites} sites (maximum segregation) *)

val scheme_name : scheme -> string
(** [baseline], [markus], ...; a MineSweeper family's name plus
    [-mostly], [-incremental] or [-incremental-mostly] for those presets,
    nothing for the default one and [-variant] for any other config. *)

val scheme_names : string list
(** The names {!scheme_of_name} accepts besides aliases. *)

val scheme_of_name : string -> (scheme, string) result
(** The one scheme table, the inverse of {!scheme_name} on
    {!scheme_names} ([pooled] is [Pooled None]). Also accepts the aliases
    [ms], [mostly], [incremental], [ms-inc], [incremental-mostly], [ff],
    [scudo-ms] and [dl-ms]; the [Error] message lists the names. *)

val default_pool_sites : int
(** Site universe assumed by a plan-free [Pooled None] stack; matches
    the [Profile.make] default. *)

type t = {
  scheme : string;
  machine : Alloc.Machine.t;
  obs : Obs.Registry.t option;
      (** the stack's metrics registry (MineSweeper schemes: the
          instance's, with the allocator's and address space's
          read-through metrics attached); [None] for stacks that keep no
          registry *)
  trace : Obs.Trace_ring.t option;
      (** the stack's span ring (events + sweep-phase profiling) *)
  malloc_site : site:int -> int -> int;
      (** allocation, attributed to an allocation site; every scheme
          except [Pooled] ignores the site. Callers with no site in hand
          pass [~site:0]. *)
  free : thread:int -> int -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
  reclaim : unit -> unit;
      (** release memory now, regardless of thresholds: sweeper schemes
          force a sweep cycle and finish it (release + purge stages hand
          pages back), allocators purge their page caches. The lever a
          machine-wide RSS-pressure policy ({!Fleet}) pulls on a tenant;
          a no-op for schemes that retain nothing reclaimable
          (ffmalloc's one-way address consumption). *)
  quarantine_bytes : unit -> int;
      (** bytes currently held back from reuse (quarantine, deferred
          frees, pending invalidations); 0 for schemes with no
          retention. Drives largest-quarantine-first purge ordering and
          per-tenant quarantine budgets. *)
  live_bytes : unit -> int;
  metadata_bytes : unit -> int;
      (** resident metadata beyond the simulated pages (shadow map,
          quarantine entries); added to RSS in reports *)
  cold_penalty : int -> int;
      (** extra application cycles charged when serving an allocation of
          this size, modelling the cache misses of delayed reuse *)
  is_protected_addr : int -> bool;
      (** the address is currently quarantined / permanently retired, so
          a use-after-free cannot become a use-after-reallocate *)
  tolerates_double_free : bool;
      (** whether a second [free] of the same pointer is absorbed
          (quarantine dedup) rather than undefined behaviour *)
  on_pointer_write : slot:int -> old_value:int -> value:int -> unit;
      (** called for every *instrumented* pointer store the program
          performs (compiler-inserted instrumentation in DangSan /
          CRCount / pSweeper; a no-op for uninstrumented schemes).
          Integer writes that merely alias addresses are NOT reported —
          that is precisely the coverage gap of non-conservative
          pointer-tracking schemes. *)
  sweeps : unit -> int;
  failed_frees : unit -> int;
  extra : unit -> (string * float) list;
}

val build : scheme -> threads:int -> Alloc.Machine.t -> t
