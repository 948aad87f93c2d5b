type scheme =
  | Baseline
  | Mine_sweeper of Minesweeper.Config.t
  | Mark_us
  | Ff_malloc
  | Scudo_baseline
  | Scudo_sweeper of Minesweeper.Config.t
  | Cr_count
  | P_sweeper
  | Dang_san
  | Dl_baseline
  | Dl_sweeper of Minesweeper.Config.t
  | Pooled of Alloc.Poolalloc.plan option
      (** site-keyed pooling; [None] falls back to one recycling pool
          per site ([identity_plan]) when no siteflow plan is at hand *)

(* MineSweeper instantiated over the Scudo backend (Section 7). *)
module Scudo_ms = Minesweeper.Instance.Make (Alloc.Backends.Scudo_backend)

(* ...and over the in-band-metadata dlmalloc model (Section 2 footnote). *)
module Dl_ms = Minesweeper.Instance.Make (Alloc.Backends.Dlmalloc_backend)

(* The presets a scheme name can carry, from the canonical preset table
   in {!Minesweeper.Config}; any other configuration is a "-variant". *)
let named_presets = [ "default"; "mostly"; "incremental"; "incremental-mostly" ]

let ms_suffix config =
  match Minesweeper.Config.preset_name config with
  | Some "default" -> ""
  | Some preset when List.mem preset named_presets -> "-" ^ preset
  | Some _ | None -> "-variant"

let scheme_name = function
  | Baseline -> "baseline"
  | Mine_sweeper config -> "minesweeper" ^ ms_suffix config
  | Mark_us -> "markus"
  | Ff_malloc -> "ffmalloc"
  | Cr_count -> "crcount"
  | Dl_baseline -> "dlmalloc"
  | Dl_sweeper config -> "dlmalloc-minesweeper" ^ ms_suffix config
  | P_sweeper -> "psweeper"
  | Dang_san -> "dangsan"
  | Scudo_baseline -> "scudo"
  | Scudo_sweeper config -> "scudo-minesweeper" ^ ms_suffix config
  | Pooled _ -> "pooled"

(* The one scheme table, keyed by [scheme_name] so that parsing is its
   exact inverse: every scheme with a nameable configuration. *)
let named_schemes =
  let family make =
    List.map
      (fun preset -> make (Result.get_ok (Minesweeper.Config.of_preset preset)))
      named_presets
  in
  List.map
    (fun s -> (scheme_name s, s))
    ([ Baseline ]
    @ family (fun c -> Mine_sweeper c)
    @ [ Mark_us; Ff_malloc; Cr_count; P_sweeper; Dang_san; Scudo_baseline ]
    @ family (fun c -> Scudo_sweeper c)
    @ [ Dl_baseline ]
    @ family (fun c -> Dl_sweeper c)
    @ [ Pooled None ])

let scheme_names = List.map fst named_schemes

(* Short and historical spellings. *)
let scheme_aliases =
  [ ("ms", "minesweeper"); ("mostly", "minesweeper-mostly");
    ("incremental", "minesweeper-incremental");
    ("ms-inc", "minesweeper-incremental");
    ("incremental-mostly", "minesweeper-incremental-mostly");
    ("ff", "ffmalloc"); ("scudo-ms", "scudo-minesweeper");
    ("dl-ms", "dlmalloc-minesweeper") ]

let scheme_of_name name =
  let canonical =
    Option.value ~default:name (List.assoc_opt name scheme_aliases)
  in
  match List.assoc_opt canonical named_schemes with
  | Some scheme -> Ok scheme
  | None ->
    Error
      (Printf.sprintf "unknown scheme %S (expected one of: %s; aliases: %s)"
         name
         (String.concat ", " scheme_names)
         (String.concat ", " (List.map fst scheme_aliases)))

type t = {
  scheme : string;
  machine : Alloc.Machine.t;
  obs : Obs.Registry.t option;
  trace : Obs.Trace_ring.t option;
  malloc_site : site:int -> int -> int;
  free : thread:int -> int -> unit;
  tick : unit -> unit;
  drain : unit -> unit;
  reclaim : unit -> unit;
  quarantine_bytes : unit -> int;
  live_bytes : unit -> int;
  metadata_bytes : unit -> int;
  cold_penalty : int -> int;
  is_protected_addr : int -> bool;
  tolerates_double_free : bool;
  on_pointer_write : slot:int -> old_value:int -> value:int -> unit;
  sweeps : unit -> int;
  failed_frees : unit -> int;
  extra : unit -> (string * float) list;
}

let quarantine_entry_overhead = 48 (* bytes of metadata per quarantined entry *)

let cold_penalty_fn machine factor =
  let per_byte = machine.Alloc.Machine.cost.Sim.Cost.cold_alloc_per_byte in
  fun size ->
    if factor = 0.0 then 0
    else int_of_float (factor *. per_byte *. float_of_int (min size 8192))

let decay_interval = 1_000_000

(* Matches the [Profile.make] default: a plan-free [Pooled None] stack
   segregates the same site universe the generators attribute to. *)
let default_pool_sites = 8

(* The shared defaults: an unprotected stack over [malloc]/[free] that
   retains nothing, instruments nothing and keeps no registry. Every
   scheme is these plus the fields it changes. *)
let plain scheme machine ~malloc ~free ~live_bytes =
  {
    scheme;
    machine;
    obs = None;
    trace = None;
    malloc_site = (fun ~site:_ size -> malloc size);
    free = (fun ~thread:_ addr -> free addr);
    tick = (fun () -> ());
    drain = (fun () -> ());
    reclaim = (fun () -> ());
    quarantine_bytes = (fun () -> 0);
    live_bytes;
    metadata_bytes = (fun () -> 0);
    cold_penalty = (fun _ -> 0);
    is_protected_addr = (fun _ -> false);
    tolerates_double_free = false;
    on_pointer_write = (fun ~slot:_ ~old_value:_ ~value:_ -> ());
    sweeps = (fun () -> 0);
    failed_frees = (fun () -> 0);
    extra = (fun () -> []);
  }

(* [purge a], charged to the background purger threads. *)
let in_background machine purge a () =
  Alloc.Machine.with_sink machine Alloc.Machine.Background (fun () -> purge a)

(* Decay purging off the simulated clock: at most one [purge_tick] per
   [decay_interval] cycles. *)
let decay_tick machine purge_tick a =
  let last_decay = ref 0 in
  fun () ->
    let n = Alloc.Machine.now machine in
    if n - !last_decay >= decay_interval then begin
      last_decay := n;
      in_background machine purge_tick a ()
    end

let floats = List.map (fun (key, v) -> (key, float_of_int v))

(* Registry reads surfaced as [extra] entries: [prefix ^ name] read,
   [key ^ name] reported, absent metrics skipped. *)
let registry_extra reg ~prefix ~key names =
  List.filter_map
    (fun name ->
      Option.map
        (fun v -> (key ^ name, float_of_int v))
        (Obs.Registry.read reg (prefix ^ name)))
    names

(* The one MineSweeper stack, over any backend's instance. *)
let sweeper (type i) plain (module I : Minesweeper.Instance.S with type t = i)
    (ms : i) =
  let quarantining = (I.config ms).Minesweeper.Config.quarantining in
  let factor = if quarantining then 1.0 else 0.0 in
  (* [I.stats] is a point-in-time snapshot: take a fresh one at every
     read rather than holding the build-time (all-zero) one. *)
  let stats () = I.stats ms in
  let reg = I.registry ms in
  {
    (plain ~malloc:(I.malloc ms) ~free:ignore
       ~live_bytes:(fun () -> I.live_bytes ms))
    with
    obs = Some reg;
    trace = Some (I.trace_ring ms);
    free = (fun ~thread addr -> I.free ms ~thread addr);
    tick = (fun () -> I.tick ms);
    drain = (fun () -> I.drain ms);
    reclaim =
      (fun () ->
        (* Start a sweep even below threshold, then force-finish it:
           the pipeline's release+purge stages hand pages back. *)
        ignore (I.force_sweep ms : bool);
        I.drain ms);
    quarantine_bytes = (fun () -> I.quarantine_bytes ms);
    metadata_bytes =
      (fun () ->
        (* shadow map + out-of-line quarantine bookkeeping + the
           incremental mode's per-page pointer-summary cache *)
        I.shadow_resident_bytes ms
        + (quarantine_entry_overhead * I.quarantine_entries ms)
        + (stats ()).Minesweeper.Stats.summary_cache_bytes);
    cold_penalty = cold_penalty_fn (I.machine ms) factor;
    is_protected_addr = (fun addr -> I.is_quarantined ms addr);
    tolerates_double_free = quarantining;
    sweeps = (fun () -> (stats ()).Minesweeper.Stats.sweeps);
    failed_frees = (fun () -> (stats ()).Minesweeper.Stats.failed_frees);
    extra =
      (fun () ->
        let s = stats () in
        floats
          Minesweeper.Stats.
            [ ("double_frees", s.double_frees); ("stw_pauses", s.stw_pauses);
              ("alloc_pauses", s.alloc_pauses);
              ("unmapped", s.unmapped_allocations);
              ("swept_bytes", s.swept_bytes);
              ("stw_rescanned_bytes", s.stw_rescanned_bytes);
              ("pages_skipped", s.sweep_pages_skipped);
              ("pages_rescanned", s.sweep_pages_rescanned);
              ("summary_cache_bytes", s.summary_cache_bytes) ]
        (* When the parallel marking engine ran (domains > 1), its
           telemetry: the speedup figure reads the modeled critical-path
           cycles from here. *)
        @ registry_extra reg ~prefix:"par." ~key:"par_"
            [ "domains"; "chunks"; "chunks_stolen"; "imbalance";
              "mark_cycles_est"; "mark_cycles_seq_est" ]
        (* The sweep pipeline's per-stage projections (always
           registered): the pipeline figure reads the modeled sequential
           vs overlapped cycle totals from here. *)
        @ registry_extra reg ~prefix:"sweep.stage." ~key:"pipe_"
            [ "mark_cycles_est"; "merge_cycles_est"; "release_cycles_est";
              "purge_cycles_est"; "seq_cycles_est"; "pipeline_cycles_est";
              "batches"; "flush_batches" ]);
  }

let build scheme ~threads machine =
  let plain = plain (scheme_name scheme) machine in
  match scheme with
  | Baseline ->
    let je = Alloc.Jemalloc.create ~extra_byte:false machine in
    {
      (plain ~malloc:(Alloc.Jemalloc.malloc je) ~free:(Alloc.Jemalloc.free je)
         ~live_bytes:(fun () -> Alloc.Jemalloc.live_bytes je))
      with
      tick = decay_tick machine Alloc.Jemalloc.purge_tick je;
      reclaim = in_background machine Alloc.Jemalloc.purge_all je;
    }
  | Mine_sweeper config ->
    let ms = Minesweeper.Instance.create ~config ~threads machine in
    (* The instance registers [ms.]/[vmem.] metrics at creation; the
       allocator joins the same registry here so one export covers the
       whole stack. *)
    Alloc.Jemalloc.attach_obs
      (Minesweeper.Instance.jemalloc ms)
      (Minesweeper.Instance.registry ms);
    sweeper plain (module Minesweeper.Instance) ms
  | Scudo_sweeper config ->
    sweeper plain (module Scudo_ms) (Scudo_ms.create ~config ~threads machine)
  | Dl_sweeper config ->
    sweeper plain (module Dl_ms) (Dl_ms.create ~config ~threads machine)
  | Mark_us ->
    let mk = Markus.create machine in
    let je = Markus.jemalloc mk in
    {
      (plain ~malloc:(Markus.malloc mk) ~free:(Markus.free mk)
         ~live_bytes:(fun () -> Alloc.Jemalloc.live_bytes je))
      with
      tick = (fun () -> Markus.tick mk);
      drain = (fun () -> Markus.drain mk);
      reclaim =
        (fun () ->
          Markus.drain mk;
          in_background machine Alloc.Jemalloc.purge_all je ());
      quarantine_bytes = (fun () -> Markus.quarantine_bytes mk);
      cold_penalty = cold_penalty_fn machine 1.15;
      is_protected_addr = (fun addr -> Markus.is_quarantined mk addr);
      tolerates_double_free = true;
      sweeps = (fun () -> Markus.sweeps mk);
      failed_frees = (fun () -> Markus.failed_frees mk);
      extra =
        (fun () ->
          floats [ ("visited_bytes", Markus.marked_visited_bytes mk) ]);
    }
  | Scudo_baseline ->
    let sc = Alloc.Scudo.create machine in
    {
      (plain ~malloc:(Alloc.Scudo.malloc sc) ~free:(Alloc.Scudo.free sc)
         ~live_bytes:(fun () -> Alloc.Scudo.live_bytes sc))
      with
      tick = decay_tick machine Alloc.Scudo.purge_tick sc;
      reclaim = in_background machine Alloc.Scudo.purge_all sc;
      (* The randomisation pool delays some reuse: a small cold share. *)
      cold_penalty = cold_penalty_fn machine 0.1;
      extra = (fun () -> floats [ ("pool", Alloc.Scudo.pool_size sc) ]);
    }
  | Dl_baseline ->
    let dl = Alloc.Dlmalloc.create machine in
    {
      (* metadata lives in-band: nothing resident beyond the pages *)
      (plain ~malloc:(Alloc.Dlmalloc.malloc dl) ~free:(Alloc.Dlmalloc.free dl)
         ~live_bytes:(fun () -> Alloc.Dlmalloc.live_bytes dl))
      with
      reclaim = in_background machine Alloc.Dlmalloc.purge_all dl;
      extra =
        (fun () ->
          let intact = Alloc.Dlmalloc.check_bin_integrity dl in
          floats [ ("bin_integrity", Bool.to_int intact) ]);
    }
  | Cr_count ->
    let cr = Ptrtrack.Crcount.create machine in
    {
      (plain ~malloc:(Ptrtrack.Crcount.malloc cr)
         ~free:(Ptrtrack.Crcount.free cr)
         ~live_bytes:(fun () -> Ptrtrack.Crcount.live_bytes cr))
      with
      quarantine_bytes = (fun () -> Ptrtrack.Crcount.pending_bytes cr);
      metadata_bytes = (fun () -> Ptrtrack.Crcount.metadata_bytes cr);
      cold_penalty = cold_penalty_fn machine 0.2;
      is_protected_addr = (fun addr -> Ptrtrack.Crcount.is_pending cr addr);
      tolerates_double_free = true;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Crcount.on_pointer_write cr ~slot ~old_value ~value);
      extra =
        (fun () ->
          floats [ ("pending_bytes", Ptrtrack.Crcount.pending_bytes cr) ]);
    }
  | P_sweeper ->
    let ps = Ptrtrack.Psweeper.create machine in
    {
      (plain ~malloc:(Ptrtrack.Psweeper.malloc ps)
         ~free:(Ptrtrack.Psweeper.free ps)
         ~live_bytes:(fun () -> Ptrtrack.Psweeper.live_bytes ps))
      with
      tick = (fun () -> Ptrtrack.Psweeper.tick ps);
      drain = (fun () -> Ptrtrack.Psweeper.drain ps);
      reclaim = (fun () -> Ptrtrack.Psweeper.drain ps);
      quarantine_bytes = (fun () -> Ptrtrack.Psweeper.deferred_bytes ps);
      metadata_bytes = (fun () -> Ptrtrack.Psweeper.metadata_bytes ps);
      cold_penalty = cold_penalty_fn machine 0.4;
      is_protected_addr = (fun addr -> Ptrtrack.Psweeper.is_deferred ps addr);
      tolerates_double_free = true;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Psweeper.on_pointer_write ps ~slot ~old_value ~value);
      sweeps = (fun () -> Ptrtrack.Psweeper.sweeps ps);
      extra =
        (fun () ->
          floats [ ("deferred_bytes", Ptrtrack.Psweeper.deferred_bytes ps) ]);
    }
  | Dang_san ->
    let ds = Ptrtrack.Dangsan.create machine in
    {
      (plain ~malloc:(Ptrtrack.Dangsan.malloc ds)
         ~free:(Ptrtrack.Dangsan.free ds)
         ~live_bytes:(fun () -> Ptrtrack.Dangsan.live_bytes ds))
      with
      metadata_bytes = (fun () -> Ptrtrack.Dangsan.metadata_bytes ds);
      cold_penalty = cold_penalty_fn machine 0.1;
      on_pointer_write =
        (fun ~slot ~old_value ~value ->
          Ptrtrack.Dangsan.on_pointer_write ds ~slot ~old_value ~value);
      extra =
        (fun () -> floats [ ("log_entries", Ptrtrack.Dangsan.log_entries ds) ]);
    }
  | Ff_malloc ->
    let ff = Ffmalloc.create machine in
    {
      (* never reuses: nothing held back for [reclaim] to purge *)
      (plain ~malloc:(Ffmalloc.malloc ff) ~free:(Ffmalloc.free ff)
         ~live_bytes:(fun () -> Ffmalloc.live_bytes ff))
      with
      cold_penalty = cold_penalty_fn machine 0.05;
      is_protected_addr = (fun addr -> Ffmalloc.is_freed_address ff addr);
      extra = (fun () -> floats [ ("va_consumed", Ffmalloc.va_consumed ff) ]);
    }
  | Pooled plan ->
    let plan =
      match plan with
      | Some p -> p
      | None -> Alloc.Poolalloc.identity_plan ~sites:default_pool_sites
    in
    let pa = Alloc.Poolalloc.create ~plan machine in
    let reg = Obs.Registry.create () in
    Alloc.Poolalloc.attach_obs pa reg;
    {
      (plain ~malloc:(Alloc.Poolalloc.malloc pa) ~free:(Alloc.Poolalloc.free pa)
         ~live_bytes:(fun () -> Alloc.Poolalloc.live_bytes pa))
      with
      obs = Some reg;
      malloc_site =
        (fun ~site size -> Alloc.Poolalloc.malloc_site pa ~site size);
      reclaim = in_background machine Alloc.Poolalloc.purge_all pa;
      quarantine_bytes = (fun () -> Alloc.Poolalloc.retired_bytes pa);
      (* Segregation delays spatial reuse a little; far milder than a
         quarantine since pools recycle their own slots immediately. *)
      cold_penalty = cold_penalty_fn machine 0.05;
      extra =
        (fun () ->
          floats
            [ ("pools", (Alloc.Poolalloc.plan pa).Alloc.Poolalloc.pools);
              ("footprint_bytes", Alloc.Poolalloc.footprint_bytes pa);
              ("retired_bytes", Alloc.Poolalloc.retired_bytes pa) ]);
    }
