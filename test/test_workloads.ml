(* Workload profiles + trace driver integration tests. *)

let tiny_profile ?(ops = 4000) ?(threads = 1) () =
  Workloads.Profile.make ~name:"tiny" ~suite:"test" ~ops
    ~size:(Sim.Dist.uniform ~lo:16 ~hi:256)
    ~lifetime:(Sim.Dist.exponential ~mean:300.)
    ~work_per_op:200 ~threads ()

let test_profile_tables_complete () =
  Alcotest.(check int) "19 SPEC2006 benchmarks" 19
    (List.length Workloads.Spec2006.all);
  Alcotest.(check int) "18 SPEC2017 benchmarks" 18
    (List.length Workloads.Spec2017.all);
  Alcotest.(check int) "16 mimalloc-bench tests" 16
    (List.length Workloads.Mimalloc_bench.all)

let test_profile_names_unique () =
  let check_unique names =
    Alcotest.(check int) "no duplicates"
      (List.length names)
      (List.length (List.sort_uniq compare names))
  in
  check_unique Workloads.Spec2006.names;
  check_unique Workloads.Spec2017.names;
  check_unique Workloads.Mimalloc_bench.names

let test_find () =
  Alcotest.(check string) "find returns the benchmark" "xalancbmk"
    (Workloads.Spec2006.find "xalancbmk").Workloads.Profile.name;
  Alcotest.check_raises "unknown raises" Not_found (fun () ->
      ignore (Workloads.Spec2006.find "nonesuch"))

let test_threaded_flags () =
  Alcotest.(check bool) "wrf is starred" true (Workloads.Spec2017.threaded "wrf");
  Alcotest.(check bool) "xalancbmk is not" false
    (Workloads.Spec2017.threaded "xalancbmk")

let test_scale_ops () =
  let p = tiny_profile () in
  let scaled = Workloads.Profile.scale_ops 0.5 p in
  Alcotest.(check int) "ops halved" 2000 scaled.Workloads.Profile.ops;
  let floor = Workloads.Profile.scale_ops 0.0001 p in
  Alcotest.(check int) "ops floored" 1000 floor.Workloads.Profile.ops

let test_driver_deterministic () =
  let p = tiny_profile () in
  let r1 = Workloads.Driver.run p Workloads.Harness.Baseline in
  let r2 = Workloads.Driver.run p Workloads.Harness.Baseline in
  Alcotest.(check int) "same wall" r1.Workloads.Driver.wall
    r2.Workloads.Driver.wall;
  Alcotest.(check int) "same peak rss" r1.Workloads.Driver.peak_rss
    r2.Workloads.Driver.peak_rss;
  Alcotest.(check int) "same frees" r1.Workloads.Driver.frees
    r2.Workloads.Driver.frees

let test_driver_all_schemes_complete () =
  let p = tiny_profile () in
  List.iter
    (fun scheme ->
      let r = Workloads.Driver.run p scheme in
      Alcotest.(check int) "all allocations performed" 4000
        r.Workloads.Driver.allocations;
      Alcotest.(check bool) "some frees happened" true
        (r.Workloads.Driver.frees > 1000);
      Alcotest.(check bool) "positive wall time" true (r.Workloads.Driver.wall > 0);
      Alcotest.(check bool) "rss trace recorded" true
        (Array.length r.Workloads.Driver.rss_trace > 10))
    [
      Workloads.Harness.Baseline;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.default;
      Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent;
      Workloads.Harness.Mark_us;
      Workloads.Harness.Ff_malloc;
    ]

let test_protected_runs_cost_more () =
  let p = tiny_profile ~ops:20_000 () in
  let baseline = Workloads.Driver.run p Workloads.Harness.Baseline in
  let ms =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check bool) "protection is not free" true
    (Workloads.Driver.slowdown ~baseline ms > 1.0);
  Alcotest.(check bool) "cpu utilisation rises" true
    (ms.Workloads.Driver.cpu_utilisation
    >= baseline.Workloads.Driver.cpu_utilisation)

let test_minesweeper_sweeps_under_churn () =
  let p = tiny_profile ~ops:30_000 () in
  let ms =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check bool) "sweeps happened" true (ms.Workloads.Driver.sweeps > 0)

let test_threaded_run () =
  let p = tiny_profile ~ops:8000 ~threads:8 () in
  let r =
    Workloads.Driver.run p
      (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Alcotest.(check int) "trace completes with thread-local buffers" 8000
    r.Workloads.Driver.allocations

let test_rss_limit_kills () =
  (* An absurdly small budget: the run must stop and flag itself. *)
  let p = tiny_profile ~ops:20_000 () in
  let r =
    Workloads.Driver.run ~rss_limit:(3 * 1024 * 1024) p
      Workloads.Harness.Baseline
  in
  Alcotest.(check bool) "killed" true r.Workloads.Driver.oom_killed

let test_overhead_helpers () =
  let p = tiny_profile () in
  let baseline = Workloads.Driver.run p Workloads.Harness.Baseline in
  Alcotest.(check (float 0.0001)) "self slowdown is 1" 1.0
    (Workloads.Driver.slowdown ~baseline baseline);
  Alcotest.(check (float 0.0001)) "self memory is 1" 1.0
    (Workloads.Driver.memory_overhead ~baseline baseline)

let test_scheme_names () =
  Alcotest.(check string) "baseline" "baseline"
    (Workloads.Harness.scheme_name Workloads.Harness.Baseline);
  Alcotest.(check string) "minesweeper" "minesweeper"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.default));
  Alcotest.(check string) "mostly" "minesweeper-mostly"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.mostly_concurrent));
  Alcotest.(check string) "variant" "minesweeper-variant"
    (Workloads.Harness.scheme_name
       (Workloads.Harness.Mine_sweeper Minesweeper.Config.unoptimised));
  (* Parsing is the inverse of naming for every scheme with a preset
     configuration, under each of the three MineSweeper backends. *)
  let open Workloads.Harness in
  let presets =
    Minesweeper.Config.
      [ default; mostly_concurrent; incremental; incremental_mostly ]
  in
  let schemes =
    [ Baseline; Mark_us; Ff_malloc; Scudo_baseline; Cr_count; P_sweeper;
      Dang_san; Dl_baseline; Pooled None ]
    @ List.concat_map
        (fun c -> [ Mine_sweeper c; Scudo_sweeper c; Dl_sweeper c ])
        presets
  in
  List.iter
    (fun s ->
      let name = scheme_name s in
      Alcotest.(check bool) (name ^ " round-trips") true
        (scheme_of_name name = Ok s);
      Alcotest.(check bool) (name ^ " listed") true
        (List.mem name scheme_names))
    schemes;
  Alcotest.(check int) "every listed name is a preset scheme"
    (List.length schemes) (List.length scheme_names);
  Alcotest.(check bool) "aliases resolve" true
    (scheme_of_name "ms" = Ok (Mine_sweeper Minesweeper.Config.default)
    && scheme_of_name "dl-ms" = Ok (Dl_sweeper Minesweeper.Config.default));
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (Result.is_error (scheme_of_name bad)))
    [ "nope"; ""; "minesweeper-variant"; "minesweeper-unoptimised";
      "scudo-minesweeper-nope" ]

(* Characterization of every stack [Harness.build] constructs: a few
   allocations and frees through [malloc_site], then every accounting
   field the drivers read, rendered as one line per scheme. *)
let characterize scheme =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  let s = Workloads.Harness.build scheme ~threads:1 machine in
  let addrs =
    List.map (fun size -> s.malloc_site ~site:0 size) [ 64; 128; 4096; 100_000 ]
  in
  let freed = List.hd addrs in
  s.free ~thread:0 freed;
  s.free ~thread:0 (List.nth addrs 2);
  Printf.sprintf
    "%s dfree=%b cold=%d/%d protected=%b q=%d md=%d live=%d sweeps=%d \
     failed=%d obs=%b trace=%b extra=[%s]"
    s.scheme s.tolerates_double_free (s.cold_penalty 64)
    (s.cold_penalty 100_000) (s.is_protected_addr freed)
    (s.quarantine_bytes ()) (s.metadata_bytes ()) (s.live_bytes ())
    (s.sweeps ()) (s.failed_frees ()) (Option.is_some s.obs)
    (Option.is_some s.trace)
    (String.concat "," (List.map fst (s.extra ())))

let all_constructors =
  let open Workloads.Harness in
  [
    Baseline;
    Mine_sweeper Minesweeper.Config.default;
    Mine_sweeper Minesweeper.Config.mostly_concurrent;
    Mine_sweeper Minesweeper.Config.incremental;
    Mark_us;
    Ff_malloc;
    Scudo_baseline;
    Scudo_sweeper Minesweeper.Config.default;
    Cr_count;
    P_sweeper;
    Dang_san;
    Dl_baseline;
    Dl_sweeper Minesweeper.Config.default;
    Pooled None;
  ]

(* The [extra] keys every MineSweeper-family stack reports, whatever its
   backend. *)
let ms_extra =
  "double_frees,stw_pauses,alloc_pauses,unmapped,swept_bytes,\
   stw_rescanned_bytes,pages_skipped,pages_rescanned,summary_cache_bytes,\
   pipe_mark_cycles_est,pipe_merge_cycles_est,pipe_release_cycles_est,\
   pipe_purge_cycles_est,pipe_seq_cycles_est,pipe_pipeline_cycles_est,\
   pipe_batches,pipe_flush_batches"

let expected_characterization =
  let ms name live =
    Printf.sprintf
      "%s dfree=true cold=96/12288 protected=true q=0 md=96 live=%d sweeps=0 \
       failed=0 obs=true trace=true extra=[%s]"
      name live ms_extra
  in
  let plain ?(dfree = false) ?(protected = false) ?(q = 0) ?(md = 0)
      ?(obs = false) name ~cold ~live extra =
    Printf.sprintf
      "%s dfree=%b cold=%s protected=%b q=%d md=%d live=%d sweeps=0 failed=0 \
       obs=%b trace=false extra=[%s]"
      name dfree cold protected q md live obs extra
  in
  [
    plain "baseline" ~cold:"0/0" ~live:102528 "";
    ms "minesweeper" 107760;
    ms "minesweeper-mostly" 107760;
    ms "minesweeper-incremental" 107760;
    plain "markus" ~dfree:true ~protected:true ~cold:"110/14131" ~live:106688
      "visited_bytes";
    plain "ffmalloc" ~protected:true ~cold:"4/614" ~live:102528 "va_consumed";
    plain "scudo" ~cold:"9/1228" ~live:107760 "pool";
    ms "scudo-minesweeper" 107776;
    plain "crcount" ~dfree:true ~cold:"19/2457" ~live:102528 "pending_bytes";
    plain "psweeper" ~dfree:true ~protected:true ~q:4160 ~md:48 ~cold:"38/4915"
      ~live:106688 "deferred_bytes";
    plain "dangsan" ~cold:"9/1228" ~live:102528 "log_entries";
    plain "dlmalloc" ~cold:"0/0" ~live:100128 "bin_integrity";
    ms "dlmalloc-minesweeper" 104320;
    plain "pooled" ~obs:true ~cold:"4/614" ~live:102528
      "pools,footprint_bytes,retired_bytes";
  ]

let test_stack_characterization () =
  Alcotest.(check (list string))
    "every stack's accounting" expected_characterization
    (List.map characterize all_constructors)

let test_spec2006_live_heaps_reasonable () =
  (* Guard against profile regressions: each benchmark's implied live
     heap must stay within simulator scale. *)
  List.iter
    (fun p ->
      let mean_size = Sim.Dist.mean_estimate p.Workloads.Profile.size in
      let mean_life = Sim.Dist.mean_estimate p.Workloads.Profile.lifetime in
      let live = mean_size *. mean_life in
      Alcotest.(check bool)
        (Printf.sprintf "%s live heap %.1f MiB within [0, 64MiB]"
           p.Workloads.Profile.name
           (live /. 1048576.))
        true
        (live < 64. *. 1048576.))
    Workloads.Spec2006.all

let suite =
  ( "workloads",
    [
      Alcotest.test_case "profile tables complete" `Quick
        test_profile_tables_complete;
      Alcotest.test_case "profile names unique" `Quick test_profile_names_unique;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "threaded flags" `Quick test_threaded_flags;
      Alcotest.test_case "scale_ops" `Quick test_scale_ops;
      Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
      Alcotest.test_case "all schemes complete" `Quick
        test_driver_all_schemes_complete;
      Alcotest.test_case "protection costs" `Quick test_protected_runs_cost_more;
      Alcotest.test_case "sweeps under churn" `Quick
        test_minesweeper_sweeps_under_churn;
      Alcotest.test_case "threaded run" `Quick test_threaded_run;
      Alcotest.test_case "rss limit kills" `Quick test_rss_limit_kills;
      Alcotest.test_case "overhead helpers" `Quick test_overhead_helpers;
      Alcotest.test_case "scheme names" `Quick test_scheme_names;
      Alcotest.test_case "stack characterization" `Quick
        test_stack_characterization;
      Alcotest.test_case "live heaps reasonable" `Quick
        test_spec2006_live_heaps_reasonable;
    ] )
