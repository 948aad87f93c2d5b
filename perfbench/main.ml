(* perfbench: host-time benchmark of the simulator.

   One invocation runs one workload for a host-time window and prints
   every metric by name with its unit; the last line of standard output
   is one JSON object for machines. Each layer is timed from outside, by
   spans around the calls this file makes into the libraries' public
   functions; no library code reads a host clock. Metrics named sim.*
   (and the other counts) come from the simulated clock or registries
   and must repeat exactly for a given seed.

   Usage (from the repository root, through the wrapper that builds):
     bash perfbench/run.sh --workload batch-gcc --seed 7 --seconds 25 --trace 0

   The workloads, the layer -> metric -> workload map and the
   predictions are documented in perfbench/README.md. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns /. 1e9
let mib = 1048576.

(* Host CPU seconds of this process, user + system (getrusage). Unlike
   the wall clock it leaves out the time the process waits while another
   process, or the hypervisor (steal), holds its CPU. Every host time the
   benchmark reports is CPU time scaled to the reference speed (below),
   except the per-call ns of the traced wrappers, which are too short for
   CPU time and are wall time scaled the same way. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Spans: the CPU seconds of each call into a layer, by name.           *)

let recorded : (string * float) list ref = ref []

let span name f =
  let c0 = cpu_s () in
  Fun.protect
    ~finally:(fun () -> recorded := (name, cpu_s () -. c0) :: !recorded)
    f

(* CPU seconds spent in spans called [name] since the iteration began. *)
let total name =
  List.fold_left (fun acc (n, s) -> if n = name then acc +. s else acc) 0. !recorded

(* ------------------------------------------------------------------ *)
(* Correctness checks: every check and every raised exception counts
   into attempted/failed, i.e. into error_rate.                         *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type outcome = {
  events : int;  (** simulated events completed by the measured calls *)
  sims : (string * float) list;  (** simulated values, must repeat *)
  fingerprint : string;  (** further repeat evidence, not a metric *)
  focus : float;
      (** CPU seconds in the layer the workload exists to exercise: the
          core overhead, the generator, the oracle, the fleet run *)
  layers : (string * float) list;  (** host per-layer values *)
}

(* [setup seed] does the set-up and returns the measured part;
   [~traced] turns on the per-call wrappers. *)
type workload = {
  wname : string;
  setup : int option -> traced:bool -> outcome;
}

(* Input [index] of a workload takes its seed from the workload seed;
   without one it keeps the profile's own seed. *)
let with_seed seed index (p : Workloads.Profile.t) =
  match seed with
  | Some seed -> { p with Workloads.Profile.seed = Sim.Rng.split_seed ~seed ~index }
  | None -> p

let minesweeper = Workloads.Harness.Mine_sweeper Minesweeper.Config.default

let batch_gcc =
  let setup seed =
    let profile = with_seed seed 0 (Workloads.Spec2006.find "gcc") in
    fun ~traced:_ ->
      let base =
        span "driver.baseline" (fun () ->
            Workloads.Driver.run profile Workloads.Harness.Baseline)
      in
      let ms =
        span "driver.minesweeper" (fun () ->
            Workloads.Driver.run profile minesweeper)
      in
      let open Workloads.Driver in
      check "batch-gcc: minesweeper sweeps at least once" (ms.sweeps >= 1);
      check "batch-gcc: minesweeper is not OOM-killed" (not ms.oom_killed);
      check "batch-gcc: baseline never sweeps" (base.sweeps = 0);
      let extra name = Option.value ~default:0. (List.assoc_opt name ms.extra) in
      let swept_bytes = extra "swept_bytes" in
      let base_s = total "driver.baseline" in
      let ms_s = total "driver.minesweeper" in
      let overhead_s = ms_s -. base_s in
      let base_events = base.allocations + base.frees in
      {
        events = base_events + ms.allocations + ms.frees;
        sims =
          [
            ("sim.sweeps", float_of_int ms.sweeps);
            ("sim.swept_mb", swept_bytes /. mib);
            ("sim.failed_frees", float_of_int ms.failed_frees);
            ("sim.wall_cycles", float_of_int ms.wall);
            ("sim.slowdown", slowdown ~baseline:base ms);
            ("sim.mark_cycles_est", extra "pipe_mark_cycles_est");
            ( "sim.sweep_share",
              float_of_int ms.background_busy
              /. float_of_int (ms.app_busy + ms.background_busy) );
          ];
        fingerprint =
          Printf.sprintf "%d %d %d %d" base.wall base.peak_rss ms.peak_rss
            ms.stalled;
        focus = overhead_s;
        layers =
          [
            ("driver.baseline_s", base_s);
            ("driver.minesweeper_s", ms_s);
            ("alloc.ns_per_event", base_s *. 1e9 /. float_of_int base_events);
            ("core.overhead_s", overhead_s);
            ("core.ns_per_swept_word", overhead_s *. 1e9 /. (swept_bytes /. 8.));
            ("core.host_share", overhead_s /. ms_s);
          ];
      }
  in
  { wname = "batch-gcc"; setup }

let trace_gen =
  let setup seed =
    let profiles =
      List.mapi
        (fun i name ->
          with_seed seed i
            (Workloads.Profile.scale_ops 0.1 (Workloads.Mimalloc_bench.find name)))
        [ "larsonN"; "alloc-testN"; "espresso" ]
    in
    fun ~traced:_ ->
      let texts =
        List.map
          (fun p ->
            let t = span "trace.generate" (fun () -> Workloads.Trace.generate p) in
            let text, again =
              span "trace.io" (fun () ->
                  let text = Workloads.Trace.to_string t in
                  let parsed = Workloads.Trace.of_string text in
                  (text, Workloads.Trace.to_string parsed))
            in
            check
              (Printf.sprintf "trace-gen: %s re-serialises byte-identically"
                 p.Workloads.Profile.name)
              (String.equal text again);
            (Workloads.Trace.length t, Digest.to_hex (Digest.string text)))
          profiles
      in
      let ops = List.fold_left (fun acc (n, _) -> acc + n) 0 texts in
      let gen_s = total "trace.generate" in
      {
        events = ops;
        sims = [ ("trace.ops", float_of_int ops) ];
        fingerprint = String.concat " " (List.map snd texts);
        focus = gen_s;
        layers =
          [
            ("trace.generate_s", gen_s);
            ("trace.generate_ns_per_op", gen_s *. 1e9 /. float_of_int ops);
            ("trace.io_s", total "trace.io");
          ];
      }
  in
  { wname = "trace-gen"; setup }

(* Wall-clock time per call of the stack entry points replay drives, in
   the traced run: the calls are too short for CPU time. *)
type calls = { mutable n : int; mutable ns : int }
type stack_calls = { malloc : calls; free : calls; tick : calls }

let stack_calls () =
  { malloc = { n = 0; ns = 0 }; free = { n = 0; ns = 0 }; tick = { n = 0; ns = 0 } }

let ns_per_call c = float_of_int c.ns /. float_of_int (max 1 c.n)

let add c t0 =
  c.n <- c.n + 1;
  c.ns <- c.ns + (now_ns () - t0)

let wrap c (s : Workloads.Harness.t) =
  {
    s with
    malloc_site =
      (fun ~site size ->
        let t0 = now_ns () in
        let addr = s.malloc_site ~site size in
        add c.malloc t0;
        addr);
    free =
      (fun ~thread addr ->
        let t0 = now_ns () in
        s.free ~thread addr;
        add c.free t0);
    tick =
      (fun () ->
        let t0 = now_ns () in
        s.tick ();
        add c.tick t0);
  }

(* A stack on a fresh machine with the root regions mapped, as every
   replay front end builds it. *)
let fresh_stack scheme =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) -> Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  Workloads.Harness.build scheme ~threads:1 machine

let trace_oracle =
  let setup seed =
    let traces =
      List.mapi
        (fun i name ->
          let p =
            with_seed seed i
              (Workloads.Profile.scale_ops 0.05 (Workloads.Mimalloc_bench.find name))
          in
          span "trace.generate" (fun () -> Workloads.Trace.generate p))
        [ "cfrac"; "espresso" ]
    in
    fun ~traced ->
      let base_calls = stack_calls () and ms_calls = stack_calls () in
      let per_trace (t : Workloads.Trace.t) =
        let name = t.Workloads.Trace.name in
        let ops = Workloads.Trace.length t in
        let sr =
          span "flowcheck.analyze" (fun () -> Flowcheck.Report.analyze_trace t)
        in
        let replay label scheme calls =
          span label (fun () ->
              let stack = fresh_stack scheme in
              let driven = if traced then wrap calls stack else stack in
              let executed = Workloads.Trace.replay t driven in
              check
                (Printf.sprintf "trace-oracle: %s %s executes every op" name label)
                (executed = ops);
              stack)
        in
        ignore (replay "replay.baseline" Workloads.Harness.Baseline base_calls);
        let ms = replay "replay.minesweeper" minesweeper ms_calls in
        let orc = span "sanitizer.oracle" (fun () -> Sanitizer.Sweep_oracle.run t) in
        let misses, bound_errors =
          span "certify" (fun () ->
              let misses =
                Sanitizer.Sweep_oracle.certify_static
                  ~predicted_unsound:sr.Flowcheck.Report.predicted_unsound
                  ~predicted_retained:sr.Flowcheck.Report.predicted_retained orc
              in
              let reg = Option.get ms.Workloads.Harness.obs in
              let read m = Option.value ~default:0 (Obs.Registry.read reg m) in
              ( misses,
                Flowcheck.Report.check_bounds sr ~policy:"minesweeper"
                  ~peak_quarantine_bytes:(read "ms.peak_quarantine_bytes")
                  ~swept_bytes:(read "ms.swept_bytes") ~sweeps:(read "ms.sweeps") ))
        in
        let open Sanitizer in
        check (name ^ ": 0 oracle-unsound") (orc.Sweep_oracle.soundness = []);
        check (name ^ ": 0 audit errors")
          (Diagnostic.errors orc.Sweep_oracle.audit = []);
        check (name ^ ": certify_static is empty") (misses = []);
        check (name ^ ": check_bounds is empty") (bound_errors = []);
        ( ops,
          orc.Sweep_oracle.sweeps,
          List.length orc.Sweep_oracle.retained_ids,
          Printf.sprintf "%d/%d/%d" orc.Sweep_oracle.releases
            (List.length sr.Flowcheck.Report.predicted_retained)
            (ms.Workloads.Harness.sweeps ()) )
      in
      let results = List.map per_trace traces in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
      let ops = sum (fun (o, _, _, _) -> o) in
      let gen_s = total "trace.generate" in
      let oracle_s = total "sanitizer.oracle" in
      let replay_ms_s = total "replay.minesweeper" in
      {
        events = ops;
        sims =
          [
            ("trace.ops", float_of_int ops);
            ("sim.oracle_sweeps", float_of_int (sum (fun (_, s, _, _) -> s)));
            ("sim.retained_ids", float_of_int (sum (fun (_, _, r, _) -> r)));
          ];
        fingerprint = String.concat " " (List.map (fun (_, _, _, f) -> f) results);
        focus = oracle_s;
        layers =
          [
            ("trace.generate_s", gen_s);
            ("trace.generate_ns_per_op", gen_s *. 1e9 /. float_of_int ops);
            ("flowcheck.analyze_s", total "flowcheck.analyze");
            ("replay.baseline_s", total "replay.baseline");
            ("replay.minesweeper_s", replay_ms_s);
            ("sanitizer.oracle_s", oracle_s);
            ("sanitizer.oracle_over_replay", oracle_s /. replay_ms_s);
          ]
          @
          if traced then
            [
              ("alloc.malloc_ns", ns_per_call base_calls.malloc);
              ("core.free_ns", ns_per_call ms_calls.free);
              ("core.tick_ns", ns_per_call ms_calls.tick);
            ]
          else [];
      }
  in
  { wname = "trace-oracle"; setup }

let fleet_budget_bytes = 16 * 1024 * 1024

let fleet_budget =
  let setup seed =
    let tenant ?name profile scheme =
      Fleet.tenant ?name (Option.get (Workloads.Server.find profile)) scheme
    in
    let specs =
      [
        tenant "slow-leak" minesweeper;
        tenant ~name:"steady0" "steady" minesweeper;
        tenant ~name:"steady1" "steady" minesweeper;
        tenant "bursty" Workloads.Harness.Mark_us;
        tenant "steady" Workloads.Harness.Baseline;
      ]
    in
    let config = Fleet.config ~budget:fleet_budget_bytes () in
    let machine =
      span "fleet.create" (fun () -> Fleet.Machine.create ?seed config specs)
    in
    fun ~traced:_ ->
      let r = span "fleet.run" (fun () -> Fleet.Machine.run machine) in
      check "fleet-budget: committed peak <= budget"
        (r.Fleet.committed_peak <= fleet_budget_bytes);
      List.iter
        (fun (t : Fleet.tenant_result) ->
          let s = t.Fleet.server in
          check
            ("fleet-budget: " ^ t.Fleet.name ^ " served <= offered")
            (s.Workloads.Server.completed <= s.Workloads.Server.requests))
        r.Fleet.tenants;
      let served =
        List.fold_left
          (fun acc (t : Fleet.tenant_result) ->
            acc + t.Fleet.server.Workloads.Server.completed)
          0 r.Fleet.tenants
      in
      let run_s = total "fleet.run" in
      {
        events = served;
        sims =
          [
            ("fleet.steps", float_of_int r.Fleet.steps);
            ("fleet.reclaims", float_of_int r.Fleet.total_reclaims);
            ("fleet.oom_kills", float_of_int r.Fleet.oom_kills);
            ("fleet.committed_peak_mb", float_of_int r.Fleet.committed_peak /. mib);
          ];
        fingerprint =
          Printf.sprintf "%d %d %.0f" served r.Fleet.committed_peak_raw
            r.Fleet.agg_latency.Workloads.Server.p99;
        focus = run_s;
        layers =
          [
            ("fleet.create_s", total "fleet.create");
            ("fleet.run_s", run_s);
            ("fleet.us_per_step", run_s *. 1e6 /. float_of_int r.Fleet.steps);
          ];
      }
  in
  { wname = "fleet-budget"; setup }

let workloads = [ batch_gcc; trace_gen; trace_oracle; fleet_budget ]

(* ------------------------------------------------------------------ *)
(* Reference kernel. A shared host's speed changes over minutes: the same
   binary has run the workloads 1.3-2.8x slower in CPU time for a while,
   with next to no steal, because neighbours compete for the memory
   system (pure arithmetic slows far less). So a fixed kernel runs in its
   own process before the first iteration and after each one, and each
   iteration's host times are scaled by [reference_nominal_s] / (the mean
   CPU time of the kernel runs on either side of it): they read as
   seconds on a host where the kernel takes [reference_nominal_s]. The
   kernel does the kinds of work the simulator does -- random
   read-modify-writes over a 32 MB int array, hash-table churn over 256K
   keys, a live set of short lists that the major GC must trace -- and
   uses no library code, so a change to the libraries cannot move it. *)

let reference_nominal_s = 0.2

let reference_kernel () =
  let a = Array.make (1 lsl 22) 0 in
  let h = Hashtbl.create 1024 in
  let keep = Array.make 65536 [] in
  let x = ref 12345 and sum = ref 0 in
  for i = 1 to 600_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (Array.length a - 1) in
    a.(j) <- a.(j) + i;
    let k = (!x lsr 12) land 0x3ffff in
    (match Hashtbl.find_opt h k with
    | Some v ->
      sum := !sum + v;
      if v land 3 = 0 then Hashtbl.remove h k else Hashtbl.replace h k (v + 1)
    | None -> Hashtbl.replace h k i);
    let s = i land 65535 in
    keep.(s) <- (i, j) :: (if (i lsr 16) land 7 = 0 then [] else keep.(s))
  done;
  Array.fold_left ( + ) !sum a + Hashtbl.length h

(* ------------------------------------------------------------------ *)
(* Metric vocabulary. The JSON line carries exactly [end_to_end]
   untraced and exactly [per_layer] traced, in the order BENCHMARK.json
   declares them. Both lists hold only metrics that every workload
   measures and that are never 0. The layer metrics of one workload
   (driver.*, core.*, trace.*, ...) are printed on the report lines
   above the JSON line.                                                 *)

let end_to_end = [ "events_per_s"; "setup_s"; "peak_rss_mb" ]

let per_layer =
  [
    "layer.focus_s"; "layer.focus_share"; "gc.words_per_event"; "gc.top_heap_mb";
    "bench.cpu_share"; "bench.trace_overhead"; "sim.events";
  ]

let units =
  [
    ("events_per_s", "events/s"); ("setup_s", "s"); ("peak_rss_mb", "MB");
    ("error_rate", "ratio"); ("bench.events_per_cpu_s", "events/s");
    ("bench.events_per_wall_s", "events/s"); ("bench.reference_s", "s");
    ("host.steal_share", "ratio"); ("layer.focus_s", "s");
    ("layer.focus_share", "ratio"); ("gc.words_per_event", "words/event");
    ("gc.top_heap_mb", "MB"); ("bench.cpu_share", "ratio");
    ("bench.trace_overhead", "ratio"); ("sim.events", "count");
    ("driver.baseline_s", "s"); ("driver.minesweeper_s", "s");
    ("alloc.ns_per_event", "ns"); ("core.overhead_s", "s");
    ("core.ns_per_swept_word", "ns"); ("core.host_share", "ratio");
    ("trace.generate_s", "s"); ("trace.generate_ns_per_op", "ns");
    ("trace.io_s", "s"); ("flowcheck.analyze_s", "s");
    ("replay.baseline_s", "s"); ("replay.minesweeper_s", "s");
    ("sanitizer.oracle_s", "s"); ("sanitizer.oracle_over_replay", "ratio");
    ("alloc.malloc_ns", "ns"); ("core.free_ns", "ns"); ("core.tick_ns", "ns");
    ("fleet.create_s", "s"); ("fleet.run_s", "s"); ("fleet.us_per_step", "us");
    ("sim.sweep_share", "ratio"); ("sim.sweeps", "count");
    ("sim.swept_mb", "MB"); ("sim.failed_frees", "count");
    ("sim.wall_cycles", "cycles"); ("sim.slowdown", "ratio");
    ("sim.mark_cycles_est", "cycles"); ("sim.oracle_sweeps", "count");
    ("sim.retained_ids", "count"); ("trace.ops", "count");
    ("fleet.steps", "count"); ("fleet.reclaims", "count");
    ("fleet.oom_kills", "count"); ("fleet.committed_peak_mb", "MB");
  ]

(* ------------------------------------------------------------------ *)
(* Driver loop                                                         *)

type iteration = {
  setup_s : float;  (** CPU seconds of the set-up *)
  cpu_s : float;  (** CPU seconds of the measured part *)
  wall_s : float;  (** wall seconds of the measured part *)
  words : float;  (** OCaml words allocated by the measured part *)
  rss_mb : float;  (** VmHWM of the process that ran the iteration *)
  heap_mb : float;  (** peak size of its OCaml major heap *)
  outcome : outcome;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* A set-up shorter than a millisecond is re-run in batches, doubled
   until one takes 50 ms, and timed per call, so the clock's granularity
   and the host's short stalls do not show. *)
let timed_setup w seed =
  let c0 = cpu_s () in
  let measure = w.setup seed in
  let once = cpu_s () -. c0 in
  if once >= 1e-3 then (measure, once)
  else begin
    let kept = !recorded in
    let rec batch reps =
      let c1 = cpu_s () in
      for _ = 1 to reps do
        let (_ : traced:bool -> outcome) = w.setup seed in
        ()
      done;
      let dt = cpu_s () -. c1 in
      if dt >= 5e-2 then dt /. float_of_int reps else batch (2 * reps)
    in
    let per_call = batch 1 in
    recorded := kept;
    (measure, per_call)
  end

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Steal and total jiffies of all CPUs, from the first line of
   /proc/stat; None where the file is not there. *)
let steal_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        try
          Scanf.sscanf (input_line ic) "cpu %d %d %d %d %d %d %d %d"
            (fun user nice sys idle iowait irq softirq steal ->
              Some (steal, user + nice + sys + idle + iowait + irq + softirq + steal))
        with End_of_file | Scanf.Scan_failure _ | Failure _ -> None)

let iterate w seed ~traced =
  recorded := [];
  let measure, setup_s = timed_setup w seed in
  let words0 = allocated_words () in
  let t0 = now_ns () in
  let c0 = cpu_s () in
  let outcome = measure ~traced in
  let cpu_s = cpu_s () -. c0 in
  let wall_s = seconds_of_ns (now_ns () - t0) in
  let words = allocated_words () -. words0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  { setup_s; cpu_s; wall_s; words; rss_mb = peak_rss_mb (); heap_mb; outcome }

(* Each iteration, and each kernel run, runs in a fresh child process,
   so every one starts from the same small heap, as a one-shot run of the
   simulator does, and the kernel's memory never shows in an iteration's
   peak RSS. In one long-lived process the heap grown by earlier
   iterations makes later ones faster, and its major-GC debt makes short
   set-ups slower. The child sends its result and check counts back over
   a pipe. *)
let in_child (f : unit -> 'a) : 'a =
  Gc.full_major ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    (try
       Unix.close rd;
       attempted := 0;
       failed := 0;
       let result = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
       let oc = Unix.out_channel_of_descr wr in
       Marshal.to_channel oc (result, !attempted, !failed) [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let reply : (('a, string) result * int * int) option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match reply with
    | None -> failwith "the child process died"
    | Some (result, a, f) -> (
      attempted := !attempted + a;
      failed := !failed + f;
      match result with Ok v -> v | Error msg -> failwith msg))

let run_iteration w seed ~traced = in_child (fun () -> iterate w seed ~traced)

(* CPU seconds of one kernel run, and its checksum. *)
let run_kernel () =
  in_child (fun () ->
      let c0 = cpu_s () in
      let sum = reference_kernel () in
      (cpu_s () -. c0, sum))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Same simulated values and fingerprint as the first iteration. *)
let check_repeat first it =
  check "simulated values repeat within the run"
    (first.outcome.sims = it.outcome.sims
    && String.equal first.outcome.fingerprint it.outcome.fingerprint)

let guarded label f =
  match f () with
  | v -> Some v
  | exception e ->
    check (label ^ " raised " ^ Printexc.to_string e) false;
    None

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME one of: " ^ String.concat ", " (List.map (fun w -> w.wname) workloads));
      ("--seed", Arg.Int (fun s -> seed := Some s),
       "N workload seed (default: each profile's own seed)");
      ("--seconds", Arg.Set_float seconds, "S wall-clock seconds to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run: per-layer metrics");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload '" ^ !workload ^ "'");
      exit 2
  in
  let traced = !trace = 1 in
  let window_ns = int_of_float (!seconds *. 1e9) in
  let start = now_ns () in
  let jiffies0 = steal_jiffies () in
  let kernel_s, kernel_sum = run_kernel () in
  let kernels = ref [ kernel_s ] in
  (* Runs one iteration and the kernel after it; returns the iteration
     with the scale of its host times. *)
  let scaled_iteration ~traced =
    let before = List.hd !kernels in
    let it = run_iteration w !seed ~traced in
    let after, sum = run_kernel () in
    check "the reference kernel repeats its checksum" (sum = kernel_sum);
    kernels := after :: !kernels;
    (it, reference_nominal_s /. ((before +. after) /. 2.))
  in
  (* Untraced iterations until the window is spent, at least two so the
     repeat check always runs. *)
  let rec loop acc =
    if List.length acc >= 2 && now_ns () - start >= window_ns then List.rev acc
    else
      match guarded w.wname (fun () -> scaled_iteration ~traced:false) with
      | Some ((it, _) as s) ->
        (match List.rev acc with (first, _) :: _ -> check_repeat first it | [] -> ());
        loop (s :: acc)
      | None -> List.rev acc
  in
  let iters = loop [] in
  let steal_share =
    match (jiffies0, steal_jiffies ()) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      [ ("host.steal_share", float_of_int (s1 - s0) /. float_of_int (t1 - t0)) ]
    | _ -> []
  in
  if iters = [] then begin
    prerr_endline "perfbench: no iteration completed";
    exit 1
  end;
  let first = fst (List.hd iters) in
  let traced_it =
    if traced then
      guarded (w.wname ^ " (traced)") (fun () ->
          let ((it, _) as s) = scaled_iteration ~traced:true in
          check_repeat first it;
          s)
    else None
  in
  let med f = median (List.map (fun (it, scale) -> f it scale) iters) in
  let events it = float_of_int it.outcome.events in
  (* A host time or rate of a layer, scaled to the reference speed. *)
  let scaled name v scale =
    match List.assoc name units with
    | "s" | "ns" | "us" -> v *. scale
    | _ -> v
  in
  let layer_names = List.map fst first.outcome.layers in
  let metrics =
    [
      ("events_per_s", med (fun it scale -> events it /. (it.cpu_s *. scale)));
      ("setup_s", med (fun it scale -> it.setup_s *. scale));
      ("peak_rss_mb", med (fun it _ -> it.rss_mb));
      ("bench.events_per_cpu_s", med (fun it _ -> events it /. it.cpu_s));
      ("bench.events_per_wall_s", med (fun it _ -> events it /. it.wall_s));
      ("bench.reference_s", median !kernels);
    ]
    @ steal_share
    @ [
        ("layer.focus_s", med (fun it scale -> it.outcome.focus *. scale));
        ("layer.focus_share", med (fun it _ -> it.outcome.focus /. it.cpu_s));
        ("gc.words_per_event", med (fun it _ -> it.words /. events it));
        ("gc.top_heap_mb", med (fun it _ -> it.heap_mb));
        ("bench.cpu_share", med (fun it _ -> it.cpu_s /. it.wall_s));
        ("sim.events", events first);
      ]
    @ List.map
        (fun name ->
          (name, med (fun it scale -> scaled name (List.assoc name it.outcome.layers) scale)))
        layer_names
    @ first.outcome.sims
    @
    match traced_it with
    | Some (t, scale) ->
      List.filter_map
        (fun (n, v) -> if List.mem n layer_names then None else Some (n, scaled n v scale))
        t.outcome.layers
      @ [
          ( "bench.trace_overhead",
            t.cpu_s *. scale /. med (fun it scale -> it.cpu_s *. scale) );
        ]
    | None -> []
  in
  let error_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  Printf.printf "workload %s  seed %s  iterations %d  measured %.3f cpu-s %.3f wall-s\n"
    w.wname
    (match !seed with Some s -> string_of_int s | None -> "profile")
    (List.length iters)
    (List.fold_left (fun a (it, _) -> a +. it.cpu_s) 0. iters)
    (List.fold_left (fun a (it, _) -> a +. it.wall_s) 0. iters);
  Printf.printf "events_per_s by iteration: %s\n"
    (String.concat " "
       (List.map
          (fun (it, scale) -> Printf.sprintf "%.0f" (events it /. (it.cpu_s *. scale)))
          iters));
  Printf.printf "events_per_cpu_s by iteration: %s\n"
    (String.concat " "
       (List.map (fun (it, _) -> Printf.sprintf "%.0f" (events it /. it.cpu_s)) iters));
  Printf.printf "reference kernel cpu-s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !kernels));
  List.iter
    (fun (name, v) ->
      Printf.printf "metric %-30s %18s %s\n" name (json_number v) (List.assoc name units))
    (metrics @ [ ("error_rate", error_rate) ]);
  Printf.printf "checks: %d attempted, %d failed\n" !attempted !failed;
  let reported =
    List.map
      (fun name -> (name, List.assoc_opt name metrics))
      (if traced then per_layer else end_to_end)
  in
  let measured =
    List.for_all
      (function _, Some v -> Float.is_finite v | _, None -> false)
      reported
  in
  if not measured then check "every declared metric is measured and finite" false;
  let json =
    List.filter_map
      (fun (name, v) ->
        Option.map
          (fun v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
              (List.assoc name units))
          v)
      reported
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", " (if measured then json else []))
