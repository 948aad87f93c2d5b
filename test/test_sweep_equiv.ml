(* Sweep-equivalence tests: the incremental marking phase (cached
   per-page pointer summaries + dirty-page rescans) must be
   observationally identical to a from-scratch full scan — same shadow
   mark set, same release / failed-free decisions — while scanning
   strictly fewer bytes once the summary cache is warm. *)

module I = Minesweeper.Instance
module C = Minesweeper.Config
module Shadow = Minesweeper.Shadow

let fresh ?(config = C.incremental) () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  (machine, I.create ~config machine)

let granule_set shadow =
  let acc = ref [] in
  Shadow.iter_marked shadow (fun a -> acc := a :: !acc);
  List.sort compare !acc

let root_slot = Layout.globals_base + 64

(* A mixed workload: long-lived blocks holding pointers, stores that
   overwrite them, churn that triggers sweeps. Fully scripted by the
   seed so the same traffic can be replayed under different configs. *)
let run_workload ?(ops = 15_000) machine ms seed =
  let rng = Sim.Rng.create seed in
  let mem = machine.Alloc.Machine.mem in
  let addresses = ref [] in
  let live = ref [] in
  let stable = ref [] in
  for _ = 1 to 64 do
    let p = I.malloc ms 1024 in
    Vmem.store mem p p;
    stable := p :: !stable
  done;
  for i = 1 to ops do
    if Sim.Rng.bool rng 0.55 then begin
      let size = 16 + Sim.Rng.int rng 1024 in
      let p = I.malloc ms size in
      addresses := p :: !addresses;
      (* Sometimes plant a pointer to a live block in memory the sweep
         must see (a stable block or the root region). *)
      if Sim.Rng.bool rng 0.3 then
        Vmem.store mem p (List.nth !stable (Sim.Rng.int rng 64));
      if i mod 97 = 0 then Vmem.store mem root_slot p;
      live := p :: !live
    end
    else
      match !live with
      | p :: rest ->
        I.free ms p;
        live := rest
      | [] -> ()
  done;
  I.drain ms;
  List.rev !addresses

(* --- Mark-set equality ---------------------------------------------- *)

let test_reference_marks_agree () =
  let machine, ms = fresh () in
  ignore (run_workload machine ms 11);
  Alcotest.(check bool) "summaries exercised" true
    ((I.stats ms).Minesweeper.Stats.sweeps > 1);
  Alcotest.(check (list int))
    "incremental rebuild equals from-scratch full mark"
    (granule_set (I.reference_full_mark ms))
    (granule_set (I.reference_summary_mark ms))

let test_reference_marks_agree_after_stores () =
  (* Dirty a clean summarised page between sweeps: the stale summary
     must be invalidated, not replayed. *)
  let machine, ms = fresh () in
  let mem = machine.Alloc.Machine.mem in
  let blocks = Array.init 32 (fun _ -> I.malloc ms 4096) in
  ignore (run_workload ~ops:8_000 machine ms 13);
  (* Overwrite pointers in long-clean pages after the last sweep. *)
  Array.iter
    (fun p ->
      Vmem.store mem p blocks.(0);
      Vmem.store mem (p + 512) 0)
    blocks;
  Alcotest.(check (list int)) "stores invalidate their summaries"
    (granule_set (I.reference_full_mark ms))
    (granule_set (I.reference_summary_mark ms))

let prop_marks_agree_random =
  QCheck.Test.make ~name:"incremental mark = full mark on random workloads"
    ~count:15 QCheck.small_int (fun seed ->
      let machine, ms = fresh () in
      ignore (run_workload ~ops:6_000 machine ms seed);
      granule_set (I.reference_full_mark ms)
      = granule_set (I.reference_summary_mark ms))

(* --- Decision equivalence ------------------------------------------- *)

(* Under Sequential concurrency every sweep completes synchronously, so
   the two modes diverge only if their mark sets do: the full address
   stream and the release/failed-free decisions must match exactly. *)
let prop_equivalent_decisions =
  QCheck.Test.make
    ~name:"full and incremental sweeps make identical decisions" ~count:10
    QCheck.small_int (fun seed ->
      let sequential = { C.default with C.concurrency = C.Sequential } in
      let machine_f, ms_f = fresh ~config:sequential () in
      let addrs_f = run_workload ~ops:10_000 machine_f ms_f seed in
      let machine_i, ms_i =
        fresh ~config:(C.with_sweep_mode C.Incremental sequential) ()
      in
      let addrs_i = run_workload ~ops:10_000 machine_i ms_i seed in
      let sf = I.stats ms_f and si = I.stats ms_i in
      addrs_f = addrs_i
      && sf.Minesweeper.Stats.sweeps = si.Minesweeper.Stats.sweeps
      && sf.Minesweeper.Stats.releases = si.Minesweeper.Stats.releases
      && sf.Minesweeper.Stats.failed_frees = si.Minesweeper.Stats.failed_frees)

let protection_holds_under config =
  let machine, ms = fresh ~config () in
  let victim = I.malloc ms 48 in
  Vmem.store machine.Alloc.Machine.mem root_slot victim;
  I.free ms victim;
  let ok = ref true in
  for _ = 1 to 20_000 do
    let p = I.malloc ms 48 in
    if p = victim then ok := false;
    I.free ms p
  done;
  !ok && I.is_quarantined ms victim

let test_incremental_protection () =
  Alcotest.(check bool) "incremental (fully concurrent)" true
    (protection_holds_under C.incremental);
  Alcotest.(check bool) "incremental (mostly concurrent)" true
    (protection_holds_under C.incremental_mostly)

(* --- Fewer bytes swept ---------------------------------------------- *)

let bytes_swept_under config seed =
  let machine, ms = fresh ~config () in
  ignore (run_workload machine ms seed);
  let stats = I.stats ms in
  ( stats.Minesweeper.Stats.sweeps,
    stats.Minesweeper.Stats.swept_bytes,
    stats.Minesweeper.Stats.sweep_pages_skipped )

let test_incremental_sweeps_fewer_bytes () =
  let sequential = { C.default with C.concurrency = C.Sequential } in
  let sweeps_f, swept_f, _ = bytes_swept_under sequential 21 in
  let sweeps_i, swept_i, skipped =
    bytes_swept_under (C.with_sweep_mode C.Incremental sequential) 21
  in
  Alcotest.(check int) "same sweeps either way" sweeps_f sweeps_i;
  Alcotest.(check bool) "several sweeps ran" true (sweeps_f > 1);
  Alcotest.(check bool) "clean pages were served from the cache" true
    (skipped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "incremental swept strictly less (%d < %d)" swept_i
       swept_f)
    true (swept_i < swept_f)

let test_summary_cache_accounted () =
  let _, ms = fresh () in
  let machine = I.machine ms in
  ignore (run_workload machine ms 31);
  Alcotest.(check bool) "summary cache footprint reported" true
    ((I.stats ms).Minesweeper.Stats.summary_cache_bytes > 0)

(* --- Sanitizer gates ------------------------------------------------ *)

let test_audit_clean_incremental () =
  let machine, ms = fresh () in
  ignore (run_workload machine ms 41);
  Alcotest.(check (list string)) "inv-summary (and the rest) hold" []
    (List.map Sanitizer.Diagnostic.to_string (Sanitizer.Invariants.audit ms))

let test_audit_detects_stale_summary () =
  (* Negative control: write to a summarised page behind vmem's back by
     resetting its generation tracking — the audit must notice that the
     replayed summary no longer matches memory. Absent a backdoor into
     vmem, corrupt from the other side: mutate memory through a raw Bytes
     handle so no write generation is bumped. *)
  let machine, ms = fresh () in
  ignore (run_workload machine ms 43);
  let mem = machine.Alloc.Machine.mem in
  (* Find a clean readable heap page whose summary would be replayed and
     smuggle a heap pointer into it without Vmem.store. *)
  let victim = I.malloc ms 64 in
  let planted = ref false in
  Vmem.iter_readable_pages mem (fun base bytes ->
      if (not !planted) && base >= Layout.heap_base then begin
        Bytes.set_int64_le bytes 0 (Int64.of_int victim);
        planted := true
      end);
  Alcotest.(check bool) "planted a hidden pointer" true !planted;
  (* The full mark sees the new pointer; a replayed summary cannot. If
     the page happened to be rescanned anyway the sets still differ for
     the synthetic store only when its summary was clean — so assert the
     weaker, always-true property: the audit equals the reference
     comparison. *)
  let full = granule_set (I.reference_full_mark ms) in
  let inc = granule_set (I.reference_summary_mark ms) in
  let audit_flags =
    Sanitizer.Diagnostic.has_rule "inv-summary" (Sanitizer.Invariants.audit ms)
  in
  Alcotest.(check bool) "audit fires iff the mark sets diverge" (full <> inc)
    audit_flags

let test_oracle_certifies_incremental () =
  let profile =
    List.find
      (fun p -> p.Workloads.Profile.name = "perlbench")
      Workloads.Spec2006.all
  in
  let trace =
    Workloads.Trace.generate (Workloads.Profile.scale_ops 0.05 profile)
  in
  let r = Sanitizer.Sweep_oracle.run ~config:C.incremental trace in
  Alcotest.(check bool) "sweeps completed" true
    (r.Sanitizer.Sweep_oracle.sweeps > 0);
  Alcotest.(check (list string)) "no unsound recycles under incremental" []
    (List.map Sanitizer.Diagnostic.to_string r.Sanitizer.Sweep_oracle.soundness);
  Alcotest.(check (list string)) "invariants (incl. inv-summary) hold" []
    (List.map Sanitizer.Diagnostic.to_string r.Sanitizer.Sweep_oracle.audit)

let suite =
  ( "minesweeper.sweep-equivalence",
    [
      Alcotest.test_case "reference marks agree" `Quick
        test_reference_marks_agree;
      Alcotest.test_case "stores invalidate summaries" `Quick
        test_reference_marks_agree_after_stores;
      QCheck_alcotest.to_alcotest prop_marks_agree_random;
      QCheck_alcotest.to_alcotest prop_equivalent_decisions;
      Alcotest.test_case "incremental modes protect" `Slow
        test_incremental_protection;
      Alcotest.test_case "incremental sweeps fewer bytes" `Quick
        test_incremental_sweeps_fewer_bytes;
      Alcotest.test_case "summary cache accounted" `Quick
        test_summary_cache_accounted;
      Alcotest.test_case "invariant audit clean" `Quick
        test_audit_clean_incremental;
      Alcotest.test_case "audit detects stale summary" `Quick
        test_audit_detects_stale_summary;
      Alcotest.test_case "oracle certifies incremental" `Quick
        test_oracle_certifies_incremental;
    ] )
