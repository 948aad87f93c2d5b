(* A server-shaped workload: an in-memory session cache with a
   use-after-free bug in its eviction path.

   Sessions are allocated per connection and cached; a background
   evictor frees expired sessions, but a race-prone fast path keeps
   serving a session for a short window after eviction (the bug). We run
   the same server loop over plain JeMalloc and over MineSweeper and
   compare (a) whether the stale window is exploitable and (b) what the
   protection costs.

   Run with: dune exec examples/server_cache.exe *)

let sessions = 2048
let requests = 150_000
let session_size = 384
let stale_window = 32 (* requests during which a freed session is still used *)

type session = {
  mutable addr : int;
  mutable freed_at : int; (* request index of eviction, -1 if live *)
}

let run scheme =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) -> Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  let stack = Workloads.Harness.build scheme ~threads:1 machine in
  let mem = machine.Alloc.Machine.mem in
  let rng = Sim.Rng.create 7 in
  let table = Array.init sessions (fun _ -> { addr = 0; freed_at = -1 }) in
  let stale_reads = ref 0 in
  let corrupted_reads = ref 0 in
  let faults = ref 0 in
  let attacker_tag = 0x01BA_D000 in
  for i = 0 to requests - 1 do
    let s = table.(Sim.Rng.int rng sessions) in
    if s.addr = 0 then begin
      (* connection open: allocate and stamp the session *)
      s.addr <- stack.Workloads.Harness.malloc_site ~site:0 session_size;
      s.freed_at <- -1;
      Vmem.store mem s.addr (s.addr lxor 0x5555)
    end
    else if s.freed_at >= 0 then begin
      if i - s.freed_at < stale_window then begin
        (* the bug: serve a request from the evicted session *)
        incr stale_reads;
        (match Vmem.load mem s.addr with
        | v when v = attacker_tag -> incr corrupted_reads
        | _ -> ()
        | exception Vmem.Fault _ -> incr faults)
      end
      else begin
        (* window over: the slot is reconnected *)
        s.addr <- stack.Workloads.Harness.malloc_site ~site:0 session_size;
        s.freed_at <- -1;
        Vmem.store mem s.addr (s.addr lxor 0x5555)
      end
    end
    else if Sim.Rng.bool rng 0.02 then begin
      (* evictor: free the session; the fast path keeps the pointer *)
      stack.Workloads.Harness.free ~thread:0 s.addr;
      s.freed_at <- i
    end
    else begin
      (* attacker-influenced traffic: allocations the attacker fills *)
      let a = stack.Workloads.Harness.malloc_site ~site:0 session_size in
      Vmem.store mem a attacker_tag;
      stack.Workloads.Harness.free ~thread:0 a
    end;
    stack.Workloads.Harness.tick ();
    Alloc.Machine.charge machine 400 (* request handling work *)
  done;
  stack.Workloads.Harness.drain ();
  let wall = Sim.Clock.wall machine.Alloc.Machine.clock in
  (wall, !stale_reads, !corrupted_reads, !faults, stack.Workloads.Harness.sweeps ())

let () =
  Fmt.pr "session-cache server, %d requests, %d sessions@.@." requests sessions;
  let base_wall, base_stale, base_bad, base_faults, _ =
    run Workloads.Harness.Baseline
  in
  Fmt.pr "JeMalloc (unprotected):@.";
  Fmt.pr "  stale reads: %d, of which attacker-corrupted: %d, faults: %d@."
    base_stale base_bad base_faults;
  let ms_wall, ms_stale, ms_bad, ms_faults, sweeps =
    run (Workloads.Harness.Mine_sweeper Minesweeper.Config.default)
  in
  Fmt.pr "@.MineSweeper:@.";
  Fmt.pr "  stale reads: %d, of which attacker-corrupted: %d, faults: %d@."
    ms_stale ms_bad ms_faults;
  Fmt.pr "  sweeps: %d, slowdown vs unprotected: %.2fx@." sweeps
    (float_of_int ms_wall /. float_of_int base_wall);
  if base_bad > 0 && ms_bad = 0 then
    Fmt.pr "@.the unprotected server leaked attacker data into live \
            sessions;@.MineSweeper turned every one of those reads benign.@."
