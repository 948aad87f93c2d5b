type outcome =
  | Exploited
  | Prevented_fault
  | Benign

let describe = function
  | Exploited -> "EXPLOITED: attacker aliased the freed object"
  | Prevented_fault -> "PREVENTED: dangling access faulted (clean termination)"
  | Benign -> "BENIGN: dangling read saw stale/zeroed data only"

(* Word values standing in for vtable pointers. They sit below the heap
   region so sweeps never mistake them for heap pointers. *)
let legit_vtable = 0x0100_0100
let malicious_vtable = 0x01BA_D000
let victim_size = 48

let dangling_slot = Layout.globals_base + 128
(* a global the program never overwrites *)

let mem (stack : Workloads.Harness.t) = stack.machine.Alloc.Machine.mem

let read_vtable stack victim =
  match Vmem.load (mem stack) victim with
  | v when v = malicious_vtable -> Exploited
  | _ -> Benign
  | exception Vmem.Fault _ -> Prevented_fault

let spray_attack ?(spray = 4096) ~double_free (stack : Workloads.Harness.t) =
  (* The program: allocate an object carrying its vtable pointer... *)
  let victim = stack.malloc_site ~site:0 victim_size in
  Vmem.store (mem stack) victim legit_vtable;
  (* ...publish a pointer to it (an instrumented pointer store)... *)
  Vmem.store (mem stack) dangling_slot victim;
  stack.on_pointer_write ~slot:dangling_slot ~old_value:0 ~value:victim;
  (* ...then erroneously free it (without clearing the pointer). *)
  stack.free ~thread:0 victim;
  if double_free && stack.tolerates_double_free then
    (* Second buggy free: must be idempotent under quarantine. *)
    stack.free ~thread:0 victim;
  (* The attacker sprays same-sized allocations filled with a fake
     vtable, hoping one lands on the victim's address. *)
  for _ = 1 to spray do
    let a = stack.malloc_site ~site:0 victim_size in
    Vmem.store (mem stack) a malicious_vtable;
    stack.tick ()
  done;
  (* The program finally calls x->fn() through the dangling pointer.
     Under nullification schemes the slot now holds NULL, so the call is
     a null dereference: clean termination. *)
  match Vmem.load (mem stack) dangling_slot with
  | 0 -> Prevented_fault
  | x -> read_vtable stack x

let vtable_hijack ?spray stack = spray_attack ?spray ~double_free:false stack

let double_free_hijack ?spray stack =
  spray_attack ?spray ~double_free:true stack

(* The unlink exploit (Section 2, footnote 2): in allocators with
   in-band metadata, a use-after-free *write* corrupts the freed chunk's
   free-list links, and the next unlink turns them into an arbitrary
   write — here, over a "credential" global. *)
let credential_slot = Layout.globals_base + 256
let decoy_slot = Layout.globals_base + 512
let credential_sentinel = 0x00C0_FFEE

let unlink_corruption (stack : Workloads.Harness.t) =
  let mem = mem stack in
  Vmem.store mem credential_slot credential_sentinel;
  let victim = stack.malloc_site ~site:0 victim_size in
  stack.free ~thread:0 victim;
  (* Use-after-free WRITE through the dangling pointer: forge the fd/bk
     links so that unlink writes into the credential slot. *)
  (try
     Vmem.store mem victim (credential_slot - 8);
     Vmem.store mem (victim + 8) decoy_slot
   with Vmem.Fault _ -> () (* unmapped in quarantine: write refused *));
  (* Trigger reuse of the bin. *)
  for _ = 1 to 8 do
    ignore (stack.malloc_site ~site:0 victim_size);
    stack.tick ()
  done;
  if Vmem.load mem credential_slot <> credential_sentinel then Exploited
  else Benign

let describe_unlink = function
  | Exploited -> "EXPLOITED: unlink wrote attacker data over the credential"
  | Prevented_fault -> "PREVENTED: forged link write faulted (clean termination)"
  | Benign -> "PREVENTED: free-list insertion deferred; forged links destroyed"

(* The Figure 2 attack mounted against a live server instead of an idle
   stack. The server handles open-loop traffic (Workloads.Server); a
   quarter of the way in, a buggy handler frees the victim but leaves the
   dangling global; the attacker then sprays same-sized allocations
   interleaved with legitimate requests. After every burst the "program"
   performs its dangling virtual call — the attacker wins if ANY of those
   calls dispatches through attacker data (under real traffic the victim
   address churns: legitimate handlers may reuse and benignly overwrite
   it, so only the eager check is faithful). The first faulting call
   terminates the program cleanly. *)
let hijack_under_traffic ?(spray = 1024) ?(double_free = false) ~profile
    (stack : Workloads.Harness.t) =
  let session = Workloads.Server.start profile stack in
  let mem = mem stack in
  let total = Workloads.Server.total_requests session in
  let warmup = total / 4 in
  let live = ref true in
  while !live && Workloads.Server.served session < warmup do
    live := Workloads.Server.step session
  done;
  (* The buggy handler: allocate, publish, free, keep the pointer. *)
  let victim = stack.malloc_site ~site:0 victim_size in
  Vmem.store mem victim legit_vtable;
  Vmem.store mem dangling_slot victim;
  stack.on_pointer_write ~slot:dangling_slot ~old_value:0 ~value:victim;
  stack.free ~thread:0 victim;
  if double_free && stack.tolerates_double_free then stack.free ~thread:0 victim;
  let outcome = ref Benign and decided = ref false in
  let dangling_call () =
    if not !decided then
      match Vmem.load mem dangling_slot with
      | 0 ->
        outcome := Prevented_fault;
        decided := true
      | x -> (
        match read_vtable stack x with
        | Exploited ->
          outcome := Exploited;
          decided := true
        | Prevented_fault ->
          outcome := Prevented_fault;
          decided := true
        | Benign -> ())
  in
  let sprayed = ref 0 in
  while !live && !sprayed < spray do
    live := Workloads.Server.step session;
    let burst = min 4 (spray - !sprayed) in
    for _ = 1 to burst do
      let a = stack.malloc_site ~site:0 victim_size in
      Vmem.store mem a malicious_vtable
    done;
    sprayed := !sprayed + burst;
    dangling_call ()
  done;
  (* Background traffic continues after the attack window. *)
  while Workloads.Server.step session do
    ()
  done;
  dangling_call ();
  (!outcome, Workloads.Server.finish session)

let reuse_after_clear ?(churn = 200_000) (stack : Workloads.Harness.t) =
  let victim = stack.malloc_site ~site:0 victim_size in
  Vmem.store (mem stack) victim legit_vtable;
  Vmem.store (mem stack) dangling_slot victim;
  stack.on_pointer_write ~slot:dangling_slot ~old_value:0 ~value:victim;
  stack.free ~thread:0 victim;
  (* The program later overwrites its last pointer to the object... *)
  Vmem.store (mem stack) dangling_slot 0;
  stack.on_pointer_write ~slot:dangling_slot ~old_value:victim ~value:0;
  (* ...so ongoing allocation churn (which drives sweeps) must
     eventually recycle the address. *)
  let reused = ref false in
  let i = ref 0 in
  while (not !reused) && !i < churn do
    let a = stack.malloc_site ~site:0 victim_size in
    if a = victim then reused := true
    else begin
      stack.free ~thread:0 a;
      stack.tick ()
    end;
    incr i
  done;
  !reused
