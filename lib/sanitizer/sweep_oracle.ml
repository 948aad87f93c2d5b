module Instance = Minesweeper.Instance
module Registry = Ptrtrack.Registry
module Trace = Workloads.Trace

type report = {
  trace_name : string;
  ops : int;
  allocs : int;
  frees : int;
  releases : int;
  sweeps : int;
  soundness : Diagnostic.t list;
  precision : Diagnostic.t list;
  audit : Diagnostic.t list;
  unsound_ids : int list;
  retained_ids : int list;
}

let findings r = r.soundness @ r.precision @ r.audit

(* One still-quarantined allocation under observation. *)
type tracked = {
  id : int;
  eligible_from : int;
      (** completed-sweep count after which a completion could have
          locked this entry in: a sweep already in flight at free time
          fixed its lock-in set earlier and never observed the entry,
          so its completion is no retention evidence *)
  mutable clean_sweeps : int;  (** consecutive completed sweeps that
                                   locked the entry in and found no
                                   ground-truth pointer to it *)
  mutable reported : bool;
}

let run ?(config = Minesweeper.Config.default) ?(latency_sweeps = 3)
    ?(audit = true) (trace : Trace.t) =
  let machine = Alloc.Machine.create () in
  let mem = machine.Alloc.Machine.mem in
  List.iter
    (fun (base, size) -> Vmem.map mem ~addr:base ~len:size)
    Layout.root_regions;
  let ms = Instance.create ~config ~threads:1 machine in
  let je = Instance.jemalloc ms in
  let registry = Registry.create je in
  (* [Instance.stats] returns a point-in-time snapshot: re-read at every
     use instead of freezing the build-time zeros. *)
  let stats () = Instance.stats ms in
  let audit_findings = ref [] in
  if audit then
    Invariants.attach ms (fun fs ->
        audit_findings := List.rev_append fs !audit_findings);
  let addr_of = Hashtbl.create 4096 in
  (* addr -> tracked, for every allocation currently in quarantine *)
  let quarantined : (int, tracked) Hashtbl.t = Hashtbl.create 4096 in
  let soundness = ref [] in
  let precision = ref [] in
  let unsound_ids = ref [] in
  let retained_ids = ref [] in
  let allocs = ref 0 in
  let frees = ref 0 in
  let completed_sweeps () =
    (stats ()).Minesweeper.Stats.sweeps
    - if Instance.sweep_in_progress ms then 1 else 0
  in
  let last_completed = ref 0 in
  let resolve_loc = function
    | Trace.Root w ->
      Some (Layout.stack_base + (8 * (w mod Trace.root_window_words)))
    | Trace.Field (id, w) -> (
      match Hashtbl.find_opt addr_of id with
      | Some (addr, size) when size >= 8 -> Some (addr + (8 * (w mod (size / 8))))
      | Some _ | None -> None)
  in
  let writable slot =
    Vmem.is_mapped mem slot
    && Vmem.is_committed mem slot
    && Vmem.protection mem slot = Vmem.Read_write
  in
  (* Every pointer-typed write flows through here: memory and ground
     truth stay in lock-step. *)
  let pointer_write slot value =
    Vmem.store mem slot value;
    Registry.record_write registry ~slot ~value
  in
  let poll op_index =
    (* Release detection: quarantine membership dropped => the backend
       recycled the entry during this op. *)
    let released =
      Hashtbl.fold
        (fun addr tr acc ->
          if Instance.is_quarantined ms addr then acc else (addr, tr) :: acc)
        quarantined []
    in
    List.iter
      (fun (addr, (tr : tracked)) ->
        Hashtbl.remove quarantined addr;
        let n = Registry.in_pointer_count registry ~base:addr in
        if n > 0 then begin
          unsound_ids := tr.id :: !unsound_ids;
          soundness :=
            Diagnostic.make ~rule:"oracle-unsound" ~severity:Diagnostic.Error
              ~op_index
              (Printf.sprintf
                 "id %d (addr %#x) recycled while %d live pointer(s) to it \
                  exist"
                 tr.id addr n)
            :: !soundness
        end)
      released;
    let c = completed_sweeps () in
    if c > !last_completed then begin
      let prev = !last_completed in
      last_completed := c;
      Hashtbl.iter
        (fun addr (tr : tracked) ->
          if Registry.in_pointer_count registry ~base:addr = 0 then begin
            tr.clean_sweeps <-
              tr.clean_sweeps + max 0 (c - max prev tr.eligible_from);
            if tr.clean_sweeps >= latency_sweeps && not tr.reported then begin
              tr.reported <- true;
              retained_ids := tr.id :: !retained_ids;
              precision :=
                Diagnostic.make ~rule:"oracle-retention"
                  ~severity:Diagnostic.Warning ~op_index
                  (Printf.sprintf
                     "id %d (addr %#x) still quarantined after %d consecutive \
                      sweeps with no live pointers (conservative retention)"
                     tr.id addr tr.clean_sweeps)
                :: !precision
            end
          end
          else tr.clean_sweeps <- 0)
        quarantined
    end
  in
  Array.iteri
    (fun op_index op ->
      (match op with
      | Trace.Alloc { id; size; site = _ } ->
        let addr = Instance.malloc ms size in
        incr allocs;
        (* The backend zeroes fresh memory; any registry slots recorded
           inside this range belong to a dead incarnation. *)
        Registry.drop_slots_in registry ~base:addr
          ~usable:(Alloc.Jemalloc.usable_size je addr)
          (fun ~slot:_ ~target:_ -> ());
        Hashtbl.replace addr_of id (addr, size);
        Instance.tick ms
      | Trace.Free { id; thread = _ } -> (
        match Hashtbl.find_opt addr_of id with
        | Some (addr, _) ->
          Hashtbl.remove addr_of id;
          incr frees;
          (* Zeroing destroys pointers stored inside the freed object:
             the ground truth must forget them too. *)
          if config.Minesweeper.Config.zeroing then
            Registry.drop_slots_in registry ~base:addr
              ~usable:(Alloc.Jemalloc.usable_size je addr)
              (fun ~slot:_ ~target:_ -> ());
          Instance.free ms addr;
          if Instance.is_quarantined ms addr then
            Hashtbl.replace quarantined addr
              {
                id;
                eligible_from =
                  completed_sweeps ()
                  + (if Instance.sweep_in_progress ms then 1 else 0);
                clean_sweeps = 0;
                reported = false;
              }
        | None -> ())
      | Trace.Store_ptr { loc; target } -> (
        match (resolve_loc loc, Hashtbl.find_opt addr_of target) with
        | Some slot, Some (taddr, _) when writable slot ->
          pointer_write slot taddr
        | _ -> ())
      | Trace.Clear_ptr { loc; target } -> (
        match (resolve_loc loc, Hashtbl.find_opt addr_of target) with
        | Some slot, Some (taddr, _) when writable slot ->
          if Vmem.load mem slot = taddr then pointer_write slot 0
        | _ -> ())
      | Trace.Store_data { loc; value } -> (
        match resolve_loc loc with
        | Some slot when writable slot ->
          let concrete =
            if value >= 0 then value
            else
              match Hashtbl.find_opt addr_of (-value - 1) with
              | Some (addr, _) -> addr
              | None -> 0
          in
          Vmem.store mem slot concrete;
          (* Not a pointer: overwrite any tracked pointer in the slot but
             record nothing — this is exactly the coverage gap between
             ground truth and the conservative sweep. *)
          Registry.forget_slot registry ~slot
        | _ -> ())
      | Trace.Work cycles -> Alloc.Machine.charge machine cycles);
      poll op_index)
    trace.Trace.ops;
  Instance.drain ms;
  poll (Array.length trace.Trace.ops);
  {
    trace_name = trace.Trace.name;
    ops = Array.length trace.Trace.ops;
    allocs = !allocs;
    frees = !frees;
    releases = (stats ()).Minesweeper.Stats.releases;
    sweeps = completed_sweeps ();
    soundness = List.rev !soundness;
    precision = List.rev !precision;
    audit = List.rev !audit_findings;
    unsound_ids = List.sort_uniq compare !unsound_ids;
    retained_ids = List.sort_uniq compare !retained_ids;
  }

let certify_static ~predicted_unsound ~predicted_retained r =
  (* The ids of sorted, duplicate-free [ids] absent from [predicted]: one
     merge walk over both sorted lists. *)
  let missing predicted ids =
    let rec walk predicted ids acc =
      match (predicted, ids) with
      | _, [] -> List.rev acc
      | [], rest -> List.rev_append acc rest
      | p :: ps, id :: rest ->
        if p < id then walk ps ids acc
        else if p = id then walk ps rest acc
        else walk predicted rest (id :: acc)
    in
    walk (List.sort_uniq compare predicted) ids []
  in
  let diag kind id =
    Diagnostic.make ~rule:"static-miss" ~severity:Diagnostic.Error
      (Printf.sprintf
         "dynamic %s finding for id %d was not predicted by the static \
          analyzer (static false negative)"
         kind id)
  in
  List.map (diag "oracle-unsound") (missing predicted_unsound r.unsound_ids)
  @ List.map (diag "oracle-retention") (missing predicted_retained r.retained_ids)
  |> Diagnostic.sort
