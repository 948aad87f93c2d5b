(* Virtual-memory substrate tests: mapping, protection, commit cycle,
   word access, soft-dirty tracking and the sweep iterator. *)

let page = Vmem.page_size
let base = Layout.heap_base

let fresh () =
  let m = Vmem.create () in
  Vmem.map m ~addr:base ~len:(4 * page);
  m

let test_map_and_access () =
  let m = fresh () in
  Alcotest.(check bool) "mapped" true (Vmem.is_mapped m base);
  Alcotest.(check bool) "committed" true (Vmem.is_committed m base);
  Vmem.store m base 0xDEAD;
  Alcotest.(check int) "load returns store" 0xDEAD (Vmem.load m base);
  Alcotest.(check int) "fresh pages zeroed" 0 (Vmem.load m (base + 8))

let test_unmapped_faults () =
  let m = fresh () in
  Alcotest.check_raises "load unmapped"
    (Vmem.Fault (Vmem.Unmapped_access, base + (8 * page)))
    (fun () -> ignore (Vmem.load m (base + (8 * page))));
  Alcotest.check_raises "store unmapped"
    (Vmem.Fault (Vmem.Unmapped_access, base + (8 * page)))
    (fun () -> Vmem.store m (base + (8 * page)) 1)

let test_unmap () =
  let m = fresh () in
  Vmem.unmap m ~addr:base ~len:page;
  Alcotest.(check bool) "unmapped" false (Vmem.is_mapped m base);
  Alcotest.(check bool) "rest still mapped" true (Vmem.is_mapped m (base + page))

let test_protection () =
  let m = fresh () in
  Vmem.protect m ~addr:base ~len:page Vmem.Read_only;
  Alcotest.(check int) "read allowed" 0 (Vmem.load m base);
  Alcotest.check_raises "write denied"
    (Vmem.Fault (Vmem.Protection_violation, base))
    (fun () -> Vmem.store m base 1);
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Alcotest.check_raises "read denied"
    (Vmem.Fault (Vmem.Protection_violation, base))
    (fun () -> ignore (Vmem.load m base));
  Vmem.protect m ~addr:base ~len:page Vmem.Read_write;
  Vmem.store m base 9;
  Alcotest.(check int) "restored" 9 (Vmem.load m base)

let test_decommit_loses_content () =
  let m = fresh () in
  Vmem.store m base 123;
  Vmem.decommit m ~addr:base ~len:page;
  Alcotest.(check bool) "not committed" false (Vmem.is_committed m base);
  (* Demand-commit on access returns zeroed memory. *)
  Alcotest.(check int) "zeroed after decommit" 0 (Vmem.load m base);
  Alcotest.(check bool) "recommitted by access" true (Vmem.is_committed m base)

let test_demand_commit_hook () =
  let m = fresh () in
  let faults = ref 0 in
  Vmem.set_demand_commit_hook m (fun ~pages -> faults := !faults + pages);
  Vmem.decommit m ~addr:base ~len:(2 * page);
  ignore (Vmem.load m base);
  ignore (Vmem.load m (base + page));
  ignore (Vmem.load m base);
  Alcotest.(check int) "two demand commits" 2 !faults

let test_committed_bytes () =
  let m = fresh () in
  Alcotest.(check int) "initial rss" (4 * page) (Vmem.committed_bytes m);
  Vmem.decommit m ~addr:base ~len:page;
  Alcotest.(check int) "after decommit" (3 * page) (Vmem.committed_bytes m);
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "after commit" (4 * page) (Vmem.committed_bytes m);
  Vmem.unmap m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "after unmap" 0 (Vmem.committed_bytes m)

let test_zero_range_partial () =
  let m = fresh () in
  Vmem.store m base 1;
  Vmem.store m (base + 8) 2;
  Vmem.store m (base + 16) 3;
  Vmem.zero_range m ~addr:(base + 8) ~len:8;
  Alcotest.(check int) "before untouched" 1 (Vmem.load m base);
  Alcotest.(check int) "zeroed" 0 (Vmem.load m (base + 8));
  Alcotest.(check int) "after untouched" 3 (Vmem.load m (base + 16))

let test_zero_range_spans_pages () =
  let m = fresh () in
  Vmem.store m (base + page - 8) 7;
  Vmem.store m (base + page) 8;
  Vmem.zero_range m ~addr:(base + page - 8) ~len:16;
  Alcotest.(check int) "end of page zeroed" 0 (Vmem.load m (base + page - 8));
  Alcotest.(check int) "start of next zeroed" 0 (Vmem.load m (base + page))

let test_soft_dirty () =
  let m = fresh () in
  Vmem.clear_soft_dirty m;
  Alcotest.(check int) "clean" 0 (Vmem.soft_dirty_pages m);
  Vmem.store m base 1;
  Vmem.store m (base + 8) 2 (* same page *);
  Vmem.store m (base + (2 * page)) 3;
  Alcotest.(check int) "two dirty pages" 2 (Vmem.soft_dirty_pages m);
  let seen = ref [] in
  Vmem.iter_soft_dirty_pages m (fun p -> seen := p :: !seen);
  Alcotest.(check bool) "first page dirty" true (List.mem base !seen);
  Alcotest.(check bool) "third page dirty" true
    (List.mem (base + (2 * page)) !seen)

let test_dirty_walk_skips_unreadable () =
  (* Regression: pages dirtied and then decommitted or protected
     No_access used to be walked (and billed) by the dirty-page re-scan
     even though a real scan of them would fault. *)
  let m = fresh () in
  Vmem.clear_soft_dirty m;
  Vmem.store m base 1;
  Vmem.store m (base + page) 2;
  Vmem.store m (base + (2 * page)) 3;
  Vmem.decommit m ~addr:base ~len:page;
  Vmem.protect m ~addr:(base + page) ~len:page Vmem.No_access;
  let seen = ref [] in
  Vmem.iter_soft_dirty_pages m (fun p -> seen := p :: !seen);
  Alcotest.(check (list int)) "only the readable dirty page is walked"
    [ base + (2 * page) ]
    !seen;
  (* The raw bit counter still reports all three. *)
  Alcotest.(check int) "raw counter untouched" 3 (Vmem.soft_dirty_pages m)

let test_write_generations () =
  let m = fresh () in
  let g = Vmem.advance_generation m in
  Alcotest.(check int) "generation readable" g (Vmem.generation m);
  (* Pages mapped before the advance predate it. *)
  Alcotest.(check bool) "initial pages below the new generation" true
    (Vmem.write_generation m base < g);
  Vmem.store m base 1;
  Alcotest.(check int) "store stamps the current generation" g
    (Vmem.write_generation m base);
  (* Every content-changing operation stamps: zero, decommit, protect. *)
  let g2 = Vmem.advance_generation m in
  Vmem.zero_range m ~addr:(base + page) ~len:8;
  Vmem.decommit m ~addr:(base + (2 * page)) ~len:page;
  Vmem.protect m ~addr:(base + (3 * page)) ~len:page Vmem.Read_only;
  Alcotest.(check int) "zero_range stamps" g2
    (Vmem.write_generation m (base + page));
  Alcotest.(check int) "decommit stamps" g2
    (Vmem.write_generation m (base + (2 * page)));
  Alcotest.(check int) "protect stamps" g2
    (Vmem.write_generation m (base + (3 * page)));
  (* Re-protecting with the same protection is a no-op. *)
  let g3 = Vmem.advance_generation m in
  Vmem.protect m ~addr:(base + (3 * page)) ~len:page Vmem.Read_only;
  Alcotest.(check int) "idempotent protect does not stamp" g2
    (Vmem.write_generation m (base + (3 * page)));
  ignore g3;
  (* The snapshot's frames expose the stamps. *)
  let gens =
    Array.map
      (fun f -> (Vmem.frame_base f, Vmem.frame_write_gen f))
      (Vmem.snapshot_readable_pages m)
  in
  Alcotest.(check bool) "walk reports the stamped generation" true
    (List.assoc base (Array.to_list gens) = g)

let test_iter_committed_words () =
  let m = fresh () in
  Vmem.store m base 10;
  Vmem.store m (base + 8) 20;
  let seen = ref [] in
  Vmem.iter_committed_words m ~addr:base ~len:16 (fun a w ->
      seen := (a, w) :: !seen);
  Alcotest.(check (list (pair int int)))
    "both words in order"
    [ (base, 10); (base + 8, 20) ]
    (List.rev !seen)

let test_iter_skips_protected_and_decommitted () =
  let m = fresh () in
  Vmem.store m base 1;
  Vmem.store m (base + page) 2;
  Vmem.store m (base + (2 * page)) 3;
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Vmem.decommit m ~addr:(base + page) ~len:page;
  let count = ref 0 and total = ref 0 in
  Vmem.iter_committed_words m ~addr:base ~len:(3 * page) (fun _ w ->
      incr count;
      total := !total + w);
  (* Only the third page is visited: 512 words, sum 3. *)
  Alcotest.(check int) "words visited" (page / 8) !count;
  Alcotest.(check int) "content" 3 !total;
  (* Crucially, the decommitted page was NOT demand-committed. *)
  Alcotest.(check bool) "no demand commit" false
    (Vmem.is_committed m (base + page))

let test_iter_readable_pages () =
  let m = fresh () in
  Vmem.protect m ~addr:base ~len:page Vmem.No_access;
  Vmem.decommit m ~addr:(base + page) ~len:page;
  let pages = ref [] in
  Vmem.iter_readable_pages m (fun p _ -> pages := p :: !pages);
  let sorted = List.sort compare !pages in
  Alcotest.(check (list int)) "two readable pages"
    [ base + (2 * page); base + (3 * page) ]
    sorted;
  Alcotest.(check int) "readable bytes" (2 * page) (Vmem.readable_bytes m)

let test_frame_words () =
  let m = fresh () in
  Vmem.store m base (base + 64);
  Vmem.store m (base + 8) 7;
  Vmem.store m (base + page - 8) (base + 8);
  let bytes = Vmem.frame_bytes (Vmem.snapshot_readable_pages m).(0) in
  Alcotest.(check (array int)) "in-range words in address order"
    [| base + 64; base + 8 |]
    (Vmem.frame_words bytes ~lo:base ~hi:(base + page));
  Alcotest.(check (array int)) "empty range" [||]
    (Vmem.frame_words bytes ~lo:base ~hi:base);
  Alcotest.check_raises "short frame rejected"
    (Invalid_argument "Vmem.frame_words") (fun () ->
      ignore (Vmem.frame_words (Bytes.make 8 '\000') ~lo:0 ~hi:1))

let test_commit_observer () =
  let m = Vmem.create () in
  let events = ref [] in
  Vmem.set_commit_observer m (fun ~addr ~len -> events := (addr, len) :: !events);
  Vmem.map m ~addr:base ~len:(2 * page);
  Alcotest.(check (list (pair int int)))
    "map commits the whole run in one event"
    [ (base, 2 * page) ]
    (List.rev !events);
  (* Recommitting resident pages is a no-op and must stay silent. *)
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "no event for already-committed pages" 1
    (List.length !events);
  Vmem.decommit m ~addr:base ~len:page;
  ignore (Vmem.load m base);
  Alcotest.(check (pair int int)) "demand commit fires page-granular"
    (base, page) (List.hd !events);
  Vmem.clear_commit_observer m;
  Vmem.decommit m ~addr:base ~len:page;
  Vmem.commit m ~addr:base ~len:page;
  Alcotest.(check int) "cleared observer is silent" 2 (List.length !events)

let test_committed_bytes_gauge () =
  (* Satellite: the read-through gauge must round-trip to exactly zero
     after committed pages are decommitted again — the fleet budget
     accounting leans on this invariant. *)
  let m = Vmem.create () in
  let reg = Obs.Registry.create () in
  Vmem.attach_obs m reg;
  let read name =
    match Obs.Registry.read reg name with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing" name
  in
  Alcotest.(check int) "empty space commits nothing" 0
    (read "vmem.committed_bytes");
  Vmem.map m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "map commits eagerly" (4 * page)
    (read "vmem.committed_bytes");
  Vmem.decommit m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "decommit returns the gauge to zero" 0
    (read "vmem.committed_bytes");
  ignore (Vmem.load m base);
  Alcotest.(check int) "demand commit is one page" page
    (read "vmem.committed_bytes");
  Vmem.decommit m ~addr:base ~len:(4 * page);
  Alcotest.(check int) "round-trips to zero again" 0
    (read "vmem.committed_bytes");
  (* A second address space shares the registry under a prefix. *)
  let m2 = Vmem.create () in
  Vmem.attach_obs ~prefix:"t1." m2 reg;
  Vmem.map m2 ~addr:base ~len:page;
  Alcotest.(check int) "prefixed gauge tracks the other space" page
    (read "t1.vmem.committed_bytes");
  Alcotest.(check int) "unprefixed gauge unaffected" 0
    (read "vmem.committed_bytes")

let prop_store_load_roundtrip =
  QCheck.Test.make ~name:"store/load round-trips any word" ~count:300
    QCheck.(pair (int_range 0 511) (int_range 0 max_int))
    (fun (word_index, value) ->
      let m = fresh () in
      let addr = base + (word_index * 8) in
      Vmem.store m addr value;
      Vmem.load m addr = value)

(* Model test: random map/unmap/commit/decommit/protect/store/load
   sequences over the three page runs the simulator uses (globals, stack,
   and a heap run straddling a page-directory leaf boundary), checked
   against a reference [Map] after every sequence. Range operations hit
   unmapped pages too, including single-page holes inside a mapped run:
   the model applies them page by page in ascending order and stops at
   the first unmapped page with the same fault. *)
module IM = Map.Make (Int)

type mpage = { committed : bool; prot : Vmem.prot; words : int IM.t }

let runs =
  [|
    (Layout.globals_base, 16);
    (Layout.stack_base, 80);
    (Layout.heap_base + ((Pagedir.leaf_pages - 20) * page), 48);
  |]

type range_op = Map | Unmap | Commit | Decommit | Protect of Vmem.prot

type op =
  | Range of range_op * int * int * int (* op, run, first page, pages *)
  | Store of int * int * int * int (* run, page, word, value *)
  | Load of int * int * int

let page_addr run pg = fst runs.(run) + (pg * page)

let prot_name = function
  | Vmem.No_access -> "none"
  | Vmem.Read_only -> "ro"
  | Vmem.Read_write -> "rw"

let show_op = function
  | Range (r, run, pg, n) ->
    let name =
      match r with
      | Map -> "map"
      | Unmap -> "unmap"
      | Commit -> "commit"
      | Decommit -> "decommit"
      | Protect p -> "protect-" ^ prot_name p
    in
    Printf.sprintf "%s %#x+%d" name (page_addr run pg) n
  | Store (run, pg, w, v) ->
    Printf.sprintf "store %#x=%d" (page_addr run pg + (w * 8)) v
  | Load (run, pg, w) -> Printf.sprintf "load %#x" (page_addr run pg + (w * 8))

let gen_op =
  let open QCheck.Gen in
  let* run = int_bound 2 in
  let pages = snd runs.(run) in
  let* pg = int_bound (pages - 1) in
  let* w = int_bound 7 in
  frequency
    [
      ( 6,
        let* r =
          frequency
            [
              (3, return Map); (2, return Unmap); (2, return Commit);
              (2, return Decommit);
              ( 2,
                map
                  (fun p -> Protect p)
                  (oneofl Vmem.[ No_access; Read_only; Read_write ]) );
            ]
        in
        let* n = int_range 1 (min 8 (pages - pg)) in
        (* Single-page unmaps punch holes inside mapped runs. *)
        let n = if r = Unmap && n > 2 then 1 else n in
        return (Range (r, run, pg, n)) );
      (4, map (fun v -> Store (run, pg, w, v)) (int_range 1 1_000_000));
      (2, return (Load (run, pg, w)));
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 80) gen_op)

type 'a outcome = Done of 'a | Faulted of Vmem.fault_kind * int

let attempt f = try Done (f ()) with Vmem.Fault (k, a) -> Faulted (k, a)

let fresh_page = { committed = true; prot = Vmem.Read_write; words = IM.empty }

(* Committing or decommitting drops the contents. *)
let backing p committed = { p with committed; words = IM.empty }

(* The model's version of one range op, page by page in ascending order. *)
let model_range model r ~addr ~n =
  let rec go model i =
    if i = n then (model, Done ())
    else
      let a = addr + (i * page) in
      let pi = a / page in
      match (r, IM.find_opt pi model) with
      | Map, _ -> go (IM.add pi fresh_page model) (i + 1)
      | Unmap, _ -> go (IM.remove pi model) (i + 1)
      | (Commit | Decommit | Protect _), None ->
        (model, Faulted (Vmem.Unmapped_access, a))
      | Commit, Some p when not p.committed ->
        go (IM.add pi (backing p true) model) (i + 1)
      | Decommit, Some p -> go (IM.add pi (backing p false) model) (i + 1)
      | Protect prot, Some p -> go (IM.add pi { p with prot } model) (i + 1)
      | Commit, Some _ -> go model (i + 1)
  in
  go model 0

(* Word access: fault on unmapped or forbidden pages, demand-commit a
   decommitted one (zeroed). *)
let model_access model addr ~write =
  let pi = addr / page in
  match IM.find_opt pi model with
  | None -> Error (Vmem.Unmapped_access, addr)
  | Some p -> (
    match p.prot with
    | Vmem.No_access -> Error (Vmem.Protection_violation, addr)
    | Vmem.Read_only when write -> Error (Vmem.Protection_violation, addr)
    | Vmem.Read_only | Vmem.Read_write ->
      Ok (pi, if p.committed then p else backing p true))

let step m model op =
  match op with
  | Range (r, run, pg, n) ->
    let addr = page_addr run pg and len = n * page in
    (* [map] requires the whole range unmapped; skip it otherwise. *)
    let all_unmapped =
      List.for_all
        (fun i -> not (IM.mem ((addr / page) + i) model))
        (List.init n Fun.id)
    in
    if r = Map && not all_unmapped then model
    else begin
      let got =
        attempt (fun () ->
            match r with
            | Map -> Vmem.map m ~addr ~len
            | Unmap -> Vmem.unmap m ~addr ~len
            | Commit -> Vmem.commit m ~addr ~len
            | Decommit -> Vmem.decommit m ~addr ~len
            | Protect p -> Vmem.protect m ~addr ~len p)
      in
      let model, want = model_range model r ~addr ~n in
      if got <> want then
        QCheck.Test.fail_reportf "%s: outcome differs" (show_op op);
      model
    end
  | Store (run, pg, w, v) ->
    let addr = page_addr run pg + (w * 8) in
    let got = attempt (fun () -> Vmem.store m addr v) in
    (match model_access model addr ~write:true with
    | Error (k, a) ->
      if got <> Faulted (k, a) then
        QCheck.Test.fail_reportf "%s: expected a fault" (show_op op);
      model
    | Ok (pi, p) ->
      if got <> Done () then
        QCheck.Test.fail_reportf "%s: unexpected fault" (show_op op);
      IM.add pi { p with words = IM.add (addr mod page) v p.words } model)
  | Load (run, pg, w) ->
    let addr = page_addr run pg + (w * 8) in
    let got = attempt (fun () -> Vmem.load m addr) in
    (match model_access model addr ~write:false with
    | Error (k, a) ->
      if got <> Faulted (k, a) then
        QCheck.Test.fail_reportf "%s: expected a fault" (show_op op);
      model
    | Ok (pi, p) ->
      let want =
        Option.value ~default:0 (IM.find_opt (addr mod page) p.words)
      in
      if got <> Done want then
        QCheck.Test.fail_reportf "%s: loaded a different word" (show_op op);
      IM.add pi p model)

let readable p = p.committed && p.prot <> Vmem.No_access

let check_against_model m model =
  let count f = IM.fold (fun _ p n -> if f p then n + 1 else n) model 0 in
  Array.iteri
    (fun run (_, pages) ->
      for pg = 0 to pages - 1 do
        let addr = page_addr run pg in
        let p = IM.find_opt (addr / page) model in
        if Vmem.is_mapped m addr <> (p <> None) then
          QCheck.Test.fail_reportf "is_mapped %#x" addr;
        let committed = match p with Some p -> p.committed | None -> false in
        if Vmem.is_committed m addr <> committed then
          QCheck.Test.fail_reportf "is_committed %#x" addr;
        match p with
        | None -> ()
        | Some p ->
          if Vmem.protection m addr <> p.prot then
            QCheck.Test.fail_reportf "protection %#x" addr;
          (* Loads from readable pages have no side effects to model. *)
          if readable p then
            for w = 0 to 7 do
              let want =
                Option.value ~default:0 (IM.find_opt (w * 8) p.words)
              in
              if Vmem.load m (addr + (w * 8)) <> want then
                QCheck.Test.fail_reportf "load %#x" (addr + (w * 8))
            done
      done)
    runs;
  if Vmem.committed_bytes m <> count (fun p -> p.committed) * page then
    QCheck.Test.fail_report "committed_bytes";
  if Vmem.mapped_bytes m <> IM.cardinal model * page then
    QCheck.Test.fail_report "mapped_bytes";
  let snapshot =
    Vmem.snapshot_readable_pages m |> Array.to_list
    |> List.map Vmem.frame_base
  in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | [ _ ] | [] -> true
  in
  if not (ascending snapshot) then
    QCheck.Test.fail_report "snapshot not strictly ascending";
  let want =
    IM.bindings model
    |> List.filter_map (fun (pi, p) ->
           if readable p then Some (pi * page) else None)
  in
  if snapshot <> want then QCheck.Test.fail_report "snapshot <> readable set";
  true

let prop_model =
  QCheck.Test.make ~name:"vmem agrees with a reference Map model" ~count:300
    arb_ops (fun ops ->
      let m = Vmem.create () in
      check_against_model m (List.fold_left (step m) IM.empty ops))

(* Summary exactness: random stores, unaligned zero_range across word
   and page edges, and every mapping/backing/protection change, on the
   first pages of the three runs. After every op each readable page's
   known summary must equal a fresh read of its words; stale ones are
   then filled in, as the sweep's merge does, so the next op starts from
   known summaries. Stored values mix heap-range words, small integers
   and heap-range words with stray high bits, which a partial zeroing of
   the high bytes turns into heap-range words. *)
type sop =
  | S_range of range_op * int * int * int
  | S_store of int * int * int * int (* run, page, word, value *)
  | S_zero of int * int * int * int (* run, page, byte offset, length *)

let summary_pages = 4

let show_sop = function
  | S_range (r, run, pg, n) -> show_op (Range (r, run, pg, n))
  | S_store (run, pg, w, v) ->
    Printf.sprintf "store %#x=%#x" (page_addr run pg + (w * 8)) v
  | S_zero (run, pg, off, len) ->
    Printf.sprintf "zero %#x+%d" (page_addr run pg + off) len

let gen_sop =
  let open QCheck.Gen in
  let* run = int_bound 2 in
  let* pg = int_bound (summary_pages - 1) in
  (* Words at both ends of the page, where ranges cross page edges. *)
  let* w = oneof [ int_bound 7; int_range 504 511 ] in
  let heap = map (fun k -> Layout.heap_base + (k * 8)) (int_bound 4096) in
  frequency
    [
      ( 2,
        let* r =
          oneofl
            [ Map; Unmap; Commit; Decommit; Protect Vmem.No_access;
              Protect Vmem.Read_only; Protect Vmem.Read_write ]
        in
        let* n = int_range 1 (summary_pages - pg) in
        return (S_range (r, run, pg, n)) );
      ( 5,
        let* v =
          frequency
            [
              (3, heap);
              (1, int_bound 1000);
              ( 2,
                let* h = heap in
                let* b = int_range 1 0x3f in
                let* sh = oneofl [ 39; 40; 48; 56 ] in
                return (h lor (b lsl sh)) );
            ]
        in
        return (S_store (run, pg, w, v)) );
      ( 4,
        let* jitter = int_bound 7 in
        let* len =
          frequency [ (2, int_range 1 8); (1, int_range 1 (2 * page)) ]
        in
        return (S_zero (run, pg, (w * 8) + jitter, len)) );
    ]

let heap_words_of m base =
  let acc = ref [] in
  Vmem.iter_committed_words m ~addr:base ~len:page (fun _ w ->
      if Layout.in_heap w then acc := w :: !acc);
  List.sort_uniq compare !acc

let check_summaries m op =
  Array.iter
    (fun f ->
      let want = heap_words_of m (Vmem.frame_base f) in
      match Vmem.summary f with
      | Some words ->
        if Array.to_list words <> want then
          QCheck.Test.fail_reportf "after %s: summary of %#x is stale"
            (show_sop op) (Vmem.frame_base f)
      | None ->
        let words = Vmem.scan_summary f in
        if Array.to_list words <> want then
          QCheck.Test.fail_reportf "scan_summary of %#x wrong" (Vmem.frame_base f);
        Vmem.set_summary f words)
    (Vmem.snapshot_readable_pages m)

let apply_sop m = function
  | S_range (r, run, pg, n) -> (
    let addr = page_addr run pg and len = n * page in
    match r with
    | Map ->
      if
        List.for_all
          (fun i -> not (Vmem.is_mapped m (addr + (i * page))))
          (List.init n Fun.id)
      then Vmem.map m ~addr ~len
    | Unmap -> Vmem.unmap m ~addr ~len
    | Commit -> Vmem.commit m ~addr ~len
    | Decommit -> Vmem.decommit m ~addr ~len
    | Protect p -> Vmem.protect m ~addr ~len p)
  | S_store (run, pg, w, v) -> Vmem.store m (page_addr run pg + (w * 8)) v
  | S_zero (run, pg, off, len) ->
    Vmem.zero_range m ~addr:(page_addr run pg + off) ~len

let prop_summary_exact =
  QCheck.Test.make ~name:"page summaries stay exact under every mutator"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sop ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_sop))
    (fun ops ->
      let m = Vmem.create () in
      Array.iter
        (fun (b, _) -> Vmem.map m ~addr:b ~len:(summary_pages * page))
        runs;
      List.iter
        (fun op ->
          (try apply_sop m op with Vmem.Fault _ -> ());
          check_summaries m op)
        ops;
      true)

let suite =
  ( "vmem",
    [
      Alcotest.test_case "map and access" `Quick test_map_and_access;
      Alcotest.test_case "unmapped faults" `Quick test_unmapped_faults;
      Alcotest.test_case "unmap" `Quick test_unmap;
      Alcotest.test_case "protection" `Quick test_protection;
      Alcotest.test_case "decommit loses content" `Quick
        test_decommit_loses_content;
      Alcotest.test_case "demand-commit hook" `Quick test_demand_commit_hook;
      Alcotest.test_case "committed bytes" `Quick test_committed_bytes;
      Alcotest.test_case "zero_range partial" `Quick test_zero_range_partial;
      Alcotest.test_case "zero_range spans pages" `Quick
        test_zero_range_spans_pages;
      Alcotest.test_case "soft dirty" `Quick test_soft_dirty;
      Alcotest.test_case "dirty walk skips unreadable pages" `Quick
        test_dirty_walk_skips_unreadable;
      Alcotest.test_case "write generations" `Quick test_write_generations;
      Alcotest.test_case "iter committed words" `Quick
        test_iter_committed_words;
      Alcotest.test_case "iter skips protected/decommitted" `Quick
        test_iter_skips_protected_and_decommitted;
      Alcotest.test_case "iter readable pages" `Quick test_iter_readable_pages;
      Alcotest.test_case "commit observer" `Quick test_commit_observer;
      Alcotest.test_case "committed-bytes gauge round-trip" `Quick
        test_committed_bytes_gauge;
      QCheck_alcotest.to_alcotest prop_store_load_roundtrip;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_summary_exact;
      Alcotest.test_case "frame words" `Quick test_frame_words;
    ] )
