(* Shadow-map tests: the mark algebra the release phase depends on. *)

let base = Layout.heap_base
let granule = Vmem.granule

let test_fresh_is_clean () =
  let s = Minesweeper.Shadow.create () in
  Alcotest.(check bool) "unmarked" false (Minesweeper.Shadow.is_marked s base);
  Alcotest.(check int) "no marks" 0 (Minesweeper.Shadow.marked_granules s)

let test_mark_sets_granule () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s (base + 100);
  Alcotest.(check bool) "marked" true
    (Minesweeper.Shadow.is_marked s (base + 100));
  (* Same granule: 100 and 96 share granule 6. *)
  Alcotest.(check bool) "same granule marked" true
    (Minesweeper.Shadow.is_marked s (base + 96));
  Alcotest.(check bool) "next granule clean" false
    (Minesweeper.Shadow.is_marked s (base + 112));
  Alcotest.(check int) "one mark" 1 (Minesweeper.Shadow.marked_granules s)

let test_mark_idempotent () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s base;
  Minesweeper.Shadow.mark s base;
  Alcotest.(check int) "still one mark" 1 (Minesweeper.Shadow.marked_granules s)

let test_clear () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s base;
  Minesweeper.Shadow.mark s (base + 4096);
  Minesweeper.Shadow.clear s;
  Alcotest.(check int) "cleared" 0 (Minesweeper.Shadow.marked_granules s);
  Alcotest.(check bool) "specific bit cleared" false
    (Minesweeper.Shadow.is_marked s base)

let test_range_marked () =
  let s = Minesweeper.Shadow.create () in
  Minesweeper.Shadow.mark s (base + 64);
  Alcotest.(check bool) "range containing mark" true
    (Minesweeper.Shadow.range_marked s ~addr:base ~len:128);
  Alcotest.(check bool) "range before mark" false
    (Minesweeper.Shadow.range_marked s ~addr:base ~len:64);
  Alcotest.(check bool) "range after mark" false
    (Minesweeper.Shadow.range_marked s ~addr:(base + 80) ~len:64)

let test_range_marked_unaligned () =
  let s = Minesweeper.Shadow.create () in
  (* Mark granule [16,32); a range starting at 30 intersects it. *)
  Minesweeper.Shadow.mark s (base + 16);
  Alcotest.(check bool) "unaligned intersecting range" true
    (Minesweeper.Shadow.range_marked s ~addr:(base + 30) ~len:4);
  Alcotest.(check bool) "unaligned disjoint range" false
    (Minesweeper.Shadow.range_marked s ~addr:(base + 32) ~len:4)

let test_page_boundaries () =
  let s = Minesweeper.Shadow.create () in
  let last_in_page = base + Vmem.page_size - granule in
  Minesweeper.Shadow.mark s last_in_page;
  Alcotest.(check bool) "mark at page end" true
    (Minesweeper.Shadow.is_marked s (base + Vmem.page_size - 1));
  Alcotest.(check bool) "next page clean" false
    (Minesweeper.Shadow.is_marked s (base + Vmem.page_size));
  Alcotest.(check bool) "range spanning pages sees it" true
    (Minesweeper.Shadow.range_marked s
       ~addr:(base + Vmem.page_size - 32)
       ~len:64)

let test_shadow_compactness () =
  (* One bit per granule: a page of marks costs 32 bytes of shadow. *)
  let s = Minesweeper.Shadow.create () in
  for g = 0 to (Vmem.page_size / granule) - 1 do
    Minesweeper.Shadow.mark s (base + (g * granule))
  done;
  Alcotest.(check int) "all page granules marked" 256
    (Minesweeper.Shadow.marked_granules s);
  Alcotest.(check int) "32 shadow bytes per page" 32
    (Minesweeper.Shadow.shadow_bytes s)

let prop_mark_then_query =
  QCheck.Test.make ~name:"any marked address tests positive" ~count:500
    QCheck.(int_range 0 ((1 lsl 24) - 1))
    (fun offset ->
      let s = Minesweeper.Shadow.create () in
      let p = base + offset in
      Minesweeper.Shadow.mark s p;
      Minesweeper.Shadow.is_marked s p
      && Minesweeper.Shadow.range_marked s ~addr:p ~len:1)

let prop_unmarked_ranges_clean =
  QCheck.Test.make ~name:"disjoint ranges stay clean" ~count:500
    QCheck.(pair (int_range 0 10_000) (int_range 1 256))
    (fun (offset, len) ->
      let s = Minesweeper.Shadow.create () in
      let p = base + (offset * granule) in
      Minesweeper.Shadow.mark s p;
      (* A range strictly beyond the marked granule must be clean. *)
      not
        (Minesweeper.Shadow.range_marked s ~addr:(p + granule)
           ~len:(len * granule)))

let prop_range_equivalent_to_pointwise =
  QCheck.Test.make ~name:"range_marked agrees with granule-wise is_marked"
    ~count:300
    QCheck.(
      triple (int_range 0 2000) (int_range 1 512)
        (list_of_size Gen.(int_range 0 5) (int_range 0 2500)))
    (fun (start, len, marks) ->
      let s = Minesweeper.Shadow.create () in
      List.iter (fun g -> Minesweeper.Shadow.mark s (base + (g * granule))) marks;
      let addr = base + (start * granule) in
      let expected =
        let rec check p =
          p < addr + len
          && (Minesweeper.Shadow.is_marked s p || check (p + granule))
        in
        check (addr - (addr mod granule))
      in
      Minesweeper.Shadow.range_marked s ~addr ~len = expected)

(* [range_marked] reads one bitmap per page; the reference tests every
   granule on its own. Ranges start anywhere in a four-page window and
   run up to three pages, so most cross page boundaries; marks cluster
   in the same window. *)
let prop_range_marked_across_pages granule =
  QCheck.Test.make
    ~name:(Printf.sprintf "range_marked = per-granule reference (granule %d)"
             granule)
    ~count:300
    QCheck.(
      triple
        (int_range 0 ((4 * Vmem.page_size) - 1))
        (int_range 1 (3 * Vmem.page_size))
        (list_of_size
           Gen.(int_range 0 12)
           (int_range 0 ((5 * Vmem.page_size) - 1))))
    (fun (start, len, marks) ->
      let s = Minesweeper.Shadow.create ~granule () in
      List.iter (fun off -> Minesweeper.Shadow.mark s (base + off)) marks;
      let addr = base + start in
      let rec reference p =
        p < addr + len
        && (Minesweeper.Shadow.is_marked s p || reference (p + granule))
      in
      Minesweeper.Shadow.range_marked s ~addr ~len
      = reference (addr - (addr mod granule)))

let prop_clear_resets =
  QCheck.Test.make ~name:"clear leaves no marks, then marks afresh" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (int_range 0 ((1 lsl 24) - 1)))
        (int_range 0 ((1 lsl 24) - 1)))
    (fun (marks, again) ->
      let s = Minesweeper.Shadow.create () in
      List.iter (fun off -> Minesweeper.Shadow.mark s (base + off)) marks;
      Minesweeper.Shadow.clear s;
      let cleared =
        Minesweeper.Shadow.marked_granules s = 0
        && Minesweeper.Shadow.shadow_bytes s = 0
        && List.for_all
             (fun off -> not (Minesweeper.Shadow.is_marked s (base + off)))
             marks
      in
      (* The reused leaves must behave like fresh ones. *)
      Minesweeper.Shadow.mark s (base + again);
      cleared
      && Minesweeper.Shadow.marked_granules s = 1
      && Minesweeper.Shadow.shadow_bytes s = 32
      && Minesweeper.Shadow.is_marked s (base + again))

let suite =
  ( "minesweeper.shadow",
    [
      Alcotest.test_case "fresh is clean" `Quick test_fresh_is_clean;
      Alcotest.test_case "mark sets granule" `Quick test_mark_sets_granule;
      Alcotest.test_case "mark idempotent" `Quick test_mark_idempotent;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "range_marked" `Quick test_range_marked;
      Alcotest.test_case "range_marked unaligned" `Quick
        test_range_marked_unaligned;
      Alcotest.test_case "page boundaries" `Quick test_page_boundaries;
      Alcotest.test_case "shadow compactness" `Quick test_shadow_compactness;
      QCheck_alcotest.to_alcotest prop_mark_then_query;
      QCheck_alcotest.to_alcotest prop_unmarked_ranges_clean;
      QCheck_alcotest.to_alcotest prop_range_equivalent_to_pointwise;
      QCheck_alcotest.to_alcotest (prop_range_marked_across_pages 16);
      QCheck_alcotest.to_alcotest (prop_range_marked_across_pages 32);
      QCheck_alcotest.to_alcotest (prop_range_marked_across_pages 64);
      QCheck_alcotest.to_alcotest prop_clear_resets;
    ] )
