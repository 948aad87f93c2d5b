(* Sanitizer tests: trace lint vs the seeded corpus, the cross-layer
   invariant audit, and the differential sweep oracle. *)

module Trace = Workloads.Trace
module Lint = Sanitizer.Trace_lint
module Diagnostic = Sanitizer.Diagnostic

let rules_of diags =
  List.sort_uniq compare (List.map (fun d -> d.Diagnostic.rule) diags)

let fresh_machine () =
  let machine = Alloc.Machine.create () in
  List.iter
    (fun (base, size) ->
      Vmem.map machine.Alloc.Machine.mem ~addr:base ~len:size)
    Layout.root_regions;
  machine

(* Perlbench (spec2006) has a nonzero dangling rate: frees with live
   pointers still outstanding — exactly what the oracle must referee. *)
let dangling_trace () =
  let profile =
    List.find
      (fun p -> p.Workloads.Profile.name = "perlbench")
      Workloads.Spec2006.all
  in
  Trace.generate (Workloads.Profile.scale_ops 0.05 profile)

(* --- Trace_lint ---------------------------------------------------- *)

let test_corpus_rules () =
  List.iter
    (fun (c : Sanitizer.Corpus.case) ->
      Alcotest.(check (list string))
        (c.name ^ " raises exactly its expected rules")
        c.expected_rules
        (rules_of (Lint.lint c.trace)))
    Sanitizer.Corpus.cases

let test_corpus_covers_rules () =
  (* Every documented rule is the expectation of at least one case. *)
  let expected =
    List.concat_map
      (fun (c : Sanitizer.Corpus.case) -> c.expected_rules)
      Sanitizer.Corpus.cases
  in
  List.iter
    (fun (rule, _) ->
      Alcotest.(check bool)
        (rule ^ " exercised by the corpus")
        true (List.mem rule expected))
    Lint.rules;
  (* ...and no case expects a rule the lint does not document. *)
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " documented in Trace_lint.rules")
        true
        (List.mem_assoc rule Lint.rules))
    expected

let test_clean_on_stock_traces () =
  List.iter
    (fun trace ->
      Alcotest.(check (list string))
        (trace.Trace.name ^ " is lint-clean")
        []
        (rules_of (Lint.lint trace)))
    (Sanitizer.Corpus.well_behaved ~seeds:[ 1; 2 ] ~scale:0.03 ())

let test_lint_flags_dangling_workload () =
  (* A nonzero dangling rate must surface as unclear-before-free. *)
  let diags = Lint.lint (dangling_trace ()) in
  Alcotest.(check (list string))
    "only the dangling-pointer precondition fires"
    [ "unclear-before-free" ] (rules_of diags);
  Alcotest.(check bool) "warnings, not errors" true (Diagnostic.errors diags = [])

let test_diagnostics_ordered () =
  let diags =
    Lint.lint (Trace.of_string "# msweep-trace v1 o\nx 5\na 0 64\nx 0\nx 0\n")
  in
  let indices = List.map (fun d -> d.Diagnostic.op_index) diags in
  Alcotest.(check (list int)) "op order" [ 0; 3 ] indices

(* --- Invariants ---------------------------------------------------- *)

let churn ms n =
  let live = Queue.create () in
  for i = 1 to n do
    let addr = Minesweeper.Instance.malloc ms (16 + (i * 7 mod 2048)) in
    Queue.add addr live;
    if i mod 3 = 0 && Queue.length live > 8 then
      Minesweeper.Instance.free ms (Queue.take live);
    Minesweeper.Instance.tick ms
  done;
  Queue.iter (fun addr -> Minesweeper.Instance.free ms addr) live

let test_invariants_hold_on_live_stack () =
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  churn ms 4000;
  Alcotest.(check (list string)) "mid-run audit clean" []
    (List.map Diagnostic.to_string (Sanitizer.Invariants.audit ms));
  Minesweeper.Instance.drain ms;
  Alcotest.(check (list string)) "post-drain audit clean" []
    (List.map Diagnostic.to_string (Sanitizer.Invariants.audit ms))

let test_post_sweep_hook_fires () =
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  let fired = ref 0 in
  Minesweeper.Instance.set_post_sweep_hook ms (fun () -> incr fired);
  churn ms 4000;
  Minesweeper.Instance.drain ms;
  let sweeps = (Minesweeper.Instance.stats ms).Minesweeper.Stats.sweeps in
  Alcotest.(check bool) "workload swept" true (sweeps > 0);
  Alcotest.(check int) "hook ran once per completed sweep" sweeps !fired

let test_invariants_detect_corruption () =
  (* Negative control: cook the shadow map behind the instance's back.
     A mark beyond the wilderness can never arise from a real sweep, so
     the audit must flag it. *)
  let ms = Minesweeper.Instance.create (fresh_machine ()) in
  churn ms 500;
  let shadow = Minesweeper.Instance.shadow ms in
  let wilderness = Alloc.Jemalloc.wilderness (Minesweeper.Instance.jemalloc ms) in
  Minesweeper.Shadow.mark shadow wilderness;
  let diags = Sanitizer.Invariants.audit ms in
  Alcotest.(check bool) "shadow corruption detected" true
    (Diagnostic.has_rule "inv-shadow" diags)

(* --- Sweep_oracle -------------------------------------------------- *)

let test_oracle_sound_on_default () =
  let r = Sanitizer.Sweep_oracle.run (dangling_trace ()) in
  Alcotest.(check int) "allocations replayed" 13_000
    r.Sanitizer.Sweep_oracle.allocs;
  Alcotest.(check bool) "sweeps completed" true
    (r.Sanitizer.Sweep_oracle.sweeps > 0);
  Alcotest.(check bool) "quarantine recycled memory" true
    (r.Sanitizer.Sweep_oracle.releases > 0);
  Alcotest.(check (list string)) "no soundness violations" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.soundness);
  Alcotest.(check (list string)) "no invariant findings" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.audit)

let test_oracle_flags_unsound_config () =
  (* Quarantine without sweeping recycles entries on a timer, dangling
     pointers or not — the oracle must catch it red-handed. *)
  let r =
    Sanitizer.Sweep_oracle.run
      ~config:Minesweeper.Config.partial_quarantine (dangling_trace ())
  in
  Alcotest.(check bool) "unsound releases detected" true
    (Diagnostic.has_rule "oracle-unsound" r.Sanitizer.Sweep_oracle.soundness)

let test_oracle_sound_on_clean_trace () =
  let trace =
    match Sanitizer.Corpus.well_behaved ~seeds:[ 3 ] ~scale:0.05 () with
    | t :: _ -> t
    | [] -> Alcotest.fail "no control traces"
  in
  let r = Sanitizer.Sweep_oracle.run trace in
  Alcotest.(check (list string)) "sound" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.soundness);
  Alcotest.(check (list string)) "invariants hold" []
    (List.map Diagnostic.to_string r.Sanitizer.Sweep_oracle.audit)

(* --- One replay engine -------------------------------------------- *)

(* One stack per [Harness.scheme] constructor, MineSweeper under each
   sweep mode. *)
let every_scheme =
  let open Workloads.Harness in
  let c = Minesweeper.Config.default in
  [
    Baseline;
    Mine_sweeper c;
    Mine_sweeper Minesweeper.Config.mostly_concurrent;
    Mine_sweeper Minesweeper.Config.incremental;
    Mark_us;
    Ff_malloc;
    Scudo_baseline;
    Scudo_sweeper c;
    Cr_count;
    P_sweeper;
    Dang_san;
    Dl_baseline;
    Dl_sweeper c;
    Pooled None;
  ]

(* The word lint says the store at [op_index] wraps to ("replay wraps
   to N"). *)
let lint_wrapped_word trace ~op_index =
  let d =
    List.find
      (fun d ->
        d.Diagnostic.op_index = op_index
        && d.Diagnostic.rule = "field-out-of-range")
      (Lint.lint trace)
  in
  let msg = d.Diagnostic.message in
  let key = "wraps to " in
  let rec find i =
    if String.sub msg i (String.length key) = key then i + String.length key
    else find (i + 1)
  in
  let at = find 0 in
  Scanf.sscanf (String.sub msg at (String.length msg - at)) "%d" Fun.id

(* Every corpus case replays without an exception through [Trace.replay]
   under every scheme and through both oracles and the race recorder,
   all counting the same ops; a negative word index lands on the word
   the lint pass names. *)
let test_corpus_replays_everywhere () =
  List.iter
    (fun (c : Sanitizer.Corpus.case) ->
      let ops = Trace.length c.trace in
      let count what n =
        Alcotest.(check int) (c.name ^ ": " ^ what ^ " op count") ops n
      in
      List.iter
        (fun scheme ->
          let name = Workloads.Harness.scheme_name scheme in
          let machine = fresh_machine () in
          let stack =
            Workloads.Harness.build scheme ~threads:c.trace.Trace.threads
              machine
          in
          let bases = ref [] in
          let slots = ref [] in
          let stack =
            {
              stack with
              Workloads.Harness.malloc_site =
                (fun ~site size ->
                  let addr = stack.Workloads.Harness.malloc_site ~site size in
                  bases := !bases @ [ addr ];
                  addr);
              on_pointer_write =
                (fun ~slot ~old_value ~value ->
                  slots := slot :: !slots;
                  stack.Workloads.Harness.on_pointer_write ~slot ~old_value
                    ~value);
            }
          in
          count name (Trace.replay c.trace stack);
          if c.name = "negative-word-index" then begin
            (* op 2 is [p f 1 -1 0], op 3 is [d r -1 5] *)
            let field = lint_wrapped_word c.trace ~op_index:2 in
            let root = lint_wrapped_word c.trace ~op_index:3 in
            Alcotest.(check (list int))
              (name ^ ": pointer stored at the word lint names")
              [ List.nth !bases 1 + (8 * field) ]
              !slots;
            Alcotest.(check int)
              (name ^ ": data stored at the root word lint names")
              5
              (Vmem.load machine.Alloc.Machine.mem
                 (Layout.stack_base + (8 * root)))
          end)
        every_scheme;
      count "sweep oracle" (Sanitizer.Sweep_oracle.run c.trace).ops;
      count "pool oracle" (Sanitizer.Pool_oracle.run c.trace).ops;
      count "race recorder" (Racecheck.Recorder.run c.trace).ops)
    Sanitizer.Corpus.cases

let suite =
  ( "sanitizer",
    [
      Alcotest.test_case "corpus rules exact" `Quick test_corpus_rules;
      Alcotest.test_case "corpus covers every rule" `Quick
        test_corpus_covers_rules;
      Alcotest.test_case "stock traces lint clean" `Quick
        test_clean_on_stock_traces;
      Alcotest.test_case "dangling workload flagged" `Quick
        test_lint_flags_dangling_workload;
      Alcotest.test_case "diagnostics in op order" `Quick
        test_diagnostics_ordered;
      Alcotest.test_case "invariants hold on live stack" `Quick
        test_invariants_hold_on_live_stack;
      Alcotest.test_case "post-sweep hook fires" `Quick
        test_post_sweep_hook_fires;
      Alcotest.test_case "invariants detect corruption" `Quick
        test_invariants_detect_corruption;
      Alcotest.test_case "oracle: default config sound" `Quick
        test_oracle_sound_on_default;
      Alcotest.test_case "oracle: unsound config flagged" `Quick
        test_oracle_flags_unsound_config;
      Alcotest.test_case "oracle: clean trace sound" `Quick
        test_oracle_sound_on_clean_trace;
      Alcotest.test_case "corpus replays under every consumer" `Quick
        test_corpus_replays_everywhere;
    ] )
