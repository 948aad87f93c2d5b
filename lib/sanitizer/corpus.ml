module Trace = Workloads.Trace

type case = {
  name : string;
  trace : Trace.t;
  expected_rules : string list;
}

let case name expected_rules body =
  {
    name;
    trace = Trace.of_string (Printf.sprintf "# msweep-trace v1 %s\n%s" name body);
    expected_rules = List.sort_uniq compare expected_rules;
  }

let cases =
  [
    case "double-free" [ "double-free" ] "a 0 64\nx 0\nx 0\n";
    case "free-unallocated" [ "free-unallocated" ] "x 42\n";
    case "duplicate-alloc" [ "duplicate-alloc" ] "a 0 64\na 0 32\n";
    (* id 0 is freed before the data store lands in it: the write is a
       use-after-free the replay silently skips. *)
    case "store-after-free" [ "store-after-free" ] "a 0 64\nx 0\nd f 0 0 5\n";
    case "store-unallocated" [ "store-unallocated" ] "p f 9 0 0\n";
    (* the store publishes id 1 after it died *)
    case "dangling-target" [ "dangling-target" ] "a 0 64\na 1 64\nx 1\np r 0 1\n";
    (* root[3] still points at id 0 when it is freed — the paper's
       Section 3.2 precondition for a dangling pointer. *)
    case "unclear-before-free" [ "unclear-before-free" ]
      "a 0 64\np r 3 0\nx 0\n";
    (* a 16-byte object has 2 words; word 99 wraps *)
    case "field-out-of-range" [ "field-out-of-range" ] "a 0 16\nd f 0 99 7\n";
    (* negative indices count back from the end of their window: field
       word -1 of id 1 is its last word (7), root word -1 is 8191 — not
       the word below the object or the window *)
    case "negative-word-index" [ "field-out-of-range" ]
      "a 0 64\na 1 64\np f 1 -1 0\nd r -1 5\nx 1\nx 0\n";
    (* compound: a free-then-write-then-free chain raising three rules *)
    case "uaf-chain"
      [ "double-free"; "store-after-free"; "unclear-before-free" ]
      "a 0 64\na 1 64\np f 1 0 0\nx 0\nd f 0 2 9\nx 0\nx 1\n";
    (* the trace declares 2 threads but frees from thread 5: the
       quarantine aliases the push to buffer 0 *)
    case "free-thread-out-of-range" [ "free-thread-out-of-range" ]
      "# threads 2\na 0 64\nx 0 5\n";
    (* the trace declares 2 allocation sites but allocates at site 5:
       replay and the siteflow analysis alias it to site 0 *)
    case "alloc-site-out-of-range" [ "alloc-site-out-of-range" ]
      "# sites 2\na 0 64 5\nx 0\n";
  ]

(* ------------------------------------------------------------------ *)
(* Protocol mutants                                                    *)

type protocol_mutation =
  | Skip_stw_fence
  | Release_before_mark_done
  | Lose_requeued_entry
  | Reorder_stage_boundaries

type protocol_mutant = {
  mutant_name : string;
  mutation : protocol_mutation;
  expected_race_rules : string list;
}

let protocol_mutants =
  [
    {
      mutant_name = "skip-stw-fence";
      mutation = Skip_stw_fence;
      expected_race_rules = [ "rc-mark-hidden-write" ];
    };
    {
      mutant_name = "release-before-mark-done";
      mutation = Release_before_mark_done;
      expected_race_rules = [ "rc-early-release" ];
    };
    {
      mutant_name = "lose-requeued-entry";
      mutation = Lose_requeued_entry;
      expected_race_rules = [ "rc-lost-entry" ];
    };
    {
      mutant_name = "reorder-stage-boundaries";
      mutation = Reorder_stage_boundaries;
      expected_race_rules = [ "rc-stage-order" ];
    };
  ]

let well_behaved ?(seeds = [ 1; 2 ]) ?(scale = 0.05) () =
  List.concat_map
    (fun profile ->
      let profile =
        if scale = 1.0 then profile else Workloads.Profile.scale_ops scale profile
      in
      List.map (fun seed -> Trace.generate ~seed profile) seeds)
    Workloads.Mimalloc_bench.all
