type 'p chunk = { cid : int; pages : 'p array; chunk_bytes : int }

let default_chunk_pages = 32

let shard ?(chunk_pages = default_chunk_pages) ~page_bytes pages =
  assert (chunk_pages > 0);
  let n = Array.length pages in
  let chunks = (n + chunk_pages - 1) / chunk_pages in
  Array.init chunks (fun cid ->
      let first = cid * chunk_pages in
      let len = min chunk_pages (n - first) in
      { cid; pages = Array.sub pages first len; chunk_bytes = len * page_bytes })

type stats = {
  domains : int;
  chunks : int;
  total_bytes : int;
  stolen : int;
  seeded_bytes : int array;
}

let imbalance s =
  if Array.length s.seeded_bytes = 0 then 0
  else
    Array.fold_left max min_int s.seeded_bytes
    - Array.fold_left min max_int s.seeded_bytes

let map_chunks ~domains ~scan chunks =
  let n = Array.length chunks in
  let d = max 1 (min domains (max 1 n)) in
  let seeded_bytes = Array.make d 0 in
  Array.iter
    (fun c ->
      let owner = c.cid mod d in
      seeded_bytes.(owner) <- seeded_bytes.(owner) + c.chunk_bytes)
    chunks;
  let total_bytes = Array.fold_left (fun acc c -> acc + c.chunk_bytes) 0 chunks in
  let results = Array.make n None in
  let stolen = Atomic.make 0 in
  if d = 1 then
    Array.iter (fun c -> results.(c.cid) <- Some (scan c)) chunks
  else begin
    let deques = Array.init d (fun _ -> Deque.create ()) in
    (* Static round-robin seeding: chunk [i] starts on domain [i mod d].
       Deterministic, so the imbalance gauge, per-domain spans and cost
       projection don't depend on the host scheduler. *)
    Array.iter (fun c -> Deque.push deques.(c.cid mod d) c) chunks;
    let worker me =
      (* Results land in disjoint slots indexed by chunk id; the joins
         below publish them to the coordinator. No other shared state
         is written from here. *)
      let run c = results.(c.cid) <- Some (scan c) in
      let steal_one () =
        let rec go k =
          if k >= d then None
          else
            match Deque.steal deques.((me + k) mod d) with
            | Some c ->
              ignore (Atomic.fetch_and_add stolen 1);
              Some c
            | None -> go (k + 1)
        in
        go 1
      in
      let rec loop () =
        match Deque.pop deques.(me) with
        | Some c -> run c; loop ()
        | None -> (
          match steal_one () with
          | Some c -> run c; loop ()
          | None -> ())
      in
      loop ()
    in
    (* All chunks are seeded before any worker starts, so a worker may
       retire once every deque reads empty: nothing is pushed later. *)
    let pool = Array.init (d - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    Array.iter Domain.join pool
  end;
  let per_chunk =
    Array.map (function Some r -> r | None -> assert false) results
  in
  ( per_chunk,
    { domains = d; chunks = n; total_bytes; stolen = Atomic.get stolen;
      seeded_bytes } )

(* Modeled finish time of a batched stage pipeline: stage [s] of batch
   [k] may start only when stage [s-1] of the same batch and stage [s]
   of the previous batch have both finished. Each stage's total cycles
   are split across batches with the remainder spread deterministically
   (integer prefix shares), so the projection is a pure function of the
   stage totals. One domain (or one batch) degenerates to the sequential
   sum — there is nobody to overlap with. *)
let pipeline_cycles ~domains ~batches stage_cycles =
  let stages = Array.length stage_cycles in
  let total = Array.fold_left ( + ) 0 stage_cycles in
  if stages = 0 then 0
  else if domains <= 1 || batches <= 1 then total
  else begin
    let b = batches in
    let share s k =
      let c = stage_cycles.(s) in
      (c * (k + 1) / b) - (c * k / b)
    in
    let finish = Array.make stages 0 in
    for k = 0 to b - 1 do
      for s = 0 to stages - 1 do
        let prev_stage = if s = 0 then 0 else finish.(s - 1) in
        finish.(s) <- max prev_stage finish.(s) + share s k
      done
    done;
    min total finish.(stages - 1)
  end

let critical_path_cycles ~single_per_byte ~bandwidth_per_byte stats =
  let slowest =
    Array.fold_left
      (fun acc b -> max acc (Sim.Cost.bytes_cost single_per_byte b))
      0 stats.seeded_bytes
  in
  max slowest (Sim.Cost.bytes_cost bandwidth_per_byte stats.total_bytes)

module Deque = Deque
