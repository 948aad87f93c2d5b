let page_size = Vmem.page_size

(* The directory's empty slot: a page with no marks has no bitmap. *)
let unmarked = Bytes.create 0

type t = {
  granule : int;
  bitmap_bytes : int;
  pages : Bytes.t Pagedir.t; (* page index -> mark bitmap *)
}

let create ?(granule = Vmem.granule) () =
  assert (granule >= 8 && page_size mod granule = 0);
  {
    granule;
    bitmap_bytes = page_size / granule / 8;
    pages = Pagedir.create ~absent:unmarked;
  }

let granule t = t.granule

let clear t = Pagedir.clear t.pages

let mark t p =
  assert (Layout.in_heap p);
  let page = p / page_size in
  let bitmap =
    match Pagedir.find t.pages page with
    | b when b == unmarked ->
      let b = Bytes.make t.bitmap_bytes '\000' in
      Pagedir.set t.pages page b;
      b
    | b -> b
  in
  let g = p mod page_size / t.granule in
  let byte = g / 8 and bit = g mod 8 in
  Bytes.unsafe_set bitmap byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bitmap byte) lor (1 lsl bit)))

let bit_set bitmap g =
  Char.code (Bytes.unsafe_get bitmap (g lsr 3)) land (1 lsl (g land 7)) <> 0

let is_marked t p =
  match Pagedir.find t.pages (p / page_size) with
  | b when b == unmarked -> false
  | bitmap -> bit_set bitmap (p mod page_size / t.granule)

(* Any mark among granules [lo, hi] of one page's bitmap: whole bytes
   where the range covers them, single bits at the ragged ends. *)
let rec any_marked bitmap lo hi =
  lo <= hi
  &&
  if lo land 7 = 0 && lo + 7 <= hi then
    Bytes.unsafe_get bitmap (lo lsr 3) <> '\000'
    || any_marked bitmap (lo + 8) hi
  else bit_set bitmap lo || any_marked bitmap (lo + 1) hi

(* Every granule from the one holding [addr] up to the one holding the
   last byte, one bitmap lookup per page the range touches. *)
let range_marked t ~addr ~len =
  assert (len > 0);
  let granule = t.granule in
  let stop = addr + len in
  let rec from p =
    p < stop
    &&
    let page_end = (p / page_size * page_size) + page_size in
    (match Pagedir.find t.pages (p / page_size) with
    | b when b == unmarked -> false
    | bitmap ->
      any_marked bitmap
        (p mod page_size / granule)
        ((min stop page_end - 1) mod page_size / granule))
    || from page_end
  in
  from (addr - (addr mod granule))

let iter_marked t f =
  Pagedir.iter t.pages (fun pg bitmap ->
      Bytes.iteri
        (fun byte c ->
          let x = Char.code c in
          if x <> 0 then
            for bit = 0 to 7 do
              if x land (1 lsl bit) <> 0 then
                f ((pg * page_size) + (((byte * 8) + bit) * t.granule))
            done)
        bitmap)

let marked_granules t =
  Pagedir.fold t.pages
    (fun _ bitmap acc ->
      let count = ref 0 in
      Bytes.iter
        (fun c ->
          let x = Char.code c in
          for bit = 0 to 7 do
            if x land (1 lsl bit) <> 0 then incr count
          done)
        bitmap;
      acc + !count)
    0

let shadow_bytes t = Pagedir.length t.pages * t.bitmap_bytes
