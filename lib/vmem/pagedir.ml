let leaf_bits = 10
let leaf_pages = 1 lsl leaf_bits
let leaf_mask = leaf_pages - 1

(* The directory slot of a leaf that was never allocated (or released). *)
let no_leaf = [||]

type 'a t = {
  absent : 'a;
  mutable dir : 'a array array; (* leaf index -> leaf, or [no_leaf] *)
  mutable counts : int array; (* bound slots per leaf *)
  mutable length : int;
}

let create ~absent = { absent; dir = [||]; counts = [||]; length = 0 }

(* Negative indices shift to a huge leaf index, past any directory. *)
let find d i =
  let li = i lsr leaf_bits in
  if li >= Array.length d.dir then d.absent
  else
    let leaf = Array.unsafe_get d.dir li in
    if leaf == no_leaf then d.absent
    else Array.unsafe_get leaf (i land leaf_mask)

let mem d i = find d i != d.absent

let grow d li =
  let n = max (li + 1) (2 * Array.length d.dir) in
  let dir = Array.make n no_leaf and counts = Array.make n 0 in
  Array.blit d.dir 0 dir 0 (Array.length d.dir);
  Array.blit d.counts 0 counts 0 (Array.length d.counts);
  d.dir <- dir;
  d.counts <- counts

let set d i v =
  assert (i >= 0 && v != d.absent);
  let li = i lsr leaf_bits in
  if li >= Array.length d.dir then grow d li;
  let leaf =
    match d.dir.(li) with
    | leaf when leaf == no_leaf ->
      let leaf = Array.make leaf_pages d.absent in
      d.dir.(li) <- leaf;
      leaf
    | leaf -> leaf
  in
  let j = i land leaf_mask in
  if leaf.(j) == d.absent then begin
    d.counts.(li) <- d.counts.(li) + 1;
    d.length <- d.length + 1
  end;
  leaf.(j) <- v

let remove d i =
  if mem d i then begin
    let li = i lsr leaf_bits in
    d.dir.(li).(i land leaf_mask) <- d.absent;
    d.counts.(li) <- d.counts.(li) - 1;
    d.length <- d.length - 1;
    if d.counts.(li) = 0 then d.dir.(li) <- no_leaf
  end

let clear d =
  Array.iteri
    (fun li leaf ->
      if d.counts.(li) > 0 then begin
        Array.fill leaf 0 leaf_pages d.absent;
        d.counts.(li) <- 0
      end)
    d.dir;
  d.length <- 0

let length d = d.length

let fold d f acc =
  let acc = ref acc in
  Array.iteri
    (fun li leaf ->
      if d.counts.(li) > 0 then
        for j = 0 to leaf_pages - 1 do
          let v = Array.unsafe_get leaf j in
          if v != d.absent then acc := f ((li lsl leaf_bits) lor j) v !acc
        done)
    d.dir;
  !acc

let iter d f = fold d (fun i v () -> f i v) ()
