(** Page directory: a sparse map from page index to a value, laid out as
    a two-level array.

    Leaves are fixed arrays of {!leaf_pages} slots; the directory above
    them is an array of leaves that grows on demand to cover the highest
    leaf ever set, so memory follows the mapped leaves, never the size
    of the address space. The traffic this serves is a few dense runs of
    pages (globals, stack, and a heap growing from [Layout.heap_base]),
    where a lookup is two array loads and iteration walks the runs in
    ascending page order.

    Unset slots hold the directory's [absent] value, compared physically
    ([==]): it is what {!find} returns for a page that is not there and
    must never be stored. *)

type 'a t

val leaf_pages : int
(** Slots per leaf (1024: 4 MiB of 4 KiB pages). *)

val create : absent:'a -> 'a t

val find : 'a t -> int -> 'a
(** [find d i] is the value at page index [i], or [absent]. Any [int] is
    accepted: negative indices and indices past the directory are
    absent. *)

val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit
(** [set d i v] binds page index [i >= 0] to [v], which must not be
    [absent], allocating its leaf if needed. *)

val remove : 'a t -> int -> unit
(** Unbind a page index (a no-op if unset). A leaf left empty by
    [remove] is released. *)

val clear : 'a t -> unit
(** Unbind every page, keeping the leaves for reuse: a table refilled
    over the same pages (the shadow map, once per sweep) allocates
    nothing the second time. *)

val length : 'a t -> int
(** Number of bound pages. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visit every bound page in ascending index order. [f] must not bind
    or unbind pages. *)

val fold : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
(** {!iter} as a fold, ascending. *)
