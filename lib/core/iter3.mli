(** Three-dimensional iterators over [Dim3] domains (paper, section
    3.3).  Distribution uses contiguous z-slabs of x-fastest grids —
    one block copy per slab, plane parallelism within a node; the 3-D
    analogue of {!Iter2}'s row bands. *)

type 'a t

val dims : 'a t -> int * int * int
(** (nx, ny, nz). *)

val hint : 'a t -> Iter.hint

val make :
  nx:int ->
  ny:int ->
  nz:int ->
  local:(int -> int -> int -> int -> int -> 'a) ->
  width:int ->
  slice_of:(int -> int -> Triolet_base.Payload.slice) ->
  rebuild:(Triolet_base.Payload.t -> 'a t) ->
  'a t
(** [local z0 n x y z] is the element at slab-relative (x, y, z) of slab
    [z0, z0+n); [slice_of z0 n] describes the slab's data as ranges
    borrowed from the source. *)

val init : nx:int -> ny:int -> nz:int -> (int -> int -> int -> 'a) -> 'a t
(** From an element function [f x y z].  The slab payload carries only
    the bounds; the function travels as a closure, so — unlike
    {!Iter2.init} — this supports distributed execution. *)

val of_grid : Grid3.t -> float t
(** A slab's slice is one range of the grid's data: a single block
    copy on the wire. *)

val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

val par : 'a t -> 'a t
val localpar : 'a t -> 'a t
val sequential : 'a t -> 'a t

val build : ?ctx:Exec.t -> float t -> Grid3.t
(** Materialize; distributed slabs are shipped back and blitted into
    place. *)

val sum : ?ctx:Exec.t -> float t -> float
