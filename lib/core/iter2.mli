(** Two-dimensional iterators (paper, section 3.3).

    Only flat indexers generalize to multiple dimensions, so a 2-D
    iterator is an [IdxFlat] over a [Dim2] domain plus 2-D *block*
    slicing: a block of the iteration space maps to the data slice its
    tasks touch — how the two-line sgemm ships each node only the rows
    it needs. *)

type 'a t

val row_count : 'a t -> int
val col_count : 'a t -> int
val hint : 'a t -> Iter.hint

val width : 'a t -> int
(** Number of payload buffers a block's slice contributes. *)

val block_slice :
  'a t -> r0:int -> nr:int -> c0:int -> nc:int -> Triolet_base.Payload.slice
(** Plan-reification hook: the data slice block (r0, nr, c0, nc) would
    ship, borrowed from the sources, without running a consumer.  Used
    by the static plan analyzer to audit 2-D decompositions. *)

val payload_slice :
  'a t -> r0:int -> nr:int -> c0:int -> nc:int -> Triolet_base.Payload.t
(** [Payload.own] of {!block_slice}: the same slice in fresh buffers. *)

val make :
  rows:int ->
  cols:int ->
  local:(int -> int -> int -> int -> int -> int -> 'a) ->
  width:int ->
  slice_of:(int -> int -> int -> int -> Triolet_base.Payload.slice) ->
  rebuild:(Triolet_base.Payload.t -> 'a t) ->
  'a t
(** [local r0 nr c0 nc i j] is the element at block-relative (i, j) of
    block (r0, nr, c0, nc); [slice_of] describes the block's data slice
    (ranges of the source's arrays; a non-contiguous block builds an
    owned block and {!Triolet_base.Payload.borrow}s it); [rebuild]
    reconstructs a block-sized iterator from the shipped slice. *)

val init : rows:int -> cols:int -> (int -> int -> 'a) -> 'a t
(** From an element function (the paper's [arrayRange] comprehension).
    No serializable source: sequential and local execution only. *)

val of_matrix : Matrix.t -> float t

val outer_product : 'a Iter.t -> 'b Iter.t -> ('a * 'b) t
(** The paper's [outerproduct]: block (r0, nr, c0, nc) needs elements
    [r0, r0+nr) of [a] and [c0, c0+nc) of [b] — exactly what its
    payload carries. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val par : 'a t -> 'a t
val localpar : 'a t -> 'a t
val sequential : 'a t -> 'a t

val build : ?ctx:Exec.t -> float t -> Matrix.t
(** Materialize: sequential fill, row-band parallelism on the pool, or a
    near-square grid of node blocks, each shipped only its input slice
    and blitted back into place. *)

val rows : Matrix.t -> Matrix.view Iter.t
(** The paper's [rows]: a matrix as a 1-D iterator over row views.  Rows
    are contiguous, so a slice's payload is one block copy. *)

val row_segments :
  ?ctx:Exec.t -> Matrix.t -> Triolet_base.Payload.t array
(** Per-node row-block segments of a matrix for residency
    ({!Skeletons.resident_segments} over {!rows}'s slice payloads):
    one segment per cluster worker, in the shape
    {!matrix_of_segment} decodes. *)

val matrix_of_segment : Triolet_base.Payload.t -> Matrix.t
(** Decode one {!row_segments} segment back to a matrix (child-side). *)

val transpose_iter : Matrix.t -> float t
(** Transposition as a 2-D iterator:
    [[A[x,y] for (y,x) in arrayRange((0,0),(h,w))]]. *)

val sum : ?ctx:Exec.t -> float t -> float
(** Reduce to a scalar, distributed over the same block grid as
    {!build}. *)

val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
(** Pointwise combination over the intersection of extents. *)
