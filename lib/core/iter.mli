(** User-facing Triolet iterators: lazily evaluated parallel loops.

    An ['a t] couples a count of outer tasks with two ways to realize
    any outer sub-range: *in place* (zero copy, for sequential and
    shared-memory execution) and *described as a data slice* plus a
    rebuild function (for distributed execution — the sliceable data
    sources of section 3.5).  Transformations compose both paths, so pipelines of
    [map]/[filter]/[concat_map]/[zip] stay fused and partitionable.

    Consumers dispatch on the parallelism hint set by {!par} and
    {!localpar}: sequential loop, work-stealing pool, or the two-level
    cluster runtime. *)

type hint = Sequential | Local | Distributed

type 'a t = {
  hint : hint;
  len : int;  (** number of outer tasks *)
  local : int -> int -> 'a Seq_iter.t;
      (** [local off n]: in-place loop nest for outer range [off, off+n) *)
  width : int;  (** number of payload buffers this iterator contributes *)
  slice_of : int -> int -> Triolet_base.Payload.slice;
      (** [slice_of off n]: the data slice for that range, as ranges
          borrowed from the source's arrays.  Distributed consumers
          encode it straight into the link. *)
  payload_of : int -> int -> Triolet_base.Payload.t;
      (** [payload_of off n] is [Payload.own (slice_of off n)]: the same
          slice in fresh buffers.  Derived by the constructors; never
          set it by hand. *)
  rebuild : Triolet_base.Payload.t -> 'a t;
      (** rebuild an iterator over a shipped slice (always [Local]) *)
}
(** The representation is exposed so substrate libraries (matrices,
    2-D iterators, user data sources) can define their own sliceable
    iterators; application code should not need it. *)

val hint : 'a t -> hint
val length : 'a t -> int

val make :
  len:int ->
  local:(int -> int -> 'a Seq_iter.t) ->
  width:int ->
  slice_of:(int -> int -> Triolet_base.Payload.slice) ->
  rebuild:(Triolet_base.Payload.t -> 'a t) ->
  'a t
(** Custom sliceable source (hint [Sequential]); [payload_of] is derived
    from [slice_of]. *)

val split_payload :
  int -> Triolet_base.Payload.t -> Triolet_base.Payload.t * Triolet_base.Payload.t
(** [split_payload w p]: first [w] buffers and the rest; used by
    composite rebuilds. *)

(** {1 Sources} *)

val of_floatarray : floatarray -> float t
val of_int_array : int array -> int t

val of_array : ?codec:'a Triolet_base.Codec.t -> 'a array -> 'a t
(** Generic boxed array; [codec] is required only when the iterator is
    consumed with distributed parallelism. *)

val of_list : ?codec:'a Triolet_base.Codec.t -> 'a list -> 'a t
(** Materializes the list to an array once, then behaves like
    {!of_array}. *)

val range : int -> int -> int t
(** The integers [lo, hi). *)

val indices : 'a t -> int t
(** Outer indices of an iterator: the paper's [indices(domain(...))]. *)

(** {1 Fused transformations} *)

val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t

val concat_map : ('a -> 'b Seq_iter.t) -> 'a t -> 'b t
(** Nested traversal: [f] gives each element's inner loop; the result is
    irregular but the outer loop stays partitionable. *)

val zip : 'a t -> 'b t -> ('a * 'b) t
(** Truncates to the shorter input; the stronger hint wins. *)

val zip3 : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val zip_with : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val enumerate : 'a t -> (int * 'a) t

(** {1 Parallelism hints} *)

val par : 'a t -> 'a t
(** Use all available parallelism: nodes, then cores within nodes. *)

val localpar : 'a t -> 'a t
(** Shared-memory parallelism on a single node. *)

val sequential : 'a t -> 'a t

(** {1 Consumers}

    All reduction-shaped consumers require [merge] to be associative
    with identity [init]; combination order is unspecified under
    parallel execution. *)

val sum : ?ctx:Exec.t -> float t -> float
val sum_int : ?ctx:Exec.t -> int t -> int
val count : ?ctx:Exec.t -> 'a t -> int

val reduce :
  ?ctx:Exec.t ->
  codec:'a Triolet_base.Codec.t ->
  merge:('a -> 'a -> 'a) ->
  init:'a ->
  'a t ->
  'a
(** [codec] is exercised only under distributed execution (results cross
    node boundaries). *)

val histogram : ?ctx:Exec.t -> bins:int -> int t -> int array
(** Private per-task histograms, added within each node and once more
    across nodes — the paper's distributed histogram strategy. *)

val scatter_add : ?ctx:Exec.t -> size:int -> (int * float) t -> floatarray
(** Floating-point scatter-add over (index, weight) pairs: cutcp's
    "floating-point histogram". *)

val collect_floats : ?ctx:Exec.t -> float t -> floatarray
(** Packs (possibly variable-length) float results contiguously,
    preserving iteration order. *)

val collect_float_pairs :
  ?ctx:Exec.t -> (float * float) t -> floatarray * floatarray
(** Like {!collect_floats} with the pair components packed into separate
    arrays (mri-q's real/imaginary sums). *)

(** {1 Sequential conveniences} *)

val to_seq_iter : 'a t -> 'a Seq_iter.t
val to_list : 'a t -> 'a list
val iter : ('a -> unit) -> 'a t -> unit
val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

(** {1 Extended operations} *)

val filter_map : ('a -> 'b option) -> 'a t -> 'b t
(** Fused map + filter. *)

val sub : off:int -> len:int -> 'a t -> 'a t
(** Outer sub-range as an iterator in its own right; stays sliceable. *)

val min_float : ?ctx:Exec.t -> float t -> float
(** [infinity] on empty input. *)

val max_float : ?ctx:Exec.t -> float t -> float
(** [neg_infinity] on empty input. *)

val mean : ?ctx:Exec.t -> float t -> float
(** Arithmetic mean; [nan] on empty input. *)

val exists : ?ctx:Exec.t -> ('a -> bool) -> 'a t -> bool
val for_all : ?ctx:Exec.t -> ('a -> bool) -> 'a t -> bool
