(** The indexer encoding: a domain plus a lookup function (paper,
    section 3.1, generalized over domains in 3.3).

    The only random-access — hence parallelizable — encoding: any
    sub-range can be handed to a different task.  Variable-length
    producers cannot be expressed directly; hybrid iterators nest
    steppers inside indexers instead. *)

(** What the lookup reads: an opaque function, or a float leaf — the
    floatarray and the offset of its element 0.  [slice] and [zip] keep
    float leaves flat, so their getters read the arrays directly. *)
type ('i, 'a) src =
  | Fn : ('i, 'a) src
  | Floats : floatarray * int -> (int, float) src

type ('i, 'a) t = { shape : 'i Shape.t; get : 'i -> 'a; src : ('i, 'a) src }

val make : 'i Shape.t -> ('i -> 'a) -> ('i, 'a) t
val init : 'i Shape.t -> ('i -> 'a) -> ('i, 'a) t
val shape : ('i, 'a) t -> 'i Shape.t
val size : ('i, 'a) t -> int
val get : ('i, 'a) t -> 'i -> 'a

val of_array : 'a array -> (int, 'a) t
val of_floatarray : floatarray -> (int, float) t
(** A float leaf. *)

val range : int -> int -> (int, int) t

val map : ('a -> 'b) -> ('i, 'a) t -> ('i, 'b) t
(** Composes with the lookup: [(n, g)] becomes [(n, f . g)]. *)

val zip_with : ('a -> 'b -> 'c) -> ('i, 'a) t -> ('i, 'b) t -> ('i, 'c) t
(** Random access pairs corresponding iterations without buffering
    ([zipIdx]); the domain is the intersection. *)

val zip : ('i, 'a) t -> ('i, 'b) t -> ('i, 'a * 'b) t
(** Pairs directly; two float leaves pair inside one getter. *)

val enumerate : ('i, 'a) t -> ('i, 'i * 'a) t

val slice : (int, 'a) t -> int -> int -> (int, 'a) t
(** [slice t off len]: 1-D sub-range view with indices rebased to zero —
    the work-distribution half of partitioning (section 3.5).  A slice
    of a float leaf is a float leaf. *)

(** {1 Conversions down Figure 1's control-flexibility order} *)

val to_stepper : (int, 'a) t -> 'a Stepper.t
val to_folder : ('i, 'a) t -> 'a Folder.t
val to_collector : ('i, 'a) t -> 'a Collector.t

val fold : ('b -> 'a -> 'b) -> 'b -> ('i, 'a) t -> 'b
val iter : ('a -> unit) -> ('i, 'a) t -> unit
val to_list : ('i, 'a) t -> 'a list
val to_array : 'a -> ('i, 'a) t -> 'a array
