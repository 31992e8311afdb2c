(** Heterogeneous data payloads shipped between cluster nodes.

    A payload is the serializable image of an iterator slice's data
    source (paper, section 3.5): the list of buffers a remote task
    needs, extracted by slicing and rebuilt on the receiving side.

    The sender describes a slice as {e borrowed} ranges of its own
    arrays ({!slice}) and encodes them without copying; the receiver
    decodes {e owned} buffers ({!t}).  Both share one wire format and
    one encoder. *)

type buf =
  | Floats of floatarray  (** pointer-free array: block-copied *)
  | Ints of int array
  | Raw of string  (** opaque pre-encoded bytes *)

type t = buf list
(** An owned payload: its buffers belong to it alone. *)

(** A range of an array the payload borrows: it stays the sender's,
    and must not be mutated until the slice has been encoded. *)
type view =
  | Float_range of floatarray * int * int
      (** [(a, off, len)]: [a.(off) .. a.(off+len-1)] *)
  | Int_range of int array * int * int
  | Raw_bytes of string

type slice = view list
(** A borrowed payload: encodes to the same bytes as [own] of it. *)

val own : slice -> t
(** Copies every range into a fresh buffer. *)

val borrow : t -> slice
(** Views covering each buffer whole, without a copy. *)

val codec : t Codec.t
(** Encodes through the slice encoder ([borrow]), so
    [to_bytes codec (own s)] equals [to_bytes slice_codec s]. *)

val slice_codec : slice Codec.t
(** The payload encoder; decoding yields views over freshly decoded
    buffers.  Raises [Invalid_argument] on a range outside its array,
    before writing any byte of that range. *)

val size : t -> int
(** Exact serialized size in bytes. *)

val empty : t

(** {1 Layout accessors}

    Rebuild functions state the layout they expect; a mismatch raises
    [Invalid_argument] and indicates a slicing bug. *)

val floats_exn : buf -> floatarray
val ints_exn : buf -> int array
val raw_exn : buf -> string

val ship : t -> t * int
(** [ship p] forces [p] through the wire format and returns the decoded
    copy together with its size in bytes — equivalent to a send plus
    receive on a real network, including the fresh-buffer guarantee. *)
