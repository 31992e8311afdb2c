(** Composable serialization codecs.

    Triolet's compiler generates serialization code from algebraic data
    type definitions (paper, section 3.4); this module provides the
    equivalent as combinators.  A ['a t] couples an encoder, a decoder,
    and an exact wire-size function used for byte accounting by the
    cluster runtime and the simulator. *)

type 'a t = {
  encode : Rw.writer -> 'a -> unit;
  decode : Rw.reader -> 'a;
  size : 'a -> int;  (** exact encoded size, without encoding *)
}

val make :
  encode:(Rw.writer -> 'a -> unit) ->
  decode:(Rw.reader -> 'a) ->
  size:('a -> int) ->
  'a t

(** {1 Primitive codecs} *)

val unit : unit t
val int : int t
val float : float t
val bool : bool t
val string : string t

val floatarray : floatarray t
(** Flat block of 8-byte words: the compact wire format of pointer-free
    arrays. *)

val int_array : int array t

(** {1 Combinators} *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val option : 'a t -> 'a option t

val array : 'a t -> 'a array t
(** Length header plus per-element encoding (boxed representation —
    contrast with {!floatarray}).  Each element must encode to at least
    one byte: the decoder rejects a count larger than the bytes left
    ([Rw.Underflow]) before allocating. *)

val list : 'a t -> 'a list t
(** As {!array}, for lists. *)

val map : inj:('a -> 'b) -> proj:('b -> 'a) -> 'a t -> 'b t
(** Codec for an isomorphic type. *)

(** {1 Whole-value helpers} *)

exception Trailing_bytes of int
(** Raised by {!of_bytes} (and the {!checksummed} envelope) when a
    decode leaves the given number of bytes unconsumed: the buffer was
    not produced by this codec. *)

(** A message ready to send: its exact encoded size, and a function
    writing exactly that many bytes.  A transport writes the size into
    its frame header and then streams [encode] through a fixed buffer,
    so no message-sized buffer is built on the way. *)
type msg = { size : int; encode : Rw.writer -> unit }

exception Size_mismatch of { declared : int; written : int }
(** An encoder wrote a different number of bytes than its message
    declared. *)

val msg : 'a t -> 'a -> msg
(** [msg c v] encodes [v] with [c] when written; [size] is [c.size v]. *)

val bytes_msg : Bytes.t -> msg
(** Already-encoded bytes, written as they are. *)

val materialize : msg -> Bytes.t
(** The message's bytes, in a buffer of exactly [size] bytes.  Raises
    {!Size_mismatch} if the encoder disagrees with [size]. *)

val to_bytes : 'a t -> 'a -> Bytes.t
(** [materialize (msg c v)]. *)

val of_reader : 'a t -> Rw.reader -> 'a
(** Decodes a value that must use up the reader exactly; raises
    {!Trailing_bytes} if the codec stops short of the end instead of
    silently ignoring the excess. *)

val of_bytes : 'a t -> Bytes.t -> 'a
(** [of_reader] over the whole buffer. *)

val roundtrip : 'a t -> 'a -> 'a
(** [roundtrip c v] encodes then decodes [v], producing a structurally
    fresh value; used by tests and to force genuine copies across node
    boundaries. *)

exception Checksum_mismatch of { expected : int32; got : int32 }

val checksummed : 'a t -> 'a t
(** Integrity envelope: payload length plus a CRC-32 over the encoded
    payload, verified on decode *before* the inner decoder runs.  The
    CRC precedes the payload, so encoding {!Rw.hold}s a streaming
    writer and decoding brings the whole payload into the reader's
    buffer.
    Corrupted bytes raise {!Checksum_mismatch} (or {!Trailing_bytes} /
    [Rw.Underflow] for damaged framing) instead of decoding garbage;
    the fault-tolerant cluster path wraps every message in this. *)

exception Version_mismatch of { expected : int; got : int }

val versioned : version:int -> 'a t -> 'a t
(** Envelope with a magic byte and a version tag, validated on decode:
    stale or foreign byte streams fail loudly ([Rw.Underflow] on bad
    magic, {!Version_mismatch} on a version change) instead of decoding
    garbage. *)
