(** Low-level byte-buffer reader/writer.

    All multi-byte quantities are little-endian.  A writer either grows
    its backing buffer geometrically or, given a flush sink, streams
    through a fixed buffer; a reader walks a byte buffer with a mutable
    cursor, optionally refilled from a source bounded by the frame
    length.  The streaming forms let a socket carry a message of any
    size through one fixed buffer. *)

exception Underflow
(** Raised when a read runs past the end of the data, including a
    length field that claims more bytes than remain. *)

(** Block copies between float arrays and little-endian 8-byte words:
    one [memcpy] on a little-endian host, a per-word loop on a
    big-endian one.  Every bound is checked ([Invalid_argument]). *)
module Block : sig
  val floats_to_bytes : floatarray -> int -> Bytes.t -> int -> int -> unit
  (** [floats_to_bytes a ai b bi n] stores [a.(ai) .. a.(ai+n-1)] as
      [n] words at [b.[bi]]. *)

  val bytes_to_floats : Bytes.t -> int -> floatarray -> int -> int -> unit
  (** [bytes_to_floats b bi a ai n] is the inverse. *)

  val portable_floats_to_bytes :
    floatarray -> int -> Bytes.t -> int -> int -> unit
  (** The per-word loop the big-endian fallback uses, on any host. *)

  val portable_bytes_to_floats :
    Bytes.t -> int -> floatarray -> int -> int -> unit
end

type writer
(** Output buffer: growable, or streaming into a flush sink. *)

type reader
(** Input cursor over bytes in memory or arriving from a source. *)

val create_writer :
  ?capacity:int ->
  ?buf:Bytes.t ->
  ?flush:(Bytes.t -> int -> int -> unit) ->
  unit ->
  writer
(** Without [flush], a buffer that grows as needed.  With [flush], the
    buffer has the fixed [capacity] (default 256): when it fills, its
    bytes go to [flush buf off len], and a block at least a buffer long
    is passed to [flush] directly from the caller's bytes.  [flush] must
    consume the range before returning and must not modify it.  [buf],
    if given, is the buffer to start with (its length replaces
    [capacity]); the writer owns it until it is dropped. *)

val writer_length : writer -> int
(** Bytes written so far, flushed or not. *)

val flush : writer -> unit
(** Hands every buffered byte to the flush sink (a no-op without one, or
    inside {!hold}). *)

val reset : writer -> unit
(** Discards the buffered bytes and any open {!hold}; a streaming writer
    returns to its fixed buffer. *)

val hold : writer -> (unit -> 'a) -> 'a
(** [hold w f] runs [f] with flushing suspended: the buffer grows
    instead, so a slot written inside [f] can still be back-patched
    ({!patch_u32}, {!crc32_range}).  The checksummed codec envelope
    writes through this. *)

val write_u8 : writer -> int -> unit
(** Writes the low 8 bits of the argument. *)

val write_i64 : writer -> int64 -> unit
val write_int : writer -> int -> unit
val write_f64 : writer -> float -> unit

val write_u32 : writer -> int32 -> unit
(** Little-endian 32-bit word (checksum slots). *)

val patch_u32 : writer -> pos:int -> int32 -> unit
(** Overwrites the 4 bytes at absolute position [pos] (already written,
    not yet flushed) with a 32-bit word — back-fills a checksum slot
    reserved before its payload. *)

val write_bytes : writer -> Bytes.t -> int -> int -> unit
(** [write_bytes w b off len] appends [len] raw bytes of [b] from
    [off]. *)

val write_string : writer -> string -> unit
(** Length-prefixed string. *)

val write_floatarray : writer -> floatarray -> int -> int -> unit
(** [write_floatarray w a off len]: length prefix followed by one
    contiguous block of 8-byte words — the block-copy serialization of
    pointer-free arrays (paper, section 3.4). *)

val contents : writer -> Bytes.t
(** Copy of the bytes written and not flushed. *)

val detach : writer -> Bytes.t
(** The bytes written so far, handing over the backing buffer without a
    copy when it is exactly full (the case for exactly-sized writers,
    e.g. those preallocated from [Codec.size]).  The writer must not be
    written to afterwards. *)

val reader_of_bytes : Bytes.t -> reader

val reader_of_writer : writer -> reader
(** Zero-copy reader over the writer's backing buffer, bounded by the
    bytes written so far.  The writer must be treated as frozen while
    the reader is in use: further writes may be observed by the reader
    or lost to it entirely when the buffer grows. *)

val reader_of_source : Bytes.t -> len:int -> (Bytes.t -> int -> int -> int) -> reader
(** [reader_of_source buf ~len source] reads the next [len] bytes of a
    stream through the buffer [buf].  [source dst off n] must store
    between 1 and [n] bytes at [dst.[off]] and return the count (raising
    at the end of the stream); it is never asked for more than [len]
    bytes in total, so the stream's next frame stays unread.  Long runs
    of bytes are read straight into their destination. *)

val remaining : reader -> int
(** Bytes left to read, buffered or still at the source. *)

val reader_pos : reader -> int
(** Bytes consumed so far. *)

val read_rest : reader -> Bytes.t
(** Every remaining byte, as a fresh buffer. *)

val skip_rest : reader -> unit
(** Consumes and discards every remaining byte. *)

(** {1 Integrity}

    CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges; the
    checksummed codec envelope uses these to detect corrupted
    messages. *)

val crc32 : Bytes.t -> int -> int -> int32
(** [crc32 b off len] checksums [len] bytes of [b] from [off]. *)

val crc32_range : writer -> pos:int -> len:int -> int32
(** Checksum over a range already written to the writer and not yet
    flushed. *)

val crc32_next : reader -> int -> int32
(** Checksum of the next [n] unread bytes without advancing the cursor;
    raises {!Underflow} if fewer than [n] remain.  A streaming reader
    grows its buffer to hold all [n]. *)

val read_u8 : reader -> int
val read_u32 : reader -> int32
val read_i64 : reader -> int64
val read_int : reader -> int
val read_f64 : reader -> float
val read_string : reader -> string

val read_floatarray : reader -> floatarray
(** Inverse of {!write_floatarray}; allocates a fresh array, after
    checking that its length fits the remaining bytes. *)
