(** Low-level byte-buffer reader/writer.

    All multi-byte quantities are little-endian.  A writer either grows
    its backing buffer geometrically or, given a flush sink, streams
    through a fixed buffer.  A reader walks a [Bytes.t] with a mutable
    cursor, optionally refilled from a source bounded by the frame
    length, and raises {!Underflow} when data runs out. *)

exception Underflow

(* Block copies between float arrays and little-endian words.  On a
   little-endian host the in-memory layout of a floatarray is already
   the wire format, so one [memcpy] does the job; a big-endian host
   falls back to a per-word loop. *)
module Block = struct
  external memcpy_floats_to_bytes :
    floatarray -> int -> Bytes.t -> int -> int -> unit
    = "triolet_rw_floats_to_bytes"
  [@@noalloc]

  external memcpy_bytes_to_floats :
    Bytes.t -> int -> floatarray -> int -> int -> unit
    = "triolet_rw_bytes_to_floats"
  [@@noalloc]

  let check name alen ai blen bi n =
    if n < 0 || ai < 0 || ai > alen - n || bi < 0 || bi > blen - (8 * n) then
      invalid_arg name

  let portable_floats_to_bytes a ai b bi n =
    check "Rw.Block.floats_to_bytes" (Float.Array.length a) ai (Bytes.length b) bi n;
    for j = 0 to n - 1 do
      Bytes.set_int64_le b (bi + (8 * j))
        (Int64.bits_of_float (Float.Array.unsafe_get a (ai + j)))
    done

  let portable_bytes_to_floats b bi a ai n =
    check "Rw.Block.bytes_to_floats" (Float.Array.length a) ai (Bytes.length b) bi n;
    for j = 0 to n - 1 do
      Float.Array.unsafe_set a (ai + j)
        (Int64.float_of_bits (Bytes.get_int64_le b (bi + (8 * j))))
    done

  let floats_to_bytes a ai b bi n =
    if Sys.big_endian then portable_floats_to_bytes a ai b bi n
    else begin
      check "Rw.Block.floats_to_bytes" (Float.Array.length a) ai (Bytes.length b) bi n;
      memcpy_floats_to_bytes a ai b bi n
    end

  let bytes_to_floats b bi a ai n =
    if Sys.big_endian then portable_bytes_to_floats b bi a ai n
    else begin
      check "Rw.Block.bytes_to_floats" (Float.Array.length a) ai (Bytes.length b) bi n;
      memcpy_bytes_to_floats b bi a ai n
    end
end

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

type writer = {
  mutable buf : Bytes.t;
  mutable len : int;  (* bytes in [buf] not yet flushed *)
  mutable flushed : int;  (* bytes already handed to [flush] *)
  mutable held : int;  (* > 0: grow instead of flushing, see [hold] *)
  home : Bytes.t;  (* the fixed buffer a sink writer returns to *)
  flush : (Bytes.t -> int -> int -> unit) option;
}

let create_writer ?(capacity = 256) ?buf ?flush () =
  let buf = match buf with Some b -> b | None -> Bytes.create (max 1 capacity) in
  { buf; len = 0; flushed = 0; held = 0; home = buf; flush }

let writer_length w = w.flushed + w.len

(* The sink buffered bytes go to now: none while a [hold] is open. *)
let sink w = if w.held = 0 then w.flush else None

let flush_buffered w f =
  if w.len > 0 then begin
    f w.buf 0 w.len;
    w.flushed <- w.flushed + w.len;
    w.len <- 0
  end

(* Room for [n] more contiguous bytes: a streaming writer first flushes
   what it holds; a buffer still too small grows geometrically. *)
let ensure w n =
  if w.len + n > Bytes.length w.buf then begin
    Option.iter (flush_buffered w) (sink w);
    let needed = w.len + n in
    if needed > Bytes.length w.buf then begin
      let cap = ref (Bytes.length w.buf * 2) in
      while !cap < needed do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end
  end

let flush w =
  match sink w with
  | None -> ()
  | Some f ->
      flush_buffered w f;
      w.buf <- w.home

let reset w =
  w.len <- 0;
  w.held <- 0;
  w.buf <- w.home

let hold w f =
  w.held <- w.held + 1;
  Fun.protect ~finally:(fun () -> w.held <- w.held - 1) f

let write_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let write_i64 w v =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len v;
  w.len <- w.len + 8

let write_int w v = write_i64 w (Int64.of_int v)

let write_f64 w v = write_i64 w (Int64.bits_of_float v)

let write_bytes w b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Rw.write_bytes";
  match sink w with
  | Some f when len >= Bytes.length w.buf ->
      (* A block at least a buffer long goes straight to the sink. *)
      flush_buffered w f;
      f b off len;
      w.flushed <- w.flushed + len
  | _ ->
      ensure w len;
      Bytes.blit b off w.buf w.len len;
      w.len <- w.len + len

let write_string w s =
  write_int w (String.length s);
  write_bytes w (Bytes.unsafe_of_string s) 0 (String.length s)

(* Pointer-free float arrays are written as one contiguous block of
   8-byte words, mirroring Triolet's block-copy serialization of unboxed
   arrays (paper, section 3.4).  A streaming writer copies the block
   through its buffer a buffer-full at a time. *)
let write_floatarray w (a : floatarray) off len =
  if off < 0 || len < 0 || off > Float.Array.length a - len then
    invalid_arg "Rw.write_floatarray";
  write_int w len;
  if Option.is_none (sink w) then ensure w (8 * len);
  let i = ref 0 in
  while !i < len do
    ensure w 8;
    let k = min (len - !i) ((Bytes.length w.buf - w.len) / 8) in
    Block.floats_to_bytes a (off + !i) w.buf w.len k;
    w.len <- w.len + (8 * k);
    i := !i + k
  done

let write_u32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.len v;
  w.len <- w.len + 4

(* Offset in [w.buf] of the absolute range [pos, pos + len), which must
   not have been flushed yet. *)
let buffered_range name w ~pos ~len =
  let i = pos - w.flushed in
  if i < 0 || len < 0 || i > w.len - len then invalid_arg name;
  i

(* Back-patch a 32-bit slot reserved earlier (e.g. a checksum computed
   only after the payload it covers has been written). *)
let patch_u32 w ~pos v =
  Bytes.set_int32_le w.buf (buffered_range "Rw.patch_u32" w ~pos ~len:4) v

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum of
   zlib and Ethernet frames.  Table-driven, one table for the library. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Rw.crc32";
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = off to off + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.unsafe_get b i)))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let crc32_range w ~pos ~len =
  crc32 w.buf (buffered_range "Rw.crc32_range" w ~pos ~len) len

let contents w = Bytes.sub w.buf 0 w.len

(* Serialization sized by [Codec.size] fills its buffer exactly, so the
   common case hands the backing buffer over without the final copy. *)
let detach w = if w.len = Bytes.length w.buf then w.buf else contents w

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

type reader = {
  mutable data : Bytes.t;
  mutable pos : int;
  mutable limit : int;  (* end of the valid bytes in [data] *)
  mutable base : int;  (* bytes consumed before [data.[0]] *)
  mutable pending : int;  (* bytes still at the source *)
  source : Bytes.t -> int -> int -> int;
}

let no_source _ _ _ = raise Underflow

let reader_of_bytes b =
  { data = b; pos = 0; limit = Bytes.length b; base = 0; pending = 0; source = no_source }

(* Zero copy: the reader aliases the writer's backing buffer, bounded by
   the bytes written so far.  Writes to [w] after this call may be
   observed by (or invisible to, after a growth reallocation) the
   reader, so treat the writer as frozen while the reader is live. *)
let reader_of_writer w =
  { data = w.buf; pos = 0; limit = w.len; base = 0; pending = 0; source = no_source }

let reader_of_source buf ~len source =
  if Bytes.length buf = 0 || len < 0 then invalid_arg "Rw.reader_of_source";
  { data = buf; pos = 0; limit = 0; base = 0; pending = len; source }

let remaining r = r.limit - r.pos + r.pending

let reader_pos r = r.base + r.pos

(* Pull between 1 and [want] (<= pending) bytes from the source into
   [dst] at [off]. *)
let pull r dst off want =
  let n = r.source dst off want in
  if n < 1 || n > want then invalid_arg "Rw: source returned a bad count";
  r.pending <- r.pending - n;
  n

(* Make the next [n] bytes contiguous in [r.data] from [r.pos]:
   unconsumed bytes move to the front, the rest of the buffer refills
   from the source, and a buffer shorter than [n] grows to hold them
   (the checksummed envelope needs a whole frame in view). *)
let need r n =
  if r.limit - r.pos < n then begin
    if n > remaining r then raise Underflow;
    let have = r.limit - r.pos in
    let data = if n > Bytes.length r.data then Bytes.create n else r.data in
    Bytes.blit r.data r.pos data 0 have;
    r.data <- data;
    r.base <- r.base + r.pos;
    r.pos <- 0;
    r.limit <- have;
    while r.limit < n do
      r.limit <-
        r.limit + pull r r.data r.limit (min r.pending (Bytes.length r.data - r.limit))
    done
  end

(* Checksum of the next [len] unread bytes, without advancing. *)
let crc32_next r len =
  if len < 0 then raise Underflow;
  need r len;
  crc32 r.data r.pos len

let read_u8 r =
  need r 1;
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_u32 r =
  need r 4;
  let v = Bytes.get_int32_le r.data r.pos in
  r.pos <- r.pos + 4;
  v

let read_i64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r = Int64.to_int (read_i64 r)

let read_f64 r = Int64.float_of_bits (read_i64 r)

(* Copy the next [len] bytes (at most [remaining r]) into [dst]; a stretch
   at least a buffer long is read from the source straight into place. *)
let read_into r dst off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    if r.pos = r.limit && !len >= Bytes.length r.data then begin
      let n = pull r dst !off (min !len r.pending) in
      r.base <- r.base + n;
      off := !off + n;
      len := !len - n
    end
    else begin
      need r 1;
      let n = min !len (r.limit - r.pos) in
      Bytes.blit r.data r.pos dst !off n;
      r.pos <- r.pos + n;
      off := !off + n;
      len := !len - n
    end
  done

let read_rest r =
  let b = Bytes.create (remaining r) in
  read_into r b 0 (Bytes.length b);
  b

let skip_rest r =
  while remaining r > 0 do
    need r 1;
    r.pos <- r.limit
  done

(* Length fields are checked against the bytes actually left before
   anything is allocated: [n > remaining / 8] cannot overflow. *)
let read_string r =
  let n = read_int r in
  if n < 0 || n > remaining r then raise Underflow;
  let b = Bytes.create n in
  read_into r b 0 n;
  Bytes.unsafe_to_string b

let read_floatarray r =
  let n = read_int r in
  if n < 0 || n > remaining r / 8 then raise Underflow;
  let a = Float.Array.create n in
  let i = ref 0 in
  while !i < n do
    need r 8;
    let k = min (n - !i) ((r.limit - r.pos) / 8) in
    Block.bytes_to_floats r.data r.pos a !i k;
    r.pos <- r.pos + (8 * k);
    i := !i + k
  done;
  a
