(** Heterogeneous data payloads shipped between cluster nodes.

    A payload is the serializable image of an iterator slice's data
    source (paper, section 3.5).  Slicing an iterator describes the
    subarrays a remote task needs as a {!slice}: ranges borrowed from
    the sender's arrays, encoded straight from them.  The receiving
    side decodes an owned payload ({!t}) and rebuilds its data from
    it. *)

type buf =
  | Floats of floatarray      (** pointer-free array: block-copied *)
  | Ints of int array
  | Raw of string             (** opaque pre-encoded bytes *)

type t = buf list

type view =
  | Float_range of floatarray * int * int  (** [(a, off, len)] *)
  | Int_range of int array * int * int  (** [(a, off, len)] *)
  | Raw_bytes of string

type slice = view list

let check_range name alen off len =
  if off < 0 || len < 0 || off > alen - len then invalid_arg name

let own (s : slice) : t =
  List.map
    (function
      | Float_range (a, off, len) -> Floats (Float.Array.sub a off len)
      | Int_range (a, off, len) -> Ints (Array.sub a off len)
      | Raw_bytes s -> Raw s)
    s

let borrow (p : t) : slice =
  List.map
    (function
      | Floats a -> Float_range (a, 0, Float.Array.length a)
      | Ints a -> Int_range (a, 0, Array.length a)
      | Raw s -> Raw_bytes s)
    p

(* The one payload encoder.  A view encodes exactly as the buffer
   [own] would copy it to, so a slice and its owned copy produce the
   same bytes; floats go out as one block copy from the sender's
   array. *)
let encode_view w = function
  | Float_range (a, off, len) ->
      check_range "Payload: float range" (Float.Array.length a) off len;
      Rw.write_u8 w 0;
      Rw.write_floatarray w a off len
  | Int_range (a, off, len) ->
      check_range "Payload: int range" (Array.length a) off len;
      Rw.write_u8 w 1;
      Rw.write_int w len;
      for i = off to off + len - 1 do
        Rw.write_int w a.(i)
      done
  | Raw_bytes s ->
      Rw.write_u8 w 2;
      Rw.write_string w s

let view_size = function
  | Float_range (_, _, len) | Int_range (_, _, len) -> 1 + 8 + (8 * len)
  | Raw_bytes s -> 1 + 8 + String.length s

let encode_slice w (s : slice) =
  Rw.write_int w (List.length s);
  List.iter (encode_view w) s

let slice_size (s : slice) =
  List.fold_left (fun acc v -> acc + view_size v) 8 s

let decode_buf r =
  match Rw.read_u8 r with
  | 0 -> Floats (Codec.floatarray.Codec.decode r)
  | 1 -> Ints (Codec.int_array.Codec.decode r)
  | 2 -> Raw (Rw.read_string r)
  | _ -> raise Rw.Underflow

(* Every buffer takes at least one byte, so a count above the bytes
   left is corrupt and rejected before anything is allocated. *)
let decode r : t =
  let n = Rw.read_int r in
  if n < 0 || n > Rw.remaining r then raise Rw.Underflow;
  List.init n (fun _ -> decode_buf r)

let codec : t Codec.t =
  Codec.make
    ~encode:(fun w p -> encode_slice w (borrow p))
    ~decode
    ~size:(fun p -> slice_size (borrow p))

let slice_codec : slice Codec.t =
  Codec.make ~encode:encode_slice
    ~decode:(fun r -> borrow (decode r))
    ~size:slice_size

let size (p : t) = codec.Codec.size p

let empty : t = []

(* Accessors used by rebuild functions: they state the expected layout
   and fail loudly on a mismatch, which would indicate a slicing bug. *)

let floats_exn = function
  | Floats a -> a
  | Ints _ | Raw _ -> invalid_arg "Payload.floats_exn: expected Floats"

let ints_exn = function
  | Ints a -> a
  | Floats _ | Raw _ -> invalid_arg "Payload.ints_exn: expected Ints"

let raw_exn = function
  | Raw s -> s
  | Floats _ | Ints _ -> invalid_arg "Payload.raw_exn: expected Raw"

(** Force a payload through the wire format, producing structurally
    fresh buffers.  Equivalent to a send + receive on a real network. *)
let ship (p : t) : t * int =
  let bytes = Codec.to_bytes codec p in
  (Codec.of_bytes codec bytes, Bytes.length bytes)
