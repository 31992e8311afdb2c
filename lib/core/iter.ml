(** User-facing Triolet iterators.

    An ['a t] represents a lazily evaluated parallel loop: a count of
    outer tasks, a way to build the loop nest for any outer sub-range
    *in place* (zero copy, used for sequential and shared-memory
    execution), and a way to *extract and rebuild* the data slice any
    sub-range needs (used for distributed execution — paper, section
    3.5).  Transformations compose both paths, so arbitrary pipelines
    of [map]/[filter]/[concat_map]/[zip] stay fused and partitionable.

    Consumers ([sum], [reduce], [histogram], [scatter_add],
    [collect_floats], ...) inspect the iterator's parallelism hint, set
    by [par] and [localpar], and dispatch to sequential loops, the
    work-stealing pool, or the two-level cluster runtime. *)

module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec

type hint = Sequential | Local | Distributed

type 'a t = {
  hint : hint;
  len : int;  (** number of outer tasks *)
  local : int -> int -> 'a Seq_iter.t;
      (** [local off n] : in-place loop nest for outer range [off, off+n) *)
  width : int;  (** number of payload buffers this iterator contributes *)
  slice_of : int -> int -> Payload.slice;
      (** [slice_of off n] : the data slice for that range, borrowed
          from the source's arrays *)
  payload_of : int -> int -> Payload.t;
      (** [slice_of], copied: always [Payload.own (slice_of off n)] *)
  rebuild : Payload.t -> 'a t;
      (** rebuild an iterator over a shipped slice (always [Local]) *)
}

let hint t = t.hint
let length t = t.len

(* Every iterator with a new [slice_of] is built here: the one place
   [payload_of] is derived. *)
let sliced ~hint ~len ~local ~width ~slice_of ~rebuild =
  {
    hint;
    len;
    local;
    width;
    slice_of;
    payload_of = (fun off n -> Payload.own (slice_of off n));
    rebuild;
  }

(** Escape hatch for substrate libraries ([Matrix.rows], [Iter2]) that
    define their own sliceable sources. *)
let make ~len ~local ~width ~slice_of ~rebuild =
  sliced ~hint:Sequential ~len ~local ~width ~slice_of ~rebuild

let no_payload name _ _ =
  invalid_arg
    (Printf.sprintf
       "Iter: %s has no serializable source; distributed execution needs one"
       name)

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

let rec of_floatarray (a : floatarray) =
  make ~len:(Float.Array.length a)
    ~local:(fun off n ->
      Seq_iter.of_indexer (Indexer.slice (Indexer.of_floatarray a) off n))
    ~width:1
    ~slice_of:(fun off n -> [ Payload.Float_range (a, off, n) ])
    ~rebuild:(fun p ->
      match p with
      | [ b ] -> { (of_floatarray (Payload.floats_exn b)) with hint = Local }
      | _ -> invalid_arg "Iter.of_floatarray: bad payload")

let rec of_int_array (a : int array) =
  make ~len:(Array.length a)
    ~local:(fun off n ->
      Seq_iter.of_indexer (Indexer.slice (Indexer.of_array a) off n))
    ~width:1
    ~slice_of:(fun off n -> [ Payload.Int_range (a, off, n) ])
    ~rebuild:(fun p ->
      match p with
      | [ b ] -> { (of_int_array (Payload.ints_exn b)) with hint = Local }
      | _ -> invalid_arg "Iter.of_int_array: bad payload")

(** Generic boxed array.  A [codec] is required only if the iterator is
    consumed with distributed parallelism. *)
let of_array ?codec (a : 'a array) =
  let rec build (a : 'a array) =
    make ~len:(Array.length a)
      ~local:(fun off n ->
        Seq_iter.of_indexer (Indexer.slice (Indexer.of_array a) off n))
      ~width:1
      ~slice_of:(fun off n ->
        match codec with
        | None -> no_payload "of_array (no codec)" off n
        | Some c ->
            [
              Payload.Raw_bytes
                (Bytes.unsafe_to_string
                   (Codec.to_bytes (Codec.array c) (Array.sub a off n)));
            ])
      ~rebuild:(fun p ->
        match (p, codec) with
        | [ b ], Some c ->
            let sub =
              Codec.of_bytes (Codec.array c)
                (Bytes.unsafe_of_string (Payload.raw_exn b))
            in
            { (build sub) with hint = Local }
        | _ -> invalid_arg "Iter.of_array: bad payload")
  in
  build a

(** Boxed list source: materialized to an array once (lists have no
    random access), then behaves like {!of_array}. *)
let of_list ?codec l = of_array ?codec (Array.of_list l)

(** Iterator over the integers [lo, hi). *)
let rec range lo hi =
  if hi < lo then invalid_arg "Iter.range";
  make ~len:(hi - lo)
    ~local:(fun off n -> Seq_iter.range (lo + off) (lo + off + n))
    ~width:1
    ~slice_of:(fun off n ->
      [ Payload.Int_range ([| lo + off; lo + off + n |], 0, 2) ])
    ~rebuild:(fun p ->
      match p with
      | [ b ] ->
          let bounds = Payload.ints_exn b in
          { (range bounds.(0) bounds.(1)) with hint = Local }
      | _ -> invalid_arg "Iter.range: bad payload")

(** [indices it] are the outer indices of [it]: the paper's
    [indices(domain(rand))]. *)
let indices t = range 0 t.len

(* ------------------------------------------------------------------ *)
(* Transformations (fused: nothing is materialized)                    *)

let rec map f t =
  {
    t with
    local = (fun off n -> Seq_iter.map f (t.local off n));
    rebuild = (fun p -> map f (t.rebuild p));
  }

let rec filter p t =
  {
    t with
    local = (fun off n -> Seq_iter.filter p (t.local off n));
    rebuild = (fun pl -> filter p (t.rebuild pl));
  }

(** Nested traversal: [f] produces the inner loop for each element as a
    {!Seq_iter.t}; the result is irregular but the outer loop stays
    partitionable. *)
let rec concat_map f t =
  {
    t with
    local = (fun off n -> Seq_iter.concat_map f (t.local off n));
    rebuild = (fun p -> concat_map f (t.rebuild p));
  }

let split_payload w p =
  let rec take k l =
    if k = 0 then ([], l)
    else
      match l with
      | [] -> invalid_arg "Iter: payload too short"
      | x :: rest ->
          let a, b = take (k - 1) rest in
          (x :: a, b)
  in
  take w p

let join_hint a b =
  match (a, b) with
  | Distributed, _ | _, Distributed -> Distributed
  | Local, _ | _, Local -> Local
  | Sequential, Sequential -> Sequential

let rec zip a b =
  sliced ~hint:(join_hint a.hint b.hint) ~len:(min a.len b.len)
    ~local:(fun off n -> Seq_iter.zip (a.local off n) (b.local off n))
    ~width:(a.width + b.width)
    ~slice_of:(fun off n -> a.slice_of off n @ b.slice_of off n)
    ~rebuild:(fun p ->
      let pa, pb = split_payload a.width p in
      zip (a.rebuild pa) (b.rebuild pb))

(** Like [zip] but applies [f] directly to the paired elements, so no
    intermediate tuple is allocated per element on the hot path. *)
let rec zip_with f a b =
  sliced ~hint:(join_hint a.hint b.hint) ~len:(min a.len b.len)
    ~local:(fun off n -> Seq_iter.zip_with f (a.local off n) (b.local off n))
    ~width:(a.width + b.width)
    ~slice_of:(fun off n -> a.slice_of off n @ b.slice_of off n)
    ~rebuild:(fun p ->
      let pa, pb = split_payload a.width p in
      zip_with f (a.rebuild pa) (b.rebuild pb))

let zip3 a b c = zip_with (fun x (y, z) -> (x, y, z)) a (zip b c)

let enumerate t = zip (indices t) t

(* ------------------------------------------------------------------ *)
(* Parallelism hints                                                   *)

(** Use all available parallelism: distribute across nodes, then across
    cores within each node. *)
let par t = { t with hint = Distributed }

(** Shared-memory parallelism on a single node only. *)
let localpar t = { t with hint = Local }

let sequential t = { t with hint = Sequential }

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)

(* Generic reduction skeleton: dispatch on the hint.  The execution
   context is resolved once here and passed explicitly below; the
   [node_work] closure captures it by value, so it crosses a [fork]
   intact under the process backend. *)
let run_reduce ?ctx ~result_codec ~of_chunk ~merge ~init t =
  let ctx = Exec.resolve ctx in
  match t.hint with
  | Sequential -> if t.len = 0 then init else merge init (of_chunk (t.local 0 t.len))
  | Local ->
      Skeletons.local_reduce ~ctx ~len:t.len
        ~chunk:(fun off n -> of_chunk (t.local off n))
        ~merge ~init ()
  | Distributed ->
      Skeletons.distributed_reduce ~ctx ~len:t.len ~slice_of:t.slice_of
        ~node_work:(fun ~pool payload ->
          let sub = t.rebuild payload in
          Skeletons.local_reduce_with ~ctx pool ~len:sub.len
            ~chunk:(fun off n -> of_chunk (sub.local off n))
            ~merge ~init)
        ~result_codec ~merge ~init ()

let sum ?ctx (t : float t) =
  run_reduce ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.sum_float
    ~merge:( +. ) ~init:0.0 t

let sum_int ?ctx (t : int t) =
  run_reduce ?ctx ~result_codec:Codec.int ~of_chunk:Seq_iter.sum_int
    ~merge:( + ) ~init:0 t

let count ?ctx t =
  run_reduce ?ctx ~result_codec:Codec.int ~of_chunk:Seq_iter.length
    ~merge:( + ) ~init:0 t

(** General reduction.  [codec] is only exercised under distributed
    execution (results cross a node boundary). *)
let reduce ?ctx ~codec ~merge ~init t =
  run_reduce ?ctx ~result_codec:codec
    ~of_chunk:(fun si -> Seq_iter.fold merge init si)
    ~merge ~init t

let array_add a b =
  if Array.length a <> Array.length b then invalid_arg "Iter: histogram merge";
  Array.mapi (fun i x -> x + b.(i)) a

let floatarray_add a b =
  if Float.Array.length a <> Float.Array.length b then
    invalid_arg "Iter: scatter merge";
  Float.Array.mapi (fun i x -> x +. Float.Array.get b i) a

(** Counting histogram of bin indices: each task builds a private
    histogram; histograms are added within each node and once more
    across nodes — the paper's distributed histogram strategy. *)
let histogram ?ctx ~bins (t : int t) =
  run_reduce ?ctx ~result_codec:Codec.int_array
    ~of_chunk:(fun si -> Collector.histogram ~bins (Seq_iter.collect si))
    ~merge:array_add ~init:(Array.make bins 0) t

(** Floating-point scatter-add over (index, weight) pairs: cutcp's
    "floating-point histogram". *)
let scatter_add ?ctx ~size (t : (int * float) t) =
  run_reduce ?ctx ~result_codec:Codec.floatarray
    ~of_chunk:(fun si ->
      Collector.weighted_histogram ~bins:size (Seq_iter.collect si))
    ~merge:floatarray_add
    ~init:(Float.Array.make size 0.0) t

let floatarray_concat parts =
  let total = Array.fold_left (fun n a -> n + Float.Array.length a) 0 parts in
  let out = Float.Array.make total 0.0 in
  let pos = ref 0 in
  Array.iter
    (fun a ->
      Float.Array.blit a 0 out !pos (Float.Array.length a);
      pos := !pos + Float.Array.length a)
    parts;
  out

(** Pack the (possibly variable-length) float results into a contiguous
    array, preserving iteration order. *)
let collect_floats ?ctx (t : float t) =
  let ctx = Exec.resolve ctx in
  match t.hint with
  | Sequential -> Seq_iter.to_floatarray (t.local 0 t.len)
  | Local ->
      floatarray_concat
        (Skeletons.local_map_chunks ~ctx ~len:t.len
           ~chunk:(fun off n -> Seq_iter.to_floatarray (t.local off n))
           ())
  | Distributed ->
      let parts =
        Skeletons.distributed_map_blocks ~ctx
          ~blocks:
            (Triolet_runtime.Partition.blocks ~parts:ctx.Exec.nodes t.len)
          ~slice_of:(fun (off, n) -> t.slice_of off n)
          ~node_work:(fun ~pool payload ->
            let sub = t.rebuild payload in
            floatarray_concat
              (Skeletons.local_map_chunks_with ~ctx pool ~len:sub.len
                 ~chunk:(fun off n -> Seq_iter.to_floatarray (sub.local off n))))
          ~result_codec:Codec.floatarray ()
      in
      floatarray_concat parts

(** Like {!collect_floats} for (float, float) element pairs, packing the
    two components into separate arrays (e.g. the real and imaginary
    sums of mri-q). *)
let collect_float_pairs ?ctx (t : (float * float) t) =
  let ctx = Exec.resolve ctx in
  let chunk_to_pair si =
    let a = Triolet_base.Vec.create 0.0 and b = Triolet_base.Vec.create 0.0 in
    Seq_iter.iter
      (fun (x, y) ->
        Triolet_base.Vec.push a x;
        Triolet_base.Vec.push b y)
      si;
    let pack v =
      Float.Array.init (Triolet_base.Vec.length v) (Triolet_base.Vec.get v)
    in
    (pack a, pack b)
  in
  let concat_pairs parts =
    ( floatarray_concat (Array.map fst parts),
      floatarray_concat (Array.map snd parts) )
  in
  match t.hint with
  | Sequential -> chunk_to_pair (t.local 0 t.len)
  | Local ->
      concat_pairs
        (Skeletons.local_map_chunks ~ctx ~len:t.len
           ~chunk:(fun off n -> chunk_to_pair (t.local off n))
           ())
  | Distributed ->
      let parts =
        Skeletons.distributed_map_blocks ~ctx
          ~blocks:
            (Triolet_runtime.Partition.blocks ~parts:ctx.Exec.nodes t.len)
          ~slice_of:(fun (off, n) -> t.slice_of off n)
          ~node_work:(fun ~pool payload ->
            let sub = t.rebuild payload in
            concat_pairs
              (Skeletons.local_map_chunks_with ~ctx pool ~len:sub.len
                 ~chunk:(fun off n -> chunk_to_pair (sub.local off n))))
          ~result_codec:(Codec.pair Codec.floatarray Codec.floatarray) ()
      in
      concat_pairs parts

(* Sequential-only conveniences. *)

let to_seq_iter t = t.local 0 t.len

let to_list t = Seq_iter.to_list (to_seq_iter t)

let iter f t = Seq_iter.iter f (to_seq_iter t)

let fold f init t = Seq_iter.fold f init (to_seq_iter t)

(* ------------------------------------------------------------------ *)
(* Extended transformations and consumers                              *)

(** [sub ~off ~len t]: the outer sub-range [off, off+len) of [t] as an
    iterator in its own right — data slicing composes, so a sub-range
    of a sliceable iterator is still sliceable. *)
let sub ~off ~len t =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Iter.sub";
  sliced ~hint:t.hint ~len
    ~local:(fun o n -> t.local (off + o) n)
    ~width:t.width
    ~slice_of:(fun o n -> t.slice_of (off + o) n)
    ~rebuild:t.rebuild

let rec filter_map f t =
  {
    t with
    local = (fun off n -> Seq_iter.filter_map f (t.local off n));
    rebuild = (fun p -> filter_map f (t.rebuild p));
  }

let min_float ?ctx t =
  run_reduce ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.min_float
    ~merge:Float.min ~init:Float.infinity t

let max_float ?ctx t =
  run_reduce ?ctx ~result_codec:Codec.float ~of_chunk:Seq_iter.max_float
    ~merge:Float.max ~init:Float.neg_infinity t

(** Arithmetic mean; [nan] on empty input. *)
let mean ?ctx t =
  let sum, n =
    run_reduce ?ctx
      ~result_codec:(Codec.pair Codec.float Codec.int)
      ~of_chunk:(fun si ->
        Seq_iter.fold (fun (s, n) x -> (s +. x, n + 1)) (0.0, 0) si)
      ~merge:(fun (s1, n1) (s2, n2) -> (s1 +. s2, n1 + n2))
      ~init:(0.0, 0) t
  in
  if n = 0 then Float.nan else sum /. float_of_int n

let exists ?ctx p t =
  run_reduce ?ctx ~result_codec:Codec.bool
    ~of_chunk:(fun si -> Seq_iter.exists p si)
    ~merge:( || ) ~init:false t

let for_all ?ctx p t =
  run_reduce ?ctx ~result_codec:Codec.bool
    ~of_chunk:(fun si -> Seq_iter.for_all p si)
    ~merge:( && ) ~init:true t
