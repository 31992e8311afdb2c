(** Two-dimensional iterators (paper, section 3.3).

    Only flat indexers generalize to multiple dimensions — removing
    arbitrary elements of a 2-D array does not yield a 2-D array — so a
    2-D iterator is always an [IdxFlat] over a [Dim2] domain, plus the
    slicing machinery for 2-D *block* decomposition: a block of the
    iteration space maps to the slice of input data (e.g. matrix rows)
    its tasks touch, which is how the paper's two-line sgemm ships each
    node only the rows it needs. *)

module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
module Partition = Triolet_runtime.Partition
module Cluster = Triolet_runtime.Cluster

type 'a t = {
  hint : Iter.hint;
  rows : int;
  cols : int;
  local : int -> int -> int -> int -> int -> int -> 'a;
      (** [local r0 nr c0 nc i j] : element at block-relative (i, j) of
          block (r0, nr, c0, nc), reading input in place *)
  width : int;
  slice_of : int -> int -> int -> int -> Payload.slice;
      (** data slice needed by block (r0, nr, c0, nc), borrowed *)
  rebuild : Payload.t -> 'a t;
      (** rebuild a block-sized iterator from a shipped slice *)
}

let row_count t = t.rows
let col_count t = t.cols
let hint t = t.hint
let width t = t.width

(* Plan-reification hooks: expose the data slice a block would ship
   without running the consumer, so the static analyzer can inspect the
   payload of each remote task of a 2-D decomposition. *)
let block_slice t ~r0 ~nr ~c0 ~nc = t.slice_of r0 nr c0 nc
let payload_slice t ~r0 ~nr ~c0 ~nc = Payload.own (block_slice t ~r0 ~nr ~c0 ~nc)

let make ~rows ~cols ~local ~width ~slice_of ~rebuild =
  { hint = Iter.Sequential; rows; cols; local; width; slice_of; rebuild }

(** 2-D iterator from an explicit element function (e.g. the
    [arrayRange] comprehension of the paper's transpose example).  It
    has no serializable source, so it supports sequential and local
    execution only — like transposition, which "does too little work to
    parallelize profitably on distributed memory". *)
let init ~rows ~cols f =
  let rec t =
    {
      hint = Iter.Sequential;
      rows;
      cols;
      local = (fun r0 _ c0 _ i j -> f (r0 + i) (c0 + j));
      width = 0;
      slice_of =
        (fun _ _ _ _ ->
          invalid_arg "Iter2.init: no serializable source for distribution");
      rebuild = (fun _ -> t);
    }
  in
  t

let of_matrix m =
  init ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) (Matrix.unsafe_get m)

(** The paper's [outerproduct]: pair every element of [a] with every
    element of [b].  Block (r0, nr, c0, nc) needs rows [r0, r0+nr) of
    [a]'s data and rows [c0, c0+nc) of [b]'s — exactly the slices the
    payload carries. *)
let rec outer_product (a : 'a Iter.t) (b : 'b Iter.t) =
  {
    hint =
      (match (Iter.hint a, Iter.hint b) with
      | Iter.Distributed, _ | _, Iter.Distributed -> Iter.Distributed
      | Iter.Local, _ | _, Iter.Local -> Iter.Local
      | Iter.Sequential, Iter.Sequential -> Iter.Sequential);
    rows = Iter.length a;
    cols = Iter.length b;
    local =
      (fun r0 nr c0 nc ->
        (* Outer elements are cheap views; materializing the block's
           row and column headers once avoids re-running the outer
           loops per element. *)
        let av = Array.of_list (Seq_iter.to_list (a.Iter.local r0 nr)) in
        let bv = Array.of_list (Seq_iter.to_list (b.Iter.local c0 nc)) in
        fun i j -> (av.(i), bv.(j)));
    width = a.Iter.width + b.Iter.width;
    slice_of = (fun r0 nr c0 nc -> a.Iter.slice_of r0 nr @ b.Iter.slice_of c0 nc);
    rebuild =
      (fun p ->
        let pa, pb = Iter.split_payload a.Iter.width p in
        outer_product (a.Iter.rebuild pa) (b.Iter.rebuild pb));
  }

let rec map f t =
  {
    t with
    local =
      (fun r0 nr c0 nc ->
        let get = t.local r0 nr c0 nc in
        fun i j -> f (get i j));
    rebuild = (fun p -> map f (t.rebuild p));
  }

let par t = { t with hint = Iter.Distributed }
let localpar t = { t with hint = Iter.Local }
let sequential t = { t with hint = Iter.Sequential }

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)

let fill_block (t : float t) (out : Matrix.t) ~r0 ~nr ~c0 ~nc ~out_r0 ~out_c0
    =
  let get = t.local r0 nr c0 nc in
  for i = 0 to nr - 1 do
    for j = 0 to nc - 1 do
      Matrix.unsafe_set out (out_r0 + i) (out_c0 + j) (get i j)
    done
  done

(** Materialize a 2-D float iterator as a matrix.

    - [Sequential]: one block covering everything.
    - [Local]: row-band parallelism on the work-stealing pool.
    - [Distributed]: a near-square grid of node blocks; each node
      receives only its block's input slice, computes the block with
      intra-node row parallelism, and ships the block back, where it is
      blitted into place. *)
let build ?ctx (t : float t) =
  let ctx = Exec.resolve ctx in
  let out = Matrix.create t.rows t.cols in
  (match t.hint with
  | Iter.Sequential ->
      fill_block t out ~r0:0 ~nr:t.rows ~c0:0 ~nc:t.cols ~out_r0:0 ~out_c0:0
  | Iter.Local ->
      (* Row bands are chosen by the adaptive scheduler: it hands out
         contiguous row ranges and splits them on demand, so rows whose
         pipelines cost unevenly still balance. *)
      let pool = Triolet_runtime.Pool.default () in
      Triolet_runtime.Pool.parallel_range pool ?grain:ctx.Exec.grain ~lo:0
        ~hi:t.rows
        ~f:(fun r0 nr ->
          fill_block t out ~r0 ~nr ~c0:0 ~nc:t.cols ~out_r0:r0 ~out_c0:0)
        ~merge:(fun () () -> ())
        ~init:() ()
  | Iter.Distributed ->
      let rp, cp = Partition.square_factors ctx.Exec.nodes in
      let blocks =
        Partition.grid ~row_parts:rp ~col_parts:cp ~rows:t.rows ~cols:t.cols
      in
      let grain = ctx.Exec.grain in
      let results =
        Skeletons.distributed_map_blocks ~ctx ~blocks
          ~slice_of:(fun (r0, nr, c0, nc) -> t.slice_of r0 nr c0 nc)
          ~node_work:(fun ~pool payload ->
            let sub = t.rebuild payload in
            let block = Matrix.create sub.rows sub.cols in
            Triolet_runtime.Pool.parallel_range pool ?grain ~lo:0
              ~hi:sub.rows
              ~f:(fun r0 nr ->
                fill_block sub block ~r0 ~nr ~c0:0 ~nc:sub.cols ~out_r0:r0
                  ~out_c0:0)
              ~merge:(fun () () -> ())
              ~init:() ();
            Matrix.data block)
          ~result_codec:Codec.floatarray ()
      in
      Array.iteri
        (fun k data ->
          let r0, nr, c0, nc = blocks.(k) in
          let src = Matrix.of_floatarray ~rows:nr ~cols:nc data in
          Matrix.blit_block ~src ~dst:out ~r0 ~c0)
        results);
  out

(* ------------------------------------------------------------------ *)
(* Matrix rows as a partitionable 1-D iterator                         *)

(** The paper's [rows]: reinterpret a matrix as a one-dimensional
    iterator over its rows.  Rows of a row-major matrix are contiguous,
    so a slice of rows is one range of the matrix's data, encoded as a
    single block copy. *)
let rows (m : Matrix.t) : Matrix.view Iter.t =
  let rec build m =
    let cols = Matrix.cols m in
    Iter.make ~len:(Matrix.rows m)
      ~local:(fun off n ->
        Seq_iter.of_indexer
          (Indexer.init (Shape.seq n) (fun i -> Matrix.row m (off + i))))
      ~width:2
      ~slice_of:(fun off n ->
        if off < 0 || n < 0 || off + n > Matrix.rows m then
          invalid_arg "Iter2.rows: slice";
        [
          Payload.Int_range ([| n; cols |], 0, 2);
          Payload.Float_range (Matrix.data m, off * cols, n * cols);
        ])
      ~rebuild:(fun p ->
        match p with
        | [ hdr; fl ] ->
            let hdr = Payload.ints_exn hdr in
            let data = Payload.floats_exn fl in
            Iter.localpar
              (build (Matrix.of_floatarray ~rows:hdr.(0) ~cols:hdr.(1) data))
        | _ -> invalid_arg "Iter2.rows: bad payload")
  in
  build m

(** Per-node row-block segments of a matrix, for residency: block the
    rows one-per-cluster-worker (same decomposition {!rows} ships under
    [distributed_reduce]) and materialize each block in the same
    header-plus-data shape [rows]'s [payload_of] uses, so a resident
    child decodes segments with the exact code that decodes shipped
    slices. *)
let row_segments ?ctx (m : Matrix.t) =
  let it = rows m in
  Skeletons.resident_segments ?ctx ~len:(Matrix.rows m)
    ~payload_of:(fun off n -> it.Iter.payload_of off n)
    ()

(** Decode one {!row_segments} segment back to a matrix (child-side). *)
let matrix_of_segment (p : Payload.t) =
  match p with
  | [ hdr; fl ] ->
      let hdr = Payload.ints_exn hdr in
      Matrix.of_floatarray ~rows:hdr.(0) ~cols:hdr.(1) (Payload.floats_exn fl)
  | _ -> invalid_arg "Iter2.matrix_of_segment: bad segment payload"

(** Parallel matrix transposition through the 2-D iterator interface:
    [[A[x,y] for (y,x) in arrayRange((0,0),(h,w))]] from the paper. *)
let transpose_iter m =
  init ~rows:(Matrix.cols m) ~cols:(Matrix.rows m) (fun y x ->
      Matrix.unsafe_get m x y)

(* ------------------------------------------------------------------ *)
(* Reductions over 2-D iterators                                       *)

(** Fold a 2-D float iterator to a scalar.  Distribution follows the
    same block grid as {!build}: each node reduces its block locally
    (rows across cores), and per-node partials are merged. *)
let sum ?ctx (t : float t) =
  let ctx = Exec.resolve ctx in
  let block_sum r0 nr c0 nc =
    let get = t.local r0 nr c0 nc in
    let acc = ref 0.0 in
    for i = 0 to nr - 1 do
      for j = 0 to nc - 1 do
        acc := !acc +. get i j
      done
    done;
    !acc
  in
  match t.hint with
  | Iter.Sequential -> block_sum 0 t.rows 0 t.cols
  | Iter.Local ->
      Skeletons.local_reduce ~ctx ~len:t.rows
        ~chunk:(fun off n -> block_sum off n 0 t.cols)
        ~merge:( +. ) ~init:0.0 ()
  | Iter.Distributed ->
      let rp, cp = Partition.square_factors ctx.Exec.nodes in
      let blocks =
        Partition.grid ~row_parts:rp ~col_parts:cp ~rows:t.rows ~cols:t.cols
      in
      let parts =
        Skeletons.distributed_map_blocks ~ctx ~blocks
          ~slice_of:(fun (r0, nr, c0, nc) -> t.slice_of r0 nr c0 nc)
          ~node_work:(fun ~pool payload ->
            let sub = t.rebuild payload in
            Skeletons.local_reduce_with ~ctx pool ~len:sub.rows
              ~chunk:(fun off n ->
                let get = sub.local off n 0 sub.cols in
                let acc = ref 0.0 in
                for i = 0 to n - 1 do
                  for j = 0 to sub.cols - 1 do
                    acc := !acc +. get i j
                  done
                done;
                !acc)
              ~merge:( +. ) ~init:0.0)
          ~result_codec:Codec.float ()
      in
      Array.fold_left ( +. ) 0.0 parts

(** Pointwise combination of two 2-D iterators over the intersection of
    their extents. *)
let rec map2 f a b =
  let rows = min a.rows b.rows and cols = min a.cols b.cols in
  {
    hint =
      (match (a.hint, b.hint) with
      | Iter.Distributed, _ | _, Iter.Distributed -> Iter.Distributed
      | Iter.Local, _ | _, Iter.Local -> Iter.Local
      | Iter.Sequential, Iter.Sequential -> Iter.Sequential);
    rows;
    cols;
    local =
      (fun r0 nr c0 nc ->
        let ga = a.local r0 nr c0 nc and gb = b.local r0 nr c0 nc in
        fun i j -> f (ga i j) (gb i j));
    width = a.width + b.width;
    slice_of =
      (fun r0 nr c0 nc -> a.slice_of r0 nr c0 nc @ b.slice_of r0 nr c0 nc);
    rebuild =
      (fun p ->
        let pa, pb = Iter.split_payload a.width p in
        map2 f (a.rebuild pa) (b.rebuild pb));
  }
