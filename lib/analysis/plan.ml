(** Reified execution plans.

    [of_iter]/[of_iter2] interrogate an iterator pipeline *without
    running a consumer* and produce a [t]: the loop-nest shape the tasks
    will execute, the partition strategy the skeleton dispatch would
    choose under the ambient {!Triolet.Exec} cluster geometry, the
    per-task index slices, and a summary of each task's serialized
    payload.  The verification passes in {!Passes} then audit the plan
    instead of the opaque closures. *)

open Triolet
module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload

type space = Space_1d of int | Space_2d of { rows : int; cols : int }

type slice =
  | Slice_1d of { off : int; len : int }
  | Slice_2d of { r0 : int; nr : int; c0 : int; nc : int }

type buf_summary =
  | Floats_buf of int  (** pointer-free float buffer, element count *)
  | Ints_buf of int  (** pointer-free int buffer, element count *)
  | Raw_buf of int  (** opaque pre-encoded bytes (boxed source), length *)

type task = {
  slice : slice;
  payload : (buf_summary list, string) result option;
      (** [None] when the task runs in place (no payload extracted);
          [Some (Error msg)] when slicing raised — e.g. a boxed source
          with no codec asked for distributed execution. *)
  aliased : bool;
      (** the extracted payload physically shares a buffer with the
          sender's memory instead of copying the slice.  Such a payload
          only "decodes" in-process, where the receiver is handed the
          sender's pointer; over a real transport (the process backend)
          the receiver gets bytes, and any in-place mutation or
          identity assumption breaks.  Detected by extracting twice and
          comparing buffers for physical equality. *)
  slice_mismatch : bool;
      (** [slice_of] and [payload_of] encode to different bytes: what a
          distributed run ships differs from the payload the other
          probes inspect. *)
}

type partition =
  | Whole  (** one task over the whole space (sequential execution) *)
  | Dynamic_ranges of { grain : int; overridden : bool }
      (** lazy-splitting scheduler over contiguous ranges; [grain] is
          the effective grain size, [overridden] when it came from the
          ambient context's [grain] rather than
          {!Triolet_runtime.Partition.grain} *)
  | Static_blocks of (int * int) array
      (** pre-cut 1-D (offset, length) node blocks *)
  | Static_grid of {
      row_parts : int;
      col_parts : int;
      blocks : (int * int * int * int) array;
    }  (** 2-D (row0, nrows, col0, ncols) node block grid *)

type t = {
  name : string;
  hint : Iter.hint;
  space : space;
  shape : Seq_iter.shape option;
      (** loop-nest shape of a probe slice; [None] for 2-D pipelines
          (always [IdxFlat] over a [Dim2] domain) or an empty space *)
  partition : partition;
  workers : int;  (** worker count the partition targets *)
  tasks : task list;
}

let hint_to_string = function
  | Iter.Sequential -> "sequential"
  | Iter.Local -> "local"
  | Iter.Distributed -> "distributed"

let space_size = function
  | Space_1d n -> n
  | Space_2d { rows; cols } -> rows * cols

let buf_summary_of = function
  | Triolet_base.Payload.Floats a -> Floats_buf (Float.Array.length a)
  | Triolet_base.Payload.Ints a -> Ints_buf (Array.length a)
  | Triolet_base.Payload.Raw s -> Raw_buf (String.length s)

(* Two extractions of a *copying* [payload_of] yield physically distinct
   buffers; physically equal non-empty buffers mean the extractor handed
   out the sender's own array.  (Zero-length arrays and strings are
   excluded: OCaml interns those, so sharing proves nothing.) *)
let phys_alias b1 b2 =
  match (b1, b2) with
  | Triolet_base.Payload.Floats a, Triolet_base.Payload.Floats b ->
      Float.Array.length a > 0 && a == b
  | Triolet_base.Payload.Ints a, Triolet_base.Payload.Ints b ->
      Array.length a > 0 && a == b
  | Triolet_base.Payload.Raw s, Triolet_base.Payload.Raw r ->
      String.length s > 0 && s == r
  | _ -> false

(* The engine encodes the borrowed slice; the payload must encode to
   the same bytes. *)
let encodings_differ slice p =
  match Codec.to_bytes Payload.slice_codec (slice ()) with
  | bytes -> not (Bytes.equal bytes (Codec.to_bytes Payload.codec p))
  | exception _ -> true

let probe_payload ~slice extract =
  match extract () with
  | p ->
      let aliased =
        match extract () with
        | p2 -> List.length p = List.length p2 && List.exists2 phys_alias p p2
        | exception _ -> false
      in
      (Some (Ok (List.map buf_summary_of p)), aliased, encodings_differ slice p)
  | exception e -> (Some (Error (Printexc.to_string e)), false, false)

let local_workers () =
  Triolet_runtime.Pool.size (Triolet_runtime.Pool.default ())

let distributed_workers () = Exec.worker_count (Exec.current ())

let effective_grain ~workers n =
  match (Exec.current ()).Exec.grain with
  | Some g -> (g, true)
  | None -> (Triolet_runtime.Partition.grain ~workers n, false)

(** Reify a 1-D pipeline.  Mirrors the dispatch in [Iter]'s consumers:
    sequential → one in-place task; local → lazy-splitting dynamic
    ranges; distributed → [Partition.blocks] over the skeleton's worker
    count, one payload per block. *)
let of_iter ~name (it : 'a Iter.t) : t =
  let len = Iter.length it in
  let shape =
    if len = 0 then None
    else Some (Seq_iter.shape_of (it.Iter.local 0 (min len 4)))
  in
  let hint = Iter.hint it in
  let partition, workers, tasks =
    match hint with
    | Iter.Sequential ->
        ( Whole,
          1,
          [
            { slice = Slice_1d { off = 0; len }; payload = None;
              aliased = false; slice_mismatch = false };
          ] )
    | Iter.Local ->
        let workers = local_workers () in
        let grain, overridden = effective_grain ~workers len in
        ( Dynamic_ranges { grain; overridden },
          workers,
          [
            { slice = Slice_1d { off = 0; len }; payload = None;
              aliased = false; slice_mismatch = false };
          ] )
    | Iter.Distributed ->
        let workers = distributed_workers () in
        let blocks = Triolet_runtime.Partition.blocks ~parts:workers len in
        let tasks =
          Array.to_list blocks
          |> List.map (fun (off, n) ->
                 let payload, aliased, slice_mismatch =
                   probe_payload
                     ~slice:(fun () -> it.Iter.slice_of off n)
                     (fun () -> it.Iter.payload_of off n)
                 in
                 { slice = Slice_1d { off; len = n }; payload; aliased;
                   slice_mismatch })
        in
        (Static_blocks blocks, workers, tasks)
  in
  { name; hint; space = Space_1d len; shape; partition; workers; tasks }

(** Reify a 2-D pipeline.  Mirrors [Iter2.build]/[Iter2.sum]:
    sequential → whole; local → dynamic row bands; distributed → a
    near-square [Partition.grid] of node blocks sliced with
    [Iter2.payload_slice]. *)
let of_iter2 ~name (it : 'a Iter2.t) : t =
  let rows = Iter2.row_count it and cols = Iter2.col_count it in
  let hint = Iter2.hint it in
  let whole =
    {
      slice = Slice_2d { r0 = 0; nr = rows; c0 = 0; nc = cols };
      payload = None;
      aliased = false;
      slice_mismatch = false;
    }
  in
  let partition, workers, tasks =
    match hint with
    | Iter.Sequential -> (Whole, 1, [ whole ])
    | Iter.Local ->
        let workers = local_workers () in
        let grain, overridden = effective_grain ~workers rows in
        (Dynamic_ranges { grain; overridden }, workers, [ whole ])
    | Iter.Distributed ->
        let workers = distributed_workers () in
        let nodes = (Exec.current ()).Exec.nodes in
        let rp, cp = Triolet_runtime.Partition.square_factors nodes in
        let blocks =
          Triolet_runtime.Partition.grid ~row_parts:rp ~col_parts:cp ~rows
            ~cols
        in
        let tasks =
          Array.to_list blocks
          |> List.map (fun (r0, nr, c0, nc) ->
                 let payload, aliased, slice_mismatch =
                   probe_payload
                     ~slice:(fun () -> Iter2.block_slice it ~r0 ~nr ~c0 ~nc)
                     (fun () -> Iter2.payload_slice it ~r0 ~nr ~c0 ~nc)
                 in
                 { slice = Slice_2d { r0; nr; c0; nc }; payload; aliased;
                   slice_mismatch })
        in
        (Static_grid { row_parts = rp; col_parts = cp; blocks }, workers, tasks)
  in
  {
    name;
    hint;
    space = Space_2d { rows; cols };
    shape = None;
    partition;
    workers;
    tasks;
  }

let payload_bytes t =
  List.fold_left
    (fun acc task ->
      match task.payload with
      | Some (Ok bufs) ->
          List.fold_left
            (fun acc b ->
              acc
              + match b with
                | Floats_buf n -> n * 8
                | Ints_buf n -> n * 8
                | Raw_buf n -> n)
            acc bufs
      | _ -> acc)
    0 t.tasks

let to_string t =
  let b = Buffer.create 256 in
  let space_str =
    match t.space with
    | Space_1d n -> Printf.sprintf "[0, %d)" n
    | Space_2d { rows; cols } -> Printf.sprintf "%d x %d" rows cols
  in
  Buffer.add_string b
    (Printf.sprintf "plan %-10s %-11s space %-12s" t.name
       (hint_to_string t.hint) space_str);
  (match t.shape with
  | Some s ->
      Buffer.add_string b
        (Printf.sprintf " nest %s" (Seq_iter.shape_to_string s))
  | None -> ());
  (match t.partition with
  | Whole -> Buffer.add_string b "\n  one task, in place"
  | Dynamic_ranges { grain; overridden } ->
      Buffer.add_string b
        (Printf.sprintf "\n  dynamic ranges over %d workers, grain %d%s"
           t.workers grain
           (if overridden then " (override)" else " (auto)"))
  | Static_blocks blocks ->
      Buffer.add_string b
        (Printf.sprintf "\n  %d static blocks over %d workers, %d payload bytes"
           (Array.length blocks) t.workers (payload_bytes t))
  | Static_grid { row_parts; col_parts; blocks } ->
      Buffer.add_string b
        (Printf.sprintf
           "\n  %dx%d block grid (%d blocks) over %d workers, %d payload bytes"
           row_parts col_parts (Array.length blocks) t.workers
           (payload_bytes t)));
  Buffer.contents b
