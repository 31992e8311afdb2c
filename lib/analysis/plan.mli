(** Reified execution plans for skeleton pipelines.

    A plan is the inspectable image of what a consumer *would* execute:
    loop-nest shape, partition strategy under the current cluster
    geometry, per-task index slices, and per-task payload summaries.
    Reification never runs the pipeline's element functions beyond a
    small shape probe, and never runs a consumer. *)

open Triolet

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
      (** [None]: in-place task; [Some (Error _)]: slicing raised. *)
  aliased : bool;
      (** the payload physically shares a non-empty buffer with the
          sender's memory (detected by extracting twice and comparing
          with [==]); such a payload only decodes in-process and is a
          hard error under a real transport. *)
  slice_mismatch : bool;
      (** the borrowed slice the engine encodes ([slice_of]) and the
          owned payload ([payload_of]) encode to different bytes; also
          a hard error. *)
}

type partition =
  | Whole
  | Dynamic_ranges of { grain : int; overridden : bool }
  | Static_blocks of (int * int) array
  | Static_grid of {
      row_parts : int;
      col_parts : int;
      blocks : (int * int * int * int) array;
    }

type t = {
  name : string;
  hint : Iter.hint;
  space : space;
  shape : Seq_iter.shape option;
      (** [None] for 2-D pipelines and empty spaces *)
  partition : partition;
  workers : int;
  tasks : task list;
}

val of_iter : name:string -> 'a Iter.t -> t
(** Reify a 1-D pipeline, mirroring the consumer dispatch: sequential →
    one in-place task; local → lazy-splitting dynamic ranges;
    distributed → [Partition.blocks] static blocks with one probed
    payload per block. *)

val of_iter2 : name:string -> 'a Iter2.t -> t
(** Reify a 2-D pipeline, mirroring [Iter2.build]/[Iter2.sum]:
    distributed → near-square [Partition.grid] of node blocks sliced
    with [Iter2.payload_slice]. *)

val space_size : space -> int
val hint_to_string : Iter.hint -> string

val payload_bytes : t -> int
(** Total bytes across all successfully probed task payloads (floats
    and ints counted at 8 bytes per element). *)

val to_string : t -> string
(** Two-line human-readable rendering for [triolet analyze]. *)
