(** Three-dimensional iterators over [Dim3] domains (paper, section
    3.3: the [Domain] class covers arbitrary dimensionality; only flat
    indexers generalize).

    Work and data are distributed in contiguous *z-slabs*: slabs of an
    x-fastest grid are contiguous memory, so a slab's payload is one
    block copy, and within a node the slab's planes parallelize over
    cores.  This is the standard decomposition of hand-written MPI grid
    codes and the 3-D analogue of [Iter2]'s row bands. *)

module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
module Partition = Triolet_runtime.Partition
module Cluster = Triolet_runtime.Cluster

type 'a t = {
  hint : Iter.hint;
  nx : int;
  ny : int;
  nz : int;
  local : int -> int -> int -> int -> int -> 'a;
      (** [local z0 n x y z] : element at slab-relative (x, y, z) of
          slab [z0, z0+n), reading input in place *)
  width : int;
  slice_of : int -> int -> Payload.slice;  (** borrowed data slice for a slab *)
  rebuild : Payload.t -> 'a t;  (** slab-sized iterator from a slice *)
}

let dims t = (t.nx, t.ny, t.nz)
let hint t = t.hint

let make ~nx ~ny ~nz ~local ~width ~slice_of ~rebuild =
  { hint = Iter.Sequential; nx; ny; nz; local; width; slice_of; rebuild }

(** From an element function [f x y z].  The slab payload encodes only
    the slab bounds; the function itself travels as a closure (as all
    task code does in this in-process runtime — see DESIGN.md), so
    unlike {!Iter2.init} this supports distribution. *)
let init ~nx ~ny ~nz f =
  let rec build z_base nz' =
    {
      hint = Iter.Sequential;
      nx;
      ny;
      nz = nz';
      local = (fun z0 _ x y z -> f x y (z_base + z0 + z));
      width = 1;
      slice_of = (fun z0 n -> [ Payload.Int_range ([| z_base + z0; n |], 0, 2) ]);
      rebuild =
        (fun p ->
          match p with
          | [ b ] ->
              let bounds = Payload.ints_exn b in
              { (build bounds.(0) bounds.(1)) with hint = Iter.Local }
          | _ -> invalid_arg "Iter3.init: bad payload");
    }
  in
  build 0 nz

(** A grid's elements; a slab is one range of the grid's data, encoded
    as a single block copy. *)
let of_grid (g : Grid3.t) =
  let rec build (g : Grid3.t) =
    let nx, ny, nz = Grid3.dims g in
    {
      hint = Iter.Sequential;
      nx;
      ny;
      nz;
      local = (fun z0 _ x y z -> Grid3.unsafe_get g x y (z0 + z));
      width = 2;
      slice_of =
        (fun z0 n ->
          if z0 < 0 || n < 0 || z0 + n > nz then invalid_arg "Iter3.of_grid: slab";
          let plane = nx * ny in
          [
            Payload.Int_range ([| nx; ny; n |], 0, 3);
            Payload.Float_range (Grid3.data g, z0 * plane, n * plane);
          ]);
      rebuild =
        (fun p ->
          match p with
          | [ hdr; fl ] ->
              let hdr = Payload.ints_exn hdr in
              let sub =
                Grid3.of_floatarray ~nx:hdr.(0) ~ny:hdr.(1) ~nz:hdr.(2)
                  (Payload.floats_exn fl)
              in
              { (build sub) with hint = Iter.Local }
          | _ -> invalid_arg "Iter3.of_grid: bad payload");
    }
  in
  build g

let rec map f t =
  {
    t with
    local =
      (fun z0 n ->
        let get = t.local z0 n in
        fun x y z -> f (get x y z));
    rebuild = (fun p -> map f (t.rebuild p));
  }

let rec map2 f a b =
  let nx = min a.nx b.nx and ny = min a.ny b.ny and nz = min a.nz b.nz in
  {
    hint =
      (match (a.hint, b.hint) with
      | Iter.Distributed, _ | _, Iter.Distributed -> Iter.Distributed
      | Iter.Local, _ | _, Iter.Local -> Iter.Local
      | Iter.Sequential, Iter.Sequential -> Iter.Sequential);
    nx;
    ny;
    nz;
    local =
      (fun z0 n ->
        let ga = a.local z0 n and gb = b.local z0 n in
        fun x y z -> f (ga x y z) (gb x y z));
    width = a.width + b.width;
    slice_of = (fun z0 n -> a.slice_of z0 n @ b.slice_of z0 n);
    rebuild =
      (fun p ->
        let pa, pb = Iter.split_payload a.width p in
        map2 f (a.rebuild pa) (b.rebuild pb));
  }

let par t = { t with hint = Iter.Distributed }
let localpar t = { t with hint = Iter.Local }
let sequential t = { t with hint = Iter.Sequential }

(* ------------------------------------------------------------------ *)
(* Consumers                                                           *)

let fill_slab (t : float t) (out : Grid3.t) ~z0 ~n ~out_z0 =
  let get = t.local z0 n in
  for z = 0 to n - 1 do
    for y = 0 to t.ny - 1 do
      for x = 0 to t.nx - 1 do
        Grid3.unsafe_set out x y (out_z0 + z) (get x y z)
      done
    done
  done

let node_slabs ctx nz = Partition.blocks ~parts:ctx.Exec.nodes nz

(** Materialize a 3-D float iterator as a grid: sequential fill, z-plane
    parallelism on the pool, or node slabs shipped as sliced payloads
    and blitted back into place. *)
let build ?ctx (t : float t) =
  let ctx = Exec.resolve ctx in
  let out = Grid3.create t.nx t.ny t.nz in
  (match t.hint with
  | Iter.Sequential -> fill_slab t out ~z0:0 ~n:t.nz ~out_z0:0
  | Iter.Local ->
      (* z-slab extents come from the adaptive scheduler: contiguous
         plane ranges, split on demand when some planes cost more. *)
      let pool = Triolet_runtime.Pool.default () in
      Triolet_runtime.Pool.parallel_range pool ?grain:ctx.Exec.grain ~lo:0
        ~hi:t.nz
        ~f:(fun z0 n -> fill_slab t out ~z0 ~n ~out_z0:z0)
        ~merge:(fun () () -> ())
        ~init:() ()
  | Iter.Distributed ->
      let slabs = node_slabs ctx t.nz in
      let grain = ctx.Exec.grain in
      let results =
        Skeletons.distributed_map_blocks ~ctx ~blocks:slabs
          ~slice_of:(fun (z0, n) -> t.slice_of z0 n)
          ~node_work:(fun ~pool payload ->
            let sub = t.rebuild payload in
            let slab = Grid3.create sub.nx sub.ny sub.nz in
            Triolet_runtime.Pool.parallel_range pool ?grain ~lo:0 ~hi:sub.nz
              ~f:(fun z0 n -> fill_slab sub slab ~z0 ~n ~out_z0:z0)
              ~merge:(fun () () -> ())
              ~init:() ();
            Grid3.data slab)
          ~result_codec:Codec.floatarray ()
      in
      Array.iteri
        (fun k data ->
          let z0, n = slabs.(k) in
          let src = Grid3.of_floatarray ~nx:t.nx ~ny:t.ny ~nz:n data in
          Grid3.blit_slab ~src ~dst:out ~z0)
        results);
  out

(** Reduce a 3-D float iterator to a scalar over node slabs. *)
let sum ?ctx (t : float t) =
  let ctx = Exec.resolve ctx in
  let slab_sum z0 n =
    let get = t.local z0 n in
    let acc = ref 0.0 in
    for z = 0 to n - 1 do
      for y = 0 to t.ny - 1 do
        for x = 0 to t.nx - 1 do
          acc := !acc +. get x y z
        done
      done
    done;
    !acc
  in
  match t.hint with
  | Iter.Sequential -> slab_sum 0 t.nz
  | Iter.Local ->
      Skeletons.local_reduce ~ctx ~len:t.nz ~chunk:slab_sum ~merge:( +. )
        ~init:0.0 ()
  | Iter.Distributed ->
      Skeletons.distributed_reduce ~ctx ~len:t.nz ~slice_of:t.slice_of
        ~node_work:(fun ~pool payload ->
          let sub = t.rebuild payload in
          Skeletons.local_reduce_with ~ctx pool ~len:sub.nz
            ~chunk:(fun z0 n ->
              let get = sub.local z0 n in
              let acc = ref 0.0 in
              for z = 0 to n - 1 do
                for y = 0 to sub.ny - 1 do
                  for x = 0 to sub.nx - 1 do
                    acc := !acc +. get x y z
                  done
                done
              done;
              !acc)
            ~merge:( +. ) ~init:0.0)
        ~result_codec:Codec.float ~merge:( +. ) ~init:0.0 ()
