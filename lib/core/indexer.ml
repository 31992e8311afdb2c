(** The indexer encoding: a domain plus a lookup function (paper,
    section 3.1, "Indexers", generalized over domains in section 3.3).

    Indexers are the only encoding that permits random access, which
    makes them the parallelizable layer of hybrid iterators: any
    sub-range of an indexer can be handed to a different task.  The cost
    is that variable-length producers ([filter], [concat_map]) cannot be
    expressed directly — hybrid iterators wrap their output in steppers
    instead. *)

(* What the lookup reads.  A float leaf is a flat run of a floatarray
   from an offset: [slice] rebases it and [zip] pairs two of them inside
   one getter that reads the arrays directly, so the per-element path of
   a shipped dot product carries no stacked lookup closures.  Every other
   indexer is an opaque lookup. *)
type ('i, 'a) src =
  | Fn : ('i, 'a) src
  | Floats : floatarray * int -> (int, float) src

type ('i, 'a) t = { shape : 'i Shape.t; get : 'i -> 'a; src : ('i, 'a) src }

let make shape get = { shape; get; src = Fn }

let shape t = t.shape

let size t = Shape.size t.shape

let get t i = t.get i

let init = make

let of_array a = make (Shape.seq (Array.length a)) (Array.get a)

(* [len] elements of [a] from [off]. *)
let float_leaf (a : floatarray) off len =
  {
    shape = Shape.seq len;
    get = (fun i -> Float.Array.get a (off + i));
    src = Floats (a, off);
  }

let of_floatarray a = float_leaf a 0 (Float.Array.length a)

(** Indexer over the integers [lo, hi) themselves. *)
let range lo hi =
  if hi < lo then invalid_arg "Indexer.range";
  make (Shape.seq (hi - lo)) (fun i -> lo + i)

(** Mapping composes lookup with [f]: [(n, g) -> (n, f . g)]. *)
let map f t = make t.shape (fun i -> f (t.get i))

(** [zipIdx]: random access lets corresponding iterations pair up
    without any buffering, preserving parallelism. *)
let zip_with f a b =
  make (Shape.intersect a.shape b.shape) (fun i -> f (a.get i) (b.get i))

(* Pairs directly rather than through [zip_with]'s closure. *)
let zip : type i a b. (i, a) t -> (i, b) t -> (i, a * b) t =
 fun a b ->
  let shape = Shape.intersect a.shape b.shape in
  match (a.src, b.src) with
  | Floats (x, ox), Floats (y, oy) ->
      make shape (fun i -> (Float.Array.get x (ox + i), Float.Array.get y (oy + i)))
  | _ -> make shape (fun i -> (a.get i, b.get i))

let enumerate t = make t.shape (fun i -> (i, t.get i))

(** 1-D sub-range view; indices are rebased to start at zero.  This is
    the work-distribution half of slicing — the data-distribution half
    lives with the iterator's payload (section 3.5). *)
let slice : type a. (int, a) t -> int -> int -> (int, a) t =
 fun t off len ->
  match t.shape with
  | Shape.Seq n -> (
      if off < 0 || len < 0 || off + len > n then invalid_arg "Indexer.slice";
      (* full-range slices (the sequential-execution path) add no
         rebasing closure to the per-element lookup chain; a float leaf
         rebases inside its own getter *)
      if off = 0 && len = n then t
      else
        match t.src with
        | Floats (a, o) -> float_leaf a (o + off) len
        | Fn -> make (Shape.seq len) (fun i -> t.get (off + i)))

(* Conversions down the control-flexibility order of Figure 1: an
   indexer can become a stepper, fold, or collector, never the other
   way around. *)

let to_stepper (t : (int, 'a) t) =
  let n = size t in
  let get = t.get in
  Stepper.make 0
    (fun i -> if i >= n then Stepper.Done else Stepper.Yield (get i, i + 1))
    {
      Stepper.push =
        (fun f init ->
          let rec go acc i =
            if i >= n then acc else go (f acc (get i)) (i + 1)
          in
          go init 0);
    }

let to_folder t =
  { Folder.fold = (fun f init -> Shape.fold t.shape (fun acc i -> f acc (t.get i)) init) }

let to_collector t =
  { Collector.run = (fun k -> Shape.iter t.shape (fun i -> k (t.get i))) }

(* The flat 1-D case — every hybrid iterator's hot leaf — gets its own
   loop so the per-element path is [f] and the lookup, with no
   index-adapter closure in between. *)
let fold : type i. ('b -> 'a -> 'b) -> 'b -> (i, 'a) t -> 'b =
 fun f init t ->
  match t.shape with
  | Shape.Seq n ->
      let get = t.get in
      let rec go acc i = if i >= n then acc else go (f acc (get i)) (i + 1) in
      go init 0
  | shape -> Shape.fold shape (fun acc i -> f acc (t.get i)) init

let iter : type i. ('a -> unit) -> (i, 'a) t -> unit =
 fun f t ->
  match t.shape with
  | Shape.Seq n ->
      let get = t.get in
      for i = 0 to n - 1 do
        f (get i)
      done
  | shape -> Shape.iter shape (fun i -> f (t.get i))

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let to_array dummy t =
  let n = size t in
  let a = Array.make n dummy in
  let k = ref 0 in
  Shape.iter t.shape (fun i ->
      a.(!k) <- t.get i;
      incr k);
  a
