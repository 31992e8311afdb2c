(* Repository benchmark executable.

     bench.exe run --workload W --seed N --seconds S [--trace] [--spans FILE]
     bench.exe probe --seed N

   [run] measures one workload in this process; [probe] measures each
   layer on its own.  Both print one JSON object as the last line of
   stdout.  perfbench/run.py is the entry point: it builds this
   executable and starts a fresh process per phase, because [kernels]
   spawns pool domains, the other workloads fork, and OCaml forbids
   fork once a domain has been spawned.  See perfbench/README.md for
   the workloads, the metrics and which layer each metric belongs to. *)

open Triolet
module Obs = Triolet_obs.Obs
module Json = Triolet_obs.Json
module Stats = Triolet_runtime.Stats
module Pool = Triolet_runtime.Pool
module Cluster = Triolet_runtime.Cluster
module Service = Triolet_runtime.Service
module Transport = Triolet_runtime.Transport
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec
module Rng = Triolet_base.Rng
module K = Triolet_kernels

(* ------------------------------------------------------------------ *)
(* Time and order statistics                                           *)

let now_ns = Obs.monotonic_ns
let ms ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let sum_floats n f =
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. f i
  done;
  !s

(* ------------------------------------------------------------------ *)
(* Process state read from /proc: leak checks and resident memory      *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* Children of every thread of this process, zombies included. *)
let children () =
  let dir = Printf.sprintf "/proc/%d/task" (Unix.getpid ()) in
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun tid ->
         match read_file (Printf.sprintf "%s/%s/children" dir tid) with
         | s ->
             String.split_on_char ' ' (String.trim s)
             |> List.filter_map int_of_string_opt
         | exception Sys_error _ -> [])

let hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
      |> Option.value ~default:0

(* This process's high-water mark plus each live child's. *)
let peak_rss_mb () =
  let kb =
    List.fold_left
      (fun acc pid -> acc + hwm_kb pid)
      (hwm_kb (Unix.getpid ()))
      (children ())
  in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans, recorded around each call into a layer.
   Each op has a root span "op"; its children are the layer calls
   ("kernel", "iter", "darray", "service"), the reference run ("ref")
   and the output check ("check").  Kept in memory, written at exit. *)

module Spans = struct
  type t = { op : int; id : int; parent : int; name : string; t0 : int; t1 : int }

  let on = ref false
  let lock = Mutex.create ()
  let recorded : t list ref = ref []
  let next_id = ref 0

  let within ~op ~parent name f =
    if not !on then f 0
    else begin
      let id =
        Mutex.protect lock (fun () ->
            incr next_id;
            !next_id)
      in
      let t0 = now_ns () in
      Fun.protect
        (fun () -> f id)
        ~finally:(fun () ->
          let s = { op; id; parent; name; t0; t1 = now_ns () } in
          Mutex.protect lock (fun () -> recorded := s :: !recorded))
    end

  let names = [ "op"; "kernel"; "iter"; "darray"; "service"; "ref"; "check" ]

  (* Self time: a span's duration minus the part its children cover
     (children of one op run one after another, so they never overlap). *)
  let self_ms_per_op ~ops =
    let covered = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        let c = Option.value (Hashtbl.find_opt covered s.parent) ~default:0 in
        Hashtbl.replace covered s.parent (c + s.t1 - s.t0))
      !recorded;
    List.map
      (fun name ->
        let total =
          List.fold_left
            (fun acc s ->
              if s.name <> name then acc
              else
                let kids = Option.value (Hashtbl.find_opt covered s.id) ~default:0 in
                acc + (s.t1 - s.t0 - kids))
            0 !recorded
        in
        (name, if ops = 0 then 0.0 else ms total /. float_of_int ops))
      names

  let write path =
    let span s =
      Json.Obj
        [
          ("op", Json.Num (float_of_int s.op));
          ("id", Json.Num (float_of_int s.id));
          ("parent", Json.Num (float_of_int s.parent));
          ("name", Json.Str s.name);
          ("start_ns", Json.Num (float_of_int s.t0));
          ("end_ns", Json.Num (float_of_int s.t1));
        ]
    in
    Json.to_file path (Json.Arr (List.rev_map span !recorded))
end

(* Obs (the program's own tracing) and the benchmark's spans are on
   together, only in traced ops. *)
let set_tracing on =
  if on then Obs.enable () else Obs.disable ();
  Spans.on := on

(* ------------------------------------------------------------------ *)
(* Failure tally: wrong outputs, exceptions, typed errors and leaks    *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  tlock : Mutex.t;
}

let new_tally () = { attempted = 0; failed = 0; notes = []; tlock = Mutex.create () }

let attempt t = Mutex.protect t.tlock (fun () -> t.attempted <- t.attempted + 1)

let fail t msg =
  Mutex.protect t.tlock (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 8 then t.notes <- msg :: t.notes)

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)

(* Every workload runs on two nodes of one core each: at most two
   domains or two children on a two-core host. *)
let ctx_of backend = Exec.make ~nodes:2 ~cores_per_node:1 ~backend ()

let ctx_json (c : Exec.t) =
  let opt f = function None -> Json.Null | Some v -> f v in
  Json.Obj
    [
      ("nodes", Json.Num (float_of_int c.Exec.nodes));
      ("cores_per_node", Json.Num (float_of_int c.Exec.cores_per_node));
      ("backend", Json.Str (Cluster.backend_to_string c.Exec.backend));
      ("faults", Json.Bool (c.Exec.faults <> None));
      ("grain", opt (fun g -> Json.Num (float_of_int g)) c.Exec.grain);
      ("chunk_multiplier", Json.Num (float_of_int c.Exec.chunk_multiplier));
      ("deadline", opt (fun d -> Json.Num d) c.Exec.deadline);
      ("queue_bound", Json.Num (float_of_int c.Exec.queue_bound));
      ("poll_interval", Json.Num c.Exec.poll_interval);
    ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

type samples = {
  plain : float list;  (** ms per untraced op *)
  traced : float list;  (** ms per traced op *)
  refs : float list;  (** ms per reference run, in op units *)
  window_s : float;  (** wall time of the measured windows *)
  traced_ops : int;
}

let no_samples = { plain = []; traced = []; refs = []; window_s = 0.0; traced_ops = 0 }

let pool a b =
  {
    plain = List.rev_append a.plain b.plain;
    traced = List.rev_append a.traced b.traced;
    refs = List.rev_append a.refs b.refs;
    window_s = a.window_s +. b.window_s;
    traced_ops = a.traced_ops + b.traced_ops;
  }

type outcome = {
  ctx : Exec.t;
  setups : float list;  (** seconds per set-up, up to the first timed op *)
  samples : samples;
  rss_mb : float list;  (** per segment, read at the end of its window *)
  stats : Stats.snapshot list;
      (** runtime counters over each segment's window, so set-up and
          teardown traffic stays out *)
  aggs : (string * Obs.agg) list;  (** program spans of traced ops *)
}

(* A runtime counter summed over the run's segments. *)
let total o field = List.fold_left (fun acc s -> acc + field s) 0 o.stats

(* A run is [segments] rounds of set-up, measurement and teardown, with
   [seconds] split evenly and the samples pooled.  Each set-up is timed
   up to the first timed op.  Fresh set-ups within one run (new data,
   new children) average out effects a single long-lived fabric would
   keep for the whole run, such as where its children were scheduled. *)
let segmented ~ctx ~segments ~seconds ~setup ~measure ~teardown =
  Obs.reset ();
  let rec go k acc =
    if k = segments then
      { acc with setups = List.rev acc.setups; aggs = Obs.aggregates () }
    else begin
      (* Start each segment from a compacted heap, so the previous
         segment's garbage does not raise this one's high-water mark. *)
      Gc.compact ();
      let st, ns = timed setup in
      let s0 = Stats.snapshot () in
      let smp, c, rss =
        Fun.protect
          ~finally:(fun () -> teardown st)
          (fun () ->
            let smp = measure st (seconds /. float_of_int segments) in
            (smp, Stats.diff (Stats.snapshot ()) s0, peak_rss_mb ()))
      in
      go (k + 1)
        {
          acc with
          setups = (float_of_int ns /. 1e9) :: acc.setups;
          samples = pool acc.samples smp;
          rss_mb = rss :: acc.rss_mb;
          stats = c :: acc.stats;
        }
    end
  in
  go 0
    {
      ctx;
      setups = [];
      samples = no_samples;
      rss_mb = [];
      stats = [];
      aggs = [];
    }

(* One-threaded closed loop: [op ~root i] runs op [i] and returns its
   time and, when it ran the reference, the reference time, or an
   error.  [next] numbers ops across segments.  The loop ends once
   [seconds] have passed and the next op starts a [cycle]; with [trace],
   whole cycles alternate untraced and traced so both see the same mix
   of ops. *)
let closed_loop ~next ~seconds ~trace ~cycle tally op =
  let plain = ref [] and traced = ref [] and refs = ref [] in
  let traced_ops = ref 0 in
  let t0 = now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  while now_ns () < stop || !next mod cycle <> 0 do
    let i = !next in
    let on = trace && i / cycle mod 2 = 1 in
    set_tracing on;
    if on then incr traced_ops;
    attempt tally;
    (match Spans.within ~op:i ~parent:0 "op" (fun root -> op ~root i) with
    | Ok (t, r) ->
        if on then traced := t :: !traced else plain := t :: !plain;
        Option.iter (fun r -> refs := r :: !refs) r
    | Error msg -> fail tally (Printf.sprintf "op %d: %s" i msg)
    | exception e ->
        fail tally (Printf.sprintf "op %d raised %s" i (Printexc.to_string e)));
    incr next
  done;
  set_tracing false;
  {
    plain = !plain;
    traced = !traced;
    refs = !refs;
    window_s = float_of_int (now_ns () - t0) /. 1e9;
    traced_ops = !traced_ops;
  }

(* ------------------------------------------------------------------ *)
(* kernels: the four registry kernels through run_triolet, in process  *)

type kcase = {
  kname : string;
  inst : K.Kernel.instance;
  run : Exec.t -> unit -> bool;
      (** [run ctx] runs Triolet and returns the check of its output *)
}

let kernel_seed ~seed i = (seed * 16) + i

(* The registry's runners return unit, so outputs are checked through
   each kernel's module at the registry's [small] dimensions, against
   its [run_c] with its own [agrees] tolerance.  The work-unit count
   must match the registry's instance, so the two cannot drift apart. *)
let kernel_case ~seed (module M : K.Kernel.S) =
  let inst = M.instance ~seed ~size:"small" () in
  let case units run =
    if units <> inst.K.Kernel.work_units then
      failwith
        (Printf.sprintf "perfbench: %s [small] dimensions disagree with the registry"
           M.name);
    { kname = M.name; inst; run }
  in
  match M.name with
  | "mri-q" ->
      let samples, voxels = (1024, 4096) in
      let d = K.Dataset.mriq ~seed ~samples ~voxels in
      let want = K.Mriq.run_c d in
      case (samples * voxels) (fun ctx ->
          let r = K.Mriq.run_triolet ~ctx d in
          fun () -> K.Mriq.agrees want r)
  | "sgemm" ->
      let m, k, n = (256, 256, 256) in
      let a, b = K.Dataset.sgemm_matrices ~seed ~m ~k ~n in
      let want = K.Sgemm.run_c a b in
      case (m * k * n) (fun ctx ->
          let r = K.Sgemm.run_triolet ~ctx a b in
          fun () -> K.Sgemm.agrees want r)
  | "tpacf" ->
      let points, sets, bins = (768, 4, 32) in
      let d = K.Dataset.tpacf ~seed ~points ~random_sets:sets in
      let want = K.Tpacf.run_c ~bins d in
      case
        (points * points * ((2 * sets) + 1) / 2)
        (fun ctx ->
          let r = K.Tpacf.run_triolet ~ctx ~bins d in
          fun () -> K.Tpacf.agrees want r)
  | "cutcp" ->
      let atoms, g, spacing, cutoff = (2048, 32, 0.5, 3.0) in
      let d = K.Dataset.cutcp ~seed ~atoms ~nx:g ~ny:g ~nz:g ~spacing ~cutoff in
      let want = K.Cutcp.run_c d in
      let box = int_of_float ((2.0 *. cutoff /. spacing) +. 1.0) in
      case (atoms * box * box * box) (fun ctx ->
          let r = K.Cutcp.run_triolet ~ctx d in
          fun () -> K.Cutcp.agrees want r)
  | other ->
      failwith
        (Printf.sprintf "perfbench: no output check for registered kernel %S" other)

(* The C reference pass runs on every [ref_every]-th op. *)
let ref_every = 6

let kernels ~seed ~seconds ~trace ~segments tally =
  Pool.set_default_width 2;
  let ctx = ctx_of Cluster.Inprocess in
  Exec.set_ambient ctx;
  let setup () =
    let cases =
      List.mapi (fun i k -> kernel_case ~seed:(kernel_seed ~seed i) k) (K.Kernel.all ())
    in
    List.iter
      (fun c ->
        ignore (c.run ctx ());
        c.inst.K.Kernel.run_ref ())
      cases;
    cases
  in
  let next = ref 0 in
  let measure cases seconds =
    closed_loop ~next ~seconds ~trace ~cycle:1 tally (fun ~root i ->
        let total = ref 0 and bad = ref [] in
        List.iter
          (fun c ->
            let check, ns =
              Spans.within ~op:i ~parent:root "kernel" (fun _ ->
                  timed (fun () -> c.run ctx))
            in
            total := !total + ns;
            if not (Spans.within ~op:i ~parent:root "check" (fun _ -> check ())) then
              bad := c.kname :: !bad)
          cases;
        let r =
          if i mod ref_every <> 0 then None
          else
            Spans.within ~op:i ~parent:root "ref" (fun _ ->
                Some
                  (ms
                     (List.fold_left
                        (fun acc c -> acc + snd (timed c.inst.K.Kernel.run_ref))
                        0 cases)))
        in
        if !bad = [] then Ok (ms !total, r)
        else Error ("output differs from run_c: " ^ String.concat ", " !bad))
  in
  (segmented ~ctx ~segments ~seconds ~setup ~measure ~teardown:ignore, [])

(* ------------------------------------------------------------------ *)
(* wire: the paper's section 2 dot product on the process backend      *)

let wire_len = 1_000_000

let wire_dot ctx xs ys =
  Iter.sum ~ctx
    (Iter.map
       (fun (x, y) -> x *. y)
       (Iter.zip (Iter.par (Iter.of_floatarray xs)) (Iter.of_floatarray ys)))

let wire_data ~seed =
  let rng = Rng.create seed in
  let gen r = Rng.float_range r (-1.0) 1.0 in
  let xs = Rng.floatarray rng wire_len gen in
  let ys = Rng.floatarray rng wire_len gen in
  (xs, ys)

let seq_dot xs ys =
  sum_floats (Float.Array.length xs) (fun i ->
      Float.Array.get xs i *. Float.Array.get ys i)

let wire ~seed ~seconds ~trace ~segments tally =
  Pool.set_default_width 1;
  let ctx = ctx_of Cluster.Process in
  Exec.set_ambient ctx;
  let setup () =
    let xs, ys = wire_data ~seed in
    ignore (wire_dot ctx xs ys);
    (* Different association orders agree to well within this bound:
       1e-9 of the sum of |x_i y_i|. *)
    let tol =
      1e-9
      *. sum_floats wire_len (fun i ->
             Float.abs (Float.Array.get xs i *. Float.Array.get ys i))
    in
    (xs, ys, tol)
  in
  let next = ref 0 in
  let measure (xs, ys, tol) seconds =
    closed_loop ~next ~seconds ~trace ~cycle:1 tally (fun ~root i ->
        let got, ns =
          Spans.within ~op:i ~parent:root "iter" (fun _ ->
              timed (fun () -> wire_dot ctx xs ys))
        in
        let want, rns =
          Spans.within ~op:i ~parent:root "ref" (fun _ -> timed (fun () -> seq_dot xs ys))
        in
        let ok =
          Spans.within ~op:i ~parent:root "check" (fun _ ->
              Float.abs (got -. want) <= tol)
        in
        if ok then Ok (ms ns, Some (ms rns))
        else Error (Printf.sprintf "dot %.17g, sequential %.17g" got want))
  in
  (segmented ~ctx ~segments ~seconds ~setup ~measure ~teardown:ignore, [])

(* ------------------------------------------------------------------ *)
(* resident: Sgemm.Resident with A resident and B shipped each round   *)

let res_m = 256
let res_k = 256
let res_n = 16
let res_bs = 8
let res_warmup = 16

(* Every [res_cycle]-th round is preceded by update_a, which replaces
   one row block of A; the others are reads. *)
let res_cycle = 4

type res_state = {
  r : K.Sgemm.Resident.t;
  mutable a : Matrix.t;
  bs : Matrix.t array;
  rng : Rng.t;
}

(* A copy of [a] with row block [blk] (of two) redrawn. *)
let redraw_block rng a blk =
  let a' = Matrix.copy_rows a 0 (Matrix.rows a) in
  let half = Matrix.rows a / 2 in
  for i = blk * half to ((blk + 1) * half) - 1 do
    for j = 0 to Matrix.cols a - 1 do
      Matrix.set a' i j (Rng.float_range rng (-1.0) 1.0)
    done
  done;
  a'

let resident ~seed ~seconds ~trace ~segments tally =
  Pool.set_default_width 1;
  let ctx = ctx_of Cluster.Process in
  Exec.set_ambient ctx;
  let cold_bytes = ref 0 in
  let setup () =
    let rng = Rng.create seed in
    let a = Matrix.random rng res_m res_k (-1.0) 1.0 in
    let bs = Array.init res_bs (fun _ -> Matrix.random rng res_k res_n (-1.0) 1.0) in
    let r = K.Sgemm.Resident.create ~ctx a in
    let _, cold = K.Sgemm.Resident.multiply r bs.(0) in
    cold_bytes := cold.Cluster.scatter_bytes;
    for i = 1 to res_warmup do
      ignore (K.Sgemm.Resident.multiply r bs.(i mod res_bs))
    done;
    { r; a; bs; rng }
  in
  let reads = ref [] and writes = ref [] and read_bytes = ref [] in
  let next = ref 0 in
  let measure st seconds =
    closed_loop ~next ~seconds ~trace ~cycle:res_cycle tally (fun ~root i ->
        let write = i mod res_cycle = res_cycle - 1 in
        let b = st.bs.(i mod res_bs) in
        let a' =
          if write then Some (redraw_block st.rng st.a (i / res_cycle mod 2)) else None
        in
        let (changed, (c, rep)), ns =
          Spans.within ~op:i ~parent:root "darray" (fun _ ->
              timed (fun () ->
                  let changed =
                    Option.fold ~none:0 ~some:(K.Sgemm.Resident.update_a st.r) a'
                  in
                  (changed, K.Sgemm.Resident.multiply st.r b)))
        in
        Option.iter (fun a -> st.a <- a) a';
        if write then writes := ms ns :: !writes
        else begin
          reads := ms ns :: !reads;
          read_bytes := float_of_int rep.Cluster.scatter_bytes :: !read_bytes
        end;
        let want, rns =
          Spans.within ~op:i ~parent:root "ref" (fun _ ->
              timed (fun () -> K.Sgemm.run_c st.a b))
        in
        if write && changed <> 1 then
          Error (Printf.sprintf "update_a changed %d row blocks, expected 1" changed)
        else if Spans.within ~op:i ~parent:root "check" (fun _ -> K.Sgemm.agrees want c)
        then Ok (ms ns, Some (ms rns))
        else Error "C differs from Sgemm.run_c")
  in
  let o =
    segmented ~ctx ~segments ~seconds ~setup ~measure ~teardown:(fun st ->
        K.Sgemm.Resident.close st.r)
  in
  let warm = median !read_bytes and cold = float_of_int !cold_bytes in
  ( o,
    [
      ("darray.cold_bytes", cold, "B");
      ("darray.warm_bytes", warm, "B");
      ("darray.byte_ratio", warm /. cold, "ratio");
      ("darray.read_round_ms", median !reads, "ms");
      ("darray.write_round_ms", median !writes, "ms");
      ("darray.respawns", float_of_int (total o (fun s -> s.Stats.respawns)), "count");
    ] )

(* ------------------------------------------------------------------ *)
(* service: a warm Service driven in a closed loop by two clients       *)

let svc_clients = 2
let svc_slice = 1024
let svc_requests = 16
let svc_warmup = 100

let svc_work = function
  | [ Payload.Floats a ] ->
      [ Payload.Floats (Float.Array.map (fun x -> (2.0 *. x) +. 1.0) a) ]
  | _ -> failwith "perfbench service: unexpected payload"

(* The clients run in windows of [svc_window] seconds.  They start and
   stop together at window edges, so tracing (on in every other window
   of a traced run) is only switched while no request is in flight, and
   the reference runs between windows, alone: inside a window the
   clients and the dispatcher take turns on one runtime lock. *)
let svc_window = 0.25

(* The reference: the same work as a loop into a preallocated buffer,
   over all [svc_requests] requests, reported per request; timed
   [svc_ref_runs] times between windows. *)
let svc_ref_runs = 16

let svc_ref_loop reqs dst =
  Array.iter
    (Array.iter (function
      | [ Payload.Floats a ] ->
          for j = 0 to Float.Array.length a - 1 do
            Float.Array.unsafe_set dst j ((2.0 *. Float.Array.unsafe_get a j) +. 1.0)
          done
      | _ -> ()))
    reqs

let service ~seed ~seconds ~trace ~segments tally =
  Pool.set_default_width 1;
  let ctx = ctx_of Cluster.Process in
  Exec.set_ambient ctx;
  let cfg =
    {
      Service.default_config with
      Service.nodes = ctx.Exec.nodes;
      cores_per_node = ctx.Exec.cores_per_node;
      queue_bound = ctx.Exec.queue_bound;
      poll_interval = ctx.Exec.poll_interval;
    }
  in
  let rng = Rng.create seed in
  let reqs =
    Array.init svc_requests (fun _ ->
        Array.init 2 (fun _ ->
            let gen r = Rng.float_range r (-1.0) 1.0 in
            [ Payload.Floats (Rng.floatarray rng svc_slice gen) ]))
  in
  (* Expected replies: the work applied locally. *)
  let wants = Array.map (Array.map svc_work) reqs in
  let setup () =
    let t = Service.create ~cfg ~work:(fun ~node:_ ~pool:_ p -> svc_work p) () in
    for i = 0 to svc_warmup - 1 do
      ignore (Service.submit t reqs.(i mod svc_requests))
    done;
    t
  in
  let next = Atomic.make 0 in
  let measure t seconds =
    let lock = Mutex.create () in
    let plain = ref [] and traced = ref [] in
    let client ~on stop =
      while now_ns () < stop do
        let i = Atomic.fetch_and_add next 1 in
        attempt tally;
        match
          Spans.within ~op:i ~parent:0 "op" (fun root ->
              let got, ns =
                Spans.within ~op:i ~parent:root "service" (fun _ ->
                    timed (fun () -> Service.submit t reqs.(i mod svc_requests)))
              in
              match got with
              | Error e -> Error (Service.error_to_string e)
              | Ok reply ->
                  let want = wants.(i mod svc_requests) in
                  if Spans.within ~op:i ~parent:root "check" (fun _ -> reply = want) then
                    Ok (ms ns)
                  else Error "reply differs from the work applied locally")
        with
        | Ok l ->
            Mutex.protect lock (fun () ->
                if on then traced := l :: !traced else plain := l :: !plain)
        | Error msg -> fail tally (Printf.sprintf "request %d: %s" i msg)
        | exception e ->
            fail tally (Printf.sprintf "request %d raised %s" i (Printexc.to_string e))
      done
    in
    let dst = Float.Array.create svc_slice in
    let refs = ref [] and window_s = ref 0.0 and k = ref 0 in
    while !window_s < seconds do
      let on = trace && !k mod 2 = 1 in
      set_tracing on;
      let t0 = now_ns () in
      let stop = t0 + int_of_float (svc_window *. 1e9) in
      List.init svc_clients (fun _ -> Thread.create (client ~on) stop)
      |> List.iter Thread.join;
      window_s := !window_s +. (float_of_int (now_ns () - t0) /. 1e9);
      set_tracing false;
      for _ = 1 to svc_ref_runs do
        let (), ns = timed (fun () -> svc_ref_loop reqs dst) in
        refs := (ms ns /. float_of_int svc_requests) :: !refs
      done;
      incr k
    done;
    {
      plain = !plain;
      traced = !traced;
      refs = !refs;
      window_s = !window_s;
      traced_ops = List.length !traced;
    }
  in
  let o =
    segmented ~ctx ~segments ~seconds ~setup ~measure ~teardown:(fun t ->
        Service.shutdown t)
  in
  let count name field = (name, float_of_int (total o field), "count") in
  ( o,
    [
      count "service.shed" (fun s -> s.Stats.shed);
      count "service.heartbeat_misses" (fun s -> s.Stats.heartbeat_misses);
      count "service.respawns" (fun s -> s.Stats.respawns);
      count "service.deadline_expired" (fun s -> s.Stats.deadline_expired);
    ] )

(* ------------------------------------------------------------------ *)
(* Running a workload                                                   *)

let workloads =
  [ ("kernels", kernels); ("wire", wire); ("resident", resident); ("service", service) ]

(* A run sets up, measures and tears down this many times. *)
let run_segments = 5

let num v = Json.Num v
let metric (name, v, unit) =
  (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ])

(* Runs a workload between two leak checks: no child may outlive it and
   the descriptor count must come back to where it started. *)
let leak_checked ~name ~seed ~seconds ~trace ~segments tally =
  let fds0 = fd_count () in
  let r = (List.assoc name workloads) ~seed ~seconds ~trace ~segments tally in
  (match children () with
  | [] -> ()
  | pids ->
      fail tally
        (Printf.sprintf "%d child process(es) left alive: %s" (List.length pids)
           (String.concat " " (List.map string_of_int pids))));
  let fds1 = fd_count () in
  if fds1 <> fds0 then
    fail tally
      (Printf.sprintf "file descriptors: %d before the workload, %d after" fds0 fds1);
  r

let end_to_end tally o =
  let s = o.samples in
  [
    ("setup_s", median o.setups, "s");
    ("op_ms_p50", median s.plain, "ms");
    ("op_ms_p90", quantile 0.9 s.plain, "ms");
    ("ops_per_s", float_of_int tally.attempted /. s.window_s, "1/s");
    ("peak_rss_mb", median o.rss_mb, "MB");
    ("ratio_vs_c", median s.plain /. median s.refs, "ratio");
  ]

(* Per-layer rows measured on the workload itself (traced run). *)
let on_workload tally o =
  let per_op field =
    float_of_int (total o field) /. float_of_int (max 1 tally.attempted)
  in
  let phase p =
    match List.assoc_opt ("cluster." ^ p) o.aggs with
    | None -> 0.0
    | Some a -> ms a.Obs.agg_total_ns /. float_of_int (max 1 o.samples.traced_ops)
  in
  [
    ("obs.overhead", (median o.samples.traced /. median o.samples.plain) -. 1.0, "ratio");
    ("cluster.messages_per_op", per_op (fun s -> s.Stats.messages), "count");
    ("cluster.bytes_per_op", per_op (fun s -> s.Stats.bytes_sent), "B");
    ("cluster.retries", float_of_int (total o (fun s -> s.Stats.retries)), "count");
  ]
  @ List.map
      (fun p -> ("cluster." ^ p ^ "_ms", phase p, "ms"))
      [ "serialize"; "send"; "recv"; "compute"; "merge" ]
  @ List.map
      (fun (n, v) -> ("self_ms." ^ n, v, "ms"))
      (Spans.self_ms_per_op ~ops:o.samples.traced_ops)

let sample_counts o =
  let s = o.samples in
  let p90 = quantile 0.9 s.plain in
  let count l = num (float_of_int (List.length l)) in
  Json.Obj
    [
      ("untraced_ops", count s.plain);
      ("traced_ops", count s.traced);
      ("reference_runs", count s.refs);
      ("beyond_p90", count (List.filter (fun x -> x > p90) s.plain));
      ("setups", count o.setups);
    ]

let report ~phase ~extra tally rows =
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("phase", Json.Str phase);
             ("attempted", num (float_of_int tally.attempted));
             ("failed", num (float_of_int tally.failed));
             ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) tally.notes));
             ("metrics", Json.Obj (List.map metric rows));
           ]
          @ extra)))

let run_workload ~name ~seed ~seconds ~trace ~spans =
  let tally = new_tally () in
  let o, _ = leak_checked ~name ~seed ~seconds ~trace ~segments:run_segments tally in
  let rows = if trace then on_workload tally o else end_to_end tally o in
  Option.iter Spans.write spans;
  report ~phase:"run" tally rows
    ~extra:
      [
        ("workload", Json.Str name);
        ("seed", num (float_of_int seed));
        ("ctx", ctx_json o.ctx);
        ("samples", sample_counts o);
      ]

(* ------------------------------------------------------------------ *)
(* Layer probes                                                         *)

(* Median wall time of [reps] calls of [f], in ms. *)
let median_ms reps f = median (List.init reps (fun _ -> ms (snd (timed f))))

(* transport: Socket frames to an echo child, and Proc fork/shutdown. *)
let echo ~id:_ chan =
  let rec loop () =
    match Transport.Socket.recv chan with
    | exception Transport.Closed -> ()
    | kind, b ->
        Transport.Socket.send chan ~kind
          (if Bytes.length b > 64 then Bytes.make 1 'k' else b);
        loop ()
  in
  loop ()

let transport_probe () =
  let fork_ms =
    median_ms 10 (fun () ->
        Transport.Proc.shutdown (Transport.Proc.fork ~n:2 ~child:echo))
  in
  let p = Transport.Proc.fork ~n:1 ~child:echo in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown p)
    (fun () ->
      let chan = (Transport.Proc.node p 0).Transport.Proc.chan in
      let round b =
        Transport.Socket.send chan b;
        ignore (Transport.Socket.recv chan)
      in
      let small = Bytes.make 64 's' and large = Bytes.make (8 * 1024 * 1024) 'l' in
      for _ = 1 to 200 do
        round small
      done;
      let rtt_ms = median_ms 2000 (fun () -> round small) in
      let large_ms = median_ms 10 (fun () -> round large) in
      [
        ("transport.rtt_us.small", rtt_ms *. 1e3, "us");
        ( "transport.mbps.large",
          float_of_int (Bytes.length large) /. (large_ms *. 1e3),
          "MB/s" );
        ("transport.fork_ms", fork_ms, "ms");
      ])

(* codec: Payload.codec on one node's wire slice (8 MB), a resident
   round's B arguments (two nodes, 65 KB) and one service slice (8 KB). *)
let codec_probe ~seed =
  let xs, ys = wire_data ~seed in
  let half = wire_len / 2 in
  let wire_slice =
    (Iter.zip (Iter.of_floatarray xs) (Iter.of_floatarray ys)).Iter.payload_of 0 half
  in
  let bt = Float.Array.sub xs 0 (res_k * res_n) in
  let arg = [ Payload.Ints [| res_n; res_k |]; Payload.Floats bt ] in
  let res_round = arg @ arg in
  let svc = [ Payload.Floats (Float.Array.sub ys 0 svc_slice) ] in
  let time p reps =
    let bytes = Codec.to_bytes Payload.codec p in
    if Codec.of_bytes Payload.codec bytes <> p then
      failwith "perfbench: codec roundtrip differs";
    ( median_ms reps (fun () -> Codec.to_bytes Payload.codec p),
      median_ms reps (fun () -> Codec.of_bytes Payload.codec bytes),
      Bytes.length bytes )
  in
  let timings =
    List.map
      (fun (name, p, reps) -> (name, time p reps))
      [ ("wire", wire_slice, 10); ("resident", res_round, 200); ("service", svc, 1000) ]
  in
  let wire_enc, _, wire_bytes = List.assoc "wire" timings in
  List.concat_map
    (fun (name, (enc, dec, _)) ->
      [ ("codec.encode_ms." ^ name, enc, "ms"); ("codec.decode_ms." ^ name, dec, "ms") ])
    timings
  @ [ ("codec.encode_gbps", float_of_int wire_bytes /. (wire_enc *. 1e6), "GB/s") ]

(* core and pool: each registry kernel's sequential pipeline against its
   C reference, and its parallel run on one node of two cores. *)
let core_pool_probe ~seed =
  Pool.set_default_width 2;
  Exec.set_ambient (ctx_of Cluster.Inprocess);
  let par_ctx = Exec.make ~nodes:1 ~cores_per_node:2 ~backend:Cluster.Inprocess () in
  let reps = 3 in
  let rows, pool_stats =
    Stats.measure (fun () ->
        List.mapi
          (fun i (module M : K.Kernel.S) ->
            let inst = M.instance ~seed:(kernel_seed ~seed i) ~size:"small" () in
            inst.K.Kernel.run_ref ();
            inst.K.Kernel.run_seq ();
            inst.K.Kernel.run_triolet ~ctx:par_ctx ();
            let c = median_ms reps inst.K.Kernel.run_ref in
            let s = median_ms reps inst.K.Kernel.run_seq in
            let p =
              median_ms reps (fun () -> inst.K.Kernel.run_triolet ~ctx:par_ctx ())
            in
            (M.name, c, s, p))
          (K.Kernel.all ()))
  in
  List.concat_map
    (fun (k, c, s, p) ->
      [
        ("core.seq_ms." ^ k, s, "ms");
        ("core.gap." ^ k, s /. c, "ratio");
        ("pool.par_ms." ^ k, p, "ms");
        ("pool.speedup." ^ k, s /. p, "ratio");
      ])
    rows
  @ [
      ("pool.chunks", float_of_int pool_stats.Stats.chunks_run, "count");
      ("pool.splits", float_of_int pool_stats.Stats.splits, "count");
      ("pool.steals", float_of_int pool_stats.Stats.steals, "count");
      ("pool.failed_steals", float_of_int pool_stats.Stats.failed_steals, "count");
      ("pool.imbalance", Stats.imbalance pool_stats, "ratio");
    ]

(* Fork-based probes first: the core/pool probe spawns a domain. *)
let run_probe ~seed =
  let tally = new_tally () in
  let short name =
    snd (leak_checked ~name ~seed ~seconds:1.0 ~trace:false ~segments:1 tally)
  in
  let rows = transport_probe () in
  let rows = rows @ short "resident" @ short "service" in
  let rows = rows @ codec_probe ~seed in
  let rows = rows @ core_pool_probe ~seed in
  report ~phase:"probe" tally rows ~extra:[ ("seed", num (float_of_int seed)) ]

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload (kernels|wire|resident|service) --seed N \
     --seconds S [--trace] [--spans FILE]\n\
    \       bench.exe probe --seed N";
  exit 2

(* The workloads pin their context explicitly; an inherited backend or
   mapping file would silently change what they measure. *)
let refuse_ambient () =
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | None -> ()
      | Some s ->
          Printf.eprintf "perfbench: refusing to run with %s=%S set\n" v s;
          exit 2)
    [ "TRIOLET_BACKEND"; "TRIOLET_MAPPINGS" ]

let () =
  refuse_ambient ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | [] -> acc
    | "--trace" :: tl -> opts (("trace", "1") :: acc) tl
    | (("--workload" | "--seed" | "--seconds" | "--spans") as k) :: v :: tl ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | _ -> usage ()
  in
  let int_opt o k = Option.bind (List.assoc_opt k o) int_of_string_opt in
  match args with
  | "run" :: rest -> (
      let o = opts [] rest in
      match
        ( List.assoc_opt "workload" o,
          int_opt o "seed",
          Option.bind (List.assoc_opt "seconds" o) float_of_string_opt )
      with
      | Some name, Some seed, Some seconds
        when List.mem_assoc name workloads && seconds > 0.0 ->
          run_workload ~name ~seed ~seconds ~trace:(List.mem_assoc "trace" o)
            ~spans:(List.assoc_opt "spans" o)
      | _ -> usage ())
  | "probe" :: rest -> (
      match int_opt (opts [] rest) "seed" with
      | Some seed -> run_probe ~seed
      | None -> usage ())
  | _ -> usage ()
