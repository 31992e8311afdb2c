(* End-to-end integration: whole-pipeline scenarios across subsystems,
   with the *cluster geometry itself* randomized — results must be
   independent of node count, cores per node, and flat/two-level mode,
   and byte accounting must track the data actually sliced. *)

open Triolet
open Triolet_kernels
module Cluster = Triolet_runtime.Cluster
module Stats = Triolet_runtime.Stats
module Codec = Triolet_base.Codec

let () = Triolet_runtime.Pool.set_default_width 2

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen prop)

(* A cluster shape: two-level on the ambient backend, or flat. *)
let shape ~nodes ~cores ~flat =
  Exec.make ~nodes ~cores_per_node:cores
    ~backend:(if flat then Cluster.Flat else (Exec.default ()).Exec.backend)
    ()

let gen_cluster =
  QCheck2.Gen.(
    map3
      (fun nodes cores flat -> shape ~nodes ~cores ~flat)
      (int_range 1 6) (int_range 1 4) bool)

let on ctx f = Exec.with_context ctx f

(* ------------------------------------------------------------------ *)
(* Cluster-shape invariance of full kernels                            *)

let prop_mriq_cluster_invariant =
  qtest "mri-q result independent of cluster shape" gen_cluster (fun cfg ->
      let d = Dataset.mriq ~seed:201 ~samples:12 ~voxels:23 in
      let reference = Mriq.run_c d in
      on cfg (fun () -> Mriq.agrees ~eps:1e-9 reference (Mriq.run_triolet d)))

let prop_sgemm_cluster_invariant =
  qtest "sgemm result independent of cluster shape" gen_cluster (fun cfg ->
      let a, b = Dataset.sgemm_matrices ~seed:202 ~m:9 ~k:7 ~n:8 in
      let reference = Sgemm.run_c a b in
      on cfg (fun () -> Sgemm.agrees reference (Sgemm.run_triolet a b)))

let prop_tpacf_cluster_invariant =
  qtest "tpacf result independent of cluster shape" gen_cluster (fun cfg ->
      let d = Dataset.tpacf ~seed:203 ~points:18 ~random_sets:2 in
      let reference = Tpacf.run_c ~bins:8 d in
      on cfg (fun () -> Tpacf.agrees reference (Tpacf.run_triolet ~bins:8 d)))

let prop_cutcp_cluster_invariant =
  qtest "cutcp result independent of cluster shape" gen_cluster (fun cfg ->
      let c =
        Dataset.cutcp ~seed:204 ~atoms:12 ~nx:8 ~ny:7 ~nz:6 ~spacing:0.5
          ~cutoff:1.5
      in
      let reference = Cutcp.run_c c in
      on cfg (fun () ->
          Cutcp.agrees ~eps:1e-9 reference (Cutcp.run_triolet c)
          && Cutcp.agrees ~eps:1e-9 reference (Cutcp.run_gather c)))

(* ------------------------------------------------------------------ *)
(* Pipelines across the whole API surface                              *)

let prop_pipeline_cluster_invariant =
  qtest "filter/concat_map/zip pipeline independent of cluster shape"
    QCheck2.Gen.(pair gen_cluster (int_range 1 200))
    (fun (cfg, n) ->
      let xs = Float.Array.init n (fun i -> float_of_int (i mod 17)) in
      let run hint =
        Iter.of_floatarray xs
        |> hint
        |> Iter.zip_with (fun i x -> (i, x)) (Iter.range 0 n)
        |> Iter.filter (fun (i, _) -> i mod 3 <> 1)
        |> Iter.concat_map (fun (i, x) ->
               Seq_iter.map
                 (fun k -> x +. float_of_int k)
                 (Seq_iter.range 0 (i mod 4)))
        |> Iter.sum
      in
      let seq = run Iter.sequential in
      on cfg (fun () -> Float.abs (run Iter.par -. seq) <= 1e-9 *. (1.0 +. Float.abs seq)))

let prop_histogram_merge_associativity =
  qtest "histograms over any cluster = sequential histogram"
    QCheck2.Gen.(pair gen_cluster (list_size (int_range 1 150) (int_bound 11)))
    (fun (cfg, l) ->
      let a = Array.of_list l in
      let reference = Iter.histogram ~bins:12 (Iter.of_int_array a) in
      on cfg (fun () ->
          reference = Iter.histogram ~bins:12 (Iter.par (Iter.of_int_array a))))

(* ------------------------------------------------------------------ *)
(* Byte accounting end to end                                          *)

let test_scatter_volume_tracks_input () =
  (* Across cluster shapes, scatter volume for a sliced reduction stays
     ~ the input size (plus per-message headers), never nodes x input. *)
  let n = 4096 in
  let xs = Float.Array.make n 1.5 in
  List.iter
    (fun nodes ->
      Exec.with_context (Exec.make ~nodes ~cores_per_node:2 ())
        (fun () ->
          Stats.reset ();
          let _, d =
            Stats.measure (fun () -> Iter.sum (Iter.par (Iter.of_floatarray xs)))
          in
          let raw = 8 * n in
          Alcotest.(check bool)
            (Printf.sprintf "%d nodes sliced" nodes)
            true
            (d.Stats.bytes_sent > raw && d.Stats.bytes_sent < raw + (nodes * 256))))
    [ 1; 2; 5; 8 ]

let test_messages_scale_with_workers () =
  let xs = Float.Array.make 512 1.0 in
  let msgs cfg =
    on cfg (fun () ->
        Stats.reset ();
        let _, d =
          Stats.measure (fun () -> Iter.sum (Iter.par (Iter.of_floatarray xs)))
        in
        d.Stats.messages)
  in
  Alcotest.(check int) "two-level: 2 per node" 8
    (msgs (shape ~nodes:4 ~cores:4 ~flat:false));
  Alcotest.(check int) "flat: 2 per core" 32
    (msgs (shape ~nodes:4 ~cores:4 ~flat:true))

(* ------------------------------------------------------------------ *)
(* A full "user session": several consumers over one dataset           *)

let test_user_session () =
  Exec.with_context (Exec.make ~nodes:(3) ~cores_per_node:(2) ())
    (fun () ->
      let n = 1000 in
      let xs = Float.Array.init n (fun i -> sin (float_of_int i)) in
      let it () = Iter.par (Iter.of_floatarray xs) in
      (* statistics *)
      let total = Iter.sum (it ()) in
      let mn = Iter.min_float (it ()) and mx = Iter.max_float (it ()) in
      Alcotest.(check bool) "bounds" true (mn >= -1.0 && mx <= 1.0);
      Alcotest.(check bool) "mean consistent" true
        (Float.abs ((total /. float_of_int n) -. Iter.mean (it ())) < 1e-9);
      (* histogram of signs *)
      let h =
        Iter.histogram ~bins:2
          (Iter.map (fun x -> if x < 0.0 then 0 else 1) (it ()))
      in
      Alcotest.(check int) "histogram covers all" n (h.(0) + h.(1));
      (* packing a filtered projection preserves order *)
      let packed =
        Iter.collect_floats (Iter.filter (fun x -> x > 0.9) (it ()))
      in
      let reference =
        List.filter (fun x -> x > 0.9)
          (List.init n (fun i -> Float.Array.get xs i))
      in
      Alcotest.(check int) "packed length" (List.length reference)
        (Float.Array.length packed);
      List.iteri
        (fun i v ->
          Alcotest.(check (float 0.0)) "packed order" v (Float.Array.get packed i))
        reference)

let () =
  Alcotest.run "integration"
    [
      ( "cluster-shape invariance",
        [
          prop_mriq_cluster_invariant;
          prop_sgemm_cluster_invariant;
          prop_tpacf_cluster_invariant;
          prop_cutcp_cluster_invariant;
          prop_pipeline_cluster_invariant;
          prop_histogram_merge_associativity;
        ] );
      ( "byte accounting",
        [
          Alcotest.test_case "scatter tracks input" `Quick
            test_scatter_volume_tracks_input;
          Alcotest.test_case "messages per worker" `Quick
            test_messages_scale_with_workers;
        ] );
      ( "user session",
        [ Alcotest.test_case "several consumers" `Quick test_user_session ] );
    ]
