(* Transport layer tests: the process fabric and both frame transports.

   ORDER MATTERS.  The process backend forks, and OCaml forbids [fork]
   once any domain has ever been spawned, so every fork-dependent test
   runs in the first suites — before the conformance tests, which spawn
   receiver domains.  The final suite checks the fail-fast guard the
   other way around: once domains exist, the process backend must raise
   a clear [Failure] instead of a cryptic fork error. *)

open Triolet_runtime
module Payload = Triolet_base.Payload
module Codec = Triolet_base.Codec

(* Keep the parent single-domain so forking stays possible: the default
   pool must never spawn a worker domain in this process. *)
let () = Pool.set_default_width 1

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Process fabric (fork-dependent: must run before any domain exists)   *)

let reverse_bytes b =
  let n = Bytes.length b in
  Bytes.init n (fun i -> Bytes.get b (n - 1 - i))

let test_fabric_echo () =
  let fabric =
    Transport.Proc.fork ~n:2 ~child:(fun ~id:_ chan ->
        let rec loop () =
          match Transport.Socket.recv chan with
          | kind, payload ->
              Transport.Socket.send chan ~kind (reverse_bytes payload);
              loop ()
          | exception Transport.Closed -> ()
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      (* One frame per child, echoed reversed, read back per child. *)
      Array.iteri
        (fun i payload ->
          let chan = (Transport.Proc.node fabric i).Transport.Proc.chan in
          Transport.Socket.send chan (Bytes.of_string payload);
          let kind, reply = Transport.Socket.recv chan in
          check_bool "data kind" true (kind = Transport.Data);
          Alcotest.(check string)
            "reversed"
            (Bytes.to_string (reverse_bytes (Bytes.of_string payload)))
            (Bytes.to_string reply))
        [| "hello node zero"; "frames stay whole" |];
      (* Err frames keep their kind across the wire. *)
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan ~kind:Transport.Err (Bytes.of_string "boom");
      let kind, reply = Transport.Socket.recv chan in
      check_bool "err kind" true (kind = Transport.Err);
      Alcotest.(check string) "err payload" "moob" (Bytes.to_string reply))

(* An echo serve loop shared by the teardown/respawn regressions. *)
let echo_child ~id:_ chan =
  let rec loop () =
    match Transport.Socket.recv chan with
    | kind, payload ->
        Transport.Socket.send chan ~kind (reverse_bytes payload);
        loop ()
    | exception Transport.Closed -> ()
  in
  loop ()

(* Regression (satellite of the service PR): shutdown must be
   idempotent — calling it twice, e.g. once from a normal path and once
   from a [~finally], used to double-close fds and double-wait pids. *)
let test_double_shutdown () =
  let fabric = Transport.Proc.fork ~n:2 ~child:echo_child in
  Transport.Proc.shutdown ~grace:2.0 fabric;
  (* Second call must be a silent no-op, never an exception. *)
  Transport.Proc.shutdown ~grace:2.0 fabric;
  check_int "no nodes alive" 0 (List.length (Transport.Proc.alive_ids fabric))

(* Shutdown racing a child dying on its own: the child is SIGKILLed
   (possibly mid-frame) right before teardown; shutdown must absorb the
   EPIPE/ECHILD fallout instead of raising out of a [~finally]. *)
let test_shutdown_with_dying_child () =
  let fabric = Transport.Proc.fork ~n:3 ~child:echo_child in
  (* Kill one child and immediately shut down, without waiting for the
     EOF to surface: teardown and death race. *)
  Transport.Proc.kill fabric 1;
  Transport.Proc.shutdown ~grace:2.0 fabric;
  Transport.Proc.shutdown ~grace:2.0 fabric;
  check_int "fabric drained" 0 (List.length (Transport.Proc.alive_ids fabric))

(* Kill + respawn: the replacement child runs the same closure over a
   fresh channel and pid, and sibling channels keep working throughout. *)
let test_kill_respawn_echo () =
  let fabric = Transport.Proc.fork ~n:2 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let old_pid = Transport.Proc.pid fabric 0 in
      Transport.Proc.kill fabric 0;
      (* Observe the EOF so the node is marked dead. *)
      let rec await_eof () =
        match Transport.Proc.recv_any fabric ~timeout:1.0 with
        | `Eof 0 -> ()
        | `Eof _ | `Msg _ | `Wake -> await_eof ()
        | `Timeout | `No_nodes -> Alcotest.fail "no EOF after SIGKILL"
      in
      await_eof ();
      check_bool "node 0 dead" false (Transport.Proc.is_alive fabric 0);
      Transport.Proc.respawn fabric 0 ~child:echo_child;
      check_bool "node 0 alive again" true (Transport.Proc.is_alive fabric 0);
      check_bool "fresh incarnation" true
        (Transport.Proc.pid fabric 0 <> old_pid);
      (* The replacement serves... *)
      let chan0 = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan0 (Bytes.of_string "abc");
      let _, r0 = Transport.Socket.recv chan0 in
      Alcotest.(check string) "respawned echoes" "cba" (Bytes.to_string r0);
      (* ...and the sibling was never disturbed. *)
      let chan1 = (Transport.Proc.node fabric 1).Transport.Proc.chan in
      Transport.Socket.send chan1 (Bytes.of_string "xyz");
      let _, r1 = Transport.Socket.recv chan1 in
      Alcotest.(check string) "sibling still serves" "zyx" (Bytes.to_string r1))

(* Ping/Pong kinds cross the wire like any frame. *)
let test_ping_pong_frames () =
  let fabric = Transport.Proc.fork ~n:1 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let chan = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      Transport.Socket.send chan ~kind:Transport.Ping (Bytes.of_string "hb");
      let kind, payload = Transport.Socket.recv chan in
      check_bool "ping kind preserved" true (kind = Transport.Ping);
      Alcotest.(check string) "payload" "bh" (Bytes.to_string payload))

(* A child that ignores EOF is SIGKILLed once the grace period runs
   out, and reaped: no zombie is left. *)
let test_unresponsive_child_killed () =
  let fabric = Transport.Proc.fork ~n:1 ~child:(fun ~id:_ _ -> Unix.sleepf 60.0) in
  let pid = Transport.Proc.pid fabric 0 in
  let grace = 0.2 in
  let t0 = Clock.monotonic_ns () in
  Transport.Proc.shutdown ~grace fabric;
  let waited = float_of_int (Clock.monotonic_ns () - t0) /. 1e9 in
  check_bool "waited out the grace period" true (waited >= grace);
  check_bool "killed, not waited for" true (waited < 10.0);
  check_bool "reaped: no zombie" true
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false);
  check_bool "not among this process's children" false (List.mem pid (Footprint.children ()))

(* ------------------------------------------------------------------ *)
(* Streamed framing over a socketpair                                   *)

(* A codec whose declared size is off by [delta] bytes from what it
   writes. *)
let lying_codec delta =
  { Codec.floatarray with Codec.size = (fun a -> Codec.floatarray.Codec.size a + delta) }

let floats n = Float.Array.init n (fun i -> float_of_int i)

(* Receive on [b] in a thread, so a frame larger than the kernel's
   socket buffers cannot block the sender. *)
let recv_async b =
  let got = ref None in
  let t =
    Thread.create
      (fun () ->
        got :=
          Some
            (match Transport.Socket.recv b with
            | kind, payload -> `Frame (kind, payload)
            | exception Transport.Closed -> `Closed))
      ()
  in
  fun () ->
    Thread.join t;
    Option.get !got

let mismatch_raised f =
  match f () with
  | () -> None
  | exception Codec.Size_mismatch { declared; written } -> Some (declared, written)

(* A short frame is checked before any byte leaves: the send raises and
   the endpoint carries the next frame as if nothing happened. *)
let test_size_mismatch_small () =
  let a, b = Transport.Socket.connect () in
  Fun.protect
    ~finally:(fun () -> Transport.Socket.close a; Transport.Socket.close b)
    (fun () ->
      let v = floats 4 in
      List.iter
        (fun delta ->
          let declared = Codec.floatarray.Codec.size v + delta in
          Alcotest.(check (option (pair int int)))
            (Printf.sprintf "delta %d raises" delta)
            (Some (declared, declared - delta))
            (mismatch_raised (fun () ->
                 Transport.Socket.send_msg a (Codec.msg (lying_codec delta) v))))
        [ 8; -8 ];
      Transport.Socket.send_msg a (Codec.msg Codec.floatarray v);
      let kind, payload = Transport.Socket.recv b in
      check_bool "next frame is the good one" true
        (kind = Transport.Data && Codec.of_bytes Codec.floatarray payload = v))

(* A frame longer than the endpoint's buffer has partly left by the
   time the lie shows: the peer must see a truncated frame (Closed),
   never a misframed one. *)
let test_size_mismatch_large () =
  List.iter
    (fun delta ->
      let a, b = Transport.Socket.connect () in
      Fun.protect
        ~finally:(fun () -> Transport.Socket.close a; Transport.Socket.close b)
        (fun () ->
          let peer = recv_async b in
          let v = floats 40_000 in
          check_bool
            (Printf.sprintf "delta %d raises" delta)
            true
            (mismatch_raised (fun () ->
                 Transport.Socket.send_msg a (Codec.msg (lying_codec delta) v))
            <> None);
          check_bool
            (Printf.sprintf "delta %d: peer reads a truncated frame" delta)
            true
            (peer () = `Closed)))
    [ 80_000; -80_000 ]

(* Large and small frames stream through the endpoint's fixed buffer in
   both directions, with the receiver decoding straight off the
   socket. *)
let test_streamed_frames () =
  let a, b = Transport.Socket.connect () in
  Fun.protect
    ~finally:(fun () -> Transport.Socket.close a; Transport.Socket.close b)
    (fun () ->
      let fit = Transport.Socket.buffer_bytes / 8 in
      let sizes = [ 0; 1; fit - 2; fit - 1; fit; 100_000; 3 ] in
      let sender =
        Thread.create
          (fun () ->
            List.iter
              (fun n ->
                Transport.Socket.send_msg a
                  (Codec.msg Payload.codec [ Payload.Floats (floats n); Payload.Raw "tail" ]))
              sizes)
          ()
      in
      List.iter
        (fun n ->
          match
            Transport.Socket.recv_frame b (fun _ r -> Codec.of_reader Payload.codec r)
          with
          | Some [ Payload.Floats f; Payload.Raw "tail" ] ->
              check_bool (Printf.sprintf "%d floats intact" n) true (f = floats n)
          | _ -> Alcotest.fail "frame lost or reshaped")
        sizes;
      Thread.join sender)

(* ------------------------------------------------------------------ *)
(* Cross-backend equivalence: identical results and identical payload
   accounting on the clean path.                                        *)

let run_sum topo =
  let xs = Float.Array.init 999 (fun i -> float_of_int i /. 7.0) in
  Cluster.run_topology topo
    ~scatter:(fun node ->
      let blocks = Partition.blocks ~parts:topo.Cluster.nodes 999 in
      let off, n = blocks.(node) in
      [ Payload.Float_range (xs, off, n) ])
    ~work:(fun ~node:_ ~pool:_ payload ->
      match payload with
      | [ Payload.Floats a ] ->
          let acc = ref 0.0 in
          Float.Array.iter (fun x -> acc := !acc +. x) a;
          !acc
      | _ -> Alcotest.fail "bad payload")
    ~result_codec:Codec.float
    ~merge:( +. ) ~init:0.0

let test_clean_parity () =
  let mk backend =
    { Cluster.nodes = 3; cores_per_node = 2; backend }
  in
  let sum_in, rep_in = run_sum (mk Cluster.Inprocess) in
  let sum_pr, rep_pr = run_sum (mk Cluster.Process) in
  Alcotest.(check (float 1e-9)) "same sum" sum_in sum_pr;
  check_int "scatter bytes" rep_in.Cluster.scatter_bytes
    rep_pr.Cluster.scatter_bytes;
  check_int "gather bytes" rep_in.Cluster.gather_bytes
    rep_pr.Cluster.gather_bytes;
  check_int "scatter messages" rep_in.Cluster.scatter_messages
    rep_pr.Cluster.scatter_messages;
  check_int "gather messages" rep_in.Cluster.gather_messages
    rep_pr.Cluster.gather_messages;
  check_int "max message" rep_in.Cluster.max_message_bytes
    rep_pr.Cluster.max_message_bytes

let test_merge_order_process () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let order, _ =
    Cluster.run_topology topo
      ~scatter:(fun node -> Payload.borrow [ Payload.Ints [| node |] ])
      ~work:(fun ~node:_ ~pool:_ payload ->
        match payload with [ Payload.Ints a ] -> a.(0) | _ -> -1)
      ~result_codec:Codec.int
      ~merge:(fun acc v -> acc @ [ v ])
      ~init:[]
  in
  Alcotest.(check (list int)) "worker order, not arrival order"
    [ 0; 1; 2 ] order

(* The four kernels produce identical results — and identical message
   and byte traffic — whichever transport carries the bytes. *)
let test_kernels_cross_backend () =
  let module D = Triolet_kernels.Dataset in
  let ctx backend =
    Triolet.Exec.make ~nodes:3 ~cores_per_node:2 ~backend ()
  in
  let ctx_in = ctx Cluster.Inprocess and ctx_pr = ctx Cluster.Process in
  let measured f =
    Stats.reset ();
    let r, d = Stats.measure f in
    (r, d.Stats.messages, d.Stats.bytes_sent)
  in
  let check_traffic name (m_in, b_in) (m_pr, b_pr) =
    check_int (name ^ " messages") m_in m_pr;
    check_int (name ^ " bytes") b_in b_pr
  in
  (let d = D.mriq ~seed:11 ~samples:48 ~voxels:96 in
   let r_in, m_in, b_in =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_in d)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () -> Triolet_kernels.Mriq.run_triolet ~ctx:ctx_pr d)
   in
   check_bool "mri-q agrees" true
     (Triolet_kernels.Mriq.agrees ~eps:0.0 r_in r_pr);
   check_traffic "mri-q" (m_in, b_in) (m_pr, b_pr));
  (let a, b = D.sgemm_matrices ~seed:21 ~m:18 ~k:12 ~n:14 in
   let r_in, m_in, b_in =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_in a b)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () -> Triolet_kernels.Sgemm.run_triolet ~ctx:ctx_pr a b)
   in
   check_bool "sgemm agrees" true
     (Triolet_kernels.Sgemm.agrees ~eps:0.0 r_in r_pr);
   check_traffic "sgemm" (m_in, b_in) (m_pr, b_pr));
  (let d = D.tpacf ~seed:31 ~points:32 ~random_sets:3 in
   let r_in, m_in, b_in =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_in ~bins:12 d)
   in
   let r_pr, m_pr, b_pr =
     measured (fun () ->
         Triolet_kernels.Tpacf.run_triolet ~ctx:ctx_pr ~bins:12 d)
   in
   check_bool "tpacf agrees" true (Triolet_kernels.Tpacf.agrees r_in r_pr);
   check_traffic "tpacf" (m_in, b_in) (m_pr, b_pr));
  let d =
    D.cutcp ~seed:41 ~atoms:32 ~nx:8 ~ny:8 ~nz:8 ~spacing:0.5 ~cutoff:1.5
  in
  let r_in, m_in, b_in =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_in d)
  in
  let r_pr, m_pr, b_pr =
    measured (fun () -> Triolet_kernels.Cutcp.run_triolet ~ctx:ctx_pr d)
  in
  check_bool "cutcp agrees" true
    (Triolet_kernels.Cutcp.agrees ~eps:1e-9 r_in r_pr);
  check_traffic "cutcp" (m_in, b_in) (m_pr, b_pr)

(* ------------------------------------------------------------------ *)
(* Fault path over real processes.                                      *)

(* A child SIGKILLed from outside mid-task is indistinguishable from an
   injected crash: the parent sees EOF, marks the node dead, and
   re-executes its slice on a survivor. *)
let test_external_kill_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let faults = Fault.spec ~seed:1 () in
  let result, report =
    Cluster.run_topology ~faults topo
      ~scatter:(fun node -> Payload.borrow [ Payload.Ints [| node + 1 |] ])
      ~work:(fun ~node ~pool:_ payload ->
        (* Only the process that *is* node 1 dies; the survivor that
           re-executes node 1's slice reports a different [on_node]. *)
        if node = 1 && Cluster.on_node () = Some 1 then
          Unix.kill (Unix.getpid ()) Sys.sigkill;
        match payload with [ Payload.Ints a ] -> a.(0) * 10 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "all three slices" 60 result;
  check_int "one crash survived" 1 report.Cluster.crashed_nodes;
  check_bool "at least one retry" true (report.Cluster.retries >= 1)

(* Link noise (drops, duplicates, corruption, delays) injected over the
   socket transport: corrupt frames are rejected by the checksummed
   envelope, everything is recovered, and the merged result is exact. *)
let test_noisy_faults_recovered () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1;
               backend = Cluster.Process } in
  let faults =
    Fault.spec ~seed:5 ~drop:0.4 ~duplicate:0.4 ~corrupt:0.4 ~delay:0.4 ()
  in
  let result, report =
    Cluster.run_topology ~faults topo
      ~scatter:(fun node -> Payload.borrow [ Payload.Ints [| node |] ])
      ~work:(fun ~node:_ ~pool:_ payload ->
        match payload with [ Payload.Ints a ] -> a.(0) + 100 | _ -> -1)
      ~result_codec:Codec.int
      ~merge:( + ) ~init:0
  in
  check_int "exact result under noise" 303 result;
  check_bool "faults fired" true (report.Cluster.faults_injected > 0)

(* ------------------------------------------------------------------ *)
(* Concurrent scatter: every node's frames go out at once, one writer
   thread per node beyond the first.                                    *)

(* A codec that declares the wrong size on node 1 only: the scatter
   still joins node 0's writer, whose frame arrives whole, and then
   raises the mismatch on the caller. *)
let test_scatter_raises_size_mismatch () =
  let fabric = Transport.Proc.fork ~n:2 ~child:echo_child in
  Fun.protect
    ~finally:(fun () -> Transport.Proc.shutdown ~grace:2.0 fabric)
    (fun () ->
      let v = floats 40_000 in
      let good = Codec.msg Codec.floatarray v in
      let raised =
        mismatch_raised (fun () ->
            Transport.Proc.scatter fabric
              [ (0, good); (1, Codec.msg (lying_codec 80_000) v) ])
      in
      check_bool "size mismatch reaches the caller" true (raised <> None);
      let chan0 = (Transport.Proc.node fabric 0).Transport.Proc.chan in
      let _, echoed = Transport.Socket.recv chan0 in
      check_bool "node 0's frame arrived whole" true
        (reverse_bytes echoed = Codec.to_bytes Codec.floatarray v))

(* Node 1's slice names a range outside its array.  The encoder raises
   inside node 1's writer thread, after part of the frame has left; the
   call raises that exception, not a node failure. *)
let bad_range_sum () =
  let n = 100_000 in
  let xs = Float.Array.init n float_of_int in
  Cluster.run_topology
    { Cluster.nodes = 3; cores_per_node = 1; backend = Cluster.Process }
    ~scatter:(fun node ->
      Payload.Float_range (xs, 0, n)
      :: (if node = 1 then [ Payload.Float_range (xs, 1, n) ] else []))
    ~work:(fun ~node:_ ~pool:_ _ -> 0)
    ~result_codec:Codec.int ~merge:( + ) ~init:0

let test_sender_exception_reaches_caller () =
  match bad_range_sum () with
  | _ -> Alcotest.fail "the bad range was not reported"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "the encoder's own exception" "Payload: float range" msg

(* No writer thread, child process or descriptor outlives a process
   call, whether it succeeds or fails.  The first call warms up: the
   runtime starts its tick thread with the first systhread and keeps
   it. *)
let test_process_call_leaks_nothing () =
  let topo = { Cluster.nodes = 3; cores_per_node = 1; backend = Cluster.Process } in
  ignore (run_sum topo);
  let before = Footprint.take () in
  ignore (run_sum topo);
  Footprint.check "after a successful call" before;
  (match bad_range_sum () with
  | _ -> Alcotest.fail "the bad range was not reported"
  | exception Invalid_argument _ -> ());
  Footprint.check "after a failing call" before

(* ------------------------------------------------------------------ *)
(* Backend naming.                                                     *)

let test_backend_strings () =
  List.iter
    (fun b ->
      Alcotest.(check (option string))
        "round-trip" (Some (Cluster.backend_to_string b))
        (Option.map Cluster.backend_to_string
           (Cluster.backend_of_string (Cluster.backend_to_string b))))
    [ Cluster.Inprocess; Cluster.Flat; Cluster.Process ];
  check_bool "unknown rejected" true
    (Cluster.backend_of_string "carrier-pigeon" = None)

(* ------------------------------------------------------------------ *)
(* Conformance: both transports behind the same module interface.
   These spawn receiver domains, so they run after every fork test.     *)

module Conformance (T : Transport.S) = struct
  let test_echo () =
    let a, b = T.connect () in
    T.send a (Bytes.of_string "ping");
    let kind, payload = T.recv b in
    check_bool "data kind" true (kind = Transport.Data);
    Alcotest.(check string) "payload" "ping" (Bytes.to_string payload);
    T.send b (Bytes.of_string "pong");
    let _, reply = T.recv a in
    Alcotest.(check string) "reply" "pong" (Bytes.to_string reply);
    (* Empty frames are legal and keep their boundary. *)
    T.send a Bytes.empty;
    let kind, payload = T.recv b in
    check_bool "empty frame kind" true (kind = Transport.Data);
    check_int "empty frame" 0 (Bytes.length payload);
    T.close a;
    T.close b

  let test_order_and_kinds () =
    let a, b = T.connect () in
    T.send a ~kind:Transport.Data (Bytes.of_string "1");
    T.send a ~kind:Transport.Err (Bytes.of_string "2");
    T.send a ~kind:Transport.Nack (Bytes.of_string "3");
    let frames = List.init 3 (fun _ -> T.recv b) in
    Alcotest.(check (list string))
      "fifo order" [ "1"; "2"; "3" ]
      (List.map (fun (_, p) -> Bytes.to_string p) frames);
    check_bool "kinds preserved" true
      (List.map fst frames
      = [ Transport.Data; Transport.Err; Transport.Nack ]);
    T.close a;
    T.close b

  (* A 1 MiB frame arrives whole and intact — larger than any socket
     buffer, so framing must reassemble partial reads.  The receiver
     runs in its own domain so a blocking transport cannot deadlock
     against the sender. *)
  let test_large_payload () =
    let n = 1 lsl 20 in
    let payload = Bytes.init n (fun i -> Char.chr (i * 131 land 0xff)) in
    let a, b = T.connect () in
    let receiver = Domain.spawn (fun () -> T.recv b) in
    T.send a payload;
    let kind, got = Domain.join receiver in
    check_bool "data kind" true (kind = Transport.Data);
    check_int "length" n (Bytes.length got);
    check_bool "intact" true (Bytes.equal payload got);
    T.close a;
    T.close b

  let test_timeout () =
    let a, b = T.connect () in
    (match T.recv_timeout b 0.02 with
    | `Timeout -> ()
    | `Msg _ -> Alcotest.fail "phantom frame"
    | `Closed -> Alcotest.fail "phantom close");
    T.close a;
    T.close b

  (* The checksummed envelope rides on top of any transport: a frame
     corrupted in flight is rejected on decode, never decoded as
     garbage; the intact frame around it still decodes exactly. *)
  let test_checksummed_corruption_rejected () =
    let codec = Codec.checksummed Codec.float in
    let a, b = T.connect () in
    let good = Codec.to_bytes codec 216.45 in
    let evil = Bytes.copy good in
    let i = Bytes.length evil - 3 in
    Bytes.set evil i (Char.chr (Char.code (Bytes.get evil i) lxor 0x5a));
    T.send a evil;
    T.send a good;
    let _, frame1 = T.recv b in
    check_bool "corrupt frame rejected" true
      (match Codec.of_bytes codec frame1 with
      | _ -> false
      | exception Codec.Checksum_mismatch _ -> true
      | exception Codec.Trailing_bytes _ -> true);
    let _, frame2 = T.recv b in
    Alcotest.(check (float 0.0))
      "intact frame decodes" 216.45
      (Codec.of_bytes codec frame2);
    T.close a;
    T.close b

  (* Closing one endpoint wakes a peer blocked on the other. *)
  let test_close_wakes_blocked_peer () =
    let a, b = T.connect () in
    let blocked =
      Domain.spawn (fun () ->
          match T.recv b with
          | _ -> `Got_frame
          | exception Transport.Closed -> `Closed)
    in
    Unix.sleepf 0.02;
    T.close a;
    check_bool "woke with Closed" true (Domain.join blocked = `Closed)

  let tests =
    [
      Alcotest.test_case (T.name ^ " echo") `Quick test_echo;
      Alcotest.test_case (T.name ^ " order and kinds") `Quick
        test_order_and_kinds;
      Alcotest.test_case (T.name ^ " 1MiB frame") `Quick test_large_payload;
      Alcotest.test_case (T.name ^ " timeout") `Quick test_timeout;
      Alcotest.test_case (T.name ^ " corruption rejected") `Quick
        test_checksummed_corruption_rejected;
      Alcotest.test_case (T.name ^ " close wakes peer") `Quick
        test_close_wakes_blocked_peer;
    ]
end

module Mailbox_conf = Conformance (Transport.Mailbox_chan)
module Socket_conf = Conformance (Transport.Socket_s)

(* ------------------------------------------------------------------ *)
(* Fail-fast guard: by this point the conformance tests have spawned
   domains, so the process backend must refuse to fork with a clear
   explanation rather than die inside [Unix.fork].                      *)

let test_process_after_domains_fails () =
  (* Spawn (and immediately retire) a real worker pool: the fork ban is
     permanent, so even a shut-down pool poisons the process backend. *)
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  check_bool "domains were spawned" true (Pool.domains_ever_spawned ());
  match
    Cluster.run_topology
      { Cluster.nodes = 2; cores_per_node = 1; backend = Cluster.Process }
      ~scatter:(fun _ -> [])
      ~work:(fun ~node:_ ~pool:_ _ -> ())
      ~result_codec:Codec.unit
      ~merge:(fun () () -> ())
      ~init:()
  with
  | _ -> Alcotest.fail "process backend forked after domains were spawned"
  | exception Failure msg ->
      check_bool "explains the fork restriction" true
        (String.length msg > 0
        && String.sub msg 0 7 = "Cluster")

let () =
  Alcotest.run "transport"
    [
      (* fork-dependent suites first: see the header comment *)
      ( "process-fabric",
        [
          Alcotest.test_case "echo children" `Quick test_fabric_echo;
          Alcotest.test_case "double shutdown is idempotent" `Quick
            test_double_shutdown;
          Alcotest.test_case "shutdown races dying child" `Quick
            test_shutdown_with_dying_child;
          Alcotest.test_case "kill and respawn" `Quick test_kill_respawn_echo;
          Alcotest.test_case "ping/pong frames" `Quick test_ping_pong_frames;
          Alcotest.test_case "unresponsive child killed" `Quick
            test_unresponsive_child_killed;
        ] );
      ( "socket-stream",
        [
          Alcotest.test_case "size mismatch, short frame" `Quick
            test_size_mismatch_small;
          Alcotest.test_case "size mismatch, long frame" `Quick
            test_size_mismatch_large;
          Alcotest.test_case "streamed frames" `Quick test_streamed_frames;
        ] );
      ( "cross-backend",
        [
          Alcotest.test_case "clean accounting parity" `Quick
            test_clean_parity;
          Alcotest.test_case "merge order over processes" `Quick
            test_merge_order_process;
          Alcotest.test_case "kernels identical" `Slow
            test_kernels_cross_backend;
        ] );
      ( "process-faults",
        [
          Alcotest.test_case "external kill recovered" `Quick
            test_external_kill_recovered;
          Alcotest.test_case "noisy links recovered" `Quick
            test_noisy_faults_recovered;
        ] );
      ( "process-scatter",
        [
          Alcotest.test_case "size mismatch on one node" `Quick
            test_scatter_raises_size_mismatch;
          Alcotest.test_case "sender exception raised" `Quick
            test_sender_exception_reaches_caller;
          Alcotest.test_case "no leaks after a call" `Quick
            test_process_call_leaks_nothing;
        ] );
      ( "backend-api",
        [
          Alcotest.test_case "backend strings" `Quick test_backend_strings;
        ] );
      ("conformance-mailbox", Mailbox_conf.tests);
      ("conformance-socket", Socket_conf.tests);
      ( "fork-guard",
        [
          Alcotest.test_case "process after domains fails" `Quick
            test_process_after_domains_fails;
        ] );
    ]
