(** Two-level distributed runtime.

    The paper's runtime distributes large units of work to cluster nodes
    over MPI, then subdivides each unit across cores with work-stealing
    threads (section 3.4).  The sealed container has no MPI, so nodes
    here are either in-process entities whose *only* data channel is a
    queue of serialized bytes, or forked OS processes behind
    socketpairs.  Either way payloads are encoded, shipped, and decoded
    into structurally fresh buffers, so a task can never touch the
    sender's memory.  Byte and message counts follow the same paths a
    real MPI deployment would, which is what the simulator consumes.

    Task *code* travels as an OCaml closure (we cannot serialize code
    without compiler support, which is precisely what the Triolet
    compiler adds); task *data* always travels as bytes.

    {2 One engine}

    Every call, on every backend, runs the same scatter/gather/retry
    loop ([gather]) over a node [link].  Each message is an envelope
    tagged with the logical worker id and a sequence number; under a
    {!Fault.spec} the envelope also carries a CRC.  The loop works in
    rounds:

    - a round delivers its task frames as one batch and then reads
      every answer it is owed, node by node in id order — a reply, a
      failure report, a refusal, or the node's death.  The process
      link writes a batch to every node at once (one writer thread per
      node beyond the first, all joined before the first read), so all
      children receive in parallel.  Nothing is timed: a round ends
      when nothing is left in flight, which makes the fault schedule,
      and with it the report, a function of the seed alone on both
      backends;
    - link faults are drawn by {!Fault.decide} at the parent's edge of
      each link, once per scatter and once per reply on arrival;
    - at a round's end every unresolved worker's task is re-issued — to
      its own node, or to the first surviving node if its owner died —
      until its attempt budget runs out ({!Recovery_exhausted}, or the
      [work] exception that kept failing);
    - replies are merged at most once per worker (late or duplicated
      replies are counted as redeliveries and discarded), strictly in
      worker order.

    A fault-free call is a plan that injects nothing and allows one
    attempt, so it sends one scatter per worker, reads one reply per
    worker, and fails with a typed error instead of retrying.  [work]
    may run more than once for a slice under a plan and must be
    re-executable (pure in its payload), which every skeleton body is.

    {2 Borrowed slices}

    [scatter] returns a {!Payload.slice}: ranges of the caller's own
    arrays, not copies.  The engine never keeps a slice past its send,
    so the caller's arrays are read only while the call runs:

    - a streaming send encodes the slice inside [link.send], straight
      into the child's socket;
    - the in-process link materializes the message to bytes as soon as
      it is sent, and its queue holds only those bytes;
    - under a fault plan the slice is encoded to bytes on its first
      attempt, and every retry re-sends those bytes.

    The receiver always decodes fresh, owned buffers. *)

let log_src = Logs.Src.create "triolet.cluster" ~doc:"Cluster runtime"

module Log = (val Logs.src_log log_src)
module Codec = Triolet_base.Codec
module Rw = Triolet_base.Rw
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

(* Span taxonomy (DESIGN.md, Observability): every wall-clock phase of
   a distributed run is wrapped so a trace accounts for ~all of the
   call's time.  [cluster.fork] and [cluster.shutdown] bracket a process
   call: forking the children, and closing and reaping them.
   [cluster.serialize] covers describing a slice (its borrowed ranges,
   no copy) and, on the fault path, encoding it to the bytes a retry
   re-sends; [cluster.send] one batch of frames, from its first write to
   its last, which includes the encoding whenever it streams into the
   link (and the in-process link's materialization); [cluster.recv] the
   receive, including decode; [cluster.compute] the node work;
   [cluster.merge] the final fold.  [cluster.retry] only appears on the
   fault path and overlaps the others, so it is excluded from phase-sum
   coverage checks.

   Every span is recorded on the calling thread.  The process link's
   writer threads record none: Obs rings are per domain, and systhreads
   share their domain's ring, so spans opened on two threads at once
   would corrupt its nesting.  A batch's [cluster.send] therefore runs
   from the first write to the last writer's join. *)
let node_attr node = [ ("node", string_of_int node) ]

(* Execution backends.  [Flat] is the in-process transport with Eden's
   flat process view (one logical worker per core, no intra-node pool).
   [Process] is the real multi-process transport: one forked OS process
   per node, socketpair channels, a private pool per child. *)
type backend =
  | Inprocess  (** in-process nodes over byte queues *)
  | Flat  (** Eden-style: one in-process worker per core, no node pool *)
  | Process  (** one forked OS process per node, socket channels *)

let backend_to_string = function
  | Inprocess -> "inprocess"
  | Flat -> "flat"
  | Process -> "process"

let backend_of_string = function
  | "inprocess" -> Some Inprocess
  | "flat" -> Some Flat
  | "process" -> Some Process
  | _ -> None

type topology = { nodes : int; cores_per_node : int; backend : backend }

let default_topology = { nodes = 4; cores_per_node = 2; backend = Inprocess }

let topology_workers (t : topology) =
  match t.backend with
  | Flat -> t.nodes * t.cores_per_node
  | Inprocess | Process -> t.nodes

type report = {
  scatter_bytes : int;  (** bytes shipped main -> nodes (retries included) *)
  gather_bytes : int;  (** bytes shipped nodes -> main (retries included) *)
  scatter_messages : int;
  gather_messages : int;
  max_message_bytes : int;  (** largest single message *)
  retries : int;  (** task re-issues at a round's end *)
  redeliveries : int;  (** duplicate/late replies discarded by dedup *)
  corrupt_drops : int;  (** messages rejected by checksum/decode *)
  crashed_nodes : int;  (** node deaths survived *)
  faults_injected : int;  (** total faults the injector fired *)
  recovery_ns : int;  (** wall time from the first retry round to the end *)
}

let pp_report fmt r =
  Format.fprintf fmt
    "scatter: %d msgs / %d B; gather: %d msgs / %d B; max msg %d B"
    r.scatter_messages r.scatter_bytes r.gather_messages r.gather_bytes
    r.max_message_bytes;
  if
    r.retries > 0 || r.redeliveries > 0 || r.corrupt_drops > 0
    || r.crashed_nodes > 0 || r.faults_injected > 0
  then
    Format.fprintf fmt
      "; faults %d: %d retries, %d redeliveries, %d corrupt drops, %d \
       crashed nodes, recovery %.3f ms"
      r.faults_injected r.retries r.redeliveries r.corrupt_drops
      r.crashed_nodes
      (float_of_int r.recovery_ns /. 1e6)

exception Recovery_exhausted of { worker : int; attempts : int }

let () =
  Printexc.register_printer (function
    | Recovery_exhausted { worker; attempts } ->
        Some
          (Printf.sprintf
             "Cluster.Recovery_exhausted (worker %d still unresolved after %d \
              attempts)"
             worker attempts)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Child processes.                                                    *)

(* In the children: the logical node id, for task code that needs to
   know where it physically runs (e.g. a test killing one node). *)
let current_node : int option ref = ref None
let on_node () = !current_node

(* The one child serve loop, inherited across the fork by every runtime
   that forks (one-shot runs here, {!Service}, {!Darray}): read frames
   until EOF, replaying each on the child's protocol tracker, answer
   heartbeats, drop the kinds only a child sends, and hand task and
   segment frames to the runtime's [handle], which replies on [chan]
   itself. *)
let serve ?(tag = "") ~id chan handle =
  current_node := Some id;
  let trk = Protocol.make_tracker Protocol.Child ~id:(tag ^ string_of_int id) in
  let frame kind r =
    Protocol.step trk (Protocol.Recv kind);
    match kind with
    | Transport.Ping ->
        (* A child that can run this loop is alive by definition. *)
        Transport.Socket.send chan ~kind:Transport.Pong (Rw.read_rest r)
    | Transport.Err | Transport.Nack | Transport.Pong -> ()
    | Transport.Data | Transport.Seg_put | Transport.Seg_reuse
    | Transport.Seg_free ->
        handle kind r
  in
  let rec loop () =
    match Transport.Socket.recv_frame chan frame with
    | Some () -> loop ()
    | None | (exception Transport.Closed) -> Protocol.step trk Protocol.Eof
  in
  loop ()

let ensure_forkable () =
  if Pool.domains_ever_spawned () then
    failwith
      "Cluster: the process backend forks one OS process per node, and \
       OCaml cannot fork once any domain has been spawned.  Select the \
       backend before creating any multi-domain pool (e.g. run with \
       TRIOLET_BACKEND=process so the default pool stays single-domain)."

(* ------------------------------------------------------------------ *)
(* Node links.                                                         *)

(* What a node answers to one task frame: the node produces its reply
   as a message, the parent receives it as bytes. *)
type 'reply answer =
  | Reply of 'reply  (** the enveloped result *)
  | Raised of int * exn  (** [work] raised on this worker's slice *)
  | Refused  (** the task frame failed to decode *)
  | Died  (** the node is gone, with every frame still queued for it *)

(* [send] delivers a batch of task frames, [(node, frame)], each node's
   in batch order; [recv] blocks for that node's answer to the oldest
   frame it has not answered yet. *)
type link = {
  send : (int * Codec.msg) list -> unit;
  recv : int -> Bytes.t answer;
}

(* Remote failure report: the worker id whose task raised, plus the
   exception rendered as text (exceptions, like all code, never cross a
   socket). *)
let err_codec = Codec.(pair int string)

(* The node side of one task, shared by both links: decode the frame
   off [r], run [work], and answer with the reply message.  A planned
   crash is a death at the planned phase: the node answers nothing
   more. *)
let run_task ~task_codec ~reply_codec ~crash ~work ~node ~pool r =
  match
    Obs.span ~name:"cluster.recv" ~attrs:(node_attr node) (fun () ->
        Codec.of_reader task_codec r)
  with
  | exception e ->
      Log.debug (fun m ->
          m "node %d: corrupt task (%s)" node (Printexc.to_string e));
      Refused
  | wk, seq, payload -> (
      if crash Fault.Before_work then Died
      else
        (* [work] sees the logical worker id whose slice this is —
           stable across re-execution on another node. *)
        match
          Obs.span ~name:"cluster.compute" ~attrs:(node_attr wk) (fun () ->
              work ~node:wk ~pool payload)
        with
        | exception e -> Raised (wk, e)
        | r ->
            if crash Fault.During_work || crash Fault.After_work then Died
            else Reply (Codec.msg reply_codec (wk, seq, r)))

(* In-process nodes: frames wait in a per-node queue as bytes, and a
   node runs its oldest frame inline on the caller's pool when asked to
   answer. *)
let inprocess_link ~nodes ~run =
  let inbox = Array.init nodes (fun _ -> Queue.create ()) in
  {
    send =
      List.iter (fun (node, m) -> Queue.push (Codec.materialize m) inbox.(node));
    recv =
      (fun node ->
        match run ~node (Rw.reader_of_bytes (Queue.pop inbox.(node))) with
        | Reply m ->
            Reply
              (Obs.span ~name:"cluster.send" ~attrs:(node_attr node) (fun () ->
                   Codec.materialize m))
        | Raised (wk, e) -> Raised (wk, e)
        | Refused -> Refused
        | Died ->
            Queue.clear inbox.(node);
            Died);
  }

(* Forked nodes: one socket per child, written to all at once
   ({!Transport.Proc.scatter}) and read in the order the engine asks.  A
   write to a dead child is lost; its EOF answers for it. *)
let process_link fabric =
  let chan node = (Transport.Proc.node fabric node).Transport.Proc.chan in
  let rec recv node =
    match
      Obs.span ~name:"cluster.recv" ~attrs:(node_attr node) (fun () ->
          (* A negative timeout blocks until a frame or EOF. *)
          Transport.Socket.recv_timeout (chan node) (-1.0))
    with
    | `Timeout -> recv node (* interrupted select *)
    | `Closed -> Died
    | `Msg (Transport.Data, bytes) -> Reply bytes
    | `Msg (Transport.Err, bytes) -> (
        match Codec.of_bytes err_codec bytes with
        | wk, msg -> Raised (wk, Failure ("node work raised: " ^ msg))
        | exception _ -> Refused)
    | `Msg (Transport.Nack, _) -> Refused
    | `Msg
        ( ( Transport.Ping | Transport.Pong | Transport.Seg_put
          | Transport.Seg_reuse | Transport.Seg_free ),
          _ ) ->
        recv node
  in
  { send = Transport.Proc.scatter fabric; recv }

(* ------------------------------------------------------------------ *)
(* The engine.                                                         *)

(* Fault-free means this plan: nothing injected, one attempt. *)
let fault_free = Fault.spec ~max_attempts:1 ~seed:0 ()

(* The one envelope rule, shared with {!Darray}: a CRC exactly when a
   fault plan is set.  Over a local socketpair or a byte queue the
   injector is the only thing that corrupts a frame, so a fault-free
   frame carries no checksum and can stream. *)
let envelope ?faults c =
  match (faults : Fault.spec option) with None -> c | Some _ -> Codec.checksummed c

let gather link ~workers ~spec ~stream ~send_codec ~reply_codec ~envelope_bytes
    ~scatter ~merge ~init =
  let fault = Fault.make spec in
  let max_attempts = spec.Fault.max_attempts in
  let alive = Array.make workers true in
  (* Frames delivered to each node and not yet answered. *)
  let inflight = Array.make workers 0 in
  let attempts = Array.make workers 0 in
  let encoded = Array.make workers None in
  let results = Array.make workers None in
  let failed = Array.make workers None in
  let outstanding = ref workers in
  let scatter_bytes = ref 0 and scatter_msgs = ref 0 in
  let gather_bytes = ref 0 and gather_msgs = ref 0 in
  let max_msg = ref 0 in
  let retries = ref 0 and redeliveries = ref 0 and corrupt_drops = ref 0 in
  (* Frames a [delay] fault holds back until the round ends. *)
  let delayed_out = Queue.create () and delayed_in = Queue.create () in
  (* A message counts its slice or result bytes: like the frame header,
     the envelope (and its CRC) is framing.  Counted once per send
     attempt and once per reply on arrival, before any fault roll. *)
  let count total msgs size =
    let n = size - envelope_bytes in
    total := !total + n;
    incr msgs;
    max_msg := max !max_msg n;
    Stats.record_message ~bytes:n
  in
  let corrupt_reject () =
    incr corrupt_drops;
    Stats.record_corrupt_drop ()
  in
  (* Frames wait here until the next [collect], which sends them as one
     batch: the process link writes to every node at once. *)
  let outbox = ref [] in
  let deliver node m =
    if alive.(node) then begin
      inflight.(node) <- inflight.(node) + 1;
      outbox := (node, m) :: !outbox
    end
  in
  (* Each slice is described and encoded exactly once, on its first
     send, and not kept past it.  When streaming, the encoding goes
     straight into the link.  Under a fault plan it is materialized,
     because faults act on bytes and retries re-send the cached bytes
     (dedup keys on the worker id, not the seq); the bytes are dropped
     as soon as they can no longer be re-sent. *)
  let send_scatter ~target wk =
    attempts.(wk) <- attempts.(wk) + 1;
    let build () =
      Stats.record_encode ();
      (wk, attempts.(wk), scatter wk)
    in
    let serialize f = Obs.span ~name:"cluster.serialize" ~attrs:(node_attr wk) f in
    Log.debug (fun m ->
        m "scatter: worker %d -> node %d (attempt %d)" wk target attempts.(wk));
    if stream then begin
      let m = serialize (fun () -> Codec.msg send_codec (build ())) in
      count scatter_bytes scatter_msgs m.Codec.size;
      deliver target m
    end
    else begin
      let bytes =
        match encoded.(wk) with
        | Some bytes -> bytes
        | None -> serialize (fun () -> Codec.to_bytes send_codec (build ()))
      in
      encoded.(wk) <- (if attempts.(wk) < max_attempts then Some bytes else None);
      count scatter_bytes scatter_msgs (Bytes.length bytes);
      match Fault.decide fault ~link:(Fault.To_node target) bytes with
      | `Drop -> ()
      | `Deliver (bytes, delayed, dup) ->
          let m = Codec.bytes_msg bytes in
          if delayed then Queue.push (target, m) delayed_out else deliver target m;
          if dup then deliver target m
    end
  in
  let accept bytes =
    match
      Obs.span ~name:"cluster.recv" (fun () -> Codec.of_bytes reply_codec bytes)
    with
    | exception e ->
        Log.debug (fun m -> m "gather: corrupt reply (%s)" (Printexc.to_string e));
        corrupt_reject ()
    | wk, _, _ when wk < 0 || wk >= workers -> corrupt_reject ()
    | wk, _, _ when Option.is_some results.(wk) ->
        (* At-most-once merge: a duplicate or a superseded attempt. *)
        incr redeliveries;
        Stats.record_redelivery ()
    | wk, _, r ->
        results.(wk) <- Some r;
        encoded.(wk) <- None;
        decr outstanding
  in
  let arrive node bytes =
    count gather_bytes gather_msgs (Bytes.length bytes);
    match Fault.decide fault ~link:(Fault.From_node node) bytes with
    | `Drop -> ()
    | `Deliver (bytes, delayed, dup) ->
        if delayed then Queue.push bytes delayed_in else accept bytes;
        if dup then accept bytes
  in
  (* Send the queued frames, then read every answer in flight, node by
     node: the order, and so every fault draw, does not depend on which
     child happened to be fast. *)
  let collect () =
    (match List.rev !outbox with
    | [] -> ()
    | frames ->
        outbox := [];
        Obs.span ~name:"cluster.send" (fun () -> link.send frames));
    for node = 0 to workers - 1 do
      while inflight.(node) > 0 do
        inflight.(node) <- inflight.(node) - 1;
        match link.recv node with
        | Reply bytes -> arrive node bytes
        | Raised (wk, e) ->
            (* A failed attempt; re-raised only once the budget is spent. *)
            Log.debug (fun m ->
                m "worker %d: work raised %s" wk (Printexc.to_string e));
            if wk >= 0 && wk < workers then failed.(wk) <- Some e
        | Refused -> corrupt_reject ()
        | Died ->
            inflight.(node) <- 0;
            alive.(node) <- false;
            if Fault.mark_crashed fault node then
              Log.debug (fun m -> m "node %d died" node)
      done
    done
  in
  let give_up wk =
    match failed.(wk) with
    | Some e -> raise e
    | None -> raise (Recovery_exhausted { worker = wk; attempts = attempts.(wk) })
  in
  let retarget wk =
    if alive.(wk) then wk
    else
      match List.find_opt (fun n -> alive.(n)) (List.init workers Fun.id) with
      | Some n -> n
      | None -> give_up wk
  in
  for wk = 0 to workers - 1 do
    send_scatter ~target:wk wk
  done;
  collect ();
  let recovery_started = if !outstanding > 0 then Clock.monotonic_ns () else 0 in
  let round = ref 0 in
  while !outstanding > 0 do
    (* Round end: held frames go out and late replies arrive after the
       re-issues they provoked, as a straggler's would. *)
    incr round;
    let late = Queue.create () in
    Queue.transfer delayed_in late;
    Queue.iter (fun (node, m) -> deliver node m) delayed_out;
    Queue.clear delayed_out;
    Obs.span ~name:"cluster.retry"
      ~attrs:[ ("round", string_of_int !round) ]
      (fun () ->
        for wk = 0 to workers - 1 do
          if Option.is_none results.(wk) then begin
            if attempts.(wk) >= max_attempts then give_up wk;
            incr retries;
            Stats.record_retry ();
            Obs.instant ~name:"cluster.retry.reissue" ~attrs:(node_attr wk) ();
            send_scatter ~target:(retarget wk) wk
          end
        done);
    Queue.iter accept late;
    collect ()
  done;
  (* Replies still held back are redeliveries of resolved workers. *)
  Queue.iter accept delayed_in;
  let recovery_ns =
    if recovery_started = 0 then 0
    else begin
      let ns = Clock.monotonic_ns () - recovery_started in
      Stats.record_recovery_ns ns;
      ns
    end
  in
  let acc = ref init in
  Obs.span ~name:"cluster.merge" (fun () ->
      Array.iter (fun r -> acc := merge !acc (Option.get r)) results);
  let c = Fault.counters fault in
  ( !acc,
    {
      scatter_bytes = !scatter_bytes;
      gather_bytes = !gather_bytes;
      scatter_messages = !scatter_msgs;
      gather_messages = !gather_msgs;
      max_message_bytes = !max_msg;
      retries = !retries;
      redeliveries = !redeliveries;
      corrupt_drops = !corrupt_drops;
      crashed_nodes = c.Fault.crashes;
      faults_injected =
        c.Fault.drops + c.Fault.duplicates + c.Fault.corruptions
        + c.Fault.delays + c.Fault.crashes;
      recovery_ns;
    } )

(* ------------------------------------------------------------------ *)

let run_topology ?pool ?faults (topo : topology) ~scatter ~work ~result_codec
    ~merge ~init =
  if topo.nodes <= 0 || topo.cores_per_node <= 0 then
    invalid_arg "Cluster.run: bad config";
  let workers = topology_workers topo in
  let spec = Option.value faults ~default:fault_free in
  let envelope c = envelope ?faults Codec.(triple int int c) in
  (* Only a fault-free call streams its slices: a fault plan acts on
     bytes, and its retries re-send them. *)
  let stream = Option.is_none faults in
  (* One wire format: the parent encodes borrowed slices, nodes decode
     owned payloads. *)
  let send_codec = envelope Payload.slice_codec in
  let task_codec = envelope Payload.codec and reply_codec = envelope result_codec in
  let envelope_bytes = Bytes.length (Codec.to_bytes (envelope Codec.unit) (0, 0, ())) in
  let task ~node =
    run_task ~task_codec ~reply_codec ~work ~node ~crash:(fun phase ->
        spec.Fault.crash = Some (node, phase))
  in
  let run_on link =
    gather link ~workers ~spec ~stream ~send_codec ~reply_codec ~envelope_bytes
      ~scatter ~merge ~init
  in
  match topo.backend with
  | Inprocess | Flat ->
      (* Nodes share the caller's pool, or the default pool at its own
         width: [cores_per_node] does not cap it.  A fresh per-call pool
         would cost a domain spawn per operation. *)
      let pool = match pool with Some p -> p | None -> Pool.default () in
      Stats.ensure_workers (Pool.size pool);
      run_on (inprocess_link ~nodes:workers ~run:(task ~pool))
  | Process ->
      (* The parent does no task work under this backend: each child
         builds its own pool after the fork, so a caller-supplied pool
         is irrelevant (and would break forkability if multi-domain).
         The fork comes first, so no slice is ever inherited. *)
      ignore pool;
      ensure_forkable ();
      let child ~id chan =
        let pool = lazy (Pool.create ~workers:topo.cores_per_node ()) in
        serve ~id chan (fun kind r ->
            match kind with
            | Transport.Data -> (
                match task ~node:id ~pool:(Lazy.force pool) r with
                | Reply m ->
                    Obs.span ~name:"cluster.send" ~attrs:(node_attr id) (fun () ->
                        Transport.Socket.send_msg chan m)
                | Refused -> Transport.Socket.send chan ~kind:Transport.Nack Bytes.empty
                | Raised (wk, e) ->
                    Transport.Socket.send_msg chan ~kind:Transport.Err
                      (Codec.msg err_codec (wk, Printexc.to_string e))
                | Died -> Unix._exit 0)
            | _ -> (* segment residency belongs to Darray sessions *) ())
      in
      let fabric =
        Obs.span ~name:"cluster.fork" (fun () -> Transport.Proc.fork ~n:workers ~child)
      in
      Fun.protect
        ~finally:(fun () ->
          Obs.span ~name:"cluster.shutdown" (fun () -> Transport.Proc.shutdown fabric))
        (fun () -> run_on (process_link fabric))
