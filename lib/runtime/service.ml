(** Long-lived, supervised job service over the {!Transport.Proc}
    fork-per-node fabric.

    Every skeleton call so far built a cluster, ran one scatter/gather,
    and tore the cluster down; a resident deployment cannot afford a
    fork per call, and a fabric that stays up must survive its own
    children.  A service forks its workers once, keeps them warm across
    requests, and wires four robustness mechanisms end to end:

    - {b supervision} ({!Supervisor}): periodic [Ping]/[Pong]
      heartbeats, missed-heartbeat death verdicts, and respawn of dead
      children with capped exponential backoff;
    - {b retry}: in-flight slices of a dead child are re-issued to
      survivors under the same checksummed-envelope protocol as
      [Cluster.run_topology] — a SIGKILL mid-request costs latency, never
      correctness;
    - {b deadlines}: a request may carry a compute budget, propagated
      to workers as an absolute [CLOCK_MONOTONIC] timestamp (valid
      across processes on one host); a slice that reaches a worker past
      its deadline is cancelled, not computed, and the request fails
      with [Deadline_expired];
    - {b admission control}: a bounded queue with a high-water mark.
      When [queue_bound] requests are already waiting, new submissions
      are rejected with [Overloaded] immediately — shedding load at the
      edge instead of collapsing under it.  {!drain} flips the service
      into refusing all new work ([Draining]) while admitted requests
      finish.

    Concurrency model: any number of client threads may call {!submit};
    a single dispatcher thread owns the fabric and runs the whole
    protocol (select loop, retries, heartbeats, respawns), so every
    seeded fault decision happens on one stream in one order.  Clients
    block on a condition variable until their request completes.  The
    parent process must never spawn a domain — respawning forks — so
    intra-request parallelism lives in the children's pools, and client
    concurrency uses systhreads. *)

module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

type error =
  | Overloaded  (** rejected at admission: the queue is at its bound *)
  | Deadline_expired  (** the request's compute budget ran out *)
  | Draining  (** the service no longer accepts work *)
  | Failed of string  (** task code raised, or recovery gave up *)

let error_to_string = function
  | Overloaded -> "overloaded"
  | Deadline_expired -> "deadline expired"
  | Draining -> "draining"
  | Failed msg -> "failed: " ^ msg

type config = {
  nodes : int;
  cores_per_node : int;
  queue_bound : int;  (** admission-queue high-water mark *)
  heartbeat_interval : float;  (** seconds between pings per child *)
  miss_threshold : int;  (** unanswered pings before a death verdict *)
  respawn_backoff : float;  (** first respawn delay, seconds *)
  respawn_backoff_max : float;  (** backoff cap for flapping children *)
  request_timeout : float;  (** base per-slice retry timeout, seconds *)
  max_attempts : int;  (** per-slice cap on (re-)execution attempts *)
  poll_interval : float;  (** dispatcher select poll cap, seconds *)
  faults : Fault.spec option;  (** seeded chaos plan, if any *)
}

let default_config =
  {
    nodes = 4;
    cores_per_node = 2;
    queue_bound = 64;
    heartbeat_interval = 0.05;
    miss_threshold = 3;
    respawn_backoff = 0.01;
    respawn_backoff_max = 1.0;
    request_timeout = 0.05;
    max_attempts = 8;
    poll_interval = 0.01;
    faults = None;
  }

(* Wire format.  One request is split into one slice per payload;
   slices are tagged (request, slice, seq) so late or duplicated
   replies from a previous attempt — or a previous request — are
   recognizably stale.  The deadline crosses as absolute monotonic
   nanoseconds (0 = none).  A [None] reply payload is the worker saying
   "already past deadline, not computed". *)
let task_codec =
  Codec.checksummed
    Codec.(pair (triple int int int) (pair int Payload.codec))

let reply_codec =
  Codec.checksummed
    Codec.(pair (triple int int int) (option Payload.codec))

let err_codec = Codec.checksummed Codec.(pair (pair int int) string)

(* One admitted request, owned by the dispatcher; the submitting client
   blocks on [cond] until [done_] flips. *)
type request = {
  req_id : int;
  payloads : Payload.t array;
  deadline_ns : int;  (* absolute monotonic ns; 0 = none *)
  mutable outcome : (Payload.t array, error) result option;
}

type t = {
  cfg : config;
  fabric : Transport.Proc.t;
  sup : Supervisor.t;
  fault : Fault.t option;
  (* Client-facing state, under [lock]. *)
  lock : Mutex.t;
  cond : Condition.t;
  queue : request Queue.t;
  mutable queued : int;
  mutable inflight : bool;  (* dispatcher is executing a dequeued request *)
  mutable draining : bool;
  mutable stopped : bool;
  mutable next_req : int;
  (* Dispatcher plumbing. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable dispatcher : Thread.t option;
}

let live_nodes t = Transport.Proc.alive_ids t.fabric
let node_pids t = Array.init t.cfg.nodes (Transport.Proc.pid t.fabric)
let respawns t = Supervisor.respawns t.sup
let heartbeat_misses t = Supervisor.heartbeat_misses t.sup

let poke t =
  (* Wake the dispatcher out of its select; a full pipe already wakes. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Child side.                                                         *)

let serve_loop ~cores_per_node ~work ~id chan =
  let pool = lazy (Pool.create ~workers:cores_per_node ()) in
  let reply ?kind bytes = Transport.Socket.send chan ?kind bytes in
  Cluster.serve ~id chan (fun kind r ->
      match kind with
      | Transport.Data -> (
          match Codec.of_reader task_codec r with
          | exception _ -> reply ~kind:Transport.Nack Bytes.empty
          | (req, slice, seq), (deadline_ns, payload) -> (
              if deadline_ns > 0 && Clock.monotonic_ns () > deadline_ns then
                (* Past deadline: cancelled, not computed. *)
                reply (Codec.to_bytes reply_codec ((req, slice, seq), None))
              else
                match work ~node:id ~pool:(Lazy.force pool) payload with
                | r -> reply (Codec.to_bytes reply_codec ((req, slice, seq), Some r))
                | exception e ->
                    reply ~kind:Transport.Err
                      (Codec.to_bytes err_codec ((req, slice), Printexc.to_string e))))
      | _ ->
          (* Segment residency lives in Darray sessions; a request/reply
             service child holds no segment table, so reject loudly
             rather than silently accept a put. *)
          reply ~kind:Transport.Nack Bytes.empty)

(* ------------------------------------------------------------------ *)
(* Dispatcher side.                                                    *)

(* Per-slice in-flight bookkeeping for the request being executed. *)
type slice_state = {
  mutable target : int;  (* node currently owning this slice *)
  mutable attempts : int;
  mutable sent_at : int;  (* monotonic ns of the newest send *)
  mutable result : Payload.t option;
  mutable expired : bool;  (* worker reported past-deadline *)
}

exception Request_failed of error

let ns_of_timeout s = int_of_float (s *. 1e9)

let send_slice t req slices i =
  let st = slices.(i) in
  st.attempts <- st.attempts + 1;
  st.sent_at <- Clock.monotonic_ns ();
  let bytes =
    Codec.to_bytes task_codec
      ((req.req_id, i, st.attempts), (req.deadline_ns, req.payloads.(i)))
  in
  Stats.record_message ~bytes:(Bytes.length bytes);
  try
    Transport.Socket.send
      (Transport.Proc.node t.fabric st.target).Transport.Proc.chan bytes
  with Transport.Closed ->
    (* Child died under our feet; the EOF surfaces in the select loop
       and re-targets this slice. *)
    ()

(* Pick a live target, preferring an even spread by slice index. *)
let pick_target t i =
  match live_nodes t with
  | [] -> None
  | live -> Some (List.nth live (i mod List.length live))

let slice_timeout t ~attempt =
  let base = t.cfg.request_timeout in
  let a = max 0 (min (attempt - 1) 30) in
  Float.min 2.0 (base *. Float.of_int (1 lsl a))

(* Run one admitted request to completion.  The select loop interleaves
   reply handling with supervision (heartbeats, death verdicts,
   respawns), so a request outlives any individual child. *)
let execute t req =
  Obs.span ~name:"service.request"
    ~attrs:[ ("req", string_of_int req.req_id) ]
    (fun () ->
      let n = Array.length req.payloads in
      let slices =
        Array.init n (fun _ ->
            { target = -1; attempts = 0; sent_at = 0; result = None; expired = false })
      in
      let outstanding = ref n in
      let finished () = !outstanding = 0 in
      let issue i =
        match pick_target t i with
        | None ->
            (* Nobody alive right now: leave the slice pending; the
               next respawn makes a target available and the timeout
               path re-issues. *)
            ()
        | Some target ->
            slices.(i).target <- target;
            if slices.(i).attempts >= t.cfg.max_attempts then
              raise
                (Request_failed
                   (Failed
                      (Printf.sprintf "slice %d exhausted %d attempts" i
                         slices.(i).attempts)));
            send_slice t req slices i
      in
      let check_deadline () =
        if req.deadline_ns > 0 && Clock.monotonic_ns () > req.deadline_ns then begin
          Stats.record_deadline_expired ();
          Obs.instant ~name:"service.deadline.expired"
            ~attrs:[ ("req", string_of_int req.req_id) ]
            ();
          raise (Request_failed Deadline_expired)
        end
      in
      check_deadline ();
      for i = 0 to n - 1 do
        issue i
      done;
      while not (finished ()) do
        check_deadline ();
        let now = Clock.monotonic_ns () in
        Supervisor.tick t.sup ~now;
        let timeout =
          Float.min t.cfg.poll_interval (Supervisor.next_event_in t.sup ~now)
        in
        (match Transport.Proc.recv_any t.fabric ~wake:t.wake_r ~timeout with
        | `Wake -> drain_wake t
        | `No_nodes ->
            (* All children dead at once; wait for respawns. *)
            Unix.sleepf (Float.min timeout 0.005)
        | `Timeout ->
            (* Re-issue slices whose attempt timed out (capped
               exponential backoff per slice). *)
            let now = Clock.monotonic_ns () in
            Array.iteri
              (fun i st ->
                if st.result = None && (not st.expired) && st.attempts > 0 then begin
                  let budget = ns_of_timeout (slice_timeout t ~attempt:st.attempts) in
                  if now - st.sent_at > budget then begin
                    Stats.record_retry ();
                    Obs.instant ~name:"service.retry"
                      ~attrs:
                        [ ("req", string_of_int req.req_id);
                          ("slice", string_of_int i) ]
                      ();
                    issue i
                  end
                end
                else if st.result = None && st.attempts = 0 then issue i)
              slices
        | `Eof node ->
            (match t.fault with
            | Some f -> ignore (Fault.mark_crashed f node)
            | None -> Stats.record_crash ());
            Supervisor.note_eof t.sup node ~now:(Clock.monotonic_ns ());
            (* Re-issue the dead child's in-flight slices to survivors
               immediately; no need to wait out their timeouts. *)
            Array.iteri
              (fun i st ->
                if st.result = None && st.target = node then issue i)
              slices
        | `Msg (node, Transport.Pong, _) ->
            ignore (Supervisor.note_pong t.sup node ~now:(Clock.monotonic_ns ()))
        | `Msg
            ( node,
              ( ( Transport.Ping | Transport.Seg_put | Transport.Seg_reuse
                | Transport.Seg_free ) as k ),
              _ ) ->
            (* Parent-only kinds echoed back are noise; track and drop. *)
            Supervisor.note_frame t.sup node k
        | `Msg (node, Transport.Nack, _) ->
            Supervisor.note_frame t.sup node Transport.Nack;
            Stats.record_corrupt_drop ()
            (* The owning slice re-issues via its timeout. *)
        | `Msg (node, Transport.Err, bytes) -> (
            Supervisor.note_frame t.sup node Transport.Err;
            match Codec.of_bytes err_codec bytes with
            | exception _ -> Stats.record_corrupt_drop ()
            | (req', slice), msg ->
                if req' = req.req_id && slice >= 0 && slice < n then
                  raise
                    (Request_failed
                       (Failed (Printf.sprintf "slice %d raised: %s" slice msg))))
        | `Msg (node, Transport.Data, bytes) -> (
            Supervisor.note_frame t.sup node Transport.Data;
            Stats.record_message ~bytes:(Bytes.length bytes);
            match Codec.of_bytes reply_codec bytes with
            | exception _ -> Stats.record_corrupt_drop ()
            | (req', slice, _seq), reply ->
                if req' <> req.req_id || slice < 0 || slice >= n then
                  Stats.record_redelivery ()
                else
                  let st = slices.(slice) in
                  if st.result <> None || st.expired then Stats.record_redelivery ()
                  else (
                    match reply with
                    | Some r ->
                        st.result <- Some r;
                        decr outstanding
                    | None ->
                        (* Worker refused: past deadline. *)
                        st.expired <- true;
                        Stats.record_deadline_expired ();
                        raise (Request_failed Deadline_expired))))
      done;
      Ok (Array.map
            (fun st ->
              match st.result with Some r -> r | None -> assert false)
            slices))

let dispatcher_loop t =
  let rec next_request () =
    Mutex.lock t.lock;
    let rec await () =
      if t.stopped && Queue.is_empty t.queue then begin
        Mutex.unlock t.lock;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some req ->
            t.queued <- t.queued - 1;
            t.inflight <- true;
            Mutex.unlock t.lock;
            Some req
        | None ->
            Mutex.unlock t.lock;
            (* Idle edge: keep heartbeats and respawns flowing while
               the queue is empty. *)
            let now = Clock.monotonic_ns () in
            Supervisor.tick t.sup ~now;
            let timeout =
              Float.min t.cfg.poll_interval
                (Supervisor.next_event_in t.sup ~now)
            in
            (match Transport.Proc.recv_any t.fabric ~wake:t.wake_r ~timeout with
            | `Wake -> drain_wake t
            | `Msg (node, Transport.Pong, _) ->
                ignore
                  (Supervisor.note_pong t.sup node ~now:(Clock.monotonic_ns ()))
            | `Eof node ->
                (match t.fault with
                | Some f -> ignore (Fault.mark_crashed f node)
                | None -> Stats.record_crash ());
                Supervisor.note_eof t.sup node ~now:(Clock.monotonic_ns ())
            | `Msg (node, ((Transport.Data | Transport.Err | Transport.Nack) as k), _)
              ->
                (* Stale traffic from a finished request. *)
                Supervisor.note_frame t.sup node k;
                Stats.record_redelivery ()
            | `Msg
                ( node,
                  ( ( Transport.Ping | Transport.Seg_put
                    | Transport.Seg_reuse | Transport.Seg_free ) as k ),
                  _ ) ->
                Supervisor.note_frame t.sup node k
            | `Timeout -> ()
            | `No_nodes -> Unix.sleepf 0.001);
            Mutex.lock t.lock;
            await ()
    in
    match await () with
    | None -> ()
    | Some req ->
        let outcome =
          match execute t req with
          | ok -> ok
          | exception Request_failed e -> Error e
          | exception e -> Error (Failed (Printexc.to_string e))
        in
        Mutex.lock t.lock;
        req.outcome <- Some outcome;
        t.inflight <- false;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        next_request ()
  in
  next_request ()

(* ------------------------------------------------------------------ *)
(* Client API.                                                         *)

(** Fork the fabric and start the dispatcher.  [work] crosses into the
    children by address-space inheritance at fork time, exactly like
    [Cluster.run_topology]'s process backend; it must be re-executable
    (a slice may run more than once under retries).  The parent must
    never have spawned a domain ([fork] would be forbidden) — and must
    not spawn one afterwards, or respawns will fail. *)
let create ?(cfg = default_config) ~work () =
  if cfg.nodes < 1 then invalid_arg "Service: nodes < 1";
  if cfg.queue_bound < 1 then invalid_arg "Service: queue_bound < 1";
  if Pool.domains_ever_spawned () then
    failwith
      "Service: the service fabric forks (and re-forks, on respawn) one \
       process per node, and OCaml cannot fork once any domain has been \
       spawned.  Create the service before any multi-domain pool.";
  let serve = serve_loop ~cores_per_node:cfg.cores_per_node ~work in
  let fabric = Transport.Proc.fork ~n:cfg.nodes ~child:serve in
  let fault = Option.map Fault.make cfg.faults in
  let sup =
    Supervisor.create ~fabric ~serve ~hb_interval:cfg.heartbeat_interval
      ~miss_threshold:cfg.miss_threshold ~backoff_base:cfg.respawn_backoff
      ~backoff_max:cfg.respawn_backoff_max ?faults:fault ()
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      fabric;
      sup;
      fault;
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      queued = 0;
      inflight = false;
      draining = false;
      stopped = false;
      next_req = 0;
      wake_r;
      wake_w;
      dispatcher = None;
    }
  in
  t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t

(** Submit one request: [payloads.(i)] becomes slice [i], distributed
    over live nodes; the result array is in slice order.  Blocks the
    calling thread until the request completes or is rejected.
    [?deadline] is a compute budget in seconds from now.  Thread-safe;
    admission control applies at the queue's high-water mark. *)
let submit ?deadline t payloads =
  if Array.length payloads = 0 then invalid_arg "Service.submit: no payloads";
  let deadline_ns =
    match deadline with
    | None -> 0
    | Some d ->
        if d <= 0.0 then invalid_arg "Service.submit: deadline <= 0";
        Clock.monotonic_ns () + int_of_float (d *. 1e9)
  in
  Mutex.lock t.lock;
  if t.draining || t.stopped then begin
    Mutex.unlock t.lock;
    Error Draining
  end
  else if t.queued >= t.cfg.queue_bound then begin
    Mutex.unlock t.lock;
    Stats.record_shed ();
    Obs.instant ~name:"service.shed" ();
    Error Overloaded
  end
  else begin
    let req =
      { req_id = t.next_req; payloads; deadline_ns; outcome = None }
    in
    t.next_req <- t.next_req + 1;
    Queue.push req t.queue;
    t.queued <- t.queued + 1;
    poke t;
    let rec wait () =
      match req.outcome with
      | Some o ->
          Mutex.unlock t.lock;
          o
      | None ->
          Condition.wait t.cond t.lock;
          wait ()
    in
    wait ()
  end

(** Stop accepting work ([Draining] to new submits) but let admitted
    requests finish.  Returns once the queue is empty and the
    dispatcher is idle. *)
let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  Mutex.unlock t.lock;
  poke t;
  let rec wait () =
    Mutex.lock t.lock;
    let busy = t.queued > 0 || t.inflight in
    Mutex.unlock t.lock;
    if busy then begin
      Thread.yield ();
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

(** Graceful shutdown: {!drain}, stop the dispatcher, tear the fabric
    down (idempotent, like [Transport.Proc.shutdown]). *)
let shutdown ?grace t =
  drain t;
  Mutex.lock t.lock;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  poke t;
  if first then begin
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    t.dispatcher <- None;
    Transport.Proc.shutdown ?grace t.fabric;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end

(** Fault counters of the chaos plan, when one was configured. *)
let fault_counters t = Option.map Fault.counters t.fault
