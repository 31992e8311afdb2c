(** Persistent distributed arrays: segments resident across calls.

    {!Cluster.run_topology} re-ships every slice on every call, so an iterative
    kernel (multi-round tpacf, repeated sgemm) pays full scatter
    traffic each round even when most of its input never changes.  A
    [Darray] separates data distribution from work distribution (paper,
    section 3.5): the array's segments are installed {e once} in warm
    children and stay resident there, and a later run ships only

    - a {!Protocol.Seg_reuse} key — [(darray, segment, version)], a few
      bytes — for every segment the child already holds at the current
      version,
    - a {!Protocol.Seg_put} frame — key plus payload bytes — only for
      segments that changed (or that a respawned child lost), and
    - the per-round argument payload inside the task frame.

    Per-iteration scatter traffic therefore collapses to the argument
    plus key-sized envelopes once the array is warm; the per-run
    {!Cluster.report} makes the collapse measurable.

    {2 Sessions and modes}

    Residency needs somewhere to reside.  A {!session} pins the compute
    closure and the topology at creation time:

    - [Inprocess]/[Flat] backends: per-node segment tables held in the
      parent process.  Put frames are still encoded and size-accounted
      (and the stored copy is the {e decoded} image of those bytes, so
      a node can never alias the parent's buffers), making byte
      accounting identical to the process mode.
    - [Process] backend: one forked child per node over
      {!Transport.Proc} socket channels, each holding its segment table
      in its own address space, supervised by a {!Supervisor}
      (heartbeats, SIGKILL verdicts, backoff respawn).  Like every fork
      in the runtime, the session must be created before any domain is
      spawned.

    {2 Versioning and refusal}

    Segments are keyed [(darray_id, segment, version)].  {!update}
    bumps the version; the parent tracks, per node, which version it
    believes resident and ships a put exactly when belief and truth
    disagree.  A child {e refuses} a reuse naming a version it does not
    hold (a [Nack] carrying the offending key): the parent reacts by
    dropping every belief about that node and replaying puts, so a
    mistaken belief costs one round trip, never a wrong answer.  Task
    frames carry the full expected key list and the child re-checks it
    before computing — version skew is refused at both edges.

    {2 Halo exchange}

    A stencil kernel (cutcp) needs a boundary region of its neighbours'
    segments.  Each primary segment [i] may carry a {e ghost} segment
    (wire index [nsegs + i], same owner) with its own version:
    {!exchange_halo} recomputes the ghosts parent-side and bumps a
    ghost's version only when its content actually changed, so a
    converged boundary ships keys only.

    {2 Crash replay}

    A respawned child has an empty table.  The parent retains every
    segment's encoded put frame (encoded once per version — see
    {!Stats.record_encode}); on a child's EOF it forgets that node's
    believed residency, and the next issue replays the owning segments
    from exactly the retained bytes the first install sent, then
    re-issues the task.  First-round results are byte-identical to the
    non-resident path because the child computes from decoded copies
    either way.

    {2 Envelopes}

    A session follows the engine's rule ({!Cluster.envelope}): its
    frames carry a CRC exactly when it was created with a fault plan.
    Without one, a frame is the bare encoding, 12 bytes shorter, and
    task, reply, [Err] and [Nack] frames stream through the socket's
    fixed buffers instead of being held whole.  Puts stay retained as
    bytes under either envelope.  ({!Service} is the one runtime that
    still checksums every frame.) *)

module Codec = Triolet_base.Codec
module Payload = Triolet_base.Payload
module Obs = Triolet_obs.Obs

let log_src = Logs.Src.create "triolet.darray" ~doc:"Distributed arrays"

module Log = (val Logs.src_log log_src)

(* ------------------------------------------------------------------ *)
(* Wire codecs.  A session frames everything with one table, chosen by
   the engine's envelope rule ({!Cluster.envelope}): under a fault plan
   every frame carries a CRC and corruption is refused before any
   decoder runs; without one the frames are the bare encodings.        *)

(* (darray id, wire segment index, version) *)
let key_codec = Codec.(triple int int int)

type codecs = {
  put : ((int * int * int) * Payload.t) Codec.t;
  reuse : (int * int * int) Codec.t;
  free : int Codec.t;
  task : (int * (int * int * int) list * Payload.t) Codec.t;
      (* (seq, expected resident keys in concatenation order, argument) *)
  reply : (int * Payload.t) Codec.t;  (* (seq, result) *)
  err : (int * string) Codec.t;
  nack : (int * int * int) Codec.t;
}

let codecs ?faults () =
  let e c = Cluster.envelope ?faults c in
  {
    put = e Codec.(pair key_codec Payload.codec);
    reuse = e key_codec;
    free = e Codec.int;
    task = e Codec.(triple int (list key_codec) Payload.codec);
    reply = e Codec.(pair int Payload.codec);
    err = e Codec.(pair int string);
    nack = e key_codec;
  }

(* A Nack names the refused key; task-level rejects use this sentinel. *)
let nack_task = (-1, -1, -1)

let max_attempts = 8

(* ------------------------------------------------------------------ *)
(* Session.                                                            *)

type work = node:int -> resident:Payload.t -> arg:Payload.t -> Payload.t

type proc_state = { fabric : Transport.Proc.t; sup : Supervisor.t }

type mode =
  | Local of (int * int, int * Payload.t) Hashtbl.t array
      (* per-node segment tables, (did, wire seg) -> (version, payload) *)
  | Proc of proc_state

type session = {
  nodes : int;
  work : work;
  codecs : codecs;
  mode : mode;
  believed : (int * int, int) Hashtbl.t array;
      (* per node: (did, wire seg) -> version the parent believes
         resident there; cleared wholesale on that node's death *)
  mutable next_did : int;
  mutable seq : int;  (* task sequence, shared across the session *)
  mutable closed : bool;
}

(* Child serve loop (process mode).  Inherited across the fork; the
   segment table lives here, in the child's own address space.  A
   respawned incarnation starts with an empty table — exactly the state
   the parent's cleared beliefs assume.  Frames are decoded off the
   socket and answers encoded into it, through its fixed buffers. *)
let serve ~codecs:c ~work ~id chan =
  let table : (int * int, int * Payload.t) Hashtbl.t = Hashtbl.create 16 in
  let nack key =
    Transport.Socket.send_msg chan ~kind:Transport.Nack (Codec.msg c.nack key)
  in
  Cluster.serve ~tag:"darray-" ~id chan (fun kind r ->
      match kind with
      | Transport.Seg_put -> (
          match Codec.of_reader c.put r with
          | exception _ -> nack nack_task
          | (did, seg, ver), payload -> Hashtbl.replace table (did, seg) (ver, payload))
      | Transport.Seg_reuse -> (
          match Codec.of_reader c.reuse r with
          | exception _ -> nack nack_task
          | (did, seg, ver) as key -> (
              match Hashtbl.find_opt table (did, seg) with
              | Some (v, _) when v = ver -> ()
              | _ ->
                  (* Not resident, or resident at another version: refuse
                     loudly so the parent replays the put. *)
                  nack key))
      | Transport.Seg_free -> (
          match Codec.of_reader c.free r with
          | exception _ -> ()
          | did ->
              Hashtbl.filter_map_inplace
                (fun (d, _) v -> if d = did then None else Some v)
                table)
      | _ -> (
          (* a [Data] frame: one task *)
          match Codec.of_reader c.task r with
          | exception _ -> nack nack_task
          | seq, keys, arg -> (
              (* Re-check every expected key before computing: a task that
                 names a version this table does not hold must be refused,
                 never computed against stale bytes. *)
              let rec collect acc = function
                | [] -> Ok (List.concat (List.rev acc))
                | (did, seg, ver) :: rest -> (
                    match Hashtbl.find_opt table (did, seg) with
                    | Some (v, payload) when v = ver -> collect (payload :: acc) rest
                    | _ -> Error (did, seg, ver))
              in
              match collect [] keys with
              | Error key -> nack key
              | Ok resident -> (
                  match work ~node:id ~resident ~arg with
                  | r -> Transport.Socket.send_msg chan (Codec.msg c.reply (seq, r))
                  | exception e ->
                      Transport.Socket.send_msg chan ~kind:Transport.Err
                        (Codec.msg c.err (seq, Printexc.to_string e))))))

let create_session ?(topology = Cluster.default_topology) ?faults ?hb_interval
    ?miss_threshold ?backoff_base ?backoff_max ~work () =
  let nodes = topology.Cluster.nodes in
  if nodes < 1 then invalid_arg "Darray: topology needs at least one node";
  let codecs = codecs ?faults () in
  let mode =
    match topology.Cluster.backend with
    | Cluster.Inprocess | Cluster.Flat ->
        Local (Array.init nodes (fun _ -> Hashtbl.create 16))
    | Cluster.Process ->
        if Pool.domains_ever_spawned () then
          failwith
            "Darray: a process-mode session forks one child per node, and \
             OCaml cannot fork once any domain has been spawned.  Create \
             the session before any multi-domain pool.";
        let serve = serve ~codecs ~work in
        let fabric = Transport.Proc.fork ~n:nodes ~child:serve in
        let sup =
          Supervisor.create ~fabric ~serve
            ?hb_interval:(Some (Option.value hb_interval ~default:0.5))
            ?miss_threshold:(Some (Option.value miss_threshold ~default:4))
            ?backoff_base ?backoff_max ()
        in
        Proc { fabric; sup }
  in
  {
    nodes;
    work;
    codecs;
    mode;
    believed = Array.init nodes (fun _ -> Hashtbl.create 16);
    next_did = 0;
    seq = 0;
    closed = false;
  }

let session_nodes s = s.nodes

let proc_pids s =
  match s.mode with
  | Local _ -> []
  | Proc { fabric; _ } ->
      List.map (Transport.Proc.pid fabric) (Transport.Proc.alive_ids fabric)

let session_respawns s =
  match s.mode with Local _ -> 0 | Proc { sup; _ } -> Supervisor.respawns sup

let close_session s =
  if not s.closed then begin
    s.closed <- true;
    match s.mode with
    | Local tables -> Array.iter Hashtbl.reset tables
    | Proc { fabric; _ } -> Transport.Proc.shutdown fabric
  end

(* ------------------------------------------------------------------ *)
(* Arrays, views, geometry.                                            *)

type segment = {
  mutable version : int;
  mutable payload : Payload.t;
  mutable encoded : Bytes.t option;
      (* the retained put frame for this version — encoded at most once
         per version, replayed verbatim on retries and crash recovery *)
}

type t = {
  session : session;
  did : int;
  segs : segment array;
  ghosts : segment option array;  (* ghost of seg i rides wire index nsegs+i *)
  mutable freed : bool;
}

let buf_elems = function
  | Payload.Floats a -> Float.Array.length a
  | Payload.Ints a -> Array.length a
  | Payload.Raw s -> String.length s

let payload_elems p = List.fold_left (fun acc b -> acc + buf_elems b) 0 p

let create session ~segments =
  if session.closed then invalid_arg "Darray.create: session closed";
  if Array.length segments = 0 then invalid_arg "Darray.create: no segments";
  let did = session.next_did in
  session.next_did <- did + 1;
  {
    session;
    did;
    segs =
      Array.map
        (fun payload -> { version = 1; payload; encoded = None })
        segments;
    ghosts = Array.make (Array.length segments) None;
    freed = false;
  }

let nsegs d = Array.length d.segs
let owner d i = i mod d.session.nodes
let segment_version d i = d.segs.(i).version
let ghost_version d i = Option.map (fun g -> g.version) d.ghosts.(i)

let update d i payload =
  if d.freed then invalid_arg "Darray.update: freed array";
  let seg = d.segs.(i) in
  seg.version <- seg.version + 1;
  seg.payload <- payload;
  seg.encoded <- None

(* Install or refresh the ghost of primary segment [i].  Content
   equality (structural, on the decoded payload) gates the version
   bump: an unchanged ghost keeps its version and so keeps shipping as
   a key-only reuse. *)
let set_ghost d i payload =
  if d.freed then invalid_arg "Darray.set_ghost: freed array";
  match d.ghosts.(i) with
  | Some g when g.payload = payload -> false
  | Some g ->
      g.version <- g.version + 1;
      g.payload <- payload;
      g.encoded <- None;
      true
  | None ->
      d.ghosts.(i) <- Some { version = 1; payload; encoded = None };
      true

let exchange_halo d ~compute =
  let changed = ref 0 in
  for i = 0 to nsegs d - 1 do
    if set_ghost d i (compute i) then incr changed
  done;
  Obs.instant ~name:"darray.halo"
    ~attrs:
      [ ("darray", string_of_int d.did); ("changed", string_of_int !changed) ]
    ();
  !changed

type view = { arrays : t list }

let view d = { arrays = [ d ] }

let zip v d =
  match v.arrays with
  | [] -> { arrays = [ d ] }
  | first :: _ ->
      if d.session != first.session then
        invalid_arg "Darray.zip: arrays from different sessions";
      if nsegs d <> nsegs first then
        invalid_arg
          (Printf.sprintf "Darray.zip: segment count mismatch (%d vs %d)"
             (nsegs first) (nsegs d));
      Array.iteri
        (fun i seg ->
          let a = payload_elems first.segs.(i).payload
          and b = payload_elems seg.payload in
          if a <> b then
            invalid_arg
              (Printf.sprintf
                 "Darray.zip: segment %d geometry mismatch (%d vs %d elements)"
                 i a b))
        d.segs;
      { arrays = v.arrays @ [ d ] }

let zip2 a b = zip (view a) b

(* ------------------------------------------------------------------ *)
(* Residency bookkeeping (shared by both modes).                       *)

(* The segments node [n] must hold to compute its slice of [v]:
   per array in view order, each primary segment owned by [n] (index
   order) followed by its ghost.  Concatenation order at the child is
   exactly this order. *)
let plan_for_node v n =
  List.concat_map
    (fun d ->
      if d.freed then invalid_arg "Darray.run: freed array";
      let out = ref [] in
      Array.iteri
        (fun i seg ->
          if owner d i = n then begin
            out := (d, i, seg) :: !out;
            match d.ghosts.(i) with
            | Some g -> out := (d, nsegs d + i, g) :: !out
            | None -> ()
          end)
        d.segs;
      List.rev !out)
    v.arrays

let key_of (d, w, seg) = (d.did, w, seg.version)

(* Encoded put frame for one segment — encoded at most once per
   version; retries and crash replay reuse the retained bytes. *)
let encoded_put s (d, w, seg) =
  match seg.encoded with
  | Some b -> b
  | None ->
      let b =
        Obs.span ~name:"darray.serialize"
          ~attrs:[ ("darray", string_of_int d.did); ("seg", string_of_int w) ]
          (fun () ->
            Stats.record_encode ();
            Codec.to_bytes s.codecs.put ((d.did, w, seg.version), seg.payload))
      in
      seg.encoded <- Some b;
      b

(* Ship residency for node [n]: a put for every segment whose believed
   version disagrees with truth, a key-only reuse for the rest.
   [put]/[reuse] perform the mode-specific delivery; returns the bytes
   shipped.  This one decision rule covers cold start, dirty updates
   and crash replay identically — a dead node's beliefs were cleared,
   so everything it owned ships as a put again. *)
let ensure_residency s n plan ~put ~reuse =
  let shipped = ref 0 in
  List.iter
    (fun ((d, w, seg) as item) ->
      let key = (d.did, w) in
      match Hashtbl.find_opt s.believed.(n) key with
      | Some v when v = seg.version ->
          let bytes = Codec.to_bytes s.codecs.reuse (key_of item) in
          reuse item bytes;
          shipped := !shipped + Bytes.length bytes;
          Stats.record_message ~bytes:(Bytes.length bytes)
      | _ ->
          let bytes = encoded_put s item in
          put item bytes;
          Hashtbl.replace s.believed.(n) key seg.version;
          shipped := !shipped + Bytes.length bytes;
          Stats.record_message ~bytes:(Bytes.length bytes))
    plan;
  !shipped

let empty_report =
  {
    Cluster.scatter_bytes = 0;
    gather_bytes = 0;
    scatter_messages = 0;
    gather_messages = 0;
    max_message_bytes = 0;
    retries = 0;
    redeliveries = 0;
    corrupt_drops = 0;
    crashed_nodes = 0;
    faults_injected = 0;
    recovery_ns = 0;
  }

(* ------------------------------------------------------------------ *)
(* Running a view: local mode.                                         *)

let run_local s tables v ~arg ~merge ~init =
  let scatter_bytes = ref 0 and scatter_msgs = ref 0 in
  let gather_bytes = ref 0 and gather_msgs = ref 0 in
  let max_msg = ref 0 in
  let acc = ref init in
  for n = 0 to s.nodes - 1 do
    let plan = plan_for_node v n in
    let count bytes =
      max_msg := max !max_msg (Bytes.length bytes);
      incr scatter_msgs
    in
    (* Residency: a put installs the *decoded* image of the encoded
       bytes, so node tables never alias parent buffers — the same
       fresh-copy guarantee the socket gives the process mode. *)
    let put (d, w, _) bytes =
      count bytes;
      let (_, _, ver), payload = Codec.of_bytes s.codecs.put bytes in
      Hashtbl.replace tables.(n) (d.did, w) (ver, payload)
    in
    let reuse _ bytes = count bytes in
    scatter_bytes := !scatter_bytes + ensure_residency s n plan ~put ~reuse;
    (* Task: the argument crosses a simulated wire (encode + decode),
       exactly like a cluster scatter. *)
    s.seq <- s.seq + 1;
    let keys = List.map key_of plan in
    let task = Codec.to_bytes s.codecs.task (s.seq, keys, arg n) in
    max_msg := max !max_msg (Bytes.length task);
    scatter_bytes := !scatter_bytes + Bytes.length task;
    incr scatter_msgs;
    Stats.record_message ~bytes:(Bytes.length task);
    let _, _, arg_fresh = Codec.of_bytes s.codecs.task task in
    let resident =
      List.concat_map
        (fun (d, w, _) ->
          match Hashtbl.find_opt tables.(n) (d.did, w) with
          | Some (_, payload) -> payload
          | None -> assert false)
        plan
    in
    let r =
      Obs.span ~name:"darray.compute" ~attrs:[ ("node", string_of_int n) ]
        (fun () -> s.work ~node:n ~resident ~arg:arg_fresh)
    in
    let reply = Codec.to_bytes s.codecs.reply (s.seq, r) in
    max_msg := max !max_msg (Bytes.length reply);
    gather_bytes := !gather_bytes + Bytes.length reply;
    incr gather_msgs;
    Stats.record_message ~bytes:(Bytes.length reply);
    let _, r_fresh = Codec.of_bytes s.codecs.reply reply in
    acc := merge !acc r_fresh
  done;
  ( !acc,
    {
      empty_report with
      Cluster.scatter_bytes = !scatter_bytes;
      gather_bytes = !gather_bytes;
      scatter_messages = !scatter_msgs;
      gather_messages = !gather_msgs;
      max_message_bytes = !max_msg;
    } )

(* ------------------------------------------------------------------ *)
(* Running a view: process mode.                                       *)

let run_proc s { fabric; sup } v ~arg ~merge ~init =
  let scatter_bytes = ref 0 and scatter_msgs = ref 0 in
  let gather_bytes = ref 0 and gather_msgs = ref 0 in
  let max_msg = ref 0 in
  let retries = ref 0 and redeliveries = ref 0 and corrupt_drops = ref 0 in
  let crashed = ref 0 in
  let recovery_started = ref None in
  let results = Array.make s.nodes None in
  let expected_seq = Array.make s.nodes 0 in
  let attempts = Array.make s.nodes 0 in
  let pending = Array.make s.nodes false in
  let outstanding = ref s.nodes in
  let send_frame n ~kind (m : Codec.msg) =
    max_msg := max !max_msg m.size;
    try Transport.Socket.send_msg (Transport.Proc.node fabric n).chan ~kind m
    with Transport.Closed ->
      (* Died under our feet; the EOF surfaces via recv_any. *)
      ()
  in
  let issue n =
    if attempts.(n) >= max_attempts then
      raise (Cluster.Recovery_exhausted { worker = n; attempts = attempts.(n) });
    attempts.(n) <- attempts.(n) + 1;
    if attempts.(n) > 1 then begin
      incr retries;
      Stats.record_retry ()
    end;
    let plan = plan_for_node v n in
    let put _ bytes = send_frame n ~kind:Transport.Seg_put (Codec.bytes_msg bytes) in
    let reuse _ bytes = send_frame n ~kind:Transport.Seg_reuse (Codec.bytes_msg bytes) in
    scatter_bytes := !scatter_bytes + ensure_residency s n plan ~put ~reuse;
    scatter_msgs := !scatter_msgs + List.length plan;
    s.seq <- s.seq + 1;
    expected_seq.(n) <- s.seq;
    (* The task frame is encoded straight into the socket: without a
       fault plan it is never held whole. *)
    let task = Codec.msg s.codecs.task (s.seq, List.map key_of plan, arg n) in
    scatter_bytes := !scatter_bytes + task.size;
    incr scatter_msgs;
    Stats.record_message ~bytes:task.size;
    Obs.span ~name:"darray.send" ~attrs:[ ("node", string_of_int n) ]
      (fun () -> send_frame n ~kind:Transport.Data task);
    pending.(n) <- false
  in
  for n = 0 to s.nodes - 1 do
    issue n
  done;
  while !outstanding > 0 do
    let now = Clock.monotonic_ns () in
    Supervisor.tick sup ~now;
    (* A node whose child died re-issues as soon as the supervisor has
       respawned it; its beliefs were cleared, so the issue replays the
       owning segments from the retained encoded bytes first. *)
    for n = 0 to s.nodes - 1 do
      if pending.(n) && Transport.Proc.is_alive fabric n then issue n
    done;
    let timeout = Float.min 0.05 (Supervisor.next_event_in sup ~now) in
    match Transport.Proc.recv_any fabric ~timeout with
    | `Timeout -> ()
    | `Wake -> ()
    | `No_nodes -> Unix.sleepf 0.002
    | `Eof node ->
        Stats.record_crash ();
        incr crashed;
        if !recovery_started = None then
          recovery_started := Some (Clock.monotonic_ns ());
        Supervisor.note_eof sup node ~now:(Clock.monotonic_ns ());
        (* Everything believed resident there died with the child. *)
        Hashtbl.reset s.believed.(node);
        if results.(node) = None then pending.(node) <- true
    | `Msg (node, Transport.Pong, _) ->
        ignore (Supervisor.note_pong sup node ~now:(Clock.monotonic_ns ()))
    | `Msg
        ( node,
          ( ( Transport.Ping | Transport.Seg_put | Transport.Seg_reuse
            | Transport.Seg_free ) as k ),
          _ ) ->
        Supervisor.note_frame sup node k
    | `Msg (node, Transport.Nack, bytes) ->
        Supervisor.note_frame sup node Transport.Nack;
        (match Codec.of_bytes s.codecs.nack bytes with
        | exception _ -> incr corrupt_drops
        | did, seg, ver ->
            Log.debug (fun m ->
                m "node %d refused (did %d, seg %d, version %d)" node did seg
                  ver));
        (* Whatever the child refused, our beliefs about it were wrong:
           drop them all and replay. *)
        Hashtbl.reset s.believed.(node);
        if results.(node) = None then issue node
    | `Msg (node, Transport.Err, bytes) -> (
        Supervisor.note_frame sup node Transport.Err;
        match Codec.of_bytes s.codecs.err bytes with
        | exception _ ->
            incr corrupt_drops;
            Stats.record_corrupt_drop ()
        | _seq, msg ->
            failwith (Printf.sprintf "Darray: node %d raised: %s" node msg))
    | `Msg (node, Transport.Data, bytes) -> (
        Supervisor.note_frame sup node Transport.Data;
        max_msg := max !max_msg (Bytes.length bytes);
        gather_bytes := !gather_bytes + Bytes.length bytes;
        incr gather_msgs;
        Stats.record_message ~bytes:(Bytes.length bytes);
        match Codec.of_bytes s.codecs.reply bytes with
        | exception _ ->
            incr corrupt_drops;
            Stats.record_corrupt_drop ()
        | seq, r ->
            if seq <> expected_seq.(node) || results.(node) <> None then begin
              incr redeliveries;
              Stats.record_redelivery ()
            end
            else begin
              results.(node) <- Some r;
              decr outstanding
            end)
  done;
  let recovery_ns =
    match !recovery_started with
    | None -> 0
    | Some t0 -> Clock.monotonic_ns () - t0
  in
  if recovery_ns > 0 then Stats.record_recovery_ns recovery_ns;
  let acc = ref init in
  for n = 0 to s.nodes - 1 do
    match results.(n) with
    | Some r -> acc := merge !acc r
    | None -> assert false
  done;
  ( !acc,
    {
      Cluster.scatter_bytes = !scatter_bytes;
      gather_bytes = !gather_bytes;
      scatter_messages = !scatter_msgs;
      gather_messages = !gather_msgs;
      max_message_bytes = !max_msg;
      retries = !retries;
      redeliveries = !redeliveries;
      corrupt_drops = !corrupt_drops;
      crashed_nodes = !crashed;
      faults_injected = 0;
      recovery_ns;
    } )

let run v ~arg ~merge ~init =
  match v.arrays with
  | [] -> invalid_arg "Darray.run: empty view"
  | first :: _ -> (
      let s = first.session in
      if s.closed then invalid_arg "Darray.run: session closed";
      Obs.span ~name:"darray.run" (fun () ->
          match s.mode with
          | Local tables -> run_local s tables v ~arg ~merge ~init
          | Proc st -> run_proc s st v ~arg ~merge ~init))

let run1 d = run (view d)

(* ------------------------------------------------------------------ *)
(* Release.                                                            *)

let free d =
  if not d.freed then begin
    d.freed <- true;
    let s = d.session in
    if not s.closed then begin
      let bytes = Codec.to_bytes s.codecs.free d.did in
      for n = 0 to s.nodes - 1 do
        (match s.mode with
        | Local tables ->
            Hashtbl.filter_map_inplace
              (fun (did, _) v -> if did = d.did then None else Some v)
              tables.(n)
        | Proc { fabric; _ } -> (
            if Transport.Proc.is_alive fabric n then
              try
                Transport.Socket.send
                  (Transport.Proc.node fabric n).chan
                  ~kind:Transport.Seg_free bytes
              with Transport.Closed -> ()));
        Hashtbl.filter_map_inplace
          (fun (did, _) v -> if did = d.did then None else Some v)
          s.believed.(n)
      done
    end
  end
