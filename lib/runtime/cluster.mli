(** Two-level distributed runtime (paper, section 3.4).

    Nodes exchange *only* serialized bytes: payloads are encoded,
    shipped over a transport, and decoded into structurally fresh
    buffers, so a task can never touch the sender's memory.  Task *code*
    travels as an OCaml closure (serializing code is what the Triolet
    compiler adds); task *data* always travels as bytes, and every byte
    is counted.

    Which transport carries the bytes is the {!backend} of the
    {!topology}: in-process byte queues (the simulation the paper's
    MPI ranks reduce to in one address space), Eden-style flat workers
    over the same queues, or genuinely separate OS processes over
    socketpairs ({!Process}), where the no-shared-memory guarantee is
    enforced by the kernel rather than asserted by convention.

    Unlike the paper's MPI runtime, a run can survive injected node and
    link failures: see {!Fault} and the [?faults] argument below.  Under
    the process backend a child killed from outside is recovered through
    the same retry path as an injected crash. *)

(** Where and how nodes execute and exchange bytes. *)
type backend =
  | Inprocess  (** in-process nodes over byte queues *)
  | Flat
      (** Eden's flat process view over byte queues: one
          single-threaded worker per core, no shared memory within a
          node *)
  | Process
      (** one forked OS process per node over socketpair framed
          channels; each child runs its slice on a private
          [cores_per_node]-wide pool.  The fork happens inside the run,
          so it must be called before any domain has ever been spawned
          in this process (an OCaml runtime restriction); keep the
          parent single-domain, e.g. via [TRIOLET_BACKEND=process]. *)

val backend_to_string : backend -> string

val backend_of_string : string -> backend option
(** ["inprocess"], ["flat"], ["process"]. *)

type topology = { nodes : int; cores_per_node : int; backend : backend }
(** The cluster geometry plus the transport that realizes it. *)

val default_topology : topology
(** 4 nodes, 2 cores each, in-process. *)

val topology_workers : topology -> int
(** Logical workers a run fans out to: [nodes * cores_per_node] under
    {!Flat}, [nodes] otherwise. *)

type report = {
  scatter_bytes : int;
  gather_bytes : int;
  scatter_messages : int;
  gather_messages : int;
  max_message_bytes : int;
  retries : int;  (** task re-issues at the end of a round *)
  redeliveries : int;  (** duplicate/late replies discarded by dedup *)
  corrupt_drops : int;  (** messages rejected by checksum/decode *)
  crashed_nodes : int;  (** node deaths survived *)
  faults_injected : int;  (** total faults the injector fired *)
  recovery_ns : int;  (** wall time from the first retry round to the end *)
}
(** Bytes count each message's slice or result encoding only: the frame
    header and the [(worker, seq)] envelope, with its CRC under a fault
    plan, are framing.  A fault-free run leaves the last six fields
    zero. *)

val pp_report : Format.formatter -> report -> unit
(** Prints the byte/message accounting; fault statistics are appended
    only when any are nonzero, so fault-free output is unchanged. *)

exception Recovery_exhausted of { worker : int; attempts : int }
(** A worker's result could never be obtained within the fault plan's
    attempt budget (or no surviving node remains). *)


val run_topology :
  ?pool:Pool.t ->
  ?faults:Fault.spec ->
  topology ->
  scatter:(int -> Triolet_base.Payload.slice) ->
  work:(node:int -> pool:Pool.t -> Triolet_base.Payload.t -> 'r) ->
  result_codec:'r Triolet_base.Codec.t ->
  merge:('a -> 'r -> 'a) ->
  init:'a ->
  'a * report
(** [run_topology topo ~scatter ~work ~result_codec ~merge ~init]:

    - [scatter w] describes worker [w]'s input slice, once, as ranges
      borrowed from the caller's arrays.  The slice is encoded on its
      send and never kept past it: streamed into the socket, copied to
      bytes by the in-process link, or, under [?faults], encoded to the
      bytes every retry re-sends.  The caller must not mutate the
      borrowed ranges until the call returns;
    - [work ~node ~pool payload] runs against the decoded (owned) payload,
      using [pool] for intra-node parallelism; [~node] is always the
      logical worker id whose slice it computes, even when recovery
      runs that slice on another node;
    - each worker's result is serialized with [result_codec], shipped
      back and decoded; replies are stored per worker id and folded
      with [merge] strictly in worker order (worker 0 first), never in
      arrival order, so [merge] need not be commutative.

    Both backends run one engine.  Every message is a [(worker, seq)]
    envelope around the slice or result; [?faults] adds a CRC to it and
    injects the plan's faults at the parent's edge of each link.  The
    call proceeds in rounds: a round reads every answer it is owed
    (reply, failure report, refusal, or node death) before it ends, so
    no wait is ever timed and a seed fixes the whole fault schedule and
    report on either backend.  At a round's end each unresolved worker
    is re-issued to its node, or to the first surviving node.  Without
    [?faults] the plan injects nothing and allows one attempt: one
    scatter and one reply per worker, no CRC work, and a node failure
    is an error rather than a retry.

    Raises {!Recovery_exhausted} if a worker stays unresolved once its
    attempts are spent or no node survives, and re-raises the [work]
    exception if that is what kept failing (under {!Process} as a
    [Failure] carrying its text).  Raises [Invalid_argument
    "Cluster.run: bad config"] on a non-positive node or core count.

    - {!Inprocess} / {!Flat}: nodes are per-node byte queues whose
      frames run inline on [?pool] (default {!Pool.default}).
    - {!Process}: forks one OS process per node before building any
      slice and ships frames over socketpairs; the task closure crosses
      the [fork] by address-space inheritance, data only the socket.
      [?pool] is ignored — each child lazily builds its own
      [cores_per_node]-wide pool.  Fails fast (with an explanatory
      [Failure]) if a domain was ever spawned in this process, since
      OCaml then forbids [fork].  A planned crash is a real child exit
      and a child killed from outside is recovered the same way.  Each
      round's frames go to every node at once, one writer thread per
      node beyond the first; all of them are joined before the first
      reply is read, and an exception a writer raised (other than a
      closed channel) is then re-raised here, e.g. [Invalid_argument]
      for a slice range outside its array.  Every child is reaped
      before the call returns or raises. *)

val envelope : ?faults:Fault.spec -> 'a Triolet_base.Codec.t -> 'a Triolet_base.Codec.t
(** The envelope rule every runtime frames its messages by: [envelope
    ~faults c] is [c] inside {!Triolet_base.Codec.checksummed}, and
    [envelope c] is [c] itself.  A CRC is paid exactly when a fault plan
    is set, since without one nothing on a local socketpair or byte
    queue corrupts a frame.  {!run_topology} chooses its [(worker, seq)]
    envelope with it, and {!Darray} its segment codecs. *)

val on_node : unit -> int option
(** Inside a forked child: the id of the node this process is.  [None]
    in the parent and under in-process backends (where task code can
    instead trust [work]'s [~node] argument). *)

val serve :
  ?tag:string ->
  id:int ->
  Transport.Socket.t ->
  (Transport.kind -> Triolet_base.Rw.reader -> unit) ->
  unit
(** [serve ~id chan handle] is the child serve loop every forked
    runtime runs: it records [id] for {!on_node}, reads frames until
    EOF while replaying them on a {!Protocol} child tracker (named
    [tag ^ string_of_int id]), answers [Ping] with [Pong], drops
    [Err]/[Nack]/[Pong], and passes [Data] and segment frames to
    [handle], which replies on [chan] itself.  [handle] reads the frame
    off the socket through the given reader (bounded by the frame);
    bytes it leaves unread are discarded. *)
