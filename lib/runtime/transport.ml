(** Pluggable cluster transports.

    The cluster runtime moves every payload as serialized bytes; this
    module abstracts *how* those bytes move.  A transport is a
    module-level interface ({!S}) over length-prefixed byte frames:
    [connect] yields a linked pair of endpoints, [send] ships one frame,
    [recv]/[recv_timeout] deliver whole frames in order, [close] tears
    an endpoint down and wakes any peer blocked on it.

    Two implementations:

    - {!Mailbox_chan}: the in-process backend.  Frames ride the existing
      {!Mailbox} FIFO queues (one per direction), so wire behaviour —
      FIFO order, poison-on-close, byte accounting per message — is
      exactly the mailbox runtime's.
    - {!Socket}: a real OS channel.  Frames are written to a
      [socketpair] as a 4-byte big-endian payload length, a 1-byte frame
      kind, and the payload; the endpoints may live in different
      processes, which is what the multi-process cluster backend uses.

    Frame *headers* (length + kind) are transport framing, not payload:
    byte accounting everywhere in the runtime counts payload bytes only,
    so the two backends report identical traffic for identical work.

    {!Proc} is the process fabric the multi-process backend builds on:
    it forks one child per node with a socket channel back to the
    parent, multiplexes replies with [select], and tears children down
    with an EOF-then-SIGKILL grace protocol.  Task *code* crosses the
    [fork] (the child inherits the closure by address-space copy); task
    *data* only ever crosses the socket as bytes.  OCaml cannot fork
    once any domain has been spawned, so the fabric must be created
    before the first domain — see DESIGN.md, Transports. *)

module Rw = Triolet_base.Rw
module Codec = Triolet_base.Codec

exception Closed
(** The endpoint (or its peer) is closed: no further frames will ever
    arrive.  Mirrors [Mailbox.Closed] and a socket EOF. *)

(** Frame kinds.  [Data] carries protocol payload; [Err] carries a
    remote failure report (an exception escaping task code); [Nack]
    signals that the receiver rejected a frame (e.g. a corrupt task
    envelope) without producing a result.  [Ping]/[Pong] are the
    heartbeat frames of the long-lived service fabric: a supervisor
    pings its children, a live child echoes the payload back as a pong,
    and a silence longer than the miss threshold is a death verdict
    even when the socket never delivers an EOF (a hung child keeps its
    end open forever).

    The type, its byte tags, and the frame header codec all live in
    {!Protocol} — the reified spec the analyzer and model checker also
    consume; this is a re-export so transport users keep a single
    constructor namespace.  A malformed header (unknown kind byte,
    absurd length field) raises [Protocol.Bad_frame], not
    [Invalid_argument]. *)
type kind = Protocol.kind =
  | Data
  | Err
  | Nack
  | Ping
  | Pong
  | Seg_put
  | Seg_reuse
  | Seg_free

let kind_to_byte = Protocol.kind_to_byte
let kind_of_byte = Protocol.kind_of_byte

(** The transport interface: length-prefixed byte frames over a
    connected pair of endpoints. *)
module type S = sig
  val name : string

  type t
  (** One endpoint of a connected channel. *)

  val connect : unit -> t * t
  (** A linked endpoint pair: frames sent on one arrive on the other,
      whole and in order. *)

  val send : t -> ?kind:kind -> Bytes.t -> unit
  (** Ship one frame ([kind] defaults to [Data]).  Raises {!Closed} if
      the channel is down. *)

  val recv : t -> kind * Bytes.t
  (** Blocking receive of the next whole frame.  Raises {!Closed} once
      the channel is closed and drained. *)

  val recv_timeout : t -> float -> [ `Msg of kind * Bytes.t | `Timeout | `Closed ]
  (** Receive with a timeout in seconds. *)

  val close : t -> unit
  (** Tear the endpoint down.  Peers blocked in [recv] wake with
      {!Closed}; pending frames already delivered may still be read by
      the peer where the underlying channel buffers them. *)
end

(* ------------------------------------------------------------------ *)
(* In-process backend: frames over a pair of mailboxes.                 *)

module Mailbox_chan : S = struct
  let name = "mailbox"

  (* One mailbox per direction; the kind byte is prepended to the
     payload so a mailbox message is exactly one frame.  (Mailbox
     messages preserve boundaries, so no length prefix is needed.) *)
  type t = { rx : Mailbox.t; tx : Mailbox.t }

  let connect () =
    let a = Mailbox.create () and b = Mailbox.create () in
    ({ rx = a; tx = b }, { rx = b; tx = a })

  let frame kind payload =
    let len = Bytes.length payload in
    let b = Bytes.create (len + 1) in
    Bytes.set b 0 (kind_to_byte kind);
    Bytes.blit payload 0 b 1 len;
    b

  let unframe b =
    if Bytes.length b = 0 then invalid_arg "Transport.Mailbox_chan: empty frame";
    (kind_of_byte (Bytes.get b 0), Bytes.sub b 1 (Bytes.length b - 1))

  let send t ?(kind = Data) payload =
    match Mailbox.send t.tx (frame kind payload) with
    | () -> ()
    | exception Mailbox.Closed -> raise Closed

  let recv t =
    match Mailbox.recv t.rx with
    | b -> unframe b
    | exception Mailbox.Closed -> raise Closed

  let recv_timeout t timeout =
    match Mailbox.recv_timeout t.rx timeout with
    | `Msg b -> `Msg (unframe b)
    | `Timeout -> `Timeout
    | `Closed -> `Closed

  (* Closing either side poisons both directions, like shutting down a
     socket: the peer's blocked [recv] wakes with [Closed]. *)
  let close t =
    Mailbox.close t.rx;
    Mailbox.close t.tx
end

(* ------------------------------------------------------------------ *)
(* Multi-process backend: frames over a socketpair.                     *)

(* A write to a socket whose reader died raises SIGPIPE, which would
   kill the whole run instead of surfacing as an error the recovery
   machinery can absorb.  Ignore it once, lazily, so merely linking this
   module does not change signal state. *)
let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    sigpipe_ignored := true;
    if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  end

module Socket = struct
  let name = "socket"

  (* Every frame, in either direction, goes through one of the
     endpoint's two fixed buffers.  [out] streams the header and the
     payload encoding into the socket; [inb] takes the payload as a
     frame reader pulls it.  A reader never asks the socket for bytes
     past its frame, so a readable descriptor still means a frame is
     waiting ([select] in {!Proc.recv_any} relies on it).  The buffers
     are taken on first use: a fork copies every endpoint the parent
     holds, and most copies are closed unused.  An endpoint has one
     owner thread at a time, and only its owner closes it: [close]
     gives the buffers back to [spare] for the next endpoint.

     16 KiB: on the [wire] benchmark 64 KiB buffers were no faster, and
     they raised the peak RSS of the small-frame [service] and
     [resident] workloads by about 8%, against 2-4% at 16 KiB. *)
  let buffer_bytes = 1 lsl 14

  (* Buffers of closed endpoints, at most [spare_max] of them.  A
     one-shot process call opens fresh endpoints every time, and a
     16 KiB buffer is allocated outside the minor heap; allocating four
     per call fragmented the parent's heap (on [wire], about 6 MB more
     resident, and high-water jumps of 8 MB as data arrays were
     reallocated).  Lock-free, so a fork never inherits it locked. *)
  let spare : (int * Bytes.t list) Atomic.t = Atomic.make (0, [])
  let spare_max = 32

  let rec take () =
    match Atomic.get spare with
    | _, [] -> Bytes.create buffer_bytes
    | (n, b :: rest) as s -> if Atomic.compare_and_set spare s (n - 1, rest) then b else take ()

  let rec give b =
    match Atomic.get spare with
    | n, _ when n >= spare_max -> ()
    | (n, l) as s -> if not (Atomic.compare_and_set spare s (n + 1, b :: l)) then give b

  type t = {
    fd : Unix.file_descr;
    mutable closed : bool;
    outb : Bytes.t Lazy.t;  (* [out]'s buffer *)
    out : Rw.writer Lazy.t;
    budget : int ref;  (* bytes the frame being sent may still put on the wire *)
    hdr : Bytes.t;  (* a header, sent or received, on its way *)
    inb : Bytes.t Lazy.t;
  }

  let write_all fd buf off len =
    let pos = ref off and stop = off + len in
    while !pos < stop do
      match Unix.write fd buf !pos (stop - !pos) with
      | n -> pos := !pos + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          raise Closed
    done

  exception Overrun of int

  let of_fd fd =
    let budget = ref 0 in
    (* The budget stops an encoder that writes past its declared size
       before the surplus can reach the peer as a bogus next frame. *)
    let flush buf off len =
      if len > !budget then raise (Overrun (len - !budget));
      write_all fd buf off len;
      budget := !budget - len
    in
    let outb = lazy (take ()) in
    {
      fd;
      closed = false;
      outb;
      out = lazy (Rw.create_writer ~buf:(Lazy.force outb) ~flush ());
      budget;
      hdr = Bytes.create Protocol.header_len;
      inb = lazy (take ());
    }

  let fd t = t.fd

  let connect () =
    ignore_sigpipe ();
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* Best effort: bigger kernel buffers reduce backpressure stalls
       when node payloads run to megabytes.  The kernel may clamp. *)
    List.iter
      (fun fd ->
        try
          Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 20);
          Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20)
        with Unix.Unix_error _ -> ())
      [ a; b ];
    (of_fd a, of_fd b)

  let header_len = Protocol.header_len

  (* The one send path: header and encoding stream through [out].  The
     size is checked against what the encoder really wrote before the
     last buffer-full leaves, so a short encoding never reaches the
     wire as a whole frame.  If part of a bad frame already left, the
     send side is shut down: the peer then reads a truncated frame
     (its [Closed]) instead of misframing the stream. *)
  let send_msg t ?(kind = Data) (m : Codec.msg) =
    if t.closed then raise Closed;
    Protocol.write_header t.hdr 0 ~len:m.size kind;
    let w = Lazy.force t.out in
    let frame = header_len + m.size in
    let start = Rw.writer_length w in
    t.budget := frame;
    match
      Rw.write_bytes w t.hdr 0 header_len;
      m.encode w;
      let written = Rw.writer_length w - start in
      if written <> frame then
        raise
          (Codec.Size_mismatch { declared = m.size; written = written - header_len });
      Rw.flush w
    with
    | () -> ()
    | exception Closed ->
        Rw.reset w;
        raise Closed
    | exception e ->
        Rw.reset w;
        if !(t.budget) < frame then (
          try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
        raise
          (match e with
          | Overrun excess ->
              (* At least this much: the encoder may have had more to write. *)
              Codec.Size_mismatch { declared = m.size; written = m.size + excess }
          | e -> e)

  let send t ?kind payload = send_msg t ?kind (Codec.bytes_msg payload)

  (* Source for frame readers: at least one byte, [Closed] on EOF (a
     frame reader only asks for bytes its frame still owes). *)
  let read_some t buf off len =
    let rec go () =
      match Unix.read t.fd buf off len with
      | 0 -> raise Closed
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise Closed
    in
    go ()

  (* The next header into [hdr]; [false] on a clean EOF at a frame
     boundary (peer gone), [Closed] mid-header. *)
  let read_header t =
    let rec go pos =
      pos = header_len
      ||
      match Unix.read t.fd t.hdr pos (header_len - pos) with
      | 0 -> if pos = 0 then false else raise Closed
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
          raise Closed
    in
    go 0

  let recv_frame t f =
    if t.closed then raise Closed;
    if not (read_header t) then None
    else begin
      let len, kind = Protocol.decode_header t.hdr 0 in
      let r = Rw.reader_of_source (Lazy.force t.inb) ~len (read_some t) in
      let v = f kind r in
      (* Whatever [f] left unread still belongs to this frame. *)
      Rw.skip_rest r;
      Some v
    end

  let read_frame t = recv_frame t (fun kind r -> (kind, Rw.read_rest r))

  let recv t =
    match read_frame t with Some f -> f | None -> raise Closed

  let recv_timeout t timeout =
    if t.closed then `Closed
    else
      match Unix.select [ t.fd ] [] [] timeout with
      | [], _, _ -> `Timeout
      | _ -> (
          match read_frame t with
          | Some f -> `Msg f
          | None -> `Closed
          | exception Closed -> `Closed)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout

  let close t =
    if not t.closed then begin
      t.closed <- true;
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      List.iter (fun b -> if Lazy.is_val b then give (Lazy.force b)) [ t.outb; t.inb ]
    end
end

module Socket_s : S = Socket

(* ------------------------------------------------------------------ *)
(* Process fabric: one forked child per node, socket channels back to
   the parent.                                                          *)

module Proc = struct
  type node = {
    id : int;
    mutable pid : int;  (** current incarnation; replaced on respawn *)
    mutable chan : Socket.t;  (** parent-side endpoint *)
    mutable alive : bool;
        (** flipped to false when the parent sees EOF (child exited,
            crashed, or was killed) *)
    mutable reaped : bool;
        (** the current [pid] has been waited for; nothing left to
            collect until a respawn replaces it *)
  }

  (* [lock] serializes teardown state (close/reap/respawn flags) so
     [shutdown] is idempotent and safe to race against a child dying —
     a double-shutdown or an EPIPE mid-teardown must never escape into
     the caller's [~finally].  Frame I/O itself stays lock-free: the
     fabric has a single protocol owner (the run loop or the service
     dispatcher), and signals ([kill]) are async-safe anyway. *)
  type t = { nodes : node array; lock : Mutex.t }

  let node t i = t.nodes.(i)
  let pid t i = t.nodes.(i).pid
  let is_alive t i = t.nodes.(i).alive
  let size t = Array.length t.nodes
  let alive_ids t =
    Array.to_list t.nodes
    |> List.filter_map (fun n -> if n.alive then Some n.id else None)

  (** Fork [n] children.  Each child closes every descriptor except its
      own channel, runs [child ~id chan], and [_exit]s — it never
      returns into the parent's control flow, never flushes the
      parent's buffered output, and never runs [at_exit] handlers.

      Must be called before any domain has been spawned in this
      process; the caller is responsible for checking (OCaml's runtime
      forbids [fork] afterwards). *)
  let fork ~n ~child =
    ignore_sigpipe ();
    (* Children inherit the parent's buffered channel state; anything
       pending at fork time would be written once per process.  Empty
       the buffers first so a child can never replay parent output. *)
    flush_all ();
    let pairs = Array.init n (fun _ -> Socket.connect ()) in
    let nodes =
      Array.init n (fun i ->
          let parent_end, child_end = pairs.(i) in
          match Unix.fork () with
          | 0 ->
              (* Child: keep only this node's child end.  Closing the
                 sibling descriptors matters for EOF detection — a
                 parent-side read returns EOF only once *every* process
                 holding the write end has closed it. *)
              Array.iteri
                (fun j (p, c) ->
                  Socket.close p;
                  if j <> i then Socket.close c)
                pairs;
              (try child ~id:i child_end
               with _ -> (try Socket.close child_end with _ -> ()));
              Unix._exit 0
          | pid ->
              { id = i; pid; chan = parent_end; alive = true; reaped = false })
    in
    (* Parent: the child ends belong to the children now. *)
    Array.iter (fun (_, child_end) -> Socket.close child_end) pairs;
    { nodes; lock = Mutex.create () }

  (** Put every node's frames on the wire at once, so all children
      receive in parallel: the caller writes the first node's frames and
      one systhread per further node writes that node's, each in list
      order.  A frame to a closed channel is dropped (the node's EOF
      answers for it).  Every thread is joined before this returns or
      raises; any other exception a writer raised (say
      [Codec.Size_mismatch]) is then re-raised here, the first in node
      order.  The writers touch nothing but their node's channel, so
      the caller must not use those channels until this returns. *)
  let scatter t frames =
    let n = Array.length t.nodes in
    let queued = Array.make n [] in
    List.iter (fun (i, m) -> queued.(i) <- m :: queued.(i)) (List.rev frames);
    let failed = Array.make n None in
    let write i =
      let chan = t.nodes.(i).chan in
      try List.iter (fun m -> try Socket.send_msg chan m with Closed -> ()) queued.(i)
      with e -> failed.(i) <- Some e
    in
    let busy = List.filter (fun i -> not (List.is_empty queued.(i))) (List.init n Fun.id) in
    (match busy with
    | [] -> ()
    | first :: rest ->
        let writers = ref [] in
        Fun.protect
          ~finally:(fun () -> List.iter Thread.join !writers)
          (fun () ->
            List.iter (fun i -> writers := Thread.create write i :: !writers) rest;
            write first));
    Array.iter (Option.iter raise) failed

  (** Multiplexed receive: the next frame from any live child, that
      child's EOF, a timeout, or — when [wake] is given — [`Wake] once
      that descriptor becomes readable (a self-pipe poked by another
      thread; the caller drains it).  EOF marks the node dead and closes
      its channel. *)
  let recv_any ?wake t ~timeout =
    let live = Array.to_list t.nodes |> List.filter (fun n -> n.alive) in
    if live = [] && wake = None then `No_nodes
    else
      let fds = List.map (fun n -> Socket.fd n.chan) live in
      let fds = match wake with Some w -> w :: fds | None -> fds in
      match Unix.select fds [] [] timeout with
      | [], _, _ -> `Timeout
      | ready, _, _ -> (
          match wake with
          | Some w when List.mem w ready -> `Wake
          | _ -> (
              let fd = List.hd ready in
              let n = List.find (fun n -> Socket.fd n.chan = fd) live in
              match Socket.read_frame n.chan with
              | Some (kind, payload) -> `Msg (n.id, kind, payload)
              | None | (exception Closed) ->
                  n.alive <- false;
                  Socket.close n.chan;
                  `Eof n.id))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Timeout

  (* Reap one child: EOF-induced exit first (closing our end already
     told it to stop), then a grace window, then SIGKILL.  The polls
     back off from 50 us to 2 ms, so a child that exits soon after its
     EOF is collected soon after, not at the next 2 ms tick: one-shot
     calls reap on every call.  Idempotent: the [reaped] flag (set under
     [lock] by callers) ensures a pid is waited for exactly once, so a
     double-shutdown or a shutdown racing a concurrent reap can never
     wait on a recycled pid. *)
  let reap_node ?(grace = 1.0) n =
    let deadline = Clock.monotonic_ns () + int_of_float (grace *. 1e9) in
    let rec wait_nohang pause =
      match Unix.waitpid [ Unix.WNOHANG ] n.pid with
      | 0, _ ->
          if Clock.monotonic_ns () >= deadline then begin
            (try Unix.kill n.pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (try Unix.waitpid [] n.pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
          end
          else begin
            Unix.sleepf pause;
            wait_nohang (Float.min (2.0 *. pause) 0.002)
          end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_nohang pause
    in
    wait_nohang 50e-6

  (* Claim the right to reap [n]'s current pid; at most one caller wins. *)
  let claim_reap t n =
    Mutex.lock t.lock;
    let mine = not n.reaped in
    if mine then n.reaped <- true;
    Mutex.unlock t.lock;
    mine

  (** Reap node [i]: close the channel (EOF tells the child to exit),
      wait, escalate to SIGKILL after [grace].  Idempotent and safe to
      call concurrently with the child dying on its own. *)
  let reap ?grace t i =
    let n = t.nodes.(i) in
    n.alive <- false;
    Socket.close n.chan;
    if claim_reap t n then reap_node ?grace n

  (** SIGKILL node [i]'s current incarnation (no reap — the parent's
      next [recv_any] sees the EOF and marks the node dead, exactly as
      an externally injected crash would). *)
  let kill t i =
    let n = t.nodes.(i) in
    try Unix.kill n.pid Sys.sigkill with Unix.Unix_error _ -> ()

  (** Replace node [i] with a fresh child running [child ~id:i].  The
      old incarnation must already be dead (EOF seen / reaped); its pid
      is collected here if nobody has yet.  Must run on the fabric
      owner's thread, and — like [fork] — requires that no domain has
      ever been spawned in this process. *)
  let respawn t i ~child =
    let n = t.nodes.(i) in
    Socket.close n.chan;
    if claim_reap t n then reap_node ~grace:0.0 n;
    flush_all ();
    let parent_end, child_end = Socket.connect () in
    (match Unix.fork () with
    | 0 ->
        (* Child: drop every other node's parent-side descriptor so EOF
           detection on the siblings' channels keeps working, then run
           the same serve closure as the original incarnation. *)
        Socket.close parent_end;
        Array.iter
          (fun other -> if other.id <> i then try Socket.close other.chan with _ -> ())
          t.nodes;
        (try child ~id:i child_end
         with _ -> (try Socket.close child_end with _ -> ()));
        Unix._exit 0
    | pid ->
        Socket.close child_end;
        Mutex.lock t.lock;
        n.pid <- pid;
        n.chan <- parent_end;
        n.alive <- true;
        n.reaped <- false;
        Mutex.unlock t.lock)

  (** Close every channel (children read EOF and exit) and reap all
      children, escalating to SIGKILL after [grace] seconds each.
      Idempotent — a second call (or a call racing a child's death) is
      a no-op for already-reaped children and never raises, so it is
      safe inside a [~finally]. *)
  let shutdown ?grace t =
    Array.iter
      (fun n ->
        n.alive <- false;
        try Socket.close n.chan with _ -> ())
      t.nodes;
    Array.iter
      (fun n -> if claim_reap t n then try reap_node ?grace n with _ -> ())
      t.nodes
end
