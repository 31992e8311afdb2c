(** Node mailboxes: FIFO queues of serialized messages.

    Frames of the in-process transport ({!Transport.Mailbox_chan})
    flow through mailboxes as opaque byte buffers — data crosses an
    endpoint boundary only in serialized form, as on a real network.
    Every send is counted in {!Stats}.  A mailbox can be {!close}d: a poison state that wakes
    blocked receivers instead of leaving them stuck on a dead peer. *)

exception Closed

type t = {
  q : Bytes.t Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable total_bytes : int;
  mutable total_messages : int;
}

let create () =
  {
    q = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
    total_bytes = 0;
    total_messages = 0;
  }

let count_send t msg =
  t.total_bytes <- t.total_bytes + Bytes.length msg;
  t.total_messages <- t.total_messages + 1

let send t msg =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    raise Closed
  end;
  Queue.push msg t.q;
  count_send t msg;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  Stats.record_message ~bytes:(Bytes.length msg)

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

(** Blocking receive.  Pending messages are drained even after a close;
    raises {!Closed} once the mailbox is closed and empty. *)
let recv t =
  Mutex.lock t.lock;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.q then begin
    Mutex.unlock t.lock;
    raise Closed
  end;
  let msg = Queue.pop t.q in
  Mutex.unlock t.lock;
  msg

(* The stdlib [Condition] has no timed wait, so the timeout path polls
   with a short sleep.  The poll interval only affects latency, never
   delivery order. *)
let poll_interval = 0.0002

(* Deadline arithmetic uses the monotonic clock, never the wall clock:
   an NTP step forward would spuriously expire a gettimeofday-based
   deadline, and a step backward would leave a receiver polling long
   past its timeout.
   CLOCK_MONOTONIC cannot step, so the deadline means what it says. *)
let recv_timeout t timeout =
  let deadline =
    Clock.monotonic_ns () + int_of_float (timeout *. 1e9)
  in
  let rec loop () =
    Mutex.lock t.lock;
    if not (Queue.is_empty t.q) then begin
      let msg = Queue.pop t.q in
      Mutex.unlock t.lock;
      `Msg msg
    end
    else if t.closed then begin
      Mutex.unlock t.lock;
      `Closed
    end
    else if Clock.monotonic_ns () >= deadline then begin
      Mutex.unlock t.lock;
      `Timeout
    end
    else begin
      Mutex.unlock t.lock;
      Unix.sleepf poll_interval;
      loop ()
    end
  in
  loop ()

let try_recv t =
  Mutex.lock t.lock;
  let msg = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Mutex.unlock t.lock;
  msg

let pending t =
  Mutex.lock t.lock;
  let n = Queue.length t.q in
  Mutex.unlock t.lock;
  n

let totals t = (t.total_messages, t.total_bytes)
