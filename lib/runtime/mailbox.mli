(** Node mailboxes: FIFO queues of serialized messages.

    The in-process transport's frames flow through mailboxes as opaque
    byte buffers; every send is counted in {!Stats}.  A mailbox can be
    closed (poison waking blocked receivers). *)

type t

exception Closed
(** Raised by {!send} on a closed mailbox, and by {!recv} once a closed
    mailbox has drained. *)

val create : unit -> t

val send : t -> Bytes.t -> unit

val close : t -> unit
(** Poisons the mailbox: blocked receivers wake, pending messages can
    still be drained, further sends raise {!Closed}.  Idempotent. *)

val recv : t -> Bytes.t
(** Blocking receive; raises {!Closed} once the mailbox is closed and
    empty. *)

val recv_timeout : t -> float -> [ `Msg of Bytes.t | `Timeout | `Closed ]
(** [recv_timeout t seconds] waits up to [seconds] for a message;
    [`Closed] once the mailbox is closed and empty. *)

val try_recv : t -> Bytes.t option

val pending : t -> int

val totals : t -> int * int
(** (messages, bytes) ever sent to this mailbox. *)
