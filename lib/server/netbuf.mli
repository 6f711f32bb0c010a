(** A growable byte queue with an offset cursor — the building block
    shared by the frame decoder's receive side and the event loop's
    per-connection write buffers.

    Bytes are appended at the tail and consumed from the head; the
    head is an offset into one backing buffer, so neither operation
    copies the unconsumed middle.  Space is reclaimed by compaction
    (sliding the live bytes to offset 0), performed only when an
    append needs room or the buffer empties — each byte is blitted
    O(1) amortized times, whatever the feed/consume interleaving.
    This is what makes byte-at-a-time (slow-loris) feeds linear where
    a string-concatenation buffer was quadratic.

    Not thread-safe: a buffer is owned by one consumer (the decoder,
    or the event loop). *)

type t

val create : unit -> t
(** An empty buffer of initial capacity 256 bytes; grows by
    doubling. *)

val length : t -> int
(** Unconsumed bytes. *)

val is_empty : t -> bool

val append_string : t -> string -> unit

val append_sub : t -> bytes -> int -> int -> unit
(** [append_sub t b off len] appends [len] bytes of [b] at [off].
    Raises [Invalid_argument] on an out-of-range slice. *)

val get : t -> int -> char
(** [get t i] is the [i]-th unconsumed byte ([0 <= i < length t]).
    Raises [Invalid_argument] out of range. *)

val sub : t -> pos:int -> len:int -> string
(** Copy of [len] unconsumed bytes starting [pos] after the head.
    Raises [Invalid_argument] out of range. *)

val consume : t -> int -> unit
(** Drop [n] bytes from the head.  Raises [Invalid_argument] if
    [n > length t] or [n < 0]. *)

val peek : t -> bytes * int * int
(** [(buf, off, len)] — a borrowed view of the unconsumed bytes, valid
    until the next [append_*]/[consume].  For handing straight to
    [Unix.write]; follow with {!consume} on however much was taken. *)
