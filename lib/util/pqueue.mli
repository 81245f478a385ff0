(** Mutable min-priority queue on float keys (struct-of-arrays binary heap).

    The event queue of the discrete-event engine.  Entries are ordered by
    (key, seq), where the caller supplies [seq]: keeping it unique per key
    makes the order total, so ties pop in a fixed order and simulations are
    deterministic even when many events share a timestamp.  Keys, sequence
    numbers, tags and values live in parallel arrays, so steady-state
    add/pop allocates nothing. *)

type 'a t

val create : unit -> 'a t
(** Empty queue. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add_tagged : 'a t -> key:float -> seq:int -> tag:int -> 'a -> unit
(** Insert [v] with priority (key, seq).  The tag is an opaque payload
    readable via {!top_tag}; it never affects the order. *)

val top_key : 'a t -> float
(** Smallest key without removal; undefined when the queue is empty (check
    [is_empty] first). *)

val top_seq : 'a t -> int
(** Sequence number of the minimum entry; undefined when empty. *)

val top_tag : 'a t -> int
(** Tag of the minimum entry; undefined when empty. *)

val pop_exn : 'a t -> 'a
(** Remove the minimum entry and return its value without boxing the key.
    @raise Invalid_argument when empty. *)
