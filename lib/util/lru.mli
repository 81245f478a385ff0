(** Bounded LRU table from integer keys to values.

    The TerraDir cache (§2.4 of the paper) stores node → map pointers with
    LRU replacement; an entry is "touched" whenever used in routing.  The
    implementation is flat: entries live in preallocated parallel arrays
    with the recency list as index links and an open-addressing int index
    — all operations are O(1) and allocation-free after the first
    insertion. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] holds at most [capacity] entries.  Capacity 0 is a
    valid always-empty cache. @raise Invalid_argument if negative. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> int -> default:'a -> 'a
(** [find t k ~default] returns the binding, or [default] when [k] is
    absent, and promotes [k] to most-recently-used. *)

val peek : 'a t -> int -> default:'a -> 'a
(** Like {!find} but without promoting. *)

val mem : 'a t -> int -> bool
(** Membership without promotion. *)

val put : 'a t -> int -> 'a -> unit
(** [put t k v] binds [k] to [v] as most-recently-used, evicting the
    least-recently-used entry if the cache is full. *)

val remove : 'a t -> int -> unit

val first : 'a t -> int
(** Allocation-free cursor, MRU first, without promoting: the first slot or
    [-1].  Slots stay valid until the next [put], [remove] or [clear]. *)

val next : 'a t -> int -> int
(** The slot after [slot] in recency order, or [-1] at the end. *)

val key : 'a t -> int -> int

val value : 'a t -> int -> 'a

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** Iterate entries from most- to least-recently used. *)

val keys_mru_order : 'a t -> int list
(** Keys from most- to least-recently-used (for tests). *)

val clear : 'a t -> unit
