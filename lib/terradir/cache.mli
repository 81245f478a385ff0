(** Per-server node cache (§2.4).

    A cache entry is {e just a map} for a node: it lacks routing context and
    acts as a pointer in the namespace; a hit cannot resolve a query by
    itself.  Replacement is LRU, with an entry touched whenever it is used in
    routing.  Path propagation means inserts come in bursts (the whole query
    path so far); inserted maps are merged with any existing entry for the
    same node. *)

type t

val create :
  ?obs:Terradir_obs.Obs.t ->
  ?owner:int ->
  slots:int ->
  r_map:int ->
  rng:Terradir_util.Splitmix.t ->
  unit ->
  t
(** [slots] may be 0 (caching disabled).  [obs] (default disabled)
    receives a [Cache_hit]/[Cache_miss] event per lookup at the [Full]
    level, attributed to server [owner]. *)

val slots : t -> int

val length : t -> int

val insert : t -> node:int -> Node_map.t -> unit
(** Insert or merge-with-existing, becoming most-recently-used. *)

val use : t -> node:int -> Node_map.t
(** Lookup {e and touch} — call when the entry is chosen for routing.
    Cached maps are never empty: the empty map means a miss. *)

val peek : t -> node:int -> Node_map.t
(** Lookup without touching; the empty map on a miss. *)

val remove : t -> node:int -> unit

val update : t -> node:int -> f:(Node_map.t -> Node_map.t) -> unit
(** In-place map rewrite (e.g. pruning a stale server); no LRU effect;
    no-op when absent.  If [f] returns an empty map the entry is dropped. *)

val iter : t -> f:(int -> Node_map.t -> unit) -> unit
(** Iterate entries (MRU first) without touching them. *)

val first : t -> int

val next : t -> int -> int

val node_at : t -> int -> int
(** {!Terradir_util.Lru.first}'s cursor over the cached nodes, MRU first,
    without touching them. *)

val hits : t -> int
(** Lookups by {!use} and {!peek} that found an entry. *)

val clear : t -> unit
