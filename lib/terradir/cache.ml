open Terradir_util
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type t = {
  lru : Node_map.t Lru.t;
  r_map : int;
  rng : Splitmix.t;
  obs : Obs.t;
  owner : int;  (* server id the sink attributes hit/miss events to *)
  scratch : Node_map.scratch option;  (* the owning server's lane only; see Node_map.scratch *)
  mutable hits : int;
}

let create ?(obs = Obs.null) ?(owner = -1) ~slots ~r_map ~rng () =
  if r_map < 1 then invalid_arg "Cache.create: r_map must be >= 1";
  {
    lru = Lru.create ~capacity:slots;
    r_map;
    rng;
    obs;
    owner;
    scratch = Some (Node_map.scratch ());
    hits = 0;
  }

let slots t = Lru.capacity t.lru

let length t = Lru.length t.lru

(* A cached map is never empty ([insert] skips empty maps, [update] drops
   an entry that empties), so the empty map stands for a miss. *)
let insert t ~node map =
  if Node_map.is_empty map then ()
  else
    let existing = Lru.peek t.lru node ~default:Node_map.empty in
    let merged =
      if Node_map.is_empty existing then Node_map.truncate ~max:t.r_map map
      else Node_map.merge ?scratch:t.scratch ~max:t.r_map t.rng existing map
    in
    Lru.put t.lru node merged

let count t ~node map =
  let hit = not (Node_map.is_empty map) in
  if hit then t.hits <- t.hits + 1;
  if Obs.full_on t.obs then
    (* lint: obs-in-hot-path per-lookup events only exist at the full level *)
    Obs.record t.obs ~server:t.owner (if hit then Event.Cache_hit { node } else Event.Cache_miss { node });
  map

let use t ~node = count t ~node (Lru.find t.lru node ~default:Node_map.empty)

let peek t ~node = count t ~node (Lru.peek t.lru node ~default:Node_map.empty)

let remove t ~node = Lru.remove t.lru node

let update t ~node ~f =
  let map = Lru.peek t.lru node ~default:Node_map.empty in
  if not (Node_map.is_empty map) then begin
    let map' = f map in
    if Node_map.is_empty map' then Lru.remove t.lru node
    else
      (* Rewrite in place without promoting: Lru.put promotes, so go through
         peek/remove/put only when the value changed; promotion on rewrite is
         acceptable for pruning (it happens when the entry is in active use). *)
      Lru.put t.lru node map'
  end

let iter t ~f = Lru.iter t.lru ~f

let first t = Lru.first t.lru

let next t slot = Lru.next t.lru slot

let node_at t slot = Lru.key t.lru slot

let hits t = t.hits

let clear t = Lru.clear t.lru
