open Terradir_namespace
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type decision =
  | Resolve
  | Forward of { via_node : node_id; to_server : server_id; shortcut : bool }
  | Dead_end

(* A candidate packs (distance, node) into one int whose integer order is
   the pair's lexicographic order (node ids stay below 2^40), with bit 0
   marking a cache entry; [none] is larger than every candidate.  The scan
   then keeps its running minimum in one unboxed int. *)
let none = max_int

let[@inline] candidate d node = (d lsl 41) lor (node lsl 1)

let[@inline] cand_dist c = c lsr 41

let[@inline] cand_node c = (c lsr 1) land ((1 lsl 40) - 1)

(* The candidate scan: the nearest known node to [dst] under the total
   (distance, node) order, without building a candidate list.  The
   knowledge set is the tree-neighbors of hosted nodes (the neighbor_maps
   table) plus the cached nodes; hosted nodes themselves are never
   candidates, since for hosted [h] ≠ dst some neighbor of [h] is strictly
   closer to [dst].

   Instead of scanning all tree-neighbors of hosted nodes, scan the hosted
   nodes themselves: for hosted [h] ≠ dst, the neighbor of [h] nearest to
   [dst] is the one toward [dst] — the parent when [dst] is outside [h]'s
   subtree, else the child whose subtree holds [dst] — at distance
   [distance h dst − 1].  So the best neighbor candidate overall is derived
   from the hosted node minimizing [distance h dst], at a third of the
   scanning cost.  Cached nodes are scanned as themselves (never empty:
   see [Cache]); one replaces the neighbor candidate only when strictly
   nearer. *)
let best_candidate (s : Server.t) ~dst =
  let tree = s.tree and ids = s.hosted_ids in
  let best = ref none in
  for i = 0 to Hashtbl.length s.hosted - 1 do
    best := Int.min !best (candidate (Tree.distance tree ids.(i) dst) ids.(i))
  done;
  if !best <> none then begin
    let h = cand_node !best in
    let depth = Tree.depth tree h in
    let toward =
      if Tree.is_ancestor tree h dst then Tree.ancestor_at_depth tree dst (depth + 1)
      else Tree.ancestor_at_depth tree h (depth - 1)
    in
    best := candidate (cand_dist !best - 1) toward
  end;
  let slot = ref (Cache.first s.cache) in
  while !slot >= 0 do
    let node = Cache.node_at s.cache !slot in
    best := Int.min !best (candidate (Tree.distance tree node dst) node lor 1);
    slot := Cache.next s.cache !slot
  done;
  !best

let max_shortcut_walk = 6
(* Ancestors of dst tested per step.  A shortcut farther out is still a
   shortcut, but the conventional route makes progress every hop and gets
   another chance to find it next step; bounding the walk bounds both the
   per-step cost and the false-positive exposure. *)

(* Digest pruning (§3.6.2) fused with replica selection: draw uniformly
   among the rows of [map] that no held digest denies (owner rows are never
   pruned) and that name another server; when none does, draw from the raw
   map instead — pruning is best-effort and must not strand the query.
   Allocates nothing; draws and digest promotions are those of the
   historical filter-then-draw (DESIGN §16). *)
let denied (s : Server.t) node map i =
  (not (Node_map.row_owner map i))
  && Digest_store.denies s.digests ~server:(Node_map.row_server map i) ~node

let select_server (s : Server.t) node map =
  let n = Node_map.size map in
  let pruned = ref 0 and eligible = ref 0 in
  if s.config.Config.features.Config.digests then
    for i = 0 to n - 1 do
      if denied s node map i then incr pruned
      else if Node_map.row_server map i <> s.id then incr eligible
    done;
  if !pruned > 0 && Obs.full_on s.obs then
    (* lint: obs-in-hot-path gated on the full level; pure count readout *)
    Obs.record s.obs ~server:s.id (Event.Digest_prune { removed = !pruned });
  if !pruned = 0 || !eligible = 0 then Node_map.random_server ~exclude:s.id map s.rng
  else begin
    let want = ref (Terradir_util.Splitmix.int s.rng !eligible) and pick = ref (-1) in
    (* Every row, past the pick too: the old filter re-consulted them all. *)
    for i = 0 to n - 1 do
      if (not (denied s node map i)) && Node_map.row_server map i <> s.id then begin
        if !want = 0 && !pick < 0 then pick := Node_map.row_server map i;
        decr want
      end
    done;
    !pick
  end

(* Forward via the nearest candidate only; if its map names no server but
   this one, the step is stuck and the caller escapes via the root
   contact. *)
let via_candidate (s : Server.t) ~oracle best =
  if best = none then Dead_end
  else begin
    let node = cand_node best and from_cache = best land 1 = 1 in
    let map =
      match oracle with
      | Some truth ->
        (* Perfect accuracy: select among the node's actual current hosts.
           Local state is still touched so demand accounting matches. *)
        if from_cache then ignore (Cache.use s.cache ~node);
        truth node
      | None -> (
        if from_cache then Cache.use s.cache ~node
        else
          match Hashtbl.find s.neighbor_maps node with
          | r -> r.Server.n_map
          | exception Not_found -> Node_map.empty)
    in
    let to_server = select_server s node map in
    if to_server < 0 then Dead_end else Forward { via_node = node; to_server; shortcut = false }
  end

(* §3.6.1: walk dst's ancestor chain from dst upward (distance 0, 1, ...)
   against the [count] consulted digests, and stop as soon as the chain
   distance reaches [limit] — a digest hit beyond the best conventional
   candidate cannot improve the route.  Without a hit the step falls back
   to that candidate. *)
let rec shortcut_walk (s : Server.t) ~count ~limit best node dist =
  if dist >= limit then via_candidate s ~oracle:None best
  else
    (* First hit in MRU order, matching the historical consultation order. *)
    let i = Terradir_bloom.Bloom.first_mem s.digest_scratch_blooms count node in
    if i >= 0 then begin
      let to_server = s.digest_scratch_servers.(i) in
      if Obs.full_on s.obs then
        (* lint: obs-in-hot-path gated on the full level; null-sink cost is one branch *)
        Obs.record s.obs ~server:s.id (Event.Digest_shortcut { node; to_server });
      Forward { via_node = node; to_server; shortcut = true }
    end
    else
      let depth = Tree.depth s.tree node in
      if depth = 0 then via_candidate s ~oracle:None best
      else shortcut_walk s ~count ~limit best (Tree.ancestor_at_depth s.tree node (depth - 1)) (dist + 1)

let decide ?(shortcut_bound = max_int) ?oracle (s : Server.t) ~dst =
  if Server.hosts s dst then Resolve
  else begin
    let best = best_candidate s ~dst in
    let best_dist = if best = none then max_int else cand_dist best in
    let limit = Int.min (Int.min best_dist shortcut_bound) max_shortcut_walk in
    if Option.is_some oracle || (not s.config.Config.features.Config.digests) || limit <= 0 then
      via_candidate s ~oracle best
    else
      (* Consult the MRU-first prefix of remote digests, copied into the
         server's scratch arrays: the walk stops at the prefix. *)
      let count =
        Digest_store.copy_mru s.digests ~skip:s.id ~servers:s.digest_scratch_servers
          ~blooms:s.digest_scratch_blooms
      in
      if count = 0 then via_candidate s ~oracle best else shortcut_walk s ~count ~limit best dst 0
  end
