open Terradir_namespace
open Types
module Obs = Terradir_obs.Obs
module Event = Terradir_obs.Event

type decision =
  | Resolve
  | Forward of { via_node : node_id; to_server : server_id; shortcut : bool }
  | Dead_end

type candidate = { c_node : node_id; c_dist : int; c_from_cache : bool }

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
   scanning cost.  Cached nodes are scanned as themselves. *)
let best_candidate (s : Server.t) ~dst =
  let best_hosted = ref (-1) and best_hosted_dist = ref max_int in
  (* lint: ordered running minimum under the total (dist, node) order; any visit order yields it *)
  Hashtbl.iter
    (fun node (_ : Server.hosted) ->
      let d = Tree.distance s.tree node dst in
      if d < !best_hosted_dist || (d = !best_hosted_dist && node < !best_hosted) then begin
        best_hosted := node;
        best_hosted_dist := d
      end)
    s.hosted;
  let best_node = ref (-1) and best_dist = ref max_int and best_cache = ref false in
  if !best_hosted >= 0 then begin
    let h = !best_hosted in
    let toward =
      if Tree.is_ancestor s.tree h dst then Tree.ancestor_at_depth s.tree dst (Tree.depth s.tree h + 1)
      else match Tree.parent s.tree h with Some p -> p | None -> assert false
    in
    best_node := toward;
    best_dist := !best_hosted_dist - 1
  end;
  Cache.iter s.cache ~f:(fun node map ->
      if not (Node_map.is_empty map) then begin
        let d = Tree.distance s.tree node dst in
        if d < !best_dist || (d = !best_dist && node < !best_node) then begin
          best_node := node;
          best_dist := d;
          best_cache := true
        end
      end);
  if !best_node < 0 then None
  else Some { c_node = !best_node; c_dist = !best_dist; c_from_cache = !best_cache }

let max_shortcut_walk = 6
(* Ancestors of dst tested per step.  A shortcut farther out is still a
   shortcut, but the conventional route makes progress every hop and gets
   another chance to find it next step; bounding the walk bounds both the
   per-step cost and the false-positive exposure. *)

(* §3.6.1: walk dst's ancestor chain from dst upward (distance 0, 1, ...)
   and stop as soon as the chain distance reaches the best conventional
   candidate — a digest hit beyond that point cannot improve the route. *)
let digest_shortcut (s : Server.t) ~dst ~better_than =
  let limit = min better_than max_shortcut_walk in
  if (not s.config.Config.features.Config.digests) || limit <= 0 then None
  else begin
    (* Collect the MRU-first prefix of remote digests into the server's
       scratch arrays — no tuples, cons cells, or reversal on the hot
       path, and the walk STOPS at the prefix: this runs on every routing
       decision, and folding the whole store (up to [max_remote_digests]
       entries) here was the dominant per-event cost at large server
       counts. *)
    let servers = s.Server.digest_scratch_servers in
    let blooms = s.Server.digest_scratch_blooms in
    let cap = Array.length servers in
    let count =
      Digest_store.fold_remote_until s.digests ~init:0 ~f:(fun n server bloom ->
          if n >= cap then Either.Right n
          else if server = s.id then Either.Left n
          else begin
            servers.(n) <- server;
            blooms.(n) <- bloom;
            Either.Left (n + 1)
          end)
    in
    if count = 0 then None
    else
      let find_hit h =
        (* First hit in MRU order, matching the historical consultation
           order of the consulted list. *)
        let rec go i = if i >= count then -1 else if Terradir_bloom.Bloom.mem_hashed blooms.(i) h then i else go (i + 1) in
        go 0
      in
      let rec walk node dist =
        if dist >= limit then None
        else begin
          let h = Terradir_bloom.Bloom.hash node in
          let i = find_hit h in
          if i >= 0 then Some (node, servers.(i), dist)
          else
            match Tree.parent s.tree node with
            | Some p -> walk p (dist + 1)
            | None -> None
        end
      in
      walk dst 0
  end

(* Pick a server from the candidate node's map: digest-pruned first, raw as
   fallback (pruning is best-effort and must not strand the query). *)
let select_server (s : Server.t) node map =
  let pruned = Server.prune_map_with_digests s node map in
  match Node_map.random_server ~exclude:s.id pruned s.rng with
  | Some _ as r -> r
  | None -> Node_map.random_server ~exclude:s.id map s.rng

let decide ?(shortcut_bound = max_int) ?oracle (s : Server.t) ~dst =
  if Server.hosts s dst then Resolve
  else begin
    let best = best_candidate s ~dst in
    let best_dist = match best with Some c -> c.c_dist | None -> max_int in
    let shortcut =
      if oracle <> None then None
      else digest_shortcut s ~dst ~better_than:(min best_dist shortcut_bound)
    in
    match (shortcut, best) with
    | Some (via_node, to_server, _), _ ->
      if Obs.full_on s.Server.obs then
        (* lint: obs-in-hot-path gated on the full level; null-sink cost is one branch *)
        Obs.record s.Server.obs ~server:s.Server.id
          (Event.Digest_shortcut { node = via_node; to_server });
      Forward { via_node; to_server; shortcut = true }
    | None, None -> Dead_end
    | None, Some c -> (
      (* Forward via the nearest candidate only; if its map names no server
         but this one, the step is stuck and the caller escapes via the
         root contact. *)
      let map =
        match oracle with
        | Some truth ->
          (* Perfect accuracy: select among the node's actual current hosts.
             Local state is still touched so demand accounting matches. *)
          if c.c_from_cache then ignore (Cache.use s.cache ~node:c.c_node);
          let m = truth c.c_node in
          if Node_map.is_empty m then None else Some m
        | None ->
          if c.c_from_cache then Cache.use s.cache ~node:c.c_node
          else Server.neighbor_map s c.c_node
      in
      match map with
      | None -> Dead_end
      | Some map -> (
        match select_server s c.c_node map with
        | Some to_server -> Forward { via_node = c.c_node; to_server; shortcut = false }
        | None -> Dead_end))
  end
