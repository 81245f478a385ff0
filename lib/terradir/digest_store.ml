open Terradir_util
open Terradir_bloom

type remote = { bloom : Bloom.t; version : int }

type t = {
  mutable local : Bloom.t;
  mutable local_version : int;
  remotes : remote Lru.t;
  sent : (int, int) Hashtbl.t; (* peer -> last local version piggybacked *)
}

let create ~max_remote () =
  {
    local = Bloom.create ~expected:1 ();
    local_version = 0;
    remotes = Lru.create ~capacity:max_remote;
    sent = Hashtbl.create 64;
  }

let local_version t = t.local_version

let local t = t.local

(* Digests are consulted hundreds of times per routing step across many
   servers, so false positives compound: use 16 bits/element (k = 10,
   ~0.05% FP rate) rather than the Bloom default.

   The previous filter cannot be reset and refilled in place: [local] is
   published by reference in piggybacked digest messages, so servers that
   recorded it would see the mutation (and sizing must track the hosted
   count anyway). *)
let rebuild_local_from t ~count ~iter =
  t.local <- Bloom.of_iter ~bits_per_element:16 ~hashes:10 ~expected:count iter;
  t.local_version <- t.local_version + 1

let rebuild_local t ~hosted =
  rebuild_local_from t ~count:(List.length hosted) ~iter:(fun add -> List.iter add hosted)

(* Stands in for a missing remote digest, so lookups need no option. *)
let absent = { bloom = Bloom.create ~expected:1 (); version = min_int }

let record_remote t ~server ~version bloom =
  if (Lru.peek t.remotes server ~default:absent).version < version then
    Lru.put t.remotes server { bloom; version }

let denies t ~server ~node =
  (* [find] rather than [peek]: a consulted digest is useful state, keep it
     warm in the LRU. *)
  let r = Lru.find t.remotes server ~default:absent in
  r != absent && not (Bloom.mem r.bloom node)

let rec copy_from remotes ~skip servers blooms n slot =
  if slot < 0 || n >= Array.length servers then n
  else if Lru.key remotes slot = skip then copy_from remotes ~skip servers blooms n (Lru.next remotes slot)
  else begin
    servers.(n) <- Lru.key remotes slot;
    blooms.(n) <- (Lru.value remotes slot).bloom;
    copy_from remotes ~skip servers blooms (n + 1) (Lru.next remotes slot)
  end

let copy_mru t ~skip ~servers ~blooms = copy_from t.remotes ~skip servers blooms 0 (Lru.first t.remotes)

let remote_count t = Lru.length t.remotes

let last_version_sent t ~peer = Option.value ~default:0 (Hashtbl.find_opt t.sent peer)

let note_version_sent t ~peer version = Hashtbl.replace t.sent peer version
