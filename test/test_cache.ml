(* Tests for the per-server node cache (§2.4 semantics). *)

open Terradir_util
open Terradir

let mk ?(slots = 4) () = Cache.create ~slots ~r_map:4 ~rng:(Splitmix.create 5) ()

let map1 server = Node_map.singleton ~server ~stamp:1.0 ()

let test_insert_use () =
  let c = mk () in
  Cache.insert c ~node:10 (map1 1);
  Alcotest.(check bool) "map present" true (Node_map.mem (Cache.use c ~node:10) 1);
  Alcotest.(check bool) "miss is the empty map" true (Node_map.is_empty (Cache.use c ~node:99));
  Alcotest.(check int) "a miss is not a hit" 1 (Cache.hits c)

let test_insert_merges () =
  let c = mk () in
  Cache.insert c ~node:10 (map1 1);
  Cache.insert c ~node:10 (map1 2);
  let m = Cache.peek c ~node:10 in
  Alcotest.(check bool) "both servers" true (Node_map.mem m 1 && Node_map.mem m 2);
  Alcotest.(check int) "one entry" 1 (Cache.length c)

let test_insert_empty_ignored () =
  let c = mk () in
  Cache.insert c ~node:10 Node_map.empty;
  Alcotest.(check int) "empty maps not cached" 0 (Cache.length c)

let test_lru_touch_on_use () =
  let c = mk ~slots:2 () in
  Cache.insert c ~node:1 (map1 1);
  Cache.insert c ~node:2 (map1 2);
  ignore (Cache.use c ~node:1);
  (* 2 is now LRU *)
  Cache.insert c ~node:3 (map1 3);
  Alcotest.(check bool) "2 evicted" true (Node_map.is_empty (Cache.peek c ~node:2));
  Alcotest.(check bool) "1 kept (touched)" false (Node_map.is_empty (Cache.peek c ~node:1))

let test_peek_does_not_promote () =
  let c = mk ~slots:2 () in
  Cache.insert c ~node:1 (map1 1);
  Cache.insert c ~node:2 (map1 2);
  ignore (Cache.peek c ~node:1);
  Cache.insert c ~node:3 (map1 3);
  Alcotest.(check bool) "1 evicted despite peek" true (Node_map.is_empty (Cache.peek c ~node:1))

let test_update_prune () =
  let c = mk () in
  Cache.insert c ~node:5 (Node_map.of_entries ~max:4 [ { Node_map.server = 1; is_owner = false; stamp = 1.0 }; { Node_map.server = 2; is_owner = false; stamp = 2.0 } ]);
  Cache.update c ~node:5 ~f:(fun m -> Node_map.remove m 1);
  Alcotest.(check (list int)) "pruned" [ 2 ] (Node_map.servers (Cache.peek c ~node:5));
  (* pruning away everything drops the entry *)
  Cache.update c ~node:5 ~f:(fun m -> Node_map.remove m 2);
  Alcotest.(check int) "empty entry dropped" 0 (Cache.length c);
  Cache.update c ~node:404 ~f:(fun m -> m) (* absent: no-op *)

let test_disabled_cache () =
  let c = mk ~slots:0 () in
  Cache.insert c ~node:1 (map1 1);
  Alcotest.(check int) "nothing stored" 0 (Cache.length c);
  Alcotest.(check bool) "no hit" true (Node_map.is_empty (Cache.use c ~node:1))

let test_remove_and_iter () =
  let c = mk () in
  List.iter (fun n -> Cache.insert c ~node:n (map1 n)) [ 1; 2; 3 ];
  Cache.remove c ~node:2;
  let seen = ref [] in
  Cache.iter c ~f:(fun node _ -> seen := node :: !seen);
  Alcotest.(check (list int)) "iter after remove" [ 1; 3 ] (List.sort compare !seen)

let prop_capacity =
  QCheck.Test.make ~name:"cache: length never exceeds slots" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_bound 30)))
    (fun (slots, nodes) ->
      let c = mk ~slots () in
      List.iter (fun n -> Cache.insert c ~node:n (map1 n)) nodes;
      Cache.length c <= slots)

let prop_maps_bounded =
  QCheck.Test.make ~name:"cache: stored maps respect r_map" ~count:200
    QCheck.(small_list (pair (int_bound 3) (int_bound 20)))
    (fun inserts ->
      let c = mk () in
      List.iter (fun (node, server) -> Cache.insert c ~node (map1 server)) inserts;
      let ok = ref true in
      Cache.iter c ~f:(fun _ m -> if Node_map.size m > 4 then ok := false);
      !ok)

let () =
  Alcotest.run "terradir_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "insert/use" `Quick test_insert_use;
          Alcotest.test_case "insert merges" `Quick test_insert_merges;
          Alcotest.test_case "empty ignored" `Quick test_insert_empty_ignored;
          Alcotest.test_case "lru touch" `Quick test_lru_touch_on_use;
          Alcotest.test_case "peek no promote" `Quick test_peek_does_not_promote;
          Alcotest.test_case "update/prune" `Quick test_update_prune;
          Alcotest.test_case "disabled" `Quick test_disabled_cache;
          Alcotest.test_case "remove/iter" `Quick test_remove_and_iter;
        ] );
      ( "cache-props",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_capacity; prop_maps_bounded ] );
    ]
