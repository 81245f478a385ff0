(* Tests for the load meter (§3.1) and demand ranking (§3.2), plus the
   digest store bookkeeping. *)

open Terradir
open Terradir_bloom

let flt = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Load_meter                                                          *)
(* ------------------------------------------------------------------ *)

let test_meter_window_fraction () =
  let m = Load_meter.create ~window:1.0 in
  Load_meter.begin_busy m 0.2;
  Load_meter.end_busy m 0.5;
  flt "mid-window: last completed window is 0" 0.0 (Load_meter.load m 0.9);
  flt "after roll: 30% busy" 0.3 (Load_meter.load m 1.1);
  flt "next window idle" 0.0 (Load_meter.load m 2.5)

let test_meter_busy_spanning_windows () =
  let m = Load_meter.create ~window:1.0 in
  Load_meter.begin_busy m 0.5;
  Load_meter.end_busy m 2.5;
  (* windows [0,1): 0.5 busy; [1,2): fully busy; [2,3) has 0.5 so far *)
  flt "full window" 1.0 (Load_meter.load m 2.6);
  flt "total busy" 2.0 (Load_meter.total_busy_time m 2.6);
  flt "current window fraction" (0.5 /. 0.6) (Load_meter.busy_fraction_so_far m 2.6)

let test_meter_adjustment_hysteresis () =
  let m = Load_meter.create ~window:1.0 in
  Load_meter.begin_busy m 0.0;
  Load_meter.end_busy m 0.9;
  flt "measured" 0.9 (Load_meter.load m 1.0);
  Load_meter.set_adjustment m 0.45;
  flt "adjusted view" 0.45 (Load_meter.load m 1.2);
  flt "raw unaffected" 0.9 (Load_meter.raw_load m 1.2);
  (* a completed window clears the adjustment *)
  flt "measurement supersedes" 0.0 (Load_meter.load m 2.1)

let test_meter_adjustment_clamped () =
  let m = Load_meter.create ~window:1.0 in
  Load_meter.set_adjustment m 1.7;
  flt "clamped high" 1.0 (Load_meter.load m 0.1);
  Load_meter.set_adjustment m (-0.3);
  flt "clamped low" 0.0 (Load_meter.load m 0.2)

let test_meter_validation () =
  Alcotest.check_raises "window" (Invalid_argument "Load_meter.create: window must be positive")
    (fun () -> ignore (Load_meter.create ~window:0.0));
  let m = Load_meter.create ~window:1.0 in
  Alcotest.check_raises "end when idle" (Invalid_argument "Load_meter.end_busy: not busy")
    (fun () -> Load_meter.end_busy m 0.1);
  Load_meter.begin_busy m 0.2;
  Alcotest.check_raises "double begin" (Invalid_argument "Load_meter.begin_busy: already busy")
    (fun () -> Load_meter.begin_busy m 0.3);
  Alcotest.check_raises "time regression" (Invalid_argument "Load_meter.end_busy: time regressed")
    (fun () -> Load_meter.end_busy m 0.1)

let test_meter_sustained_load () =
  let m = Load_meter.create ~window:1.0 in
  (* window [0,1): 80% busy; window [1,2): idle; window [2,3): 90% busy *)
  Load_meter.begin_busy m 0.0;
  Load_meter.end_busy m 0.8;
  flt "one high window is not sustained" 0.0 (Load_meter.sustained_load m 1.1);
  Load_meter.begin_busy m 2.0;
  Load_meter.end_busy m 2.9;
  (* completed windows now: [1,2)=0, [2,3)=0.9 *)
  flt "idle window breaks sustain" 0.0 (Load_meter.sustained_load m 3.1);
  Load_meter.begin_busy m 3.0;
  Load_meter.end_busy m 3.85;
  (* last two completed: 0.9 then 0.85 *)
  flt "two high windows sustain" 0.85 (Load_meter.sustained_load m 4.1);
  (* the hysteresis adjustment overrides, like load *)
  Load_meter.set_adjustment m 0.2;
  flt "adjustment wins" 0.2 (Load_meter.sustained_load m 4.2)

let test_meter_load_capped () =
  let m = Load_meter.create ~window:1.0 in
  Load_meter.begin_busy m 0.0;
  Load_meter.end_busy m 1.0;
  Alcotest.(check bool) "load in [0,1]" true (Load_meter.load m 1.5 <= 1.0)

(* ------------------------------------------------------------------ *)
(* Ranking                                                             *)
(* ------------------------------------------------------------------ *)

let test_ranking_touch_weight () =
  let r = Ranking.create () in
  flt "untouched" 0.0 (Ranking.weight r 5);
  Ranking.touch r 5;
  Ranking.touch r 5;
  Ranking.touch r 9;
  flt "counted" 2.0 (Ranking.weight r 5);
  flt "counted other" 1.0 (Ranking.weight r 9)

let test_ranking_order () =
  let r = Ranking.create () in
  List.iter (Ranking.touch r) [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check (list int)) "desc" [ 3; 2; 1 ]
    (List.map fst (Ranking.ranked_desc r ~among:[ 1; 2; 3 ]));
  Alcotest.(check (list int)) "asc" [ 1; 2; 3 ]
    (List.map fst (Ranking.ranked_asc r ~among:[ 1; 2; 3 ]));
  (* equal weights tie-break by node id, deterministic *)
  Alcotest.(check (list int)) "tie-break" [ 4; 7 ]
    (List.map fst (Ranking.ranked_desc r ~among:[ 7; 4 ]))

let test_ranking_decay_drops () =
  let r = Ranking.create () in
  Ranking.touch r 1;
  Ranking.decay r;
  flt "halved" 0.5 (Ranking.weight r 1);
  for _ = 1 to 10 do
    Ranking.decay r
  done;
  flt "decayed out" 0.0 (Ranking.weight r 1)

let test_ranking_seed_remove_total () =
  let r = Ranking.create () in
  Ranking.seed r 3 4.5;
  flt "seeded" 4.5 (Ranking.weight r 3);
  Ranking.seed r 4 (-2.0);
  flt "negative clamped" 0.0 (Ranking.weight r 4);
  Ranking.touch r 5;
  flt "total" 5.5 (Ranking.total_weight r ~among:[ 3; 4; 5 ]);
  Ranking.remove r 3;
  flt "removed" 0.0 (Ranking.weight r 3)

(* ------------------------------------------------------------------ *)
(* Digest_store                                                        *)
(* ------------------------------------------------------------------ *)

let test_digest_local_versions () =
  let d = Digest_store.create ~max_remote:4 () in
  Alcotest.(check int) "initial version" 0 (Digest_store.local_version d);
  Digest_store.rebuild_local d ~hosted:[ 1; 2; 3 ];
  Alcotest.(check int) "bumped" 1 (Digest_store.local_version d);
  Alcotest.(check bool) "contains hosted" true (Bloom.mem (Digest_store.local d) 2);
  Digest_store.rebuild_local d ~hosted:[ 1 ];
  Alcotest.(check int) "bumped again" 2 (Digest_store.local_version d)

let test_digest_remote_versioning () =
  let d = Digest_store.create ~max_remote:4 () in
  Alcotest.(check bool) "unknown server denies nothing" false (Digest_store.denies d ~server:9 ~node:1);
  Digest_store.record_remote d ~server:9 ~version:2 (Bloom.of_list [ 1 ]);
  Alcotest.(check bool) "hit" false (Digest_store.denies d ~server:9 ~node:1);
  (* stale version ignored *)
  Digest_store.record_remote d ~server:9 ~version:1 (Bloom.of_list [ 42 ]);
  Alcotest.(check bool) "stale ignored" false (Digest_store.denies d ~server:9 ~node:1);
  Digest_store.record_remote d ~server:9 ~version:3 (Bloom.of_list [ 42 ]);
  Alcotest.(check bool) "newer replaces" false (Digest_store.denies d ~server:9 ~node:42);
  Alcotest.(check bool) "newer digest denies" true (Digest_store.denies d ~server:9 ~node:1)

let test_digest_remote_bounded () =
  let d = Digest_store.create ~max_remote:2 () in
  for s = 1 to 5 do
    Digest_store.record_remote d ~server:s ~version:1 (Bloom.of_list [ s ])
  done;
  Alcotest.(check int) "bounded" 2 (Digest_store.remote_count d)

let test_digest_sent_tracking () =
  let d = Digest_store.create ~max_remote:4 () in
  Alcotest.(check int) "never sent" 0 (Digest_store.last_version_sent d ~peer:3);
  Digest_store.note_version_sent d ~peer:3 7;
  Alcotest.(check int) "recorded" 7 (Digest_store.last_version_sent d ~peer:3)

let () =
  Alcotest.run "terradir_meters"
    [
      ( "load_meter",
        [
          Alcotest.test_case "window fraction" `Quick test_meter_window_fraction;
          Alcotest.test_case "spanning windows" `Quick test_meter_busy_spanning_windows;
          Alcotest.test_case "adjustment hysteresis" `Quick test_meter_adjustment_hysteresis;
          Alcotest.test_case "adjustment clamped" `Quick test_meter_adjustment_clamped;
          Alcotest.test_case "validation" `Quick test_meter_validation;
          Alcotest.test_case "sustained load" `Quick test_meter_sustained_load;
          Alcotest.test_case "capped" `Quick test_meter_load_capped;
        ] );
      ( "ranking",
        [
          Alcotest.test_case "touch/weight" `Quick test_ranking_touch_weight;
          Alcotest.test_case "order" `Quick test_ranking_order;
          Alcotest.test_case "decay" `Quick test_ranking_decay_drops;
          Alcotest.test_case "seed/remove/total" `Quick test_ranking_seed_remove_total;
        ] );
      ( "digest_store",
        [
          Alcotest.test_case "local versions" `Quick test_digest_local_versions;
          Alcotest.test_case "remote versioning" `Quick test_digest_remote_versioning;
          Alcotest.test_case "remote bounded" `Quick test_digest_remote_bounded;
          Alcotest.test_case "sent tracking" `Quick test_digest_sent_tracking;
        ] );
    ]
