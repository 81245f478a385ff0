(* The traced run: per-layer metrics for one workload.

   The traced run is the same repetition as an untraced one, with three
   additions that never touch the simulated trajectory (the fingerprint
   is compared against the untraced run's):
   - host spans around the top-level calls (build, create, install,
     warmup, steady, metrics fold) and the flight recorder at the Spans
     level, from which the sim-side queue/service split is rebuilt;
   - an engine observer sampling Engine.pending and draining the OCaml
     runtime_events ring (GC pause time);
   - afterwards, on the warmed cluster left by the workload, timed calls
     into each layer's public functions on (server, destination) pairs
     drawn from the workload's own destination distribution.

   Per-call costs multiplied by call counts read from Metrics give the
   reconciliation: estimated time and words per layer against the run's
   host time and allocated words, with the unattributed remainder. *)

open Terradir
open Terradir_namespace
open Terradir_workload
module Engine = Terradir_sim.Engine
module Net = Terradir_sim.Net
module Obs = Terradir_obs.Obs
module Span = Terradir_obs.Span
module Splitmix = Terradir_util.Splitmix
module Timeseries = Terradir_util.Timeseries
module Bloom = Terradir_bloom.Bloom

let recorder_capacity = 1 lsl 19

(* Outermost runtime phase per ring, so nested phases count once. *)
type gc_clock = { depth : int array; start : int64 array; mutable pause_ns : int64 }

type t = {
  gc_start : Wl.gc_mark;  (** before the namespace is built *)
  obs : Obs.t;
  mutable pending_peak : int;
  gc : gc_clock;
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
}

let counts_as_pause = function
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
  | _ -> true

let start () =
  Runtime_events.start ();
  let gc = { depth = Array.make 256 0; start = Array.make 256 0L; pause_ns = 0L } in
  let runtime_begin ring ts phase =
    if counts_as_pause phase && ring < 256 then begin
      if gc.depth.(ring) = 0 then gc.start.(ring) <- Runtime_events.Timestamp.to_int64 ts;
      gc.depth.(ring) <- gc.depth.(ring) + 1
    end
  in
  let runtime_end ring ts phase =
    if counts_as_pause phase && ring < 256 && gc.depth.(ring) > 0 then begin
      gc.depth.(ring) <- gc.depth.(ring) - 1;
      if gc.depth.(ring) = 0 then
        gc.pause_ns <-
          Int64.add gc.pause_ns
            (Int64.sub (Runtime_events.Timestamp.to_int64 ts) gc.start.(ring))
    end
  in
  let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () in
  let cursor = Runtime_events.create_cursor None in
  (* Discard what the runtime logged before the workload starts. *)
  ignore (Runtime_events.read_poll cursor callbacks None);
  gc.pause_ns <- 0L;
  {
    gc_start = Wl.gc_mark ();
    obs = Obs.create ~capacity:recorder_capacity ~probe_every:1_000_000 ~level:Obs.Spans ();
    pending_peak = 0;
    gc;
    cursor;
    callbacks;
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

let hooks t =
  {
    Wl.obs = t.obs;
    on_cluster =
      (fun c ->
        let engine = c.Cluster.engine in
        Engine.add_observer engine ~every:2000 (fun () ->
            let p = Engine.pending engine in
            if p > t.pending_peak then t.pending_peak <- p;
            poll t));
    span =
      (fun name dt -> Printf.printf "span %-14s %10.4f s host\n" name dt);
  }

(* ------------------------------------------------------------------ *)
(* Per-call timing                                                     *)
(* ------------------------------------------------------------------ *)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Time [f i] for i over [0, n): median over batches of ns and minor
   words per call. *)
let per_call ?(batches = 7) n f =
  let ns = Array.make batches 0.0 and words = Array.make batches 0.0 in
  for b = 0 to batches - 1 do
    let w0 = Gc.minor_words () in
    let t0 = Wl.clock () in
    for i = 0 to n - 1 do
      f i
    done;
    let t1 = Wl.clock () in
    let w1 = Gc.minor_words () in
    ns.(b) <- (t1 -. t0) *. 1e9 /. float_of_int n;
    words.(b) <- (w1 -. w0) /. float_of_int n
  done;
  (median ns, median words)

(* Cost of one engine event: a synthetic engine holding [pending] events
   in which each executed event schedules its successor (mean delay 0.5,
   so the run window is sized to execute about [events] events). *)
let engine_dispatch ~pending ~events =
  let e = Engine.create () in
  let rng = Splitmix.create 7 in
  let rec tick () = Engine.schedule e ~delay:(Splitmix.float rng 1.0) tick in
  for _ = 1 to pending do
    tick ()
  done;
  let span = 0.5 *. float_of_int events /. float_of_int pending in
  let ns = Array.make 7 0.0 and words = Array.make 7 0.0 in
  for b = 0 to 6 do
    let n0 = Engine.events_executed e in
    let w0 = Gc.minor_words () in
    let t0 = Wl.clock () in
    Engine.run ~until:(Engine.now e +. span) e;
    let t1 = Wl.clock () in
    let w1 = Gc.minor_words () in
    let executed = float_of_int (max 1 (Engine.events_executed e - n0)) in
    ns.(b) <- (t1 -. t0) *. 1e9 /. executed;
    words.(b) <- (w1 -. w0) /. executed
  done;
  (median ns, median words)

type sample = {
  servers : Server.t array;
  dsts : int array;
  others : int array;  (** a second node drawn from the same distribution *)
}

let draw_samples (r : Wl.rep) n =
  let c = r.Wl.cluster in
  let rng = Splitmix.create (Wl.derive r.Wl.seed Wl.seed_samples) in
  let sampler = Stream.sampler ~tree:r.Wl.tree ~seed:(Wl.derive r.Wl.seed Wl.seed_samples) in
  Stream.install sampler (Wl.final_dist r.Wl.spec);
  let alive = List.filter (fun (s : Server.t) -> s.Server.alive) (Array.to_list c.Cluster.servers) in
  let alive = Array.of_list alive in
  {
    servers = Array.init n (fun _ -> alive.(Splitmix.int rng (Array.length alive)));
    dsts = Array.init n (fun _ -> Stream.sample sampler);
    others = Array.init n (fun _ -> Stream.sample sampler);
  }

let sum_by f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a

(* ------------------------------------------------------------------ *)
(* The per-layer readout                                               *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let server_queue_split (obs : Obs.t) =
  let waits = ref [] and service = ref 0.0 and total = ref 0.0 in
  List.iter
    (fun (sp : Span.t) ->
      match sp.Span.span_outcome with
      | Span.Resolved _ ->
        List.iter
          (fun (g : Span.seg) ->
            let d = g.Span.seg_stop -. g.Span.seg_start in
            total := !total +. d;
            match g.Span.seg_kind with
            | Span.Queue_wait -> waits := d :: !waits
            | Span.Service -> service := !service +. d
            | Span.Transit -> ())
          sp.Span.span_segs
      | Span.Dropped _ | Span.In_flight -> ())
    (Span.of_recorder (Obs.recorder obs));
  let waits = Array.of_list !waits in
  Array.sort Float.compare waits;
  let n = Array.length waits in
  let p99 = if n = 0 then 0.0 else waits.(min (n - 1) (int_of_float (0.99 *. float_of_int n))) in
  (p99, ratio !service !total, n)

let finish t (r : Wl.rep) =
  poll t;
  (* GC pause over set-up and run, before the timed calls below add theirs *)
  let pause_s = Int64.to_float t.gc.pause_ns /. 1e9 in
  let c = r.Wl.cluster in
  let m = r.Wl.metrics in
  let cfg = c.Cluster.config in
  let servers = c.Cluster.servers in
  let nservers = float_of_int (Array.length servers) in
  let injected = float_of_int m.Metrics.injected in
  let bytes_after_run =
    float_of_int (Obj.reachable_words (Obj.repr c) * (Sys.word_size / 8)) /. nservers
  in
  let bytes_after_create = Option.value r.Wl.bytes_after_create ~default:0.0 /. nservers in
  let queue_wait_p99, service_share, n_waits = server_queue_split t.obs in
  (* -- timed calls on the warmed cluster -- *)
  let n = 2000 in
  let s = draw_samples r n in
  let distance_ns, _ = per_call n (fun i -> ignore (Sys.opaque_identity (Tree.distance r.Wl.tree s.others.(i) s.dsts.(i)))) in
  let decide_ns, decide_words =
    per_call n (fun i -> ignore (Sys.opaque_identity (Routing.decide s.servers.(i) ~dst:s.dsts.(i))))
  in
  let owner_map node =
    let owner = c.Cluster.servers.(c.Cluster.owner_of.(node)) in
    match Server.find_hosted owner node with Some h -> h.Server.h_map | None -> Node_map.empty
  in
  let maps = Array.map owner_map s.dsts in
  (* Path propagation merges an incoming map into the receiver's own map
     for the same node.  Pair each sampled server's context map for the
     parent of one of its hosted nodes with the owner's map for that
     node (skipping the owner itself, whose two maps coincide). *)
  let merge_pairs =
    Array.to_list s.servers
    |> List.mapi (fun i sv ->
           match Server.hosted_nodes sv with
           | [] -> None
           | hosted -> (
             let h = List.nth hosted (i mod List.length hosted) in
             let node = Option.value (Tree.parent r.Wl.tree h) ~default:Tree.root in
             match Server.known_map sv node with
             | Some mine when mine != owner_map node -> Some (mine, owner_map node)
             | Some _ | None -> None))
    |> List.filter_map Fun.id |> Array.of_list
  in
  let merge_rng = Splitmix.create (Wl.derive r.Wl.seed Wl.seed_samples) in
  let scratch = Node_map.scratch () in
  let merge_ns, merge_words =
    let k = Array.length merge_pairs in
    if k = 0 then (0.0, 0.0)
    else
      per_call k (fun i ->
          let mine, theirs = merge_pairs.(i) in
          ignore (Sys.opaque_identity (Node_map.merge ~scratch ~max:cfg.Config.r_map merge_rng mine theirs)))
  in
  let prune_ns, prune_words =
    per_call n (fun i ->
        ignore (Sys.opaque_identity (Server.prune_map_with_digests s.servers.(i) s.dsts.(i) maps.(i))))
  in
  let blooms = Array.map (fun sv -> Digest_store.local sv.Server.digests) s.servers in
  let mem_ns, _ = per_call n (fun i -> ignore (Sys.opaque_identity (Bloom.mem blooms.(i) s.dsts.(i)))) in
  let now = Cluster.now c in
  let should_ns, should_words =
    per_call n (fun i -> ignore (Sys.opaque_identity (Replication.should_start s.servers.(i) ~now)))
  in
  let sampler = Stream.sampler ~tree:r.Wl.tree ~seed:(Wl.derive r.Wl.seed Wl.seed_samples) in
  Stream.install sampler (Wl.final_dist r.Wl.spec);
  let sample_ns, sample_words = per_call n (fun _ -> ignore (Sys.opaque_identity (Stream.sample sampler))) in
  let net =
    Net.create ~loss:(Net.loss c.Cluster.net)
      ~latency:
        (if cfg.Config.net_jitter > 0.0 then
           Net.Uniform { base = cfg.Config.network_delay; jitter = cfg.Config.net_jitter }
         else Net.Constant cfg.Config.network_delay)
      ~peers:(Array.length servers) ~rng:(Splitmix.create 11) ()
  in
  let transmit_ns, transmit_words =
    per_call n (fun i ->
        ignore
          (Sys.opaque_identity
             (Net.transmit net ~src:s.servers.(i).Server.id ~dst:c.Cluster.owner_of.(s.dsts.(i)))))
  in
  let dispatch_ns, dispatch_words = engine_dispatch ~pending:(max 1 t.pending_peak) ~events:200_000 in
  (* -- counters -- *)
  let decisions =
    float_of_int (m.Metrics.query_forwards + m.Metrics.resolved + m.Metrics.dropped_dead_end)
  in
  let cache_hits = sum_by (fun sv -> float_of_int (Cache.hits sv.Server.cache)) servers in
  let occupancy =
    ratio
      (sum_by (fun sv -> float_of_int (Cache.length sv.Server.cache)) servers)
      (sum_by (fun sv -> float_of_int (Cache.slots sv.Server.cache)) servers)
  in
  let remote = sum_by (fun sv -> float_of_int (Digest_store.remote_count sv.Server.digests)) servers in
  let known = sum_by (fun sv -> float_of_int (Hashtbl.length sv.Server.known_loads)) servers in
  let load_max = Timeseries.maxima m.Metrics.load_max_ts in
  let load_max_mean = ratio (Array.fold_left ( +. ) 0.0 load_max) (float_of_int (Array.length load_max)) in
  let hops = Terradir_util.Stats.mean m.Metrics.hops in
  let messages = float_of_int (Net.delivered c.Cluster.net + Net.lost c.Cluster.net + Net.blocked_count c.Cluster.net) in
  (* path propagation: a query arriving after k hops merges its k path
     entries, so a resolved query of h hops costs about h(h+1)/2 merges *)
  let merges = float_of_int m.Metrics.resolved *. hops *. (hops +. 1.0) /. 2.0 in
  let g0, g1 = r.Wl.gc_run in
  let run_s = Wl.run_s r in
  let run_words = g1.Wl.minor -. g0.Wl.minor in
  let gstat = Gc.quick_stat () in
  (* -- reconciliation -- *)
  let rows =
    [
      ("engine dispatch", float_of_int r.Wl.events, dispatch_ns, dispatch_words);
      ("net transmit", messages, transmit_ns, transmit_words);
      ("routing decide", decisions, decide_ns, decide_words);
      ("path merge (est.)", merges, merge_ns, merge_words);
      ("replication trigger", decisions, should_ns, should_words);
      ("workload sample", injected, sample_ns, sample_words);
      ("metrics fold", 1.0, r.Wl.fold_s *. 1e9, 0.0);
    ]
  in
  Printf.printf "reconciliation (host, run phase %.4f s, %.0f minor words):\n" run_s run_words;
  Printf.printf "  %-20s %12s %10s %10s %10s %8s %8s\n" "layer" "calls" "ns/call" "words/call" "est. s"
    "time %" "words %";
  let est_s = ref 0.0 and est_w = ref 0.0 in
  List.iter
    (fun (name, calls, ns, words) ->
      let sec = calls *. ns /. 1e9 and w = calls *. words in
      est_s := !est_s +. sec;
      est_w := !est_w +. w;
      Printf.printf "  %-20s %12.0f %10.1f %10.1f %10.4f %7.1f%% %7.1f%%\n" name calls ns words sec
        (100.0 *. ratio sec run_s) (100.0 *. ratio w run_words))
    rows;
  Printf.printf "  %-20s %12s %10s %10s %10.4f %7.1f%% %7.1f%%\n" "unattributed" "" "" ""
    (run_s -. !est_s)
    (100.0 *. ratio (run_s -. !est_s) run_s)
    (100.0 *. ratio (run_words -. !est_w) run_words);
  Printf.printf "  gc pause over set-up and run (runtime_events): %.4f s\n" pause_s;
  Printf.printf "  queue-wait samples from spans: %d; latency percentiles over %d resolved queries\n"
    n_waits m.Metrics.resolved;
  let g_end = snd r.Wl.gc_run in
  let layers =
    [
      ("namespace.build_s", r.Wl.build_s);
      ("namespace.distance_ns", distance_ns);
      ("cluster.create_s", r.Wl.create_s);
      ("cluster.create_words", r.Wl.create_words);
      ("cluster.bytes_per_server", bytes_after_create);
      ("cluster.bytes_per_server_run", bytes_after_run);
      ("engine.events", float_of_int r.Wl.events);
      ("engine.events_per_query", ratio (float_of_int r.Wl.events) injected);
      ("engine.pending_peak", float_of_int t.pending_peak);
      ("engine.run_s", run_s);
      ("engine.dispatch_ns", dispatch_ns);
      ("routing.decisions", decisions);
      ("routing.decide_ns", decide_ns);
      ("routing.decide_words", decide_words);
      ("routing.shortcut_share", ratio (float_of_int m.Metrics.shortcut_forwards) (float_of_int m.Metrics.query_forwards));
      ("routing.stale_share", ratio (float_of_int m.Metrics.stale_forwards) (float_of_int m.Metrics.query_forwards));
      ("node_map.merge_ns", merge_ns);
      ("digest.prune_ns", prune_ns);
      ("digest.prune_words", prune_words);
      ("digest.remote_per_server", remote /. nservers);
      ("bloom.mem_ns", mem_ns);
      ("cache.use_per_decision", ratio cache_hits decisions);
      ("cache.occupancy", occupancy);
      ("replication.sessions", float_of_int m.Metrics.sessions_started);
      ("replication.replicas_created", float_of_int m.Metrics.replicas_created);
      ("replication.replicas_per_session", ratio (float_of_int m.Metrics.replicas_created) (float_of_int m.Metrics.sessions_started));
      ("replication.control_per_query", ratio (float_of_int m.Metrics.control_messages) injected);
      ("replication.should_start_ns", should_ns);
      ("load.known_loads_per_server", known /. nservers);
      ("net.delivered", float_of_int (Net.delivered c.Cluster.net));
      ("net.lost", float_of_int (Net.lost c.Cluster.net));
      ("net.retransmits_per_query", ratio (float_of_int m.Metrics.query_retransmits) injected);
      ("net.late_replies", float_of_int m.Metrics.late_replies);
      ("net.transmit_ns", transmit_ns);
      ("fetch.success_share", ratio (float_of_int m.Metrics.data_completed) (float_of_int m.Metrics.data_requests));
      ("server.queue_wait_p99_s", queue_wait_p99);
      ("server.service_share", service_share);
      ("server.load_max_mean", load_max_mean);
      ("server.drop_fraction", Wl.drop_fraction r);
      ("workload.sample_ns", sample_ns);
      ("workload.install_s", r.Wl.install_s);
      ("metrics.fold_ms", r.Wl.fold_s *. 1e3);
      ("gc.minor_collections", float_of_int (g_end.Wl.minor_gcs - t.gc_start.Wl.minor_gcs));
      ("gc.major_collections", float_of_int (g_end.Wl.major_gcs - t.gc_start.Wl.major_gcs));
      ("gc.top_heap_mb", float_of_int (gstat.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("gc.pause_s", pause_s);
      ("recon.attributed_time_share", ratio !est_s run_s);
      ("recon.attributed_words_share", ratio !est_w run_words);
      ("recon.unattributed_s", run_s -. !est_s);
    ]
  in
  layers
