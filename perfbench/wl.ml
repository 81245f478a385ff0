(* The four benchmark workloads and one measured repetition of each.

   A repetition builds the namespace, creates the cluster, installs the
   workload, runs it to the end of its drain, and then checks the
   outputs.  Everything is driven through the simulator's public entry
   points (Build.balanced, Cluster.create, Scenario.start / Chaos.run,
   Cluster.run_until, Cluster.metrics); nothing here reaches into lib/.

   Two kinds of time appear: "host" time is what this process takes,
   "sim" time is the modelled deployment's clock.  Sim results are a pure
   function of (workload, seed); host results are measurements. *)

open Terradir
open Terradir_namespace
open Terradir_workload
module Engine = Terradir_sim.Engine
module Hist = Terradir_obs.Hist
module Obs = Terradir_obs.Obs
module Stats = Terradir_util.Stats
module Chaos = Terradir_chaos.Chaos
module Action = Terradir_chaos.Action
module Timeline = Terradir_chaos.Timeline

let clock = Unix.gettimeofday

type shape =
  | Uniform_stream
  | Hotspot of { uniform_warmup : float; shift_every : float; alpha : float }
  | Churn

type spec = {
  name : string;
  servers : int;
  rho : float;  (** target per-server utilization of the analytic rate *)
  duration : float;  (** stream length, sim seconds *)
  warmup : float;  (** sim seconds before the steady phase *)
  drain : float;  (** sim seconds after the last arrival *)
  shape : shape;
}

let specs =
  [
    {
      name = "route_uniform";
      servers = 512;
      rho = 0.5;
      duration = 32.0;
      warmup = 8.0;
      drain = 2.0;
      shape = Uniform_stream;
    };
    {
      name = "hotspot_shift";
      servers = 512;
      rho = 0.5;
      duration = 60.0;
      warmup = 30.0;
      drain = 2.0;
      shape = Hotspot { uniform_warmup = 30.0; shift_every = 15.0; alpha = 1.25 };
    };
    {
      name = "churn_lossy";
      servers = 512;
      rho = 0.5;
      duration = 40.0;
      warmup = 6.0;
      drain = 16.0;
      shape = Churn;
    };
    {
      name = "scale_sparse";
      servers = 16384;
      rho = 0.004;
      duration = 24.0;
      warmup = 6.0;
      drain = 2.0;
      shape = Uniform_stream;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* Seed derivation: one benchmark seed fans out into independent streams
   for placement, the query stream, the kill salt and the traced run's
   call samples (splitmix64 finalizer over seed and tag). *)
let derive seed tag =
  let open Int64 in
  let z = add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (tag * 0x632BE5AB)) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFFFFFFL)

(* One run of the benchmark measures a few trajectories of its seed, so
   that its sim readouts are a median over trajectories rather than one
   draw (a single kill lottery on churn_lossy moves p99 by ~2x).
   Trajectory 0 is the seed itself. *)
let trajectory_seed seed trajectory = if trajectory = 0 then seed else derive seed (100 + trajectory)

let seed_placement = 1
let seed_stream = 2
let seed_kill = 3
let seed_chaos_stream = 4
let seed_samples = 5

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let levels spec = log2i (8 * spec.servers)

let config spec ~seed ~domains =
  let c =
    {
      Config.default with
      Config.num_servers = spec.servers;
      engine_domains = domains;
      seed = derive seed seed_placement;
    }
  in
  match spec.shape with
  | Churn -> { c with Config.rpc_timeout = 1.0; max_retries = 3; net_jitter = 0.005 }
  | Uniform_stream | Hotspot _ -> c

(* The analytic open-loop rate of the capacity scenario: each query
   occupies about (2·mean_depth + 1) service times of aggregate server
   time, so this rate targets per-server utilization rho. *)
let rate spec ~(config : Config.t) tree =
  spec.rho *. float_of_int spec.servers
  /. (config.Config.service_mean *. ((2.0 *. Terradir_experiments.Common.mean_depth tree) +. 1.0))

let phases spec ~rate =
  match spec.shape with
  | Uniform_stream -> Stream.unif ~rate ~duration:spec.duration
  | Churn -> Stream.unif ~rate ~duration:spec.warmup
  | Hotspot { uniform_warmup; shift_every; alpha } ->
    let shifts = int_of_float ((spec.duration -. uniform_warmup) /. shift_every) in
    Stream.uzipf ~rate ~warmup:uniform_warmup ~alpha ~shift_every ~shifts

(* The destination distribution in force at the end of the run — the one
   the traced run samples its per-call inputs from. *)
let final_dist spec =
  match spec.shape with
  | Uniform_stream | Churn -> Stream.Uniform
  | Hotspot { alpha; _ } -> Stream.Zipf { alpha; reshuffle = true }

let fetch_probability = 0.2

(* churn_lossy's fault timeline, as fractions of the whole run; the
   uniform warmup covers the first [warmup] seconds, so every action
   lands inside the chaos phase. *)
let churn_timeline spec ~seed =
  let at f = (f *. spec.duration) -. spec.warmup in
  Timeline.make
    [
      (at 0.20, Action.Set_loss 0.01);
      (at 0.35, Action.Kill_fraction { fraction = 0.05; salt = derive seed seed_kill });
      (at 0.65, Action.Revive_killed);
      (at 0.85, Action.Set_loss 0.0);
    ]

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

type hooks = {
  obs : Obs.t;
  on_cluster : Cluster.t -> unit;
      (** called after Cluster.create, before the workload is installed *)
  span : string -> float -> unit;  (** a host span closed: name, seconds *)
}

let no_hooks = { obs = Obs.null; on_cluster = ignore; span = (fun _ _ -> ()) }

type gc_mark = { minor : float; promoted : float; minor_gcs : int; major_gcs : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

type rep = {
  spec : spec;
  seed : int;
  domains : int;
  tree : Tree.t;
  cluster : Cluster.t;
  metrics : Metrics.t;
  rate : float;
  build_s : float;
  create_s : float;
  install_s : float;
  create_words : float;
  warmup_s : float;
  steady_s : float;
  fold_s : float;
  events : int;
  steady_events : int;
  gc_run : gc_mark * gc_mark;  (** start and end of the run phase *)
  gc_steady : gc_mark * gc_mark;  (** start and end of the steady phase *)
  in_flight : int;
  bytes_after_create : float option;
}

let run_s r = r.warmup_s +. r.steady_s
let setup_s r = r.build_s +. r.create_s +. r.install_s

let in_flight (c : Cluster.t) =
  Array.fold_left (fun acc t -> acc + Hashtbl.length t) 0 c.Cluster.pending_queries

let timed hooks name f =
  let t0 = clock () in
  let v = f () in
  let dt = clock () -. t0 in
  hooks.span name dt;
  (v, dt)

let run ?(hooks = no_hooks) ?(measure_bytes = false) ?(domains = 1) spec ~seed =
  let tree, build_s = timed hooks "setup.build" (fun () -> Build.balanced ~arity:2 ~levels:(levels spec)) in
  let config = config spec ~seed ~domains in
  let w0 = Gc.minor_words () in
  let cluster, create_s = timed hooks "setup.create" (fun () -> Cluster.create ~obs:hooks.obs ~config ~tree ()) in
  let create_words = Gc.minor_words () -. w0 in
  let bytes_after_create =
    if measure_bytes then Some (float_of_int (Obj.reachable_words (Obj.repr cluster) * (Sys.word_size / 8)))
    else None
  in
  hooks.on_cluster cluster;
  let rate = rate spec ~config tree in
  let stream_seed = derive seed seed_stream in
  let (steady : unit -> unit), install_s =
    timed hooks "setup.install" (fun () ->
        let fetch_p = match spec.shape with Churn -> Some fetch_probability | _ -> None in
        let stream =
          Scenario.start ?fetch_probability:fetch_p cluster ~phases:(phases spec ~rate) ~seed:stream_seed
        in
        match spec.shape with
        | Uniform_stream | Hotspot _ ->
          let stop = Scenario.stream_end stream +. spec.drain in
          fun () -> Cluster.run_until cluster stop
        | Churn ->
          let timeline = churn_timeline spec ~seed in
          let workload = Stream.unif ~rate ~duration:(spec.duration -. spec.warmup) in
          fun () ->
            ignore
              (Chaos.run ~drain:spec.drain ~fetch_probability cluster ~workload
                 ~workload_seed:(derive seed seed_chaos_stream) ~timeline ()))
  in
  let engine = cluster.Cluster.engine in
  let e0 = Engine.events_executed engine in
  let g0 = gc_mark () in
  let (), warmup_s = timed hooks "run.warmup" (fun () -> Cluster.run_until cluster spec.warmup) in
  let e1 = Engine.events_executed engine in
  let g1 = gc_mark () in
  let (), steady_s = timed hooks "run.steady" steady in
  let g2 = gc_mark () in
  let e2 = Engine.events_executed engine in
  let metrics, fold_s = timed hooks "fold" (fun () -> Cluster.metrics cluster) in
  {
    spec;
    seed;
    domains = Engine.domains engine;
    tree;
    cluster;
    metrics;
    rate;
    build_s;
    create_s;
    install_s;
    create_words;
    warmup_s;
    steady_s;
    fold_s;
    events = e2 - e0;
    steady_events = e2 - e1;
    gc_run = (g0, g2);
    gc_steady = (g1, g2);
    in_flight = in_flight cluster;
    bytes_after_create;
  }

(* ------------------------------------------------------------------ *)
(* Readouts                                                            *)
(* ------------------------------------------------------------------ *)

(* Quantile of a Hist, interpolated linearly inside its log bucket.
   Hist.percentile returns the bucket midpoint, which makes a quantile
   jump in ~3% steps and read the same for many seeds; interpolating by
   rank inside the bucket gives a readout that moves with the data.  The
   bucket's rank range comes from binary searches over Hist.percentile,
   its value range from the documented geometry (16 sub-buckets per
   power-of-two octave). *)
let hist_quantile h q =
  let n = Hist.count h in
  if n = 0 then 0.0
  else begin
    let at r = Hist.percentile h ((float_of_int r -. 0.5) /. float_of_int n) in
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
    let v = at rank in
    (* first rank reading >= v, last rank reading <= v *)
    let rec lo_search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if at mid >= v then lo_search lo mid else lo_search (mid + 1) hi
    in
    let rec hi_search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi + 1) / 2 in
        if at mid <= v then hi_search mid hi else hi_search lo (mid - 1)
    in
    let first = lo_search 1 rank and last = hi_search rank n in
    if v <= 0.0 then v
    else begin
      let m, e = Float.frexp v in
      let sub = 16.0 in
      let s = Float.of_int (int_of_float ((m -. 0.5) *. 2.0 *. sub)) in
      let lower = Float.ldexp (0.5 +. (s /. (2.0 *. sub))) e in
      let upper = Float.ldexp (0.5 +. ((s +. 1.0) /. (2.0 *. sub))) e in
      let frac = (float_of_int (rank - first) +. 0.5) /. float_of_int (last - first + 1) in
      let x = lower +. (frac *. (upper -. lower)) in
      Float.min (Hist.max_value h) (Float.max (Hist.min_value h) x)
    end
  end

let dropped r = Metrics.dropped_total r.metrics

let drop_fraction r =
  let inj = r.metrics.Metrics.injected in
  if inj = 0 then 0.0 else float_of_int (dropped r + r.in_flight) /. float_of_int inj

(* Sim-side identity of a trajectory: every counter and readout that a
   change of schedule would move.  Compared byte-for-byte across repeats
   of one seed, across K, and between traced and untraced runs. *)
let fingerprint r =
  let m = r.metrics in
  Printf.sprintf
    "events=%d injected=%d resolved=%d dropped=%d in_flight=%d hops_mean=%h hops_n=%d \
     lat_sum=%h lat_p50=%h lat_p99=%h forwards=%d shortcuts=%d stale=%d replicas=%d \
     control=%d sessions=%d retransmits=%d late=%d fetched=%d"
    r.events m.Metrics.injected m.Metrics.resolved (dropped r) r.in_flight
    (Stats.mean m.Metrics.hops) (Stats.count m.Metrics.hops) (Hist.sum m.Metrics.latency_hist)
    (Hist.percentile m.Metrics.latency_hist 0.5) (Hist.percentile m.Metrics.latency_hist 0.99)
    m.Metrics.query_forwards m.Metrics.shortcut_forwards m.Metrics.stale_forwards
    m.Metrics.replicas_created m.Metrics.control_messages m.Metrics.sessions_started
    m.Metrics.query_retransmits m.Metrics.late_replies m.Metrics.data_completed

(* The output checks every repetition must pass: conservation of
   queries, nothing left in flight after the drain, and the cluster's
   invariant auditor. *)
let check r =
  let m = r.metrics in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if m.Metrics.injected <> m.Metrics.resolved + dropped r + r.in_flight then
    fail "conservation: injected %d <> resolved %d + dropped %d + in flight %d" m.Metrics.injected
      m.Metrics.resolved (dropped r) r.in_flight;
  if r.in_flight <> 0 then fail "%d queries still in flight after the drain" r.in_flight;
  if m.Metrics.injected = 0 then fail "no query was injected";
  if Stats.count m.Metrics.hops <> m.Metrics.resolved then
    fail "hop samples %d <> resolved %d" (Stats.count m.Metrics.hops) m.Metrics.resolved;
  (match Cluster.check_invariants r.cluster with
  | () -> ()
  | exception Failure msg -> fail "invariant: %s" msg);
  List.rev !errors

let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | body ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] -> (
          match String.split_on_char ' ' (String.trim rest) with
          | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0) (int_of_string_opt kb)
          | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' body)

let per_event (a, b) field events =
  if events = 0 then 0.0 else (field b -. field a) /. float_of_int events

(* The end-to-end readout of one repetition: host measurements, then the
   sim readouts (a pure function of the trajectory). *)
let host r =
  let m = r.metrics in
  let run = run_s r in
  [
    ("events_per_s", float_of_int r.events /. run);
    ("queries_per_s", float_of_int (m.Metrics.resolved + dropped r) /. run);
    ("setup_s", setup_s r);
    ("peak_rss_mb", Option.value (vm_hwm_mb ()) ~default:nan);
    ("minor_words_per_event", per_event r.gc_steady (fun g -> g.minor) r.steady_events);
    ("promoted_words_per_event", per_event r.gc_steady (fun g -> g.promoted) r.steady_events);
  ]

let sim r =
  let m = r.metrics in
  [
    ("latency_p50_s", hist_quantile m.Metrics.latency_hist 0.5);
    ("latency_p99_s", hist_quantile m.Metrics.latency_hist 0.99);
    ("hops_mean", Stats.mean m.Metrics.hops);
    ("resolved_share", float_of_int m.Metrics.resolved /. float_of_int m.Metrics.injected);
  ]
