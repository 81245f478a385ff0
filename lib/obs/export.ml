(* Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing), the
   compact event CSV, the probe CSV, and the terminal summary.

   Trace mapping (one track per server: pid 1, tid = server id):
   - whole-query lifetime  -> nestable async pair  (cat "query", id "q<qid>")
   - queue-wait segment    -> nestable async pair  (cat "queue", id "q<qid>/<attempt>")
   - network transit       -> nestable async pair  (cat "net",   id "q<qid>/<attempt>")
   - service segment       -> complete event "X" (a server serves one
     query at a time, so service spans never overlap on a track)
   - drops / retransmits / replica churn / digest & fault events -> instants.

   Async pairs (not "X") carry the queue and wire segments because
   different queries overlap freely on one server's track; only the
   matching (cat, id) keys them together. *)

let esc s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us t = t *. 1e6 (* trace-event timestamps are microseconds *)

(* ---- Chrome trace ---- *)

let instant_detail ev =
  match ev with
  | Event.Query_dropped _ | Event.Retransmit _ | Event.Replica_created _
  | Event.Replica_evicted _ | Event.Replica_advertised _ | Event.Session_trigger _
  | Event.Session_started _ | Event.Session_aborted _ | Event.Digest_prune _
  | Event.Digest_shortcut _ | Event.Net_lost _ | Event.Net_blocked _ | Event.Chaos_action _ ->
    Some (Event.kind ev, Event.detail ev)
  | Event.Query_injected _ | Event.Queue_enter _ | Event.Service_begin _ | Event.Service_end _
  | Event.Net_transit _ | Event.Query_forwarded _ | Event.Query_resolved _ | Event.Cache_hit _
  | Event.Cache_miss _ | Event.Server_busy _ | Event.Server_idle -> None

let chrome_trace recorder =
  let entries = Recorder.to_list recorder in
  let spans = Span.of_entries entries in
  let tids : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let tid i = if i < 0 then 0 else i in
  let touch i = Hashtbl.replace tids (tid i) () in
  let events = ref [] in
  let push e = events := e :: !events in
  let async ph ~cat ~id ~name ~t ~server =
    touch server;
    push
      (Printf.sprintf
         {|{"name":"%s","cat":"%s","ph":"%s","id":"%s","ts":%.3f,"pid":1,"tid":%d}|}
         (esc name) (esc cat) ph (esc id) (us t) (tid server))
  in
  List.iter
    (fun (sp : Span.t) ->
      let root_server =
        if sp.Span.span_src >= 0 then sp.Span.span_src
        else match sp.Span.span_segs with s :: _ -> s.Span.seg_server | [] -> 0
      in
      let qid = sp.Span.span_qid in
      let root_id = Printf.sprintf "q%d" qid in
      let root_name =
        let base = Printf.sprintf "q%d->n%d" qid sp.Span.span_dst in
        match sp.Span.span_outcome with
        | Span.Resolved _ -> base
        | Span.Dropped reason -> base ^ " [dropped:" ^ reason ^ "]"
        | Span.In_flight -> base ^ " [in flight]"
      in
      async "b" ~cat:"query" ~id:root_id ~name:root_name ~t:sp.Span.span_start
        ~server:root_server;
      List.iter
        (fun (g : Span.seg) ->
          let seg_id = Printf.sprintf "q%d/%d" qid g.Span.seg_attempt in
          match g.Span.seg_kind with
          | Span.Queue_wait ->
            let name = Printf.sprintf "queue s%d" g.Span.seg_server in
            async "b" ~cat:"queue" ~id:seg_id ~name ~t:g.Span.seg_start ~server:g.Span.seg_server;
            async "e" ~cat:"queue" ~id:seg_id ~name ~t:g.Span.seg_stop ~server:g.Span.seg_server
          | Span.Transit ->
            let name = Printf.sprintf "s%d->s%d" g.Span.seg_server g.Span.seg_peer in
            async "b" ~cat:"net" ~id:seg_id ~name ~t:g.Span.seg_start ~server:g.Span.seg_server;
            async "e" ~cat:"net" ~id:seg_id ~name ~t:g.Span.seg_stop ~server:g.Span.seg_server
          | Span.Service ->
            touch g.Span.seg_server;
            push
              (Printf.sprintf
                 {|{"name":"svc q%d","cat":"service","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d}|}
                 qid (us g.Span.seg_start)
                 (us (g.Span.seg_stop -. g.Span.seg_start))
                 (tid g.Span.seg_server)))
        sp.Span.span_segs;
      async "e" ~cat:"query" ~id:root_id ~name:root_name ~t:sp.Span.span_stop ~server:root_server)
    spans;
  List.iter
    (fun { Recorder.time; server; event } ->
      match instant_detail event with
      | None -> ()
      | Some (name, detail) ->
        touch server;
        push
          (Printf.sprintf
             {|{"name":"%s","cat":"instant","ph":"i","ts":%.3f,"pid":1,"tid":%d,"s":"t","args":{"detail":"%s"}}|}
             (esc name) (us time) (tid server) (esc detail)))
    entries;
  let meta =
    {|{"name":"process_name","ph":"M","pid":1,"args":{"name":"terradir cluster"}}|}
    :: (List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tids [])
       |> List.map (fun t ->
              Printf.sprintf
                {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"server %d"}}|}
                t t))
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b {|{"displayTimeUnit":"ms","traceEvents":[|};
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b e)
    (meta @ List.rev !events);
  Buffer.add_string b "]}";
  Buffer.contents b

(* ---- CSVs ---- *)

let events_csv recorder =
  let b = Buffer.create 4096 in
  Buffer.add_string b "time,server,kind,qid,detail\n";
  Recorder.iter recorder (fun { Recorder.time; server; event } ->
      Buffer.add_string b
        (Printf.sprintf "%.9f,%d,%s,%s,%s\n" time server (Event.kind event)
           (match Event.qid event with Some q -> string_of_int q | None -> "")
           (Event.detail event)));
  Buffer.contents b

let probes_csv probes =
  let b = Buffer.create 4096 in
  Buffer.add_string b "time,server,load,queue_depth,replicas\n";
  Probes.iter probes (fun ~server { Probes.p_time; p_load; p_queue; p_replicas } ->
      Buffer.add_string b
        (Printf.sprintf "%.6f,%d,%.6f,%d,%d\n" p_time server p_load p_queue p_replicas));
  Buffer.contents b

(* ---- terminal summary ---- *)

let summary_rows obs =
  let recorder = Obs.recorder obs in
  let by_kind : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let qids : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  Recorder.iter recorder (fun { Recorder.event; _ } ->
      let k = Event.kind event in
      Hashtbl.replace by_kind k (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k));
      match Event.qid event with Some q -> Hashtbl.replace qids q () | None -> ());
  [
    ("obs level", Obs.level_to_string (Obs.level obs));
    ("events recorded", string_of_int (Recorder.total recorder));
    ("events retained", string_of_int (Recorder.retained recorder));
    ("queries traced", string_of_int (Hashtbl.length qids));
    ("probe samples", string_of_int (Probes.samples (Obs.probes obs)));
  ]
  @ (List.sort (fun (a, _) (b, _) -> String.compare a b)
       (Hashtbl.fold (fun k n acc -> (k, n) :: acc) by_kind [])
    |> List.map (fun (k, n) -> ("  ev " ^ k, string_of_int n)))
