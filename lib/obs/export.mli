(** Exporters over recorded observability data.

    {!chrome_trace} renders the flight recorder as Chrome trace-event JSON
    (the JSON-array flavor with a [traceEvents] wrapper), loadable in
    Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing].  Layout:
    one process, one track (tid) per server.  Whole-query lifetimes,
    queue waits and network transits are nestable async pairs ("b"/"e")
    keyed by query id — they overlap freely on a track; service segments
    are complete events ("X"); drops, retransmits, replica churn and
    network faults are instants ("i").

    The CSV exporters are lossless flat dumps of the recorder and probe
    stores, for ad-hoc analysis.  All exporters are pure readers. *)

val chrome_trace : Recorder.t -> string
(** The whole retained window as one JSON document.  Validated by
    [tools/trace_check] (shape + balanced async pairs). *)

val events_csv : Recorder.t -> string
(** Header [time,server,kind,qid,detail]; one row per retained event,
    chronological.  [qid] is empty for non-query events; [detail] is the
    comma-free [k=v] field rendering. *)

val probes_csv : Probes.t -> string
(** Header [time,server,load,queue_depth,replicas]; rows
    grouped by server, chronological within a server. *)

val summary_rows : Obs.t -> (string * string) list
(** Terminal readout: level, recorded/retained totals, traced query
    count, probe samples, and per-kind event counts (sorted by kind). *)
