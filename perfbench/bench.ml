(* One benchmark process: one repetition of one workload.

     bench.exe --workload NAME --seed N [--trajectory J] [--domains K] [--trace]

   Prints human-readable lines, then as its last line one JSON object
   with the repetition's fingerprint, check results, end-to-end readout
   and (with --trace) the per-layer metrics.  perfbench/run.py launches
   these processes and aggregates them. *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let floats kvs = json_object (List.map (fun (k, v) -> (k, json_float v)) kvs)

let () =
  let workload = ref "" and seed = ref 1 and trajectory = ref 0 and domains = ref 1
  and trace = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N benchmark seed");
      ("--trajectory", Arg.Set_int trajectory, "J trajectory of the seed (default 0)");
      ("--domains", Arg.Set_int domains, "K engine domains (default 1)");
      ("--trace", Arg.Set trace, " traced run: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trajectory J] [--domains K] [--trace]";
  let spec =
    match Wl.find !workload with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let run_seed = Wl.trajectory_seed !seed !trajectory in
  let trace = if !trace then Some (Layers.start ()) else None in
  let hooks = Option.fold trace ~none:Wl.no_hooks ~some:Layers.hooks in
  let r = Wl.run ~hooks ~measure_bytes:(trace <> None) ~domains:!domains spec ~seed:run_seed in
  let fp = Wl.fingerprint r in
  let host = Wl.host r in
  let errors =
    Wl.check r
    @ List.filter_map
        (fun (k, v) -> if Float.is_finite v then None else Some (k ^ " could not be measured"))
        host
  in
  let m = r.Wl.metrics in
  Printf.printf "workload %s seed %d trajectory %d K=%d: %d servers, %d nodes, rate %.2f q/s\n"
    spec.Wl.name !seed !trajectory r.Wl.domains spec.Wl.servers
    (Terradir_namespace.Tree.size r.Wl.tree)
    r.Wl.rate;
  Printf.printf "injected %d resolved %d dropped %d in flight %d (drop fraction %.5f)\n"
    m.Terradir.Metrics.injected m.Terradir.Metrics.resolved (Wl.dropped r) r.Wl.in_flight
    (Wl.drop_fraction r);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let layers = match trace with None -> [] | Some t -> Layers.finish t r in
  let ok = errors = [] in
  print_endline
    (json_object
       [
         ("workload", json_string spec.Wl.name);
         ("seed", string_of_int !seed);
         ("trajectory", string_of_int !trajectory);
         ("domains", string_of_int r.Wl.domains);
         ("correct", if ok then "true" else "false");
         ("errors", "[" ^ String.concat ", " (List.map json_string errors) ^ "]");
         ("attempted", string_of_int m.Terradir.Metrics.injected);
         ("failed", string_of_int r.Wl.in_flight);
         ("resolved", string_of_int m.Terradir.Metrics.resolved);
         ("fingerprint", json_string fp);
         ("run_s", json_float (Wl.run_s r));
         ("host", floats host);
         ("sim", floats (Wl.sim r));
         ("layers", floats layers);
       ]);
  exit (if ok then 0 else 1)
