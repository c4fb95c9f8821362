(* The corechase benchmark program.  run.py builds it and calls

     corebench.exe --workload W --seed N --seconds S --trace 0|1
                   --tmp DIR --out DIR --cli PATH [--tiny]

   It prints a human-readable table of every metric, then, as its last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  README.md in this directory describes the workloads. *)

open Util

(* Per-layer metrics, emitted by every traced run: a layer a workload
   does not exercise reads 0.  The span metrics ("<span>_ms") are the
   span's self time in milliseconds per traced op. *)
let per_layer =
  [
    ("chase.call_ms", "ms"); ("chase.step_ms", "ms"); ("chase.rounds", "count");
    ("chase.triggers_applied", "count"); ("chase.retractions", "count");
    ("chase.discover_ms", "ms"); ("chase.triggers_enumerated", "count");
    ("trigger.useful_ratio", "ratio"); ("trigger.minor_words", "words");
    ("hom.solve_calls", "count"); ("hom.backtracks_per_solve", "ratio");
    ("hom.memo_hit_ratio", "ratio"); ("hom.minor_words", "words");
    ("core.scoped_searches", "count"); ("core.certified_ratio", "ratio");
    ("core.full_fallbacks", "count"); ("core.retract_ms", "ms");
    ("robust.build_ms", "ms"); ("robust.aggregate_ms", "ms");
    ("robust.check_ms", "ms"); ("robust.steps_built", "count");
    ("entail.via_chase_ms", "ms"); ("entail.countermodel_ms", "ms");
    ("treewidth.bound_ms", "ms"); ("tw.computations", "count");
    ("wal.journal_ms", "ms"); ("wal.journal_us.p99", "us");
    ("wal.appends", "count"); ("wal.fsyncs_per_step", "ratio");
    ("wal.bytes_per_step", "B"); ("wal.recover_ms", "ms");
    ("wal.replayed_records", "count");
    ("session.entail_exec_us.p50", "us"); ("session.chase_exec_ms.p50", "ms");
    ("protocol.codec_us.p50", "us"); ("transport.ping_rtt_us.p50", "us");
    ("serve.queue_wait_ms.p99", "ms"); ("serve.requests", "count");
    ("par.batch.runs", "count"); ("par.tasks_per_batch", "ratio");
    ("dlgp.parse_kb_ms", "ms"); ("dlgp.parse_query_us.p50", "us");
    ("gc.minor_words_per_op", "words"); ("trace.overhead_ratio", "ratio");
    ("trace.span_coverage", "ratio");
  ]

(* Span names whose self time per op becomes a "<name>_ms" layer metric. *)
let span_layers =
  [
    "chase.call"; "chase.step"; "chase.discover"; "core.retract";
    "robust.build"; "robust.aggregate"; "robust.check"; "entail.via_chase";
    "entail.countermodel"; "treewidth.bound"; "wal.journal"; "wal.recover";
  ]

let span_metrics () =
  let self = Spans.self_times () in
  let ops = match List.assoc_opt "op" self with Some (n, _, _) -> n | None -> 0 in
  List.map
    (fun name ->
      let self_ms = match List.assoc_opt name self with Some (_, _, s) -> s | None -> 0. in
      (name ^ "_ms", ratio self_ms (float_of_int ops)))
    span_layers
  @ [ ("wal.journal_us.p99", 1000. *. quantile 0.99 (Spans.durations "wal.journal")) ]

let usage () =
  prerr_endline
    "usage: corebench.exe --workload paper-core|datalog-durable|serve-mixed \
     --seed N --seconds S --trace 0|1 --tmp DIR --out DIR --cli PATH [--tiny]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and tmp = ref "" and out = ref "" and cli = ref "" in
  let tiny = ref false in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | "--tmp" :: v :: r -> tmp := v; parse r
    | "--out" :: v :: r -> out := v; parse r
    | "--cli" :: v :: r -> cli := v; parse r
    | "--tiny" :: r -> tiny := true; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !tmp = "" || !out = "" || not (List.mem !trace [ 0; 1 ]) then usage ();
  (* the yardstick must run on the CPU the measured work runs on *)
  let cpu = Yardstick.pin_cpu () in
  let ctx =
    { seed = !seed; seconds = !seconds; trace = !trace = 1; tmp = !tmp;
      out = !out; cli = !cli; tiny = !tiny }
  in
  let outcome, layers =
    match !workload with
    | "paper-core" -> Closed.run ctx (Paper_core.spec ctx)
    | "datalog-durable" -> Closed.run ctx (Datalog_durable.spec ctx)
    | "serve-mixed" -> Serve_mixed.run ctx
    | _ -> usage ()
  in
  let layers = if ctx.trace then span_metrics () @ layers else [] in
  let metrics =
    if ctx.trace then
      List.map
        (fun (name, unit) ->
          m name unit (Option.value ~default:0. (List.assoc_opt name layers)))
        per_layer
    else outcome.metrics
  in
  if ctx.trace then begin
    Spans.write (Filename.concat ctx.out (!workload ^ ".spans.jsonl"));
    Printf.printf "%-28s %8s %12s %12s\n" "span (traced ops)" "count" "total_ms"
      "self_ms";
    List.iter
      (fun (name, (n, tot, self)) ->
        Printf.printf "%-28s %8d %12.3f %12.3f\n" name n tot self)
      (Spans.self_times ())
  end;
  List.iter print_endline outcome.notes;
  Printf.printf "%-28s %14d\n" "pinned_cpu" cpu;
  List.iter
    (fun x -> Printf.printf "%-28s %14.4f %s\n" x.name x.value x.unit)
    (metrics @ outcome.extra);
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str x.name)
             (json_num x.value) (json_str x.unit))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    outcome.correct outcome.attempted outcome.failed body
