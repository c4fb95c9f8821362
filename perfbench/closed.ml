(* The closed-loop runner shared by paper-core and datalog-durable: one
   caller issues the next op only when the previous one has returned.

   Untraced run: set up [setups] times (the median is [setup_s]), then
   run ops for [seconds], checking each op's output right after it, off
   the clock.  Each op and each set-up is timed in CPU time, normalised
   by the [Yardstick] kernel runs around it.

   Traced run: after set-up, a count phase runs ops [0, count_ops) with
   the metrics registry on, twice from the same state (once in a forked
   child); the two counter snapshots must repeat exactly.  Then a timed
   phase runs each op untraced and again traced for [seconds], so layer
   spans and the tracing overhead come from the same ops. *)

open Util

type op_result = {
  steps : int;  (** chase steps the op performed *)
  chase_s : float;  (** CPU seconds inside the chase calls *)
  phases : (string * float) list;
      (** other named parts of the op, in CPU seconds; their normalised
          medians are printed as "<name>_norm_ms.p50" *)
  check : unit -> string option;  (** output check, run off the clock *)
}

type 'st spec = {
  setup : unit -> 'st;
  op : 'st -> int -> op_result;
  count_ops : int;
  layer_metrics : 'st -> (string * float) list;
      (** workload-measured per-layer values, read after the timed phase *)
}

let setups = 5

(* Counter names read after the count phase. *)
let counters =
  [
    "chase.rounds"; "chase.triggers_applied"; "chase.triggers_enumerated";
    "chase.retractions"; "trigger.minor_words"; "hom.solve_calls";
    "hom.backtracks"; "hom.memo_hits"; "hom.memo_misses"; "hom.minor_words";
    "core.scoped_searches"; "core.scoped_certified"; "core.full_fallbacks";
    "robust.steps_built"; "tw.computations"; "wal.appends"; "wal.fsyncs";
    "wal.replayed_records"; "par.batch.runs"; "par.batch.tasks";
  ]

let counter_snapshot () =
  List.map (fun n -> (n, Obs.Metrics.counter_value n)) counters

let count_phase spec st =
  Obs.Metrics.reset ();
  Obs.Metrics.enabled := true;
  let steps = ref 0 and minor = ref 0. in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.enabled := false)
    (fun () ->
      for i = 0 to spec.count_ops - 1 do
        let minor0 = Gc.minor_words () in
        let r = spec.op st i in
        minor := !minor +. (Gc.minor_words () -. minor0);
        ignore (r.check ());
        steps := !steps + r.steps
      done);
  (counter_snapshot (), !steps, !minor)

(* The count phase, run twice from the same state: once in a forked
   child, once here.  Returns this process's results and one message per
   counter on which the two runs differ. *)
let counts_twice spec st =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let c, _, _ = count_phase spec st in
      let oc = Unix.out_channel_of_descr wr in
      List.iter (fun (n, v) -> Printf.fprintf oc "%s %d\n" n v) c;
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ((mine, _, _) as here) = count_phase spec st in
      let ic = Unix.in_channel_of_descr rd in
      let theirs =
        In_channel.input_all ic |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               Scanf.sscanf_opt l "%s %d" (fun n v -> (n, v)))
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      let differ =
        List.filter_map
          (fun (n, v) ->
            match List.assoc_opt n theirs with
            | Some w when w = v -> None
            | w ->
                Some
                  (Printf.sprintf "count %s differs between two runs: %d vs %s" n v
                     (match w with Some w -> string_of_int w | None -> "missing")))
          mine
      in
      (here, differ)

(* Per-layer values derived from registry counters ([c name]), over a
   phase that performed [steps] chase steps. *)
let count_layers c ~steps =
  [
    ("chase.rounds", c "chase.rounds");
    ("chase.triggers_applied", c "chase.triggers_applied");
    ("chase.triggers_enumerated", c "chase.triggers_enumerated");
    ("chase.retractions", c "chase.retractions");
    ("trigger.useful_ratio",
      ratio (c "chase.triggers_applied") (c "chase.triggers_enumerated"));
    ("trigger.minor_words", c "trigger.minor_words");
    ("hom.solve_calls", c "hom.solve_calls");
    ("hom.backtracks_per_solve", ratio (c "hom.backtracks") (c "hom.solve_calls"));
    ("hom.memo_hit_ratio",
      ratio (c "hom.memo_hits") (c "hom.memo_hits" +. c "hom.memo_misses"));
    ("hom.minor_words", c "hom.minor_words");
    ("core.scoped_searches", c "core.scoped_searches");
    ("core.certified_ratio",
      ratio (c "core.scoped_certified") (c "core.scoped_searches"));
    ("core.full_fallbacks", c "core.full_fallbacks");
    ("robust.steps_built", c "robust.steps_built");
    ("tw.computations", c "tw.computations");
    ("wal.appends", c "wal.appends");
    ("wal.fsyncs_per_step", ratio (c "wal.fsyncs") steps);
    ("wal.replayed_records", c "wal.replayed_records");
    ("par.batch.runs", c "par.batch.runs");
    ("par.tasks_per_batch", ratio (c "par.batch.tasks") (c "par.batch.runs"));
  ]

let run ctx spec =
  let st = ref None and setup_times = ref [] in
  Yardstick.sample ();
  for _ = 1 to setups do
    let t0 = now () in
    let s, dt = cpu_timed spec.setup in
    let t1 = now () in
    Yardstick.sample ();
    st := Some s;
    setup_times := Yardstick.norm ~t0 ~t1 dt :: !setup_times
  done;
  let st = Option.get !st in
  let notes = ref [] and failures = ref [] and mismatches = ref [] in
  let counts, count_steps, count_minor =
    if ctx.trace then begin
      let here, differ = counts_twice spec st in
      mismatches := differ;
      here
    end
    else ([], 0, 0.)
  in
  let samples = ref [] and overhead = ref [] in
  Yardstick.sample ();
  let run_op ~traced id =
    let go () = spec.op st id in
    let c0 = cpu_now () and t0 = now () in
    let r =
      if traced then Spans.traced_op id (fun () -> Spans.timed "op" go) else go ()
    in
    let t1 = now () in
    let cpu = cpu_now () -. c0 in
    if Yardstick.due () then Yardstick.sample ();
    (* not [r] itself: its check closure holds the op's whole output *)
    samples := ((t0, t1), cpu, r.steps, r.chase_s, r.phases) :: !samples;
    let res = r.check () in
    Option.iter (fun e -> failures := e :: !failures) res;
    t1 -. t0
  in
  let t_start = now () in
  let deadline = t_start +. ctx.seconds in
  let i = ref 0 in
  while now () < deadline || !i < 2 do
    let id = !i in
    let plain = run_op ~traced:false id in
    (* traced run: the same op again with tracing on, for the spans and
       the overhead of tracing *)
    if ctx.trace then overhead := (run_op ~traced:true id /. plain) :: !overhead;
    incr i
  done;
  Yardstick.sample ();
  (* CPU times normalised, now that every op has kernel runs after it *)
  let samples =
    List.map
      (fun ((t0, t1), cpu, steps, chase_s, phases) ->
        let norm = Yardstick.norm ~t0 ~t1 in
        (t1 -. t0, norm cpu, steps, norm chase_s, List.map (fun (k, v) -> (k, norm v)) phases))
      !samples
  in
  let phases = List.concat_map (fun (_, _, _, _, p) -> p) samples in
  let n = List.length samples in
  let failed = List.length !failures in
  let coverage = Spans.coverage () in
  if ctx.trace && coverage < 0.95 then
    mismatches :=
      Printf.sprintf "bench-timed spans cover %.1f%% of an op, not >= 95%%"
        (100. *. coverage)
      :: !mismatches;
  List.iter (fun e -> notes := ("FAILED: " ^ e) :: !notes) (List.rev !failures @ !mismatches);
  let op_ms = List.map (fun (dt, _, _, _, _) -> dt *. 1000.) samples in
  let op_norm_ms = List.map (fun (_, c, _, _, _) -> c *. 1000.) samples in
  let steps = List.fold_left (fun a (_, _, s, _, _) -> a + s) 0 samples in
  let chase_s = sum (List.map (fun (_, _, _, c, _) -> c) samples) in
  let e2e =
    [
      m "setup_s" "s" (median !setup_times);
      m "ops_per_norm_s" "1/s" (ratio (float_of_int n) (sum op_norm_ms /. 1000.));
      m "op_norm_ms.p50" "ms" (quantile 0.5 op_norm_ms);
      m "op_norm_ms.p90" "ms" (quantile 0.9 op_norm_ms);
      m "steps_per_norm_s" "1/s" (ratio (float_of_int steps) chase_s);
      m "chase_norm_ms.p50" "ms"
        (median (List.map (fun (_, _, _, c, _) -> c *. 1000.) samples));
      m "peak_rss_mb" "MiB" (peak_rss_mb ());
    ]
  in
  let extra =
    [
      m "ops" "count" (float_of_int n);
      m "ops_per_s" "1/s" (ratio (float_of_int n) (sum op_ms /. 1000.));
      m "op_ms.p50" "ms" (quantile 0.5 op_ms);
      m "op_ms.p90" "ms" (quantile 0.9 op_ms);
      m "yardstick_ms.p50" "ms" (Yardstick.median_ms ());
      m "failed_ratio" "ratio" (ratio (float_of_int failed) (float_of_int n));
    ]
    @ List.map
        (fun name ->
          m (name ^ "_norm_ms.p50") "ms"
            (median
               (List.filter_map
                  (fun (k, v) -> if k = name then Some (v *. 1000.) else None)
                  phases)))
        (List.sort_uniq compare (List.map fst phases))
  in
  let layers =
    if not ctx.trace then []
    else
      let c n = float_of_int (List.assoc n counts) in
      count_layers c ~steps:(float_of_int count_steps)
      @ [
        ("gc.minor_words_per_op", count_minor /. float_of_int spec.count_ops);
        ("trace.overhead_ratio", median !overhead);
        ("trace.span_coverage", coverage);
      ]
      @ spec.layer_metrics st
  in
  ( { attempted = n; failed; correct = failed = 0 && !mismatches = []; metrics = e2e; extra;
      notes = List.rev !notes },
    layers )
