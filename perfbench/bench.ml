(* Entry point of the benchmark:

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--recommend PATH] [--out DIR]

   With --trace 0 the run is untraced and prints the end-to-end metrics.
   With --trace 1 the run alternates untraced phases with phases that
   have tracing on (Observe counters and timers around the layer calls),
   prints the per-layer metrics and table of the traced phases, and
   reports the throughput gap between neighbouring phases as the tracing
   overhead.  The last line of standard output is one JSON object. *)

open Harness

type prepared = {
  setup_s : float;
  round : stats -> unit;
  remote : bool;  (** the work runs in another process *)
  worker_pid : unit -> int option;  (** that process, while it runs *)
  start_traced : unit -> unit;  (** before a traced phase *)
  end_traced : phase -> phase;  (** after it: adds what only the worker saw *)
  resume : unit -> unit;  (** before the untraced phase after a traced one *)
  finish : unit -> unit;  (** stops any process the workload started *)
}

let in_process setup_s round =
  {
    setup_s;
    round;
    remote = false;
    worker_pid = (fun () -> None);
    start_traced = ignore;
    end_traced = Fun.id;
    resume = ignore;
    finish = ignore;
  }

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let recommend_exe = ref "_build/default/bin/recommend.exe"
let out_dir = ref "perfbench/_out"

let prepare name =
  match name with
  | "recommend" ->
      let setup_s, cases =
        timed_setup ~reps:3 (fun () ->
            let cases = W_recommend.setup !seed in
            W_recommend.warm cases;
            cases)
      in
      let cases = W_recommend.reference cases in
      in_process setup_s (W_recommend.round cases)
  | "paql" ->
      let setup_s, dbs = timed_setup ~reps:5 (fun () -> W_paql.setup !seed) in
      let refs = W_paql.reference !seed in
      in_process setup_s (W_paql.round refs dbs)
  | "churn" ->
      let setup_s, state = timed_setup ~reps:15 (fun () -> W_churn.setup !seed) in
      let expected = W_churn.reference (W_churn.raw !seed) in
      let eval_query = W_churn.parse W_churn.eval_q in
      in_process setup_s (W_churn.round eval_query (ref state) expected)
  | "serve" ->
      W_serve.exe := !recommend_exe;
      W_serve.out_dir := !out_dir;
      let inputs = W_serve.inputs !seed in
      let daemon = ref None in
      let stop () =
        Option.iter W_serve.stop !daemon;
        daemon := None
      in
      (* Writing the files is generation: on a shared disk it took 8-28 ms
         per repetition, which set-up time would carry as noise *)
      let loads = W_serve.write_files inputs.W_serve.files in
      let start ~traced () = daemon := Some (W_serve.start ~traced loads) in
      let setup_s, () = timed_setup ~before:stop ~reps:11 (start ~traced:false) in
      {
        setup_s;
        round = W_serve.round (fun () -> Option.get !daemon) inputs.W_serve.requests;
        remote = true;
        worker_pid = (fun () -> Option.map (fun d -> d.W_serve.pid) !daemon);
        start_traced =
          (fun () ->
            stop ();
            start ~traced:true ());
        end_traced =
          (fun p ->
            stop ();
            let queue_ms, counters = W_serve.trace_records () in
            add_nested "serve.queue" (queue_ms /. 1000.);
            { p with observed = counters });
        resume = start ~traced:false;
        finish = stop;
      }
  | _ -> raise (Arg.Bad ("unknown workload: " ^ name))

(* CPU seconds of another process: utime + stime, fields 14 and 15 of
   /proc/PID/stat, in clock ticks of 1/100 s. *)
let proc_cpu pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let after_comm = String.rindex line ')' + 2 in
  let f = String.split_on_char ' ' (String.sub line after_comm (String.length line - after_comm)) in
  (float_of_string (List.nth f 11) +. float_of_string (List.nth f 12)) /. 100.

let cpu_of prep () =
  match prep.worker_pid () with None -> cpu_seconds () | Some pid -> proc_cpu pid

let end_to_end prep p =
  let st = p.st in
  let rss =
    match prep.worker_pid () with
    | None -> rss_peak_mb ()
    | Some pid -> rss_peak_mb ~pid:(string_of_int pid) ()
  in
  let over_windows f = median (List.map f p.windows) in
  [
    m "throughput_ops" "1/s" (over_windows (fun w -> float_of_int w.w_ops /. w.w_elapsed));
    m "latency_p50_ms" "ms" (over_windows (fun w -> w.w_p50));
    m "latency_p90_ms" "ms" (over_windows (fun w -> w.w_p90));
    m "cpu_ms_per_op" "ms" (over_windows (fun w -> w.w_cpu *. 1000. /. float_of_int w.w_ops));
    m "rss_peak_mb" "MiB" rss;
    m "quality_ratio" "ratio"
      (if st.q_n = 0 then 1. else st.q_sum /. float_of_int st.q_n);
    m "setup_s" "s" prep.setup_s;
  ]

let ms_per layer_name calls =
  if calls = 0 then 0. else layer_seconds layer_name *. 1000. /. float_of_int calls

let per_layer ~remote ~overhead p =
  let st = p.st in
  let ops = st.attempted in
  let c = obs_count p and sec = obs_seconds p in
  let k = kind_count st in
  let timed = Hashtbl.fold (fun _ r acc -> acc +. !r) layer_time 0. in
  let sketches = c "sketch.solves" in
  [
    m "solvers.pb_solve_ms" "ms"
      (if c "pb.solve" = 0 then 0. else sec "pb.solve" *. 1000. /. float_of_int (c "pb.solve"));
    m "solvers.pb_nodes_per_solve" "count" (ratio (c "pb.nodes") (c "pb.solves"));
    m "sketch.sketch_ms" "ms"
      (if sketches = 0 then 0. else sec "sketch.sketch" *. 1000. /. float_of_int sketches);
    m "sketch.refine_ms" "ms"
      (if sketches = 0 then 0. else sec "sketch.refine" *. 1000. /. float_of_int sketches);
    m "sketch.pb_nodes" "count" (ratio (k "sketch.pb_nodes") sketches);
    m "sketch.backtracks" "count" (ratio (c "sketch.backtracks") sketches);
    m "sketch.refine_win_share" "ratio" (ratio (k "sketch.refine_won") sketches);
    m "qlang.paql_parse_us" "us" (ms_per "qlang.paql_parse" (k "paql") *. 1000.);
    m "core.paql_compile_ms" "ms" (ms_per "core.paql_compile" (k "paql"));
    m "core.topk_ms" "ms" (ms_per "core.topk" (k "topk"));
    m "core.maxbound_ms" "ms" (ms_per "core.maxbound" (k "maxbound"));
    m "core.count_ms" "ms" (ms_per "core.count" (k "count"));
    m "core.rpp_ms" "ms" (ms_per "core.rpp" (k "rpp"));
    m "core.oracle_nodes_per_op" "count" (ratio (c "oracle.nodes") ops);
    m "core.compat_hit_ratio" "ratio"
      (ratio (c "memo.compat_hit") (c "memo.compat_hit" + c "memo.compat_miss"));
    m "qlang.delta_evals_per_op" "count" (ratio (c "engine.delta_evals") ops);
    m "qlang.plan_run_ms" "ms" (per p (sec "plan.run" *. 1000.));
    m "parallel.tasks_per_op" "count" (ratio (c "pool.tasks") ops);
    m "parallel.tasks_skipped_ratio" "ratio"
      (ratio (c "pool.tasks_skipped") (c "pool.tasks" + c "pool.tasks_skipped"));
    m "parallel.domains_spawned_per_op" "count" (ratio (c "pool.domains_spawned") ops);
    m "core.update_ms" "ms" (ms_per "core.update" (k "write"));
    m "relational.maintained_per_write" "count" (ratio (c "rel.maintained") (k "write"));
    m "core.candidates_ms" "ms" (ms_per "core.candidates" (k "candidates"));
    m "core.candidates_kept_ratio" "ratio" (ratio (c "memo.candidates_kept") (k "write"));
    m "qlang.eval_ms" "ms" (ms_per "qlang.eval" (k "eval"));
    m "qlang.plan_cache_hit_ratio" "ratio"
      (ratio (c "plan.cache_hit") (c "plan.cache_hit" + c "plan.cache_miss"));
    m "qlang.plan_rows_per_op" "count" (ratio (c "plan.rows") ops);
    m "serve.exec_ms" "ms" (ms_per "serve.exec" ops);
    m "serve.overhead_ms" "ms" (ms_per "serve.overhead" ops);
    m "serve.queue_ms" "ms" (ms_per "serve.queue" ops);
    (* the collector of the process that does the work; another process's
       is not visible from here *)
    m "gc.minor_per_op" "count" (if remote then 0. else ratio p.minor ops);
    m "gc.major_per_op" "count" (if remote then 0. else ratio p.major ops);
    m "gc.promoted_words_per_op" "words" (if remote then 0. else per p p.promoted);
    m "unattributed_ms" "ms" (per p ((st.op_wall -. timed) *. 1000.));
    m "observe.overhead_pct" "%" (quantile overhead 0.5);
    m "observe.overhead_iqr_pct" "%" (quantile overhead 0.75 -. quantile overhead 0.25);
  ]

(* The traced run: up to [pairs] untraced phases, each followed by a
   traced one, of equal length, at least two pairs and then no more once
   [seconds] have passed (a phase runs whole rounds, and a paql round
   takes seconds).  The machine's speed drifts over seconds, so the
   tracing overhead is taken pair by pair, untraced against the traced
   phase right after it, and reported as the median and the
   interquartile distance over the pairs. *)
let pairs = 5

let traced_run prep =
  let slice = !seconds /. float_of_int (2 * pairs) in
  let cpu = cpu_of prep in
  let tput p = float_of_int p.st.attempted /. p.elapsed in
  let overhead = samples () in
  let t0 = now () in
  let rec go i untraced traced =
    if i = pairs || (i >= 2 && now () -. t0 >= !seconds) then
      (Option.get untraced, Option.get traced)
    else begin
      if i > 0 then prep.resume ();
      let u = run_phase ~cpu ~seconds:slice prep.round in
      prep.start_traced ();
      Observe.set_enabled true;
      tracing := true;
      let t = run_phase ~cpu ~seconds:slice prep.round in
      tracing := false;
      Observe.set_enabled false;
      let t = prep.end_traced t in
      push overhead ((tput u /. tput t -. 1.) *. 100.);
      let add acc p = Some (match acc with None -> p | Some a -> merge a p) in
      go (i + 1) (add untraced u) (add traced t)
    end
  in
  let untraced, traced = go 0 None None in
  (untraced, traced, overhead)

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME recommend|paql|churn|serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--recommend", Arg.Set_string recommend_exe, "PATH the recommend executable (serve)");
      ("--out", Arg.Set_string out_dir, "DIR where run artifacts are written");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench.exe";
  (* a terminated run still stops the daemon it started *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> raise Exit))) [ Sys.sigterm; Sys.sigint ];
  Sketch.install ();
  Observe.set_enabled false;
  (* Untraced runs have one caller and one domain: with the default of
     one search domain per core, the recommend workload's spread across
     runs reached 40% in throughput and 75% in median latency on a 2-core
     machine shared with other load, because every parallel search waits
     for a second core.  The traced run keeps the pool's default, so that
     the parallel.* metrics show how the library fans out as shipped.
     The serve daemon pins its workers' searches to one domain itself. *)
  if !trace = 0 then Parallel.Pool.set_domains_override (Some 1);
  let prep = prepare !workload in
  let result =
    Fun.protect ~finally:prep.finish @@ fun () ->
    if !trace = 0 then begin
      let p = run_phase ~cpu:(cpu_of prep) ~seconds:!seconds prep.round in
      (p.st, end_to_end prep p)
    end
    else begin
      let untraced, p, overhead = traced_run prep in
      let table = layer_table ~workload:!workload p in
      print_string table;
      mkdir_p !out_dir;
      let oc = open_out (Filename.concat !out_dir ("layers-" ^ !workload ^ ".txt")) in
      output_string oc table;
      close_out oc;
      let merged = { p.st with attempted = untraced.st.attempted + p.st.attempted;
                     failed = untraced.st.failed + p.st.failed;
                     wrong = untraced.st.wrong + p.st.wrong } in
      (merged, per_layer ~remote:prep.remote ~overhead p)
    end
  in
  let st, metrics = result in
  Printf.printf "workload %s, seed %d, %s run\n" !workload !seed
    (if !trace = 0 then "untraced" else "traced");
  print_result ~correct:(st.wrong = 0) ~attempted:st.attempted ~failed:st.failed metrics
