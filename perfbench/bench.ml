(* The simulator's benchmark: one workload per invocation.

     bench.exe --workload figures|fuzz|fleet|bighost --seed N \
       --seconds S --trace 0|1

   Every iteration runs in a fresh child process (this executable with
   --iteration): fresh inputs from the seed, fresh stacks, a fresh
   heap — what one CLI run costs — and its own VmHWM. Iterations repeat
   until S host seconds have passed and at least three are done; run_s
   is their mean without the fastest and slowest, the other metrics
   are medians. Every operation's output is checked; a readable summary
   goes to stdout and, as its last line, one JSON object: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Exits 1 when any output check fails.

   --trace 1 alternates untraced iterations, traced ones (spans around
   every public layer call, written as Chrome trace JSON under
   perfbench/out/) and two-worker ones (the speedup metrics and digest
   equality) for twice the seconds.

   Other modes: --benchmark-json prints BENCHMARK.json from the
   catalogue, --catalogue prints the metric table, --write-reference
   rewrites this workload's lines of the reference digests. *)

open Perfbench
module W = Workloads

let reference_file = "perfbench/reference.txt"
let out_dir = "perfbench/out"
let min_iters = 3

let median = W.median

let percentile xs p =
  if xs = [] then 0. else Sim_stats.Summary.percentile (Array.of_list xs) p

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:nan

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576. in
  [
    ("gc.minor_mb", mb (b.Gc.minor_words -. a.Gc.minor_words));
    ("gc.major_mb", mb (b.Gc.major_words -. a.Gc.major_words));
    ("gc.major_collections", float_of_int (b.Gc.major_collections - a.Gc.major_collections));
    ("gc.top_heap_mb", mb (float_of_int b.Gc.top_heap_words));
  ]

(* Isolation: no run-registry writes and no LPT cost cache, so job
   order and disk state never depend on earlier runs. *)
let isolate () =
  Unix.putenv "ASMAN_RUNS" "";
  Asman.Pool.set_job_group None

(* ----- one iteration, in a child process ----- *)

type job = {
  workload : string;
  seed : int;
  workers : int;
  traced : bool;
  fuzz : W.fuzz_case list;  (** the fuzz inputs, drawn once by the parent *)
}

type measured = {
  it : W.iteration;
  jobs_s : float list;  (** Pool job times: the workload's own, else Pool.accounting's *)
  gc : (string * float) list;
  hwm_mb : float;
  spans : Span.span list;
}

let iterate job =
  isolate ();
  Asman.Pool.set_jobs job.workers;
  let tracer = if job.traced then Some (Span.create ~run_id:"") else None in
  let ctx = { W.seed = job.seed; workers = job.workers; tracer; parent = -1 } in
  let run = W.iteration job.workload job.fuzz in
  Asman.Pool.reset_accounting ();
  let g0 = Gc.quick_stat () in
  let it =
    match tracer with
    | None -> run ctx
    | Some t -> Span.time t ("workload." ^ job.workload) (fun root -> run { ctx with W.parent = root })
  in
  let g1 = Gc.quick_stat () in
  {
    it;
    jobs_s =
      (match it.W.jobs_s with
      | [] -> List.map (fun (t : Asman.Pool.job_timing) -> t.Asman.Pool.wall_sec) (Asman.Pool.accounting ()).Asman.Pool.timings
      | own -> own);
    gc = gc_delta g0 g1;
    hwm_mb = vm_hwm_mb ();
    spans = (match tracer with Some t -> Span.spans t | None -> []);
  }

(* Child mode: a job on stdin, the result on the original stdout.
   Anything the libraries print goes to stderr instead, so it cannot
   corrupt the result. *)
let child () =
  let result = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  set_binary_mode_in stdin true;
  let job : job = Marshal.from_channel stdin in
  Marshal.to_channel result (iterate job : measured) [];
  close_out result;
  exit 0

let spawn job =
  let exe = Sys.executable_name in
  let job_r, job_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--iteration" |] job_r res_w Unix.stderr in
  Unix.close job_r;
  Unix.close res_w;
  let oc = Unix.out_channel_of_descr job_w in
  Marshal.to_channel oc job [];
  close_out oc;
  let ic = Unix.in_channel_of_descr res_r in
  let result = try Ok (Marshal.from_channel ic : measured) with End_of_file -> Error "no result" in
  close_in ic;
  match (Unix.waitpid [] pid, result) with
  | (_, Unix.WEXITED 0), Ok m -> Ok m
  | (_, Unix.WEXITED c), _ -> Error (Printf.sprintf "iteration exited with %d" c)
  | (_, (Unix.WSIGNALED s | Unix.WSTOPPED s)), _ ->
    Error (Printf.sprintf "iteration killed by signal %d" s)

(* [o] printed the same output as the operation of its key in [ops]. *)
let same_output ops (o : Outcheck.op) =
  List.exists
    (fun (f : Outcheck.op) -> f.Outcheck.key = o.Outcheck.key && f.Outcheck.digest = o.Outcheck.digest)
    ops

(* Iterations until [seconds] have passed and every job has run
   [min_iters] times. Several jobs alternate, so a slow or fast spell
   of the host falls on all of them alike. Each iteration must
   reproduce its job's first digests (same seed, same output); one that
   crashes is a failed operation. Returns the runs and crashes per job. *)
let measure ~seconds ~min_iters jobs =
  let jobs = Array.of_list jobs in
  let n_jobs = Array.length jobs in
  let runs = Array.make n_jobs [] and crashed = Array.make n_jobs [] in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go n =
    if n >= min_iters * n_jobs && Unix.gettimeofday () >= deadline then ()
    else begin
      let j = n mod n_jobs in
      (match spawn jobs.(j) with
      | Ok m -> runs.(j) <- m :: runs.(j)
      | Error e ->
        let op = { Outcheck.key = Printf.sprintf "iteration%d" n; digest = e; ok = false } in
        crashed.(j) <- op :: crashed.(j));
      go (n + 1)
    end
  in
  go 0;
  let checked runs =
    match runs with
    | [] -> []
    | first :: _ ->
      List.map
        (fun m ->
          let ops =
            List.map
              (fun o -> { o with Outcheck.ok = o.Outcheck.ok && same_output first.it.W.ops o })
              m.it.W.ops
          in
          { m with it = { m.it with W.ops } })
        runs
  in
  List.init n_jobs (fun j -> (checked (List.rev runs.(j)), List.rev crashed.(j)))

(* ----- aggregation and output ----- *)

let med f runs = median (List.map f runs)

(* The host alternates slow and fast spells lasting 10 to 60 s, so the
   iterations of one run are not independent draws: their median lands
   on whichever spell holds the middle sample and jumps from run to run.
   The mean without the fastest and slowest iteration averages the
   spells and still ignores a single outlier; on a 200 s bighost
   recording it cut the spread between 20 s windows from 0.09 to 0.07. *)
let trimmed_mean xs =
  let s = List.sort compare xs in
  let n = List.length s in
  let inner = if n >= 3 then List.filteri (fun i _ -> i > 0 && i < n - 1) s else s in
  List.fold_left ( +. ) 0. inner /. float_of_int (List.length inner)

let run_s runs = trimmed_mean (List.map (fun m -> m.it.W.run_s) runs)
(* Each set-up step's median over iterations. *)
let setup_parts runs =
  let names = List.sort_uniq compare (List.concat_map (fun m -> List.map fst m.it.W.setup) runs) in
  List.map
    (fun n -> (n, median (List.filter_map (fun m -> List.assoc_opt n m.it.W.setup) runs)))
    names

let setup_s runs = List.fold_left (fun a (_, s) -> a +. s) 0. (setup_parts runs)
let peak_rss_mb runs = med (fun m -> m.hwm_mb) runs
let all_ops runs = List.concat_map (fun m -> m.it.W.ops) runs

(* Per-layer counters: the median over iterations, per name. *)
let counters runs =
  let names = List.sort_uniq compare (List.concat_map (fun m -> List.map fst m.it.W.counters) runs) in
  List.map
    (fun n -> (n, median (List.filter_map (fun m -> List.assoc_opt n m.it.W.counters) runs)))
    names

let print_summary ~workload ~seed runs verdict extra =
  Printf.printf "perfbench %s seed=%d workers=%d iterations=%d\n" workload seed W.workers
    (List.length runs);
  let row name value unit clock = Printf.printf "  %-20s %14s %-8s %s\n" name value unit clock in
  let num x = Printf.sprintf "%.6g" x in
  row "setup_s" (num (setup_s runs)) "s" "host, sum of per-step medians";
  row "run_s" (num (run_s runs)) "s" "host, mean without min and max";
  Printf.printf "  %-20s %s\n" "run_s samples"
    (String.concat " " (List.map (fun m -> Printf.sprintf "%.4g" m.it.W.run_s) runs));
  row "peak_rss_mb" (num (peak_rss_mb runs)) "MB" "host, median VmHWM";
  List.iter (fun (n, v, u, c) -> row n (num v) u c) extra;
  row "fail_ratio"
    (Printf.sprintf "%d/%d" verdict.Outcheck.failed verdict.Outcheck.attempted)
    "ops" "failed/attempted";
  List.iter (Printf.printf "  FAIL %s\n") verdict.Outcheck.problems

let print_result verdict kvs =
  let open Sim_registry.Cjson in
  let metric (name, unit, v) =
    (name, Obj [ ("value", Float (if Float.is_finite v then v else 0.)); ("unit", String unit) ])
  in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (verdict.Outcheck.failed = 0));
            ("attempted", Int verdict.Outcheck.attempted);
            ("failed", Int verdict.Outcheck.failed);
            ("metrics", Obj (List.map metric kvs));
          ]))

let merge (a : Outcheck.verdict) (b : Outcheck.verdict) =
  {
    Outcheck.attempted = a.Outcheck.attempted + b.Outcheck.attempted;
    failed = a.Outcheck.failed + b.Outcheck.failed;
    problems = a.Outcheck.problems @ b.Outcheck.problems;
  }

let write_reference ~workload ~seed reference ops =
  let keep =
    List.filter (fun (w, s, _, _) -> not (w = workload && s = seed)) reference
    |> List.map Outcheck.line
  in
  Out_channel.with_open_bin reference_file (fun oc ->
      output_string oc "# workload seed op digest: reference outputs at the default seed and sizes\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) (keep @ Outcheck.reference_lines ~workload ~seed ops));
  Printf.printf "wrote %d reference digests for %s seed %d\n" (List.length ops) workload seed

(* The cost cache reorders jobs, never results: fig7 regenerated with
   a job group set (the second pass LPT-ordered by the first's costs)
   on two workers must print the same series as the isolated run. And
   the run must have written no run registry. *)
let isolation_check ~seed ~runs_dir_existed (isolated : Outcheck.op list) =
  let fig7 = Option.get (Asman.Experiments.find "fig7") in
  let config = W.figures_config ~seed ~profile:(Sim_obs.Prof.create ()) in
  Asman.Pool.set_jobs 2;
  Asman.Pool.set_job_group (Some "fig7");
  let digest () = Outcheck.digest_lines (W.series_lines (fig7.Asman.Experiments.run config)) in
  let a = digest () in
  let b = digest () in
  isolate ();
  Asman.Pool.set_jobs 1;
  let same =
    match List.find_opt (fun (o : Outcheck.op) -> o.Outcheck.key = "fig7") isolated with
    | Some o -> o.Outcheck.digest = a && a = b
    | None -> false
  in
  [
    { Outcheck.key = "isolation.cost-cache"; digest = a ^ "/" ^ b; ok = same };
    { Outcheck.key = "isolation.registry"; digest = "runs/"; ok = runs_dir_existed || not (Sys.file_exists "runs") };
  ]

let main ~workload ~seed ~seconds ~trace ~write_ref =
  isolate ();
  let runs_dir_existed = Sys.file_exists "runs" in
  let fuzz, prep_counters =
    if workload = "fuzz" then
      let cases, primary_s = W.fuzz_select ~seed in
      (cases, [ ("check.primary_s", primary_s) ])
    else ([], [])
  in
  let job = { workload; seed; workers = W.workers; traced = false; fuzz } in
  (* Traced: untraced, traced and two-worker iterations alternate. *)
  let jobs = if trace then [ job; { job with traced = true }; { job with workers = 2 } ] else [ job ] in
  let measured = measure ~seconds:(if trace then 2. *. seconds else seconds) ~min_iters jobs in
  let untraced, crashed = List.hd measured in
  let reference = Outcheck.load_reference reference_file in
  if write_ref then begin
    (match (untraced, crashed) with
    | first :: _, [] -> write_reference ~workload ~seed reference first.it.W.ops
    | _ -> prerr_endline "an iteration crashed; reference not written");
    exit 0
  end;
  let verdict =
    merge (Outcheck.judge reference ~workload ~seed (all_ops untraced))
      (Outcheck.judge [] ~workload ~seed crashed)
  in
  if untraced = [] then begin
    print_summary ~workload ~seed untraced verdict [];
    print_result verdict [];
    exit 1
  end;
  let c_untraced = counters untraced in
  let sim_s = med (fun m -> m.it.W.sim_s) untraced in
  let extra =
    (if sim_s > 0. then
       [ ("sim_s_per_s", sim_s /. run_s untraced, "sim_s/s", "simulated per host second") ]
     else [])
    @ (match List.assoc_opt "model.paper_slowdown_err" c_untraced with
      | Some e -> [ ("paper_slowdown_err", e, "ln", "model vs paper, fig7 (simulated)") ]
      | None -> [])
  in
  if not trace then begin
    print_summary ~workload ~seed untraced verdict extra;
    print_result verdict
      [
        ("setup_s", "s", setup_s untraced);
        ("run_s", "s", run_s untraced);
        ("peak_rss_mb", "MB", peak_rss_mb untraced);
      ];
    exit (if verdict.Outcheck.failed = 0 then 0 else 1)
  end;
  let traced, crashed_t = List.nth measured 1 and other, crashed_o = List.nth measured 2 in
  (* Two workers must print the same outputs as one. *)
  let reference_ops = match untraced with m :: _ -> m.it.W.ops | [] -> [] in
  let renamed runs =
    List.concat_map
      (fun m ->
        List.map
          (fun (o : Outcheck.op) ->
            {
              o with
              Outcheck.key = "w2." ^ o.Outcheck.key;
              ok = o.Outcheck.ok && same_output reference_ops o;
            })
          m.it.W.ops)
      runs
  in
  let isolation = if workload = "figures" then isolation_check ~seed ~runs_dir_existed reference_ops else [] in
  let verdict =
    merge verdict
      (Outcheck.judge [] ~workload ~seed
         (all_ops traced @ renamed other @ isolation @ crashed_t @ crashed_o))
  in
  (* Every traced iteration's spans under one run id, then checked by
     the repository's own JSON validator. *)
  let tracer = Span.create ~run_id:(Printf.sprintf "%s-seed%d-%d" workload seed (Unix.getpid ())) in
  List.iter (fun m -> Span.import tracer m.spans) traced;
  let spans = Span.spans tracer in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let trace_file = Printf.sprintf "%s/trace-%s-seed%d.json" out_dir workload seed in
  let json = Span.to_chrome_json tracer in
  Out_channel.with_open_bin trace_file (fun oc -> output_string oc json);
  let verdict =
    match Sim_obs.Json.validate json with
    | Ok () -> verdict
    | Error e -> merge verdict { Outcheck.attempted = 1; failed = 1; problems = [ "trace file: " ^ e ] }
  in
  let n_traced = float_of_int (max 1 (List.length traced)) in
  let per_iter name = Span.total_by_name spans name /. n_traced in
  (* Each layer's self time: its spans minus what their children cover. *)
  let self = List.map (fun (name, s) -> (name, s /. n_traced)) (Span.self_by_name spans) in
  let figures_self =
    List.fold_left
      (fun a (name, s) -> if String.starts_with ~prefix:"figure." name then a +. s else a)
      0. self
  in
  let c = prep_counters @ counters traced in
  let get n = Option.value ~default:0. (List.assoc_opt n c) in
  let step n = Option.value ~default:0. (List.assoc_opt n (setup_parts traced)) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let run_u = run_s untraced and run_t = run_s traced and run_2 = run_s other in
  let last = List.nth untraced (List.length untraced - 1) in
  (* Pool figures from the last two-worker iteration, where it can overlap jobs. *)
  let pool_run = match List.rev other with m :: _ -> m | [] -> last in
  let job_ms = List.map (fun s -> s *. 1e3) pool_run.jobs_s in
  let busy = List.fold_left ( +. ) 0. pool_run.jobs_s in
  let windows = get "fabric.windows" in
  let judge = per_iter "check.run" in
  let layer =
    c @ last.gc
    @ List.map (fun id -> ("figure." ^ id ^ "_s", per_iter ("figure." ^ id))) Catalogue.figure_ids
    @ [
        ("engine.share", ratio (get "engine.run_s") run_t);
        ("experiments.self_s", figures_self);
        ( "engine.ns_per_event",
          ratio ((if workload = "fuzz" then get "check.primary_s" else run_t) *. 1e9) (get "engine.events") );
        ("fabric.mail_per_window", ratio (get "fabric.cross_posts") windows);
        ("fabric.us_per_window", ratio (run_t *. 1e6) windows);
        ("cluster.migration_ratio", ratio (get "cluster.migrations") (get "cluster.evictions"));
        ("decouple.grant_ratio", ratio (get "decouple.grants") (get "decouple.steal_reqs"));
        ("check.gen_s", step "check.gen");
        ("vtrace.generate_s", step "vtrace.generate");
        ("cluster.build_s", step "cluster.build");
        ("decouple.build_s", step "decouple.build");
        ("check.judge_s", judge);
        ("check.rerun_share", ratio (judge -. get "check.primary_s") judge);
        ("pool.jobs", float_of_int (List.length job_ms));
        ("pool.busy_s", busy);
        ("pool.job_p50_ms", percentile job_ms 0.5);
        ("pool.job_p90_ms", percentile job_ms 0.9);
        ("pool.job_samples", float_of_int (List.length job_ms));
        ("pool.efficiency", ratio busy (2. *. pool_run.it.W.run_s));
        ((if workload = "fuzz" || workload = "figures" then "pool.speedup_2w" else "team.speedup_2w"),
          ratio run_u run_2);
        ("trace.overhead_share", ratio (run_t -. run_u) run_u);
        ("sim.sim_s_per_s", ratio sim_s run_u);
        ("ops.fail_ratio", Outcheck.fail_ratio verdict);
      ]
  in
  let kvs =
    List.map
      (fun (m : Catalogue.metric) ->
        (m.Catalogue.name, m.Catalogue.unit, Option.value ~default:0. (List.assoc_opt m.Catalogue.name layer)))
      Catalogue.per_layer
  in
  print_summary ~workload ~seed untraced verdict extra;
  Printf.printf "  traced iterations=%d, w2 iterations=%d, spans=%d -> %s\n" (List.length traced)
    (List.length other) (List.length spans) trace_file;
  Printf.printf "  %-34s %14s %14s  (host s per traced iteration)\n" "span" "total" "self";
  List.iter
    (fun (name, s) -> Printf.printf "  %-34s %14.6g %14.6g\n" name (per_iter name) s)
    self;
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %14.6g %s\n" n v u) kvs;
  print_result verdict kvs;
  exit (if verdict.Outcheck.failed = 0 then 0 else 1)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--iteration" then child ();
  let workload = ref "" and seed = ref W.default_seed and seconds = ref 10.
  and trace = ref 0 and write_ref = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME figures|fuzz|fleet|bighost");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--write-reference", Arg.Set write_ref, " rewrite the reference digests");
      ( "--benchmark-json",
        Arg.Unit (fun () -> print_string (Catalogue.benchmark_json ()); exit 0),
        " print BENCHMARK.json" );
      ( "--catalogue",
        Arg.Unit (fun () -> print_string (Catalogue.to_markdown ()); exit 0),
        " print the metric table" );
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload W.names) || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~write_ref:!write_ref
