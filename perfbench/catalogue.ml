(* The benchmark's workloads and metrics, in one place: the benchmark
   prints exactly these, and BENCHMARK.json is this catalogue rendered
   by [bench.exe --benchmark-json] (a test keeps the two equal).

   [clock] says what a number measures: host time (the simulator's own
   run time), simulated time (what the modelled machine would take), or
   a count/ratio of either. [moves] and [on] record, for a per-layer
   metric, which end-to-end metric it should move and on which
   workload — written down before any optimisation is measured. *)

type workload = { w_name : string; why : string }

let workloads =
  [
    {
      w_name = "figures";
      why =
        "every paper figure: single-host steady-state simulation, so the \
         engine, vmm, guest and learn layers do the work";
    };
    {
      w_name = "fuzz";
      why =
        "SimCheck over seeded single-host cases: many short scenarios, so \
         stack builds, oracles and the determinism reruns carry the load";
    };
    {
      w_name = "fleet";
      why =
        "a datacenter of 8 hosts on the fabric: sparse mail, lifetime-aware \
         placement, live migration and per-VM memory";
    };
    {
      w_name = "bighost";
      why =
        "one 64-PCPU host as 4 decoupled shards on the fabric: dense mail, \
         load broadcasts every tick and steal requests";
    };
  ]

type clock = Host | Sim | Count

let clock_name = function Host -> "host" | Sim -> "simulated" | Count -> "count"

type metric = {
  name : string;
  unit : string;
  better : [ `Lower | `Higher ];
  clock : clock;
  bound : float;  (** end-to-end only: allowed worsening, share of the median *)
  moves : string;
  on : string;
}

let m ?(bound = 0.) ?(moves = "") ?(on = "all") name unit better clock =
  { name; unit; better; clock; bound; moves; on }

let end_to_end =
  [
    m "setup_s" "s" `Lower Host ~bound:0.25;
    m "run_s" "s" `Lower Host ~bound:0.25;
    m "peak_rss_mb" "MB" `Lower Host ~bound:0.25;
  ]

let figure_ids =
  [ "fig1a"; "fig1b"; "fig2"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11a";
    "fig11b"; "fig12a"; "fig12b"; "theft"; "resilience" ]

let per_layer =
  [
    m "engine.run_s" "s" `Lower Host ~moves:"run_s" ~on:"figures";
    m "engine.share" "ratio" `Lower Host ~moves:"run_s" ~on:"figures";
    m "runner.collect_s" "s" `Lower Host ~moves:"run_s" ~on:"figures";
    m "experiments.self_s" "s" `Lower Host ~moves:"run_s" ~on:"figures";
  ]
  @ List.map
      (fun id -> m ("figure." ^ id ^ "_s") "s" `Lower Host ~moves:"run_s" ~on:"figures")
      figure_ids
  @ [
      m "engine.events" "count" `Lower Count ~moves:"run_s" ~on:"fuzz fleet bighost";
      m "engine.ns_per_event" "ns" `Lower Host ~moves:"run_s" ~on:"fuzz fleet bighost";
      m "fabric.windows" "count" `Lower Count ~moves:"run_s" ~on:"fleet bighost";
      m "fabric.cross_posts" "count" `Lower Count ~moves:"run_s" ~on:"fleet bighost";
      m "fabric.mail_per_window" "count" `Lower Count ~moves:"run_s" ~on:"fleet bighost";
      m "fabric.us_per_window" "us" `Lower Host ~moves:"run_s" ~on:"fleet bighost";
      m "fabric.max_window_mail" "count" `Lower Count ~moves:"run_s" ~on:"bighost";
      m "team.speedup_2w" "x" `Higher Host ~moves:"run_s" ~on:"fleet bighost";
      m "vtrace.generate_s" "s" `Lower Host ~moves:"setup_s" ~on:"fleet";
      m "cluster.build_s" "s" `Lower Host ~moves:"setup_s" ~on:"fleet";
      m "cluster.placements" "count" `Higher Count ~moves:"run_s" ~on:"fleet";
      m "cluster.deferrals" "count" `Lower Count ~moves:"run_s" ~on:"fleet";
      m "cluster.evictions" "count" `Lower Count ~moves:"run_s" ~on:"fleet";
      m "cluster.migrations" "count" `Higher Count ~moves:"run_s" ~on:"fleet";
      m "cluster.nacks" "count" `Lower Count ~moves:"run_s" ~on:"fleet";
      m "cluster.migration_ratio" "ratio" `Higher Count ~moves:"run_s" ~on:"fleet";
      m "cluster.heap_mb_per_host" "MB" `Lower Host ~moves:"peak_rss_mb" ~on:"fleet";
      m "decouple.build_s" "s" `Lower Host ~moves:"setup_s" ~on:"bighost";
      m "decouple.steal_reqs" "count" `Lower Count ~moves:"run_s" ~on:"bighost";
      m "decouple.grants" "count" `Higher Count ~moves:"run_s" ~on:"bighost";
      m "decouple.nacks" "count" `Lower Count ~moves:"run_s" ~on:"bighost";
      m "decouple.grant_ratio" "ratio" `Higher Count ~moves:"run_s" ~on:"bighost";
      m "decouple.steal_latency_cycles" "cycles" `Lower Sim ~moves:"run_s" ~on:"bighost";
      m "check.gen_s" "s" `Lower Host ~moves:"setup_s" ~on:"fuzz";
      m "check.primary_s" "s" `Lower Host ~moves:"run_s" ~on:"fuzz";
      m "check.judge_s" "s" `Lower Host ~moves:"run_s" ~on:"fuzz";
      m "check.rerun_share" "ratio" `Lower Host ~moves:"run_s" ~on:"fuzz";
      m "pool.jobs" "count" `Lower Count ~moves:"run_s" ~on:"fuzz figures";
      m "pool.busy_s" "s" `Lower Host ~moves:"run_s" ~on:"fuzz figures";
      m "pool.job_p50_ms" "ms" `Lower Host ~moves:"run_s" ~on:"fuzz figures";
      m "pool.job_p90_ms" "ms" `Lower Host ~moves:"run_s" ~on:"fuzz figures";
      m "pool.job_samples" "count" `Higher Count ~moves:"run_s" ~on:"fuzz figures";
      m "pool.efficiency" "ratio" `Higher Host ~moves:"run_s" ~on:"fuzz figures";
      m "pool.speedup_2w" "x" `Higher Host ~moves:"run_s" ~on:"fuzz figures";
      m "gc.minor_mb" "MB" `Lower Count ~moves:"run_s";
      m "gc.major_mb" "MB" `Lower Count ~moves:"run_s peak_rss_mb";
      m "gc.major_collections" "count" `Lower Count ~moves:"run_s";
      m "gc.top_heap_mb" "MB" `Lower Count ~moves:"peak_rss_mb";
      m "trace.overhead_share" "ratio" `Lower Host;
      m "sim.sim_s_per_s" "sim_s/s" `Higher Sim ~moves:"run_s" ~on:"fuzz fleet bighost";
      m "model.paper_slowdown_err" "ln" `Lower Sim ~on:"figures";
      m "ops.fail_ratio" "ratio" `Lower Count;
    ]

let better_name = function `Lower -> "lower" | `Higher -> "higher"

(* Host seconds one benchmark run measures. *)
let run_seconds = 20

(* BENCHMARK.json, byte for byte. *)
let benchmark_json () =
  let open Sim_registry.Cjson in
  let metric ?bound x =
    Obj
      ([ ("name", String x.name); ("unit", String x.unit); ("better", String (better_name x.better)) ]
      @ match bound with Some b -> [ ("bound", Float b) ] | None -> [])
  in
  to_string ~indent:true
    (Obj
       [
         ("command", List [ String "python3"; String "perfbench/run.py" ]);
         ("paths", List [ String "perfbench" ]);
         ("run_seconds", Int run_seconds);
         ( "workloads",
           List (List.map (fun w -> Obj [ ("name", String w.w_name); ("why", String w.why) ]) workloads) );
         ("end_to_end", List (List.map (fun x -> metric ~bound:x.bound x) end_to_end));
         ("per_layer", List (List.map (fun x -> metric x) per_layer));
       ])
  ^ "\n"

(* The catalogue as a Markdown table, for reading. *)
let to_markdown () =
  let row x =
    Printf.sprintf "| `%s` | %s | %s | %s | %s | %s |" x.name x.unit
      (better_name x.better) (clock_name x.clock)
      (if x.moves = "" then "-" else x.moves)
      x.on
  in
  String.concat "\n"
    ([ "| metric | unit | better | clock | moves | on |";
       "|---|---|---|---|---|---|" ]
    @ List.map row (end_to_end @ per_layer))
  ^ "\n"
