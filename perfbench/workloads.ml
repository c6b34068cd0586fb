(* The four workloads. Each input is a pure function of the workload
   seed, and every number comes from timing calls into the layers'
   public functions from outside: no library code is instrumented. *)

open Asman
module Gen = Sim_check.Gen
module Case = Sim_check.Case
module Check = Sim_check.Check
module Vtrace = Sim_cluster.Vtrace
module Cluster = Sim_cluster.Cluster

let now = Unix.gettimeofday

(* ----- sizes and inputs ----- *)

(* The seed whose output digests are committed in reference.txt. *)
let default_seed = 1

let figures_scale = 0.03
let fleet_hosts = 8
let fleet_vms_per_host = 12
let fleet_horizon_sec = 3.0
let bighost_rounds = 20
let bighost_max_sec = 120.

let seed64 = Int64.of_int

let figures_config ~seed ~profile =
  let c = Config.with_seed (Config.with_scale Config.default figures_scale) (seed64 seed) in
  { c with Config.obs = { Config.obs_off with Config.profile = Some profile } }

let fleet_config ~seed = Config.with_seed Config.default (seed64 seed)

let fleet_trace ~seed =
  Vtrace.generate
    ~max_vcpus:(Config.pcpus (fleet_config ~seed))
    ~seed:(seed64 seed)
    ~vms:(fleet_hosts * fleet_vms_per_host)
    ~dist:Vtrace.Uniform ~horizon_sec:fleet_horizon_sec ()

let bighost_config ~seed =
  {
    (Config.with_seed Config.default (seed64 seed)) with
    Config.topology = Sim_hw.Topology.make ~sockets:4 ~cores_per_socket:16;
    scale = 0.05;
    sim_jobs = 4;
    decouple = true;
  }

(* 20 VMs dealt over 4 shards, as in the pdes-vmm suite: VCPU counts
   overcommit each sub-host, so gang parking makes VMs stealable. *)
let bighost_vms config =
  List.init 20 (fun i ->
      let name, desc =
        match i mod 4 with
        | 0 -> ("LU", Scenario.W_nas "LU")
        | 1 -> ("EP", Scenario.W_nas "EP")
        | 2 -> ("CG", Scenario.W_nas "CG")
        | _ -> ("gcc", Scenario.W_speccpu "gcc")
      in
      {
        Scenario.vm_name = Printf.sprintf "V%d:%s" (i + 1) name;
        weight = 256;
        vcpus = 4;
        workload = Some (Scenario.workload_of_desc config desc);
      })

(* ----- one iteration ----- *)

type ctx = {
  seed : int;
  workers : int;
  tracer : Span.t option;
  parent : int;  (** span the iteration's spans hang from *)
}

type iteration = {
  setup : (string * float) list;
      (** host seconds of each set-up step, named after the call it
          times; a run's setup_s sums each step's median over
          iterations, so a GC slice landing in one step of one
          iteration does not move it *)
  run_s : float;
  ops : Outcheck.op list;
  sim_s : float;  (** simulated seconds advanced; 0 where not observable *)
  counters : (string * float) list;  (** per-layer values of this iteration *)
  jobs_s : float list;
      (** host seconds of each job fanned out over the Pool, when timed
          here rather than by Pool's own accounting (fuzz nests a
          one-job Pool map inside each of its jobs, which that
          accounting would count twice) *)
}

let span ctx ?(parent = ctx.parent) name f = Span.maybe ctx.tracer ~parent name f

let median xs = if xs = [] then nan else Sim_stats.Summary.percentile (Array.of_list xs) 0.5

(* Set-up steps take a millisecond or less, so one iteration repeats
   each [setup_reps] times and reports the median; the last result is
   the one the run uses. *)
let setup_reps = 5

let repeat_setup f =
  let rec go n times =
    let t0 = now () in
    let x = f () in
    let times = (now () -. t0) :: times in
    if n <= 1 then (x, median times) else go (n - 1) times
  in
  go setup_reps []

let finite_series (s : Sim_stats.Series.t) =
  List.for_all
    (fun (x, y) -> Float.is_finite x && (Float.is_finite y || Float.is_nan y))
    (Sim_stats.Series.points s)

let series_lines (o : Experiments.outcome) =
  List.concat_map
    (fun (s : Sim_stats.Series.t) ->
      s.Sim_stats.Series.label
      :: List.map (fun (x, y) -> Printf.sprintf "%.6e %.6e" x y) (Sim_stats.Series.points s))
    o.Experiments.series

(* The model's error against the paper: mean |ln(measured / paper)| of
   the LU slowdown relative to 100% online, over fig7's Credit and
   ASMan series at the four online rates. *)
let paper_slowdown_err (o : Experiments.outcome) =
  let slowdown s r =
    match (Sim_stats.Series.y_at s r, Sim_stats.Series.y_at s 100.) with
    | Some y, Some base when base > 0. -> y /. base
    | _ -> nan
  in
  let errs =
    List.concat_map
      (fun (measured, paper) ->
        List.map
          (fun (_, r) -> Float.abs (log (slowdown measured r /. slowdown paper r)))
          Experiments.online_rate_points)
      (List.combine o.Experiments.series o.Experiments.expected)
  in
  List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)

let section prof label =
  match List.find_opt (fun s -> s.Sim_obs.Prof.label = label) (Sim_obs.Prof.sections prof) with
  | Some s -> s.Sim_obs.Prof.total_sec
  | None -> 0.

(* figures: every entry of Experiments.all on [ctx.workers] Pool
   workers. The Runner profile hook's clock marks the start of each
   figure's first engine.run section — its first simulated event — so
   setup is the time each figure spends before that, summed; with
   tracing on, the readings also become engine.run / runner.collect
   spans (Runner charges those two sections, in that order, around
   every measurement). *)
let figures ctx =
  let first = Atomic.make None in
  let readings = ref [] and readings_mu = Mutex.create () in
  let clock () =
    let t = now () in
    if Atomic.get first = None then Atomic.set first (Some t);
    if ctx.tracer <> None then
      Mutex.protect readings_mu (fun () -> readings := t :: !readings);
    t
  in
  let prof = Sim_obs.Prof.create ~clock () in
  let t0 = now () in
  let config = figures_config ~seed:ctx.seed ~profile:prof in
  let err = ref nan and setup = ref [] in
  let op (e : Experiments.t) =
    let id = e.Experiments.id in
    span ctx ("figure." ^ id) (fun fig_span ->
        Mutex.protect readings_mu (fun () -> readings := []);
        Atomic.set first None;
        let start = now () in
        let result = try Ok (e.Experiments.run config) with exn -> Error exn in
        (match Atomic.get first with
        | Some t -> setup := ("figure." ^ id, t -. start) :: !setup
        | None -> ());
        (match ctx.tracer with
        | Some tr ->
          let rec pairs labels = function
            | stop :: start :: rest ->
              Span.add tr ~parent:fig_span (List.hd labels) ~start ~stop;
              pairs (List.rev labels) rest
            | _ -> ()
          in
          (* newest first: the last pair read is a collect section *)
          pairs [ "runner.collect"; "engine.run" ] !readings
        | None -> ());
        match result with
        | Ok o ->
          if id = "fig7" then err := paper_slowdown_err o;
          {
            Outcheck.key = id;
            digest = Outcheck.digest_lines (series_lines o);
            ok = List.for_all finite_series o.Experiments.series;
          }
        | Error exn ->
          { Outcheck.key = id; digest = "raised:" ^ Printexc.to_string exn; ok = false })
  in
  let ops = List.map op Experiments.all in
  let t1 = now () in
  let engine = section prof "engine.run" and collect = section prof "collect" in
  {
    setup = List.rev !setup;
    run_s = t1 -. t0;
    ops;
    sim_s = 0.;
    counters =
      [
        ("engine.run_s", engine);
        ("runner.collect_s", collect);
        ("model.paper_slowdown_err", !err);
      ];
    jobs_s = [];
  }

(* fuzz: single-case Check.run calls over cases drawn from the seed.
   A run seed [x] names the case [Check.run ~cases:1 ~seed:x] judges.
   Case costs are heavy-tailed, so a fixed case count would make the
   work swing with the seed; instead cases are drawn in stream order
   until their modelled judging cost reaches [fuzz_budget_s]. The model
   (a fixed cost per case plus a cost per simulated event of the
   primary run) was fitted on a 2-core x86-64 host; it only sizes the
   input, deterministically, and never enters a measurement. Only
   single-host cases of up to 8 PCPUs are drawn: the datacenter and
   decoupled shapes are what fleet and bighost load. *)
let fuzz_budget_s = 8.0
let fuzz_case_cost_s = 0.012
let fuzz_event_cost_s = 1.5e-6
let fuzz_max_draws = 5000

let fuzz_run_seed ~seed k = Gen.case_seed ~seed:(seed64 seed) ~index:k
let fuzz_spec run_seed = Gen.spec (Gen.case_seed ~seed:run_seed ~index:0)

let fuzz_eligible (spec : Sim_check.Spec.t) =
  spec.Sim_check.Spec.cluster = None
  && (not spec.Sim_check.Spec.decouple)
  && Sim_check.Spec.pcpus spec <= 8

type fuzz_case = {
  index : int;  (** position in the seed's stream *)
  run_seed : int64;
  fingerprint : string;  (** of the primary run, with its oracle verdict *)
  events : int;
  case_sim_s : float;
}

(* The primary run (Case.run_once: one simulation, no reruns) of a
   case: its fingerprint, events fired and simulated seconds. *)
let primary spec =
  try
    let fp, failures = Case.run_once spec in
    let khz = Sim_engine.Units.freq_to_khz (Config.freq (Case.config_of_spec spec)) in
    ( Case.fingerprint_to_string fp
      ^ String.concat ";" (List.map (fun f -> f.Sim_check.Oracle.oracle) failures),
      fp.Case.fp_events,
      float_of_int fp.Case.fp_now /. (float_of_int khz *. 1e3) )
  with exn -> ("raised:" ^ Printexc.to_string exn, 0, 0.)

(* Draw the fuzz inputs. Returns the cases and the host seconds their
   primary runs took. *)
let fuzz_select ~seed =
  let t0 = now () in
  let rec draw k cost acc =
    if cost >= fuzz_budget_s || k >= fuzz_max_draws then List.rev acc
    else
      let run_seed = fuzz_run_seed ~seed k in
      let spec = fuzz_spec run_seed in
      if not (fuzz_eligible spec) then draw (k + 1) cost acc
      else
        let fingerprint, events, case_sim_s = primary spec in
        let cost = cost +. fuzz_case_cost_s +. (fuzz_event_cost_s *. float_of_int events) in
        draw (k + 1) cost ({ index = k; run_seed; fingerprint; events; case_sim_s } :: acc)
  in
  let cases = draw 0 0. [] in
  (cases, now () -. t0)

(* The first [n] run seeds of the stream, eligible or not. *)
let fuzz_run_seeds ~seed n = List.init n (fuzz_run_seed ~seed)

(* Setup generates the specs (Gen.spec); the run judges every case
   with its own Check.run on [ctx.workers] Pool workers. *)
let fuzz cases ctx =
  (* Check.run regenerates each spec from its run seed; setup times the
     generation on its own. *)
  let _specs, gen_s =
    repeat_setup (fun () ->
        List.map (fun c -> span ctx "check.gen" (fun _ -> fuzz_spec c.run_seed)) cases)
  in
  let t1 = now () in
  let results =
    span ctx "pool.map" (fun pool_span ->
        Pool.map ~jobs:ctx.workers
          (fun c ->
            span ctx ~parent:pool_span "check.run" (fun _ ->
                let t0 = now () in
                let r = Check.run ~jobs:1 ~cases:1 ~seed:c.run_seed () in
                let verdict =
                  if r.Check.timeouts <> [] then "timeout"
                  else if r.Check.failures <> [] then "fail"
                  else "pass"
                in
                (verdict, now () -. t0)))
          cases)
  in
  let t2 = now () in
  {
    setup = [ ("check.gen", gen_s) ];
    run_s = t2 -. t1;
    ops =
      List.map2
        (fun c v ->
          {
            Outcheck.key = Printf.sprintf "case%d" c.index;
            digest = Outcheck.digest_lines [ Int64.to_string c.run_seed; v; c.fingerprint ];
            ok = v = "pass" && not (String.starts_with ~prefix:"raised:" c.fingerprint);
          })
        cases (List.map fst results);
    sim_s = List.fold_left (fun a c -> a +. c.case_sim_s) 0. cases;
    counters = [ ("engine.events", float_of_int (List.fold_left (fun a c -> a + c.events) 0 cases)) ];
    jobs_s = List.map snd results;
  }

let fleet_vm_lines (r : Cluster.report) =
  List.map
    (fun (v : Cluster.vm_report) ->
      ( v.Cluster.v_name,
        Printf.sprintf "%s %s %d %d %d %d %d %d %d" v.Cluster.v_name v.Cluster.v_phase
          v.Cluster.v_vcpus v.Cluster.v_run_at v.Cluster.v_life_cycles
          v.Cluster.v_departed_at v.Cluster.v_migrations v.Cluster.v_downtime_cycles
          v.Cluster.v_repredictions ))
    r.Cluster.cr_vms

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.

(* fleet: Vtrace.generate + Cluster.build, then Cluster.run. A trace
   VM's digest folds in the run's placement-log digest, so a diverging
   run fails every VM; a conservation error fails every VM too. *)
let fleet ctx =
  let heap0 = heap_mb () in
  let trace, generate_s =
    repeat_setup (fun () -> span ctx "vtrace.generate" (fun _ -> fleet_trace ~seed:ctx.seed))
  in
  let cluster, build_s =
    repeat_setup (fun () ->
        span ctx "cluster.build" (fun _ ->
            Cluster.build (fleet_config ~seed:ctx.seed) ~sched:Config.Asman
              ~policy:Sim_cluster.Placement.Lifetime_aware ~hosts:fleet_hosts ~trace))
  in
  let t2 = now () in
  let r =
    span ctx "cluster.run" (fun _ ->
        Cluster.run ~workers:ctx.workers cluster ~horizon_sec:fleet_horizon_sec)
  in
  let t3 = now () in
  let heap1 = heap_mb () in
  let errors = Cluster.conservation_errors cluster in
  let run_digest =
    Outcheck.digest_lines
      (string_of_int r.Cluster.cr_digest
      :: List.map (fun (t, e) -> Printf.sprintf "%d %s" t e) (Cluster.placement_log cluster))
  in
  let c = float_of_int in
  {
    setup = [ ("vtrace.generate", generate_s); ("cluster.build", build_s) ];
    run_s = t3 -. t2;
    ops =
      List.map
        (fun (name, line) ->
          { Outcheck.key = name; digest = Outcheck.digest_lines [ line; run_digest ]; ok = errors = [] })
        (fleet_vm_lines r);
    sim_s = r.Cluster.cr_sim_sec *. c fleet_hosts;
    counters =
      [
        ("engine.events", c r.Cluster.cr_events);
        ("fabric.windows", c r.Cluster.cr_windows);
        ("fabric.cross_posts", c r.Cluster.cr_cross_posts);
        ("cluster.placements", c r.Cluster.cr_placements);
        ("cluster.deferrals", c r.Cluster.cr_deferrals);
        ("cluster.evictions", c r.Cluster.cr_evictions);
        ("cluster.migrations", c r.Cluster.cr_migrations);
        ("cluster.nacks", c r.Cluster.cr_nacks);
        ("cluster.heap_mb_per_host", (heap1 -. heap0) /. c fleet_hosts);
      ];
    jobs_s = [];
  }

(* bighost: Decouple.build, then Decouple.run to the round target. A
   workload VM fails when it misses the round target; its digest folds
   in the fabric digest. *)
let bighost ctx =
  let d, build_s =
    repeat_setup (fun () ->
        span ctx "decouple.build" (fun _ ->
            let config = bighost_config ~seed:ctx.seed in
            Decouple.build config ~sched:Config.Asman ~vms:(bighost_vms config)))
  in
  let t1 = now () in
  let r =
    span ctx "decouple.run" (fun _ ->
        Decouple.run ~workers:ctx.workers d ~rounds:bighost_rounds ~max_sec:bighost_max_sec)
  in
  let t2 = now () in
  let c = float_of_int in
  {
    setup = [ ("decouple.build", build_s) ];
    run_s = t2 -. t1;
    ops =
      List.map
        (fun (v : Decouple.vm_report) ->
          {
            Outcheck.key = v.Decouple.r_vm;
            digest =
              Outcheck.digest_lines
                [
                  Printf.sprintf "%s %d %d %d %d" v.Decouple.r_vm v.Decouple.r_rounds
                    v.Decouple.r_marks v.Decouple.r_migrations v.Decouple.r_final_shard;
                  string_of_int r.Decouple.rp_digest;
                ];
            ok = v.Decouple.r_rounds >= bighost_rounds;
          })
        r.Decouple.rp_vms;
    sim_s = r.Decouple.rp_sim_sec;
    counters =
      [
        ("engine.events", c r.Decouple.rp_events);
        ("fabric.windows", c r.Decouple.rp_windows);
        ("fabric.cross_posts", c r.Decouple.rp_cross_posts);
        ("fabric.max_window_mail", c r.Decouple.rp_max_window_mail);
        ("decouple.steal_reqs", c r.Decouple.rp_steal_reqs);
        ("decouple.grants", c r.Decouple.rp_grants);
        ("decouple.nacks", c r.Decouple.rp_nacks);
        ("decouple.steal_latency_cycles", r.Decouple.rp_mean_steal_latency_cycles);
      ];
    jobs_s = [];
  }

let names = [ "figures"; "fuzz"; "fleet"; "bighost" ]

(* The workload's iteration; [fuzz] is the fuzz inputs from
   {!fuzz_select}, ignored by the other workloads. *)
let iteration workload fuzz_cases =
  match workload with
  | "figures" -> figures
  | "fuzz" -> fuzz fuzz_cases
  | "fleet" -> fleet
  | _ -> bighost

(* End-to-end runs use one worker: on two domains of a shared 2-core
   host, run-to-run spread was about 15%. The traced run measures two
   workers for the speedup metrics and the digest-equality check. *)
let workers = 1
