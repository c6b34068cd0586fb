(* Observability layer: ring semantics (a list-model property and
   memory bounds), trace masks, exporters, metrics snapshot
   determinism across Pool worker counts, and the LHP classifier on a
   hand-built scenario. *)

open Asman
module Ring = Sim_obs.Ring
module Trace = Sim_obs.Trace
module Metrics = Sim_obs.Metrics

(* ----- ring buffer ----- *)

let test_ring_wrap_and_drop () =
  let r = Ring.create ~cap:4 in
  for i = 1 to 4 do
    Ring.push r i
  done;
  Alcotest.(check int) "full, nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4 ] (Ring.to_list r);
  Ring.push r 5;
  Ring.push r 6;
  Alcotest.(check int) "two overwritten" 2 (Ring.dropped r);
  Alcotest.(check (list int)) "newest survive" [ 3; 4; 5; 6 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "drop tally is lifetime" 2 (Ring.dropped r)

let test_ring_zero_cap () =
  let r = Ring.create ~cap:0 in
  Ring.push r 1;
  Alcotest.(check (list int)) "keeps nothing" [] (Ring.to_list r);
  Alcotest.(check int) "counts the drop" 1 (Ring.dropped r)

(* Model test: random push/clear scripts against a plain-list model
   (oldest first, lifetime drop tally). Every observer is compared
   after every step. [Push_many n] pushes n consecutive values in one
   step so a script can wrap even the 1000-slot ring. Storage grows
   16 -> 32 -> ... -> cap, and a ring only wraps once full, so the
   hazards are: wrapping right after the last growth step (cap 17),
   and refilling past the grown size after a [Clear] (the array is
   kept, the start index reset). *)
type ring_op = Push | Push_many of int | Clear

type model = { items : int list; m_dropped : int }

let model_push cap m x =
  if cap = 0 then { m with m_dropped = m.m_dropped + 1 }
  else if List.length m.items < cap then { m with items = m.items @ [ x ] }
  else { items = List.tl m.items @ [ x ]; m_dropped = m.m_dropped + 1 }

let ring_agrees_with_model (cap, ops) =
  let r = Ring.create ~cap in
  let next = ref 0 in
  let push m =
    incr next;
    Ring.push r !next;
    model_push cap m !next
  in
  let agrees m =
    let iterated = ref [] in
    Ring.iter r (fun x -> iterated := x :: !iterated);
    Ring.to_list r = m.items
    && List.rev !iterated = m.items
    && Ring.fold r ~init:[] ~f:(fun acc x -> x :: acc) = List.rev m.items
    && Ring.length r = List.length m.items
    && Ring.is_empty r = (m.items = [])
    && Ring.dropped r = m.m_dropped
    && Ring.capacity r = cap
  in
  let step (ok, m) op =
    if not ok then (ok, m)
    else
      let m =
        match op with
        | Push -> push m
        | Push_many n ->
          let m = ref m in
          for _ = 1 to n do
            m := push !m
          done;
          !m
        | Clear ->
          Ring.clear r;
          { m with items = [] }
      in
      (agrees m, m)
  in
  fst (List.fold_left step (true, { items = []; m_dropped = 0 }) ops)

let ring_script_arb =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (12, return Push);
          (2, map (fun n -> Push_many n) (int_range 1 40));
          (1, map (fun n -> Push_many n) (int_range 900 1100));
          (2, return Clear);
        ])
  in
  let print_op = function
    | Push -> "P"
    | Push_many n -> Printf.sprintf "P%d" n
    | Clear -> "C"
  in
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil list)
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d %s" cap (String.concat ";" (List.map print_op ops)))
    QCheck.Gen.(
      pair (oneofl [ 0; 1; 2; 17; 1000 ]) (list_size (int_range 1 60) op_gen))

let prop_ring_model =
  QCheck.Test.make ~count:300 ~name:"ring matches a list model" ring_script_arb
    ring_agrees_with_model

(* The hazards the generator reaches only by chance, pinned. *)
let test_ring_model_directed () =
  List.iter
    (fun ((cap, ops) as script) ->
      Alcotest.(check bool)
        (Printf.sprintf "cap %d, %d ops" cap (List.length ops))
        true
        (ring_agrees_with_model script))
    [
      (* grow 16 -> 17, then wrap *)
      (17, [ Push_many 16; Push; Push_many 5; Clear; Push_many 20 ]);
      (* grow twice, clear, refill past the grown size, then wrap *)
      (1000, [ Push_many 40; Clear; Push_many 100; Push_many 1000 ]);
      (* wrap, clear, wrap again: the drop tally accumulates *)
      (2, [ Push_many 5; Clear; Push; Push_many 3 ]);
      (1, [ Push; Push; Clear; Clear; Push ]);
      (0, [ Push_many 3; Clear; Push ]);
    ]

(* ----- ring memory bounds ----- *)

(* Storage follows the entries held: a 1M-capacity ring holding ten
   ints is its record plus a 16-slot array (23 words), not 1M words. *)
let test_ring_memory_follows_entries () =
  let r = Ring.create ~cap:1_000_000 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool)
    (Printf.sprintf "10 entries under 1000 words (got %d)" words)
    true (words < 1_000)

(* ----- trace masks ----- *)

let test_trace_mask_gating () =
  let tr = Trace.create () in
  List.iter
    (fun c -> Alcotest.(check bool) "disabled" false (Trace.on tr c))
    Trace.categories;
  Trace.enable tr ~mask:(Trace.cat_bit Trace.Sched);
  Alcotest.(check bool) "sched on" true (Trace.on tr Trace.Sched);
  Alcotest.(check bool) "gang off" false (Trace.on tr Trace.Gang);
  (* Call-site discipline: emit only under the guard, so a masked
     category contributes no entries. *)
  let emit_guarded cat ev =
    if Trace.on tr cat then Trace.emit tr ~now:10 ev
  in
  emit_guarded Trace.Sched (Trace.Sched_idle { pcpu = 0 });
  emit_guarded Trace.Gang (Trace.Gang_ack { domain = 1; pcpu = 0 });
  Alcotest.(check int) "only sched recorded" 1 (Trace.length tr)

let test_mask_of_string () =
  (match Trace.mask_of_string "all" with
  | Ok m -> Alcotest.(check int) "all" Trace.all_mask m
  | Error e -> Alcotest.fail e);
  (match Trace.mask_of_string "sched,gang" with
  | Ok m ->
    Alcotest.(check int) "two cats"
      (Trace.cat_bit Trace.Sched lor Trace.cat_bit Trace.Gang)
      m
  | Error e -> Alcotest.fail e);
  match Trace.mask_of_string "sched,bogus" with
  | Ok _ -> Alcotest.fail "accepted unknown category"
  | Error _ -> ()

(* ----- exporters ----- *)

let sample_trace () =
  let tr = Trace.create () in
  Trace.enable tr ~mask:Trace.all_mask;
  Trace.emit tr ~now:0 (Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 });
  Trace.emit tr ~now:0 (Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 });
  Trace.emit tr ~now:500 (Trace.Credit_account { vcpu = 0; domain = 1; credit = 90; burned = 10 });
  Trace.emit tr ~now:900 (Trace.Gang_launch { domain = 1; pcpu = 0; ipis = 3; retry = false });
  Trace.emit tr ~now:1_000 (Trace.Sched_idle { pcpu = 1 });
  Trace.emit tr ~now:1_200
    (Trace.Spin_overthreshold { domain = 1; vcpu = 0; lock_id = 7; wait = 400; holder = 1 });
  Trace.emit tr ~now:1_500 (Trace.Sched_block { pcpu = 0; vcpu = 0; domain = 1 });
  tr

let test_chrome_json_well_formed () =
  let tr = sample_trace () in
  let doc =
    Trace.to_chrome_json ~vm_names:[ (1, "V1") ] ~freq_hz:2_330_000_000
      ~pcpus:2 tr
  in
  (match Sim_obs.Json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome export: " ^ e));
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true
    (contains ~needle:"traceEvents" doc)

let test_jsonl_and_csv () =
  let tr = sample_trace () in
  let csv = Trace.to_csv tr in
  Alcotest.(check int) "csv rows = events + header" (Trace.length tr + 1)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  String.split_on_char '\n' (Trace.to_jsonl tr)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Sim_obs.Json.validate line with
         | Ok () -> ()
         | Error e -> Alcotest.fail (Printf.sprintf "jsonl %S: %s" line e))

(* ----- metrics snapshot determinism across worker counts ----- *)

let snapshot_of_seed seed =
  let config =
    Config.with_seed (Config.with_scale Config.default 0.02) (Int64.of_int seed)
  in
  let workload =
    Sim_workloads.Nas.workload
      (Sim_workloads.Nas.params Sim_workloads.Nas.LU ~freq:(Config.freq config)
         ~scale:0.02)
  in
  let scenario =
    Scenario.build config ~sched:Config.Asman
      ~vms:
        [ { Scenario.vm_name = "V1"; weight = 256; vcpus = 4;
            workload = Some workload } ]
  in
  let (_ : Runner.metrics) = Runner.run_window scenario ~sec:0.05 in
  Metrics.to_text (Metrics.snapshot (Sim_vmm.Vmm.metrics scenario.Scenario.vmm))

let test_snapshot_determinism_across_jobs () =
  let seeds = [ 3; 4; 5; 6 ] in
  let sequential = Pool.map ~jobs:1 snapshot_of_seed seeds in
  let parallel = Pool.map ~jobs:4 snapshot_of_seed seeds in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d identical at -j1 and -j4" (List.nth seeds i))
        a b)
    (List.combine sequential parallel)

(* ----- LHP classification golden test ----- *)

(* Waiter (vcpu 0) runs on pcpu 0 throughout; holder (vcpu 1) runs on
   pcpu 1 but is descheduled during [100, 200]. The first wait spans
   [50, 300] and overlaps the gap for 100 cycles (40% >> 10%):
   preempted-holder. The second spans [290, 320] while the holder is
   back on-CPU: contended. *)
let lhp_entries =
  [
    { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 } };
    { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
    { Trace.at = 100; ev = Trace.Sched_idle { pcpu = 1 } };
    { Trace.at = 200; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
    {
      Trace.at = 300;
      ev =
        Trace.Spin_overthreshold
          { domain = 1; vcpu = 0; lock_id = 7; wait = 250; holder = 1 };
    };
    {
      Trace.at = 320;
      ev =
        Trace.Spin_overthreshold
          { domain = 1; vcpu = 0; lock_id = 8; wait = 30; holder = 1 };
    };
  ]

let test_lhp_classification () =
  let timeline = Sim_obs.Timeline.of_entries ~pcpus:2 lhp_entries in
  let report = Sim_obs.Lhp.classify ~timeline lhp_entries in
  Alcotest.(check int) "total" 2 report.Sim_obs.Lhp.total;
  Alcotest.(check int) "preempted" 1 report.Sim_obs.Lhp.preempted;
  Alcotest.(check int) "contended" 1 report.Sim_obs.Lhp.contended;
  Alcotest.(check (float 1e-9)) "share" 0.5 report.Sim_obs.Lhp.preempted_share;
  match report.Sim_obs.Lhp.by_domain with
  | [ (1, 1, 1) ] -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "by_domain: %s"
         (String.concat ";"
            (List.map (fun (d, p, c) -> Printf.sprintf "(%d,%d,%d)" d p c) other)))

let test_lhp_unknown_holder_uses_sibling () =
  (* Same timeline, but the wait does not know its holder (-1): the
     most-descheduled sibling VCPU of domain 1 (vcpu 1, off 100 of
     250 cycles) stands in, so it still classifies preempted. *)
  let entries =
    [
      { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 0; vcpu = 0; domain = 1 } };
      { Trace.at = 0; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
      { Trace.at = 100; ev = Trace.Sched_idle { pcpu = 1 } };
      { Trace.at = 200; ev = Trace.Sched_switch { pcpu = 1; vcpu = 1; domain = 1 } };
      {
        Trace.at = 300;
        ev =
          Trace.Spin_overthreshold
            { domain = 1; vcpu = 0; lock_id = 9; wait = 250; holder = -1 };
      };
    ]
  in
  let timeline = Sim_obs.Timeline.of_entries ~pcpus:2 entries in
  let report = Sim_obs.Lhp.classify ~timeline entries in
  Alcotest.(check int) "preempted via sibling" 1 report.Sim_obs.Lhp.preempted

(* ----- monitor trace ring regression ----- *)

let make_monitor ?trace_cap () =
  let engine = Sim_engine.Engine.create ~seed:2L () in
  let machine =
    Sim_hw.Machine.create engine Config.default.Config.cpu
      Config.default.Config.topology
  in
  let vmm = Sim_vmm.Vmm.create machine ~sched:Sim_vmm.Sched_credit.make in
  let domain = Sim_vmm.Vmm.create_domain vmm ~name:"V" ~weight:256 ~vcpus:2 () in
  let hypercall = Sim_vmm.Hypercall.create vmm in
  let defaults =
    Sim_guest.Monitor.default_params
      ~slot_cycles:(Sim_hw.Cpu_model.slot_cycles Config.default.Config.cpu)
  in
  let params =
    {
      defaults with
      Sim_guest.Monitor.trace_cap =
        Option.value trace_cap ~default:defaults.Sim_guest.Monitor.trace_cap;
    }
  in
  Sim_guest.Monitor.create params ~engine ~hypercall ~domain
    ~rng:(Sim_engine.Rng.create 3L)

let test_monitor_trace_drop_accounting () =
  let monitor = make_monitor ~trace_cap:3 () in
  (* Waits above the trace threshold (2^10) but below the adjusting
     threshold (2^20). Exactly at capacity: nothing dropped. *)
  for i = 1 to 3 do
    Sim_guest.Monitor.record_spin_wait monitor ~lock_id:i ~wait:(2_000 + i)
  done;
  Alcotest.(check int) "at capacity" 3
    (List.length (Sim_guest.Monitor.trace monitor));
  Alcotest.(check int) "no drops at boundary" 0
    (Sim_guest.Monitor.trace_dropped monitor);
  (* One past capacity: oldest overwritten, drop counted. *)
  Sim_guest.Monitor.record_spin_wait monitor ~lock_id:4 ~wait:2_004;
  let entries = Sim_guest.Monitor.trace monitor in
  Alcotest.(check int) "still capped" 3 (List.length entries);
  Alcotest.(check int) "one drop" 1 (Sim_guest.Monitor.trace_dropped monitor);
  Alcotest.(check (list int)) "newest three survive" [ 2; 3; 4 ]
    (List.map (fun (e : Sim_guest.Monitor.trace_entry) -> e.Sim_guest.Monitor.lock_id) entries);
  Sim_guest.Monitor.reset_window monitor;
  Alcotest.(check int) "window reset clears trace" 0
    (List.length (Sim_guest.Monitor.trace monitor));
  Alcotest.(check int) "drop tally survives reset" 1
    (Sim_guest.Monitor.trace_dropped monitor)

(* One recorded wait must not allocate the trace's capacity: with the
   default 1M-entry cap, the monitor (and everything it reaches: the
   engine, VMM and machine) grows by the entry plus a 16-slot array,
   21 words. *)
let test_monitor_memory_after_one_wait () =
  let monitor = make_monitor () in
  let before = Obj.reachable_words (Obj.repr monitor) in
  Sim_guest.Monitor.record_spin_wait monitor ~lock_id:1 ~wait:(1 lsl 11);
  let grown = Obj.reachable_words (Obj.repr monitor) - before in
  Alcotest.(check int) "wait traced" 1
    (List.length (Sim_guest.Monitor.trace monitor));
  Alcotest.(check bool)
    (Printf.sprintf "one wait costs under 1000 words (got %d)" grown)
    true (grown < 1_000)

(* ----- metrics registry basics ----- *)

let test_metrics_diff_and_lookup () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~subsystem:"test" ~name:"hits" () in
  let g = ref 7 in
  Metrics.gauge m ~subsystem:"test" ~name:"depth" (fun () -> !g);
  let per_vm = Metrics.counter m ~subsystem:"test" ~vm:"V1" ~name:"hits" () in
  Metrics.incr c;
  Metrics.incr c ~by:4;
  let base = Metrics.snapshot m in
  Metrics.incr c ~by:10;
  Metrics.incr per_vm ~by:2;
  g := 9;
  let d = Metrics.diff ~base (Metrics.snapshot m) in
  Alcotest.(check int) "counter diffed" 10
    (Metrics.get d ~subsystem:"test" ~name:"hits" ());
  Alcotest.(check int) "gauge diffed" 2
    (Metrics.get d ~subsystem:"test" ~name:"depth" ());
  Alcotest.(check int) "vm label distinct" 2
    (Metrics.get d ~subsystem:"test" ~vm:"V1" ~name:"hits" ());
  Alcotest.(check int) "absent key is 0" 0
    (Metrics.get d ~subsystem:"test" ~name:"missing" ());
  match Sim_obs.Json.validate (Metrics.to_json (Metrics.snapshot m)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("metrics json: " ^ e)

let suite =
  [
    Alcotest.test_case "ring wrap and drop accounting" `Quick
      test_ring_wrap_and_drop;
    Alcotest.test_case "zero-capacity ring" `Quick test_ring_zero_cap;
    QCheck_alcotest.to_alcotest prop_ring_model;
    Alcotest.test_case "ring model: directed growth and wrap scripts" `Quick
      test_ring_model_directed;
    Alcotest.test_case "ring memory follows entries, not capacity" `Quick
      test_ring_memory_follows_entries;
    Alcotest.test_case "trace mask gates emission" `Quick
      test_trace_mask_gating;
    Alcotest.test_case "category mask parsing" `Quick test_mask_of_string;
    Alcotest.test_case "chrome export is valid JSON" `Quick
      test_chrome_json_well_formed;
    Alcotest.test_case "csv/jsonl exports" `Quick test_jsonl_and_csv;
    Alcotest.test_case "metrics snapshots identical at -j1 and -j4" `Slow
      test_snapshot_determinism_across_jobs;
    Alcotest.test_case "LHP golden classification" `Quick
      test_lhp_classification;
    Alcotest.test_case "LHP sibling heuristic for unknown holder" `Quick
      test_lhp_unknown_holder_uses_sibling;
    Alcotest.test_case "monitor trace ring drop accounting" `Quick
      test_monitor_trace_drop_accounting;
    Alcotest.test_case "monitor memory after one traced wait" `Quick
      test_monitor_memory_after_one_wait;
    Alcotest.test_case "metrics diff and lookup" `Quick
      test_metrics_diff_and_lookup;
  ]
