(* The benchmark's own tests: seeded inputs, span self-time
   arithmetic, the output check, and BENCHMARK.json against the
   catalogue. *)

open Perfbench

let inputs () =
  let trace = Workloads.fleet_trace and cases ~seed = Workloads.fuzz_run_seeds ~seed 20 in
  Alcotest.(check bool) "same seed, same trace" true (trace ~seed:7 = trace ~seed:7);
  Alcotest.(check (list int64)) "same seed, same case seeds" (cases ~seed:7) (cases ~seed:7);
  Alcotest.(check bool) "other seed, other trace" false (trace ~seed:7 = trace ~seed:8);
  Alcotest.(check bool) "other seed, other case seeds" false (cases ~seed:7 = cases ~seed:8);
  let specs ~seed = List.map Workloads.fuzz_spec (cases ~seed) in
  Alcotest.(check bool) "same seed, same specs" true (specs ~seed:7 = specs ~seed:7);
  Alcotest.(check int) "trace length" (Workloads.fleet_hosts * Workloads.fleet_vms_per_host)
    (List.length (trace ~seed:7))

(* root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, as
   parallel workers' spans do) and c [9, 12] (clipped to the root);
   a has a child d [2, 3]. *)
let self_time () =
  let t = Span.create ~run_id:"test" in
  let add ?parent id name start stop = Span.add t ?parent ~id name ~start ~stop in
  add 0 "root" 0. 10.;
  add ~parent:0 1 "a" 1. 4.;
  add ~parent:0 2 "b" 3. 6.;
  add ~parent:0 3 "c" 9. 12.;
  add ~parent:1 4 "d" 2. 3.;
  let self = Span.self_by_name (Span.spans t) in
  let get n = List.assoc n self in
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "root: 10 - |[1,6] u [9,10]|" 4. (get "root");
  Alcotest.check close "a: 3 - 1" 2. (get "a");
  Alcotest.check close "b: leaf" 3. (get "b");
  Alcotest.check close "c: leaf" 3. (get "c");
  Alcotest.check close "d: leaf" 1. (get "d");
  Alcotest.check close "total by name" 3. (Span.total_by_name (Span.spans t) "a");
  match Sim_obs.Json.validate (Span.to_chrome_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome trace JSON: " ^ e)

let output_check () =
  let op key digest = { Outcheck.key; digest; ok = true } in
  let ops = [ op "fig1a" "aa"; op "fig7" "bb"; op "fig10" "cc" ] in
  let reference =
    Outcheck.parse_reference
      (String.concat "\n" ("# comment" :: Outcheck.reference_lines ~workload:"figures" ~seed:1 ops))
  in
  let judge ops = Outcheck.judge reference ~workload:"figures" ~seed:1 ops in
  let clean = judge ops in
  Alcotest.(check int) "clean run" 0 clean.Outcheck.failed;
  let perturbed = judge [ op "fig1a" "aa"; op "fig7" "bX"; op "fig10" "cc" ] in
  Alcotest.(check int) "perturbed digest fails" 1 perturbed.Outcheck.failed;
  Alcotest.(check (float 1e-9)) "fail ratio" (1. /. 3.) (Outcheck.fail_ratio perturbed);
  let missing = judge [ op "fig1a" "aa"; op "fig7" "bb" ] in
  Alcotest.(check int) "missing op fails" 1 missing.Outcheck.failed;
  let other_seed =
    Outcheck.judge reference ~workload:"figures" ~seed:2
      [ op "fig7" "zz"; { (op "fig10" "cc") with Outcheck.ok = false } ]
  in
  Alcotest.(check int) "other seed: semantic checks only" 1 other_seed.Outcheck.failed

let benchmark_json () =
  let committed = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  Alcotest.(check string) "BENCHMARK.json matches the catalogue" (Catalogue.benchmark_json ())
    committed

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "inputs are a function of the seed" `Quick inputs;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "output check counts a perturbed digest" `Quick output_check;
          Alcotest.test_case "BENCHMARK.json is the catalogue" `Quick benchmark_json;
        ] );
    ]
