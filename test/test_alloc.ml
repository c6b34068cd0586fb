(* Allocation regression: the single-host hot path (event queue, guest
   instruction dispatch, engine fire loop) must stay cheap per event.
   A 4-VCPU SPECjbb guest is the densest instruction mix the paper
   runs (Fig 10): each transaction is compute, lock / critical section
   / unlock twice, then a mark. *)

open Sim_engine

(* Minor-heap words allocated per fired event over a steady-state
   window of a single-VM SPECjbb run. *)
let specjbb_words_per_event ~sched ~weight =
  let config = Asman.Config.{ default with scale = 0.02; seed = 3L } in
  let config = Asman.Config.with_work_conserving config false in
  let freq = Asman.Config.freq config in
  let workload =
    Sim_workloads.Specjbb.workload ~vcpus:4
      (Sim_workloads.Specjbb.default_params ~freq ~warehouses:6)
  in
  let s =
    Asman.Scenario.build config ~sched
      ~vms:[ Asman.Scenario.vm ~weight ~vcpus:4 ~name:"V1" workload ]
  in
  let e = s.Asman.Scenario.engine in
  Engine.run ~until:(Units.cycles_of_sec_f freq 0.05) e;
  let events0 = Engine.events_fired e in
  let words0 = Gc.minor_words () in
  Engine.run ~until:(Units.cycles_of_sec_f freq 0.15) e;
  let words = Gc.minor_words () -. words0 in
  let events = Engine.events_fired e - events0 in
  if events < 10_000 then Alcotest.failf "only %d events fired" events;
  words /. float_of_int events

(* Measured 8.3 words per event here (25.2 before the event queue's
   front slot and the allocation-free guest dispatch); the bound
   leaves about 1.5x headroom. *)
let bound = 12.

let test_specjbb_words_per_event () =
  List.iter
    (fun (sched, weight) ->
      let w = specjbb_words_per_event ~sched ~weight in
      if w > bound then
        Alcotest.failf "%s weight %d: %.2f minor words per event (bound %.1f)"
          (Asman.Config.sched_name sched) weight w bound)
    [ (Asman.Config.Credit, 64); (Asman.Config.Asman, 64) ]

let suite =
  [
    Alcotest.test_case "specjbb minor words per event" `Quick
      test_specjbb_words_per_event;
  ]
