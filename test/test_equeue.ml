(* Differential tests: the timing-wheel event queue against the
   binary-heap oracle. Both backends must produce the exact same
   (time, seq) pop sequence for any schedule/cancel script, and whole
   simulations must be bit-identical across backends. *)

open Sim_engine

(* ----- script interpreter -----

   A script is a list of operations driven against one backend; we
   record the (time, tag) sequence of fired events and compare across
   backends. Operations reference previously returned handles by
   index, so the same script is replayable on either backend. *)

type op =
  | Schedule of int (* delay from current time *)
  | Cancel of int (* cancel the [i mod live]-th outstanding handle *)
  | Pop
  | Pop_until of int (* pop with limit = now + delta *)

let run_script kind ops =
  let q = Equeue.create kind in
  let handles = ref [] in
  let fired = ref [] in
  let now = ref 0 in
  let tag = ref 0 in
  let pop ?limit () =
    match Equeue.pop ?limit q with
    | Equeue.Event (time, action) ->
      now := time;
      action ()
    | Equeue.Beyond -> (match limit with Some l -> now := max !now l | None -> ())
    | Equeue.Empty -> ()
  in
  List.iter
    (fun op ->
      match op with
      | Schedule delay ->
        let id = !tag in
        incr tag;
        let h =
          Equeue.schedule q ~time:(!now + delay) (fun () ->
              fired := (!now, id) :: !fired)
        in
        handles := h :: !handles
      | Cancel i -> begin
        match !handles with
        | [] -> ()
        | hs ->
          let h = List.nth hs (i mod List.length hs) in
          ignore (Equeue.cancel q h)
      end
      | Pop -> pop ()
      | Pop_until delta -> pop ~limit:(!now + delta) ())
    ops;
  (* Drain the queue to the end. *)
  let rec drain () =
    match Equeue.pop q with
    | Equeue.Event (time, action) ->
      now := time;
      action ();
      drain ()
    | Equeue.Beyond | Equeue.Empty -> ()
  in
  drain ();
  List.rev !fired

let check_script ops =
  let wheel = run_script Equeue.Wheel_queue ops in
  let heap = run_script Equeue.Heap_queue ops in
  wheel = heap

(* Delays that stress every region of the wheel: same-instant bursts
   (0), level-0 (< 2^20), each higher level, and far-future beyond
   the 2^38 window. *)
let delay_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (4, int_range 1 4096);
        (4, int_range 4096 (1 lsl 20));
        (3, int_range (1 lsl 20) (1 lsl 26));
        (2, int_range (1 lsl 26) (1 lsl 32));
        (1, int_range (1 lsl 32) (1 lsl 38));
        (1, int_range (1 lsl 38) (1 lsl 40));
      ])

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Schedule d) delay_gen);
        (2, map (fun i -> Cancel i) (int_bound 1000));
        (3, return Pop);
        (2, map (fun d -> Pop_until d) delay_gen);
      ])

let shrink_op op =
  match op with
  | Schedule d -> QCheck.Iter.map (fun d -> Schedule d) (QCheck.Shrink.int d)
  | Cancel i -> QCheck.Iter.map (fun i -> Cancel i) (QCheck.Shrink.int i)
  | Pop -> QCheck.Iter.empty
  | Pop_until d -> QCheck.Iter.map (fun d -> Pop_until d) (QCheck.Shrink.int d)

let script_arb =
  QCheck.make
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Schedule d -> Printf.sprintf "S%d" d
             | Cancel i -> Printf.sprintf "C%d" i
             | Pop -> "P"
             | Pop_until d -> Printf.sprintf "U%d" d)
           ops))
    QCheck.Gen.(list_size (int_range 1 200) op_gen)

let prop_backends_agree =
  QCheck.Test.make ~count:300 ~name:"wheel and heap pop sequences agree"
    script_arb check_script

(* Directed scripts for the hand-picked hazards. *)
let test_same_time_burst () =
  let ops = List.init 50 (fun _ -> Schedule 100) @ [ Pop; Pop; Schedule 0 ] in
  Alcotest.(check bool) "burst" true (check_script ops)

let test_far_future () =
  let ops =
    [
      Schedule (1 lsl 39);
      Schedule 10;
      Pop;
      Schedule ((1 lsl 39) + 5);
      Pop;
      Schedule 1;
      Pop;
      Pop;
    ]
  in
  Alcotest.(check bool) "far future" true (check_script ops)

let test_cancel_everywhere () =
  let ops =
    [
      Schedule 10;
      Schedule (1 lsl 21);
      Schedule (1 lsl 30);
      Schedule (1 lsl 39);
      Cancel 0;
      Cancel 1;
      Cancel 2;
      Cancel 3;
      Schedule 5;
      Pop;
    ]
  in
  Alcotest.(check bool) "cancel everywhere" true (check_script ops)

(* ----- the fused drain loop under cancellation -----

   [Equeue.drain] pops without materialising [pop_result] blocks, so
   it has its own unlink/recycle path; cancelling events from inside
   the drained window — including events later in the *same* window —
   must leave both backends with identical fire sequences and queue
   contents. *)

(* Directed: a drain whose actions cancel later same-window events,
   re-cancel already-fired ones (stale, must be [false]), and schedule
   new events both inside and beyond the limit. *)
let drain_cancel_trace kind =
  let q = Equeue.create kind in
  let fired = ref [] in
  let n = 24 in
  let handles = Array.make n (-1) in
  for i = 0 to n - 1 do
    (* pairs share fire times, so cancellation also crosses seq
       tie-breaks *)
    handles.(i) <-
      Equeue.schedule q
        ~time:(10 * (i / 2))
        (fun () ->
          fired := i :: !fired;
          (* cancel an event later in the same drained window *)
          if i mod 3 = 0 && i + 5 < n then
            ignore (Equeue.cancel q handles.(i + 5));
          (* stale: this very event is firing, cancel must refuse *)
          if Equeue.cancel q handles.(i) then fired := -1 :: !fired;
          (* grow the window from inside the drain... *)
          if i = 4 then
            ignore
              (Equeue.schedule q ~time:95 (fun () -> fired := 100 :: !fired));
          (* ...and schedule beyond it, to be left queued *)
          if i = 6 then
            ignore (Equeue.schedule q ~time:5000 (fun () -> ())))
  done;
  Equeue.drain q ~limit:100 (fun _time action -> action ());
  (List.rev !fired, Equeue.length q)

let test_drain_cancel_directed () =
  let wheel = drain_cancel_trace Equeue.Wheel_queue in
  let heap = drain_cancel_trace Equeue.Heap_queue in
  Alcotest.(check (pair (list int) int))
    "drain/cancel trace agrees with heap oracle" heap wheel;
  (* the cancellations actually bit: cancelled indices are absent *)
  let fired, leftover = wheel in
  Alcotest.(check bool) "i=5 cancelled by i=0" false (List.mem 5 fired);
  Alcotest.(check bool) "i=11 cancelled by i=6" false (List.mem 11 fired);
  Alcotest.(check bool) "no stale cancel succeeded" false (List.mem (-1) fired);
  Alcotest.(check bool) "in-window growth fired" true (List.mem 100 fired);
  Alcotest.(check int) "beyond-limit events left queued" 2 leftover

(* Seeded interleavings of drain and cancel: every action flips a
   coin per outstanding handle; both backends must agree event for
   event. Deterministic per seed — no QCheck shrinking needed, a
   failing seed is the repro. *)
let drain_cancel_seeded seed kind =
  let rng = Rng.create (Int64.of_int seed) in
  let q = Equeue.create kind in
  let fired = ref [] in
  let handles = ref [] in
  let tag = ref 0 in
  let rec spawn time =
    let id = !tag in
    incr tag;
    if id < 400 then begin
      let h =
        Equeue.schedule q ~time (fun () ->
            fired := (time, id) :: !fired;
            List.iter
              (fun h -> if Rng.int rng 8 = 0 then ignore (Equeue.cancel q h))
              !handles;
            if Rng.int rng 3 = 0 then
              spawn (time + Rng.int_in rng ~lo:0 ~hi:300))
      in
      handles := h :: !handles
    end
  in
  for _ = 1 to 60 do
    spawn (Rng.int_in rng ~lo:0 ~hi:900)
  done;
  Equeue.drain q ~limit:600 (fun _time action -> action ());
  let rest = ref [] in
  let rec pop_all () =
    match Equeue.pop q with
    | Equeue.Event (time, action) ->
      rest := time :: !rest;
      action ();
      pop_all ()
    | Equeue.Beyond | Equeue.Empty -> ()
  in
  pop_all ();
  (List.rev !fired, List.rev !rest)

let test_drain_cancel_seeded () =
  for seed = 1 to 20 do
    let wheel = drain_cancel_seeded seed Equeue.Wheel_queue in
    let heap = drain_cancel_seeded seed Equeue.Heap_queue in
    if wheel <> heap then
      Alcotest.failf "drain/cancel seed %d: wheel and heap disagree" seed
  done

(* ----- the front slot against a sorted-list model -----

   Every observable of the queue — pop results under a limit, drained
   sequences, next_time, is_pending, fire_time, cancel results and the
   live length — is checked after every operation against a plain list
   of pending events ordered by (time, seq). Event ids are issued in
   schedule order, so (time, id) order is (time, seq) order. Handles
   are kept for every event ever scheduled, so later operations hit
   stale handles whose slots (front slot included) were recycled. *)

type mop =
  | M_schedule of int (* delay from the current time *)
  | M_cancel of int (* [i mod issued]-th handle ever issued; may be stale *)
  | M_cancel_min (* the live minimum: the front-slot event when it is full *)
  | M_pop
  | M_pop_until of int
  | M_drain of int
  | M_next_time
  | M_is_pending of int
  | M_fire_time of int

let model_run kind ops =
  let q = Equeue.create kind in
  let now = ref 0 in
  let handles = ref [||] in
  let pending = ref [] in
  let fired = ref (-1) in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let model_min () =
    List.fold_left
      (fun acc e -> match acc with Some m when m <= e -> acc | _ -> Some e)
      None !pending
  in
  let remove id = pending := List.filter (fun (_, i) -> i <> id) !pending in
  let handle i =
    let n = Array.length !handles in
    if n = 0 then None else Some (i mod n, !handles.(i mod n))
  in
  let pop limit =
    let expected =
      match model_min () with
      | None -> `Empty
      | Some (time, _) when time > limit -> `Beyond
      | Some e -> `Event e
    in
    let limit_opt = if limit = max_int then None else Some limit in
    match (Equeue.pop ?limit:limit_opt q, expected) with
    | Equeue.Event (time, action), `Event (t, id) ->
      fired := -1;
      action ();
      expect (time = t && !fired = id);
      remove id;
      now := time
    | Equeue.Beyond, `Beyond -> now := max !now limit
    | Equeue.Empty, `Empty -> ()
    | _ -> ok := false
  in
  let step op =
    match op with
    | M_schedule delay ->
      let id = Array.length !handles in
      let time = !now + delay in
      let h = Equeue.schedule q ~time (fun () -> fired := id) in
      handles := Array.append !handles [| h |];
      pending := (time, id) :: !pending
    | M_cancel i -> (
      match handle i with
      | None -> ()
      | Some (id, h) ->
        expect (Equeue.cancel q h = List.exists (fun (_, j) -> j = id) !pending);
        remove id)
    | M_cancel_min -> (
      match model_min () with
      | None -> ()
      | Some (_, id) ->
        expect (Equeue.cancel q !handles.(id));
        remove id)
    | M_pop -> pop max_int
    | M_pop_until d -> pop (!now + d)
    | M_drain d ->
      let limit = !now + d in
      let expected =
        List.sort compare (List.filter (fun (t, _) -> t <= limit) !pending)
      in
      let got = ref [] in
      Equeue.drain q ~limit (fun time action ->
          fired := -1;
          action ();
          got := (time, !fired) :: !got);
      expect (List.rev !got = expected);
      List.iter (fun (_, id) -> remove id) expected;
      List.iter (fun (t, _) -> now := t) expected
    | M_next_time ->
      expect (Equeue.next_time q = Option.map fst (model_min ()))
    | M_is_pending i -> (
      match handle i with
      | None -> ()
      | Some (id, h) ->
        expect
          (Equeue.is_pending q h = List.exists (fun (_, j) -> j = id) !pending))
    | M_fire_time i -> (
      match handle i with
      | None -> ()
      | Some (id, h) -> (
        match
          (List.find_opt (fun (_, j) -> j = id) !pending, Equeue.fire_time q h)
        with
        | Some (t, _), time -> expect (time = t)
        | None, _ -> ok := false
        | exception Invalid_argument _ ->
          expect (not (List.exists (fun (_, j) -> j = id) !pending))))
  in
  List.iter
    (fun op ->
      step op;
      expect (Equeue.length q = List.length !pending))
    ops;
  while !pending <> [] && !ok do
    pop max_int
  done;
  expect (Equeue.is_empty q && Equeue.pop q = Equeue.Empty);
  !ok

let check_model ops =
  model_run Equeue.Wheel_queue ops && model_run Equeue.Heap_queue ops

(* Mostly short delays, so same-instant ties and front-slot contests
   are common; the rarer long ones reach wheel levels 1 and 2. Longer
   delays are left to the backend differential above: the wheel walks
   its cursor to them one 2^16-cycle window at a time, which costs
   seconds per 300 scripts. *)
let model_delay_gen =
  QCheck.Gen.(
    frequency
      [
        (4, return 0);
        (6, int_range 1 64);
        (4, int_range 64 (1 lsl 16));
        (2, int_range (1 lsl 16) (1 lsl 24));
      ])

let mop_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun d -> M_schedule d) model_delay_gen);
        (2, map (fun i -> M_cancel i) (int_bound 1000));
        (2, return M_cancel_min);
        (4, return M_pop);
        (2, map (fun d -> M_pop_until d) model_delay_gen);
        (1, map (fun d -> M_drain d) model_delay_gen);
        (1, return M_next_time);
        (2, map (fun i -> M_is_pending i) (int_bound 1000));
        (2, map (fun i -> M_fire_time i) (int_bound 1000));
      ])

let print_mop = function
  | M_schedule d -> Printf.sprintf "S%d" d
  | M_cancel i -> Printf.sprintf "C%d" i
  | M_cancel_min -> "Cmin"
  | M_pop -> "P"
  | M_pop_until d -> Printf.sprintf "U%d" d
  | M_drain d -> Printf.sprintf "D%d" d
  | M_next_time -> "N"
  | M_is_pending i -> Printf.sprintf "I%d" i
  | M_fire_time i -> Printf.sprintf "F%d" i

let prop_front_slot_model =
  QCheck.Test.make ~count:300 ~name:"front slot matches sorted-list model"
    (QCheck.make
       ~shrink:(QCheck.Shrink.list ~shrink:(fun _ -> QCheck.Iter.empty))
       ~print:(fun ops -> String.concat ";" (List.map print_mop ops))
       QCheck.Gen.(list_size (int_range 1 200) mop_gen))
    check_model

(* Directed front-slot hazards, each run against the model on both
   backends. *)
let test_front_slot_directed () =
  let scripts =
    [
      (* Same-instant ties and zero delays: FIFO by seq. *)
      ("ties", [ M_schedule 5; M_schedule 5; M_schedule 0; M_schedule 0; M_pop;
                 M_schedule 0; M_pop; M_pop; M_pop; M_pop ]);
      (* Demotion: each new event beats the occupant. *)
      ("demotion", [ M_schedule 100; M_schedule 50; M_schedule 10; M_schedule 1;
                     M_next_time; M_pop; M_pop; M_schedule 20; M_pop; M_pop ]);
      (* Cancelling the front-slot event, then refilling the slot. *)
      ("cancel front", [ M_schedule 100; M_schedule 10; M_cancel_min; M_next_time;
                         M_schedule 5; M_cancel 2; M_is_pending 2; M_pop; M_pop ]);
      (* A fired front-slot event's slot is recycled by the next
         schedule: its stale handle must not see the new event. *)
      ("stale front", [ M_schedule 10; M_pop; M_schedule 5; M_is_pending 0;
                        M_fire_time 0; M_cancel 0; M_is_pending 1; M_pop ]);
      (* The cached backend minimum must follow the backend: lowered
         by an insert, refreshed after a cancel at the cached time, and
         set to the demoted event's time on a demotion. *)
      ("insert lowers min", [ M_schedule 100; M_schedule 50; M_schedule 70; M_pop;
                              M_schedule 30; M_pop; M_pop; M_pop ]);
      ("cancel at min", [ M_schedule 100; M_schedule 50; M_cancel 0; M_schedule 60;
                          M_pop; M_schedule 20; M_pop; M_pop ]);
      ("demote stale min", [ M_schedule 100; M_schedule 50; M_cancel 0; M_schedule 20;
                             M_pop; M_schedule 40; M_pop; M_pop ]);
      (* A limit between the front slot and the backend. *)
      ("limits", [ M_schedule 1000; M_schedule 10; M_pop_until 5; M_pop_until 20;
                   M_drain 500; M_drain 600 ]);
    ]
  in
  List.iter
    (fun (name, ops) -> Alcotest.(check bool) name true (check_model ops))
    scripts

(* Periodic chains with jitter, through the Engine API: both backends
   must see identical firing orders and clocks. *)
let engine_trace kind =
  let e = Engine.create ~seed:7L ~queue:kind () in
  let log = ref [] in
  let rng = Engine.rng e in
  let stop1 =
    Engine.periodic e ~start:0 ~period:1000
      ~jitter:(fun () -> Rng.int_in rng ~lo:0 ~hi:64)
      (fun () -> log := (Engine.now e, 1) :: !log)
  in
  let stop2 =
    Engine.periodic e ~start:500 ~period:700 (fun () ->
        log := (Engine.now e, 2) :: !log)
  in
  ignore
    (Engine.schedule_at e ~time:20_000 (fun () ->
         stop1 ();
         stop2 ()));
  Engine.run e;
  (Engine.now e, Engine.events_fired e, List.rev !log)

let test_engine_periodic_identical () =
  let w = engine_trace Engine.Wheel_queue in
  let h = engine_trace Engine.Heap_queue in
  Alcotest.(check bool) "periodic chains identical" true (w = h)

(* Whole-simulation determinism: fig1a outcomes must be identical
   between backends and across worker counts. *)
let test_fig1a_identical_across_backends () =
  let config = Asman.Config.{ default with scale = 0.02; seed = 5L } in
  let exp =
    match Asman.Experiments.find "fig1a" with
    | Some e -> e
    | None -> Alcotest.fail "fig1a not registered"
  in
  let run kind workers =
    Engine.set_default_queue kind;
    Asman.Pool.set_jobs workers;
    let r = exp.Asman.Experiments.run config in
    Engine.set_default_queue Engine.Wheel_queue;
    r
  in
  let base = run Engine.Heap_queue 1 in
  let wheel1 = run Engine.Wheel_queue 1 in
  let wheel4 = run Engine.Wheel_queue 4 in
  let heap4 = run Engine.Heap_queue 4 in
  Alcotest.(check bool) "wheel -j1 = heap -j1" true (wheel1 = base);
  Alcotest.(check bool) "wheel -j4 = heap -j1" true (wheel4 = base);
  Alcotest.(check bool) "heap -j4 = heap -j1" true (heap4 = base)

let suite =
  [
    Alcotest.test_case "same-time burst" `Quick test_same_time_burst;
    Alcotest.test_case "far future" `Quick test_far_future;
    Alcotest.test_case "cancel everywhere" `Quick test_cancel_everywhere;
    Alcotest.test_case "drain/cancel directed" `Quick test_drain_cancel_directed;
    Alcotest.test_case "drain/cancel seeded vs heap oracle" `Quick
      test_drain_cancel_seeded;
    Alcotest.test_case "periodic identical" `Quick test_engine_periodic_identical;
    QCheck_alcotest.to_alcotest prop_backends_agree;
    Alcotest.test_case "front slot directed" `Quick test_front_slot_directed;
    QCheck_alcotest.to_alcotest prop_front_slot_model;
    Alcotest.test_case "fig1a identical across backends" `Slow
      test_fig1a_identical_across_backends;
  ]
