type queue_kind = Equeue.kind = Wheel_queue | Heap_queue

(* Process-wide default backend: the timing wheel, unless overridden
   by --engine-queue / ASMAN_ENGINE_QUEUE (the binary-heap oracle for
   differential runs). Read once per Engine.create. *)
let env_queue () =
  match Sys.getenv_opt "ASMAN_ENGINE_QUEUE" with
  | None -> None
  | Some s -> Equeue.kind_of_name (String.trim s)

let default_queue_ref : queue_kind option ref = ref None

let set_default_queue k = default_queue_ref := Some k

let default_queue () =
  match !default_queue_ref with
  | Some k -> k
  | None -> ( match env_queue () with Some k -> k | None -> Wheel_queue)

(* Coupled-mode sharding ledger (--sim-jobs N on a scenario).

   The VMM's scheduler state is global — work stealing scans every
   runqueue with zero latency and credit accounting is host-wide — so
   a scenario cannot yet run on truly partitioned queues without
   changing scheduler-visible outcomes. Arming the ledger keeps the
   single exact (time, seq) execution order (outcomes are byte-
   identical to the unarmed engine by construction) while attributing
   every fired event to the shard of the PCPU it runs on, enforcing
   the conservative-window bookkeeping (window count at the lookahead
   granularity), and measuring the coupling that blocks partitioned
   execution: cross-shard events scheduled closer than the lookahead,
   plus zero-latency remote-state touches (steals, relocations). The
   [Shard] module is the decoupled engine those counters qualify
   workloads for. *)
type sharding = {
  sh_lookahead : int;
  sh_shard_of_pcpu : int array;
  sh_nshards : int;
  (* Shard of the event currently executing; events scheduled while it
     runs inherit it unless tagged with ?shard. *)
  mutable sh_cur : int;
  sh_clock : int array;
  sh_fired : int array;
  sh_fp : int array;
  mutable sh_cross : int;  (* cross-shard, >= lookahead ahead: mailable *)
  mutable sh_coupled : int;  (* cross-shard, < lookahead: couplings *)
  mutable sh_windows : int;
  mutable sh_horizon : int;
}

type shard_report = {
  r_shards : int;
  r_lookahead : int;
  r_windows : int;
  r_cross : int;
  r_coupled : int;
  r_events : int array;
}

type t = {
  mutable clock : int;
  queue : Equeue.t;
  mutable stop : bool;
  mutable fired_count : int;
  (* Order-sensitive rolling hash of fire times: the per-member stream
     fingerprint the decoupled fabric's worker-count-invariance gate
     reads. One multiply-add per fired event. *)
  mutable stream_fp : int;
  root_rng : Rng.t;
  trace : Sim_obs.Trace.t;
  mutable sharding : sharding option;
}

type handle = Equeue.handle

let create ?(seed = 1L) ?queue () =
  let kind = match queue with Some k -> k | None -> default_queue () in
  {
    clock = 0;
    queue = Equeue.create kind;
    stop = false;
    fired_count = 0;
    stream_fp = 0;
    root_rng = Rng.create seed;
    trace = Sim_obs.Trace.create ();
    sharding = None;
  }

let queue_kind t = Equeue.kind t.queue

let now t = t.clock

let trace t = t.trace

let rng t = t.root_rng

let arm_sharding t ~lookahead ~shard_of_pcpu =
  if t.sharding <> None then invalid_arg "Engine.arm_sharding: already armed";
  if Equeue.length t.queue > 0 || t.clock > 0 then
    invalid_arg "Engine.arm_sharding: engine already in use";
  if lookahead < 1 then invalid_arg "Engine.arm_sharding: lookahead < 1";
  if Array.length shard_of_pcpu = 0 then
    invalid_arg "Engine.arm_sharding: empty pcpu map";
  let nshards = 1 + Array.fold_left max 0 shard_of_pcpu in
  Array.iter
    (fun s ->
      if s < 0 || s >= nshards then
        invalid_arg "Engine.arm_sharding: negative shard id")
    shard_of_pcpu;
  t.sharding <-
    Some
      {
        sh_lookahead = lookahead;
        sh_shard_of_pcpu = Array.copy shard_of_pcpu;
        sh_nshards = nshards;
        sh_cur = 0;
        sh_clock = Array.make nshards 0;
        sh_fired = Array.make nshards 0;
        sh_fp = Array.make nshards 0;
        sh_cross = 0;
        sh_coupled = 0;
        sh_windows = 0;
        sh_horizon = 0;
      }

let sharded t = t.sharding <> None

let shard_count t =
  match t.sharding with None -> 1 | Some sh -> sh.sh_nshards

let shard_hint t ~pcpu =
  match t.sharding with
  | None -> None
  | Some sh ->
    if pcpu >= 0 && pcpu < Array.length sh.sh_shard_of_pcpu then
      Some sh.sh_shard_of_pcpu.(pcpu)
    else None

let note_remote_touch t ~src_pcpu ~dst_pcpu =
  match t.sharding with
  | None -> ()
  | Some sh ->
    let m = Array.length sh.sh_shard_of_pcpu in
    if
      src_pcpu >= 0 && src_pcpu < m && dst_pcpu >= 0 && dst_pcpu < m
      && sh.sh_shard_of_pcpu.(src_pcpu) <> sh.sh_shard_of_pcpu.(dst_pcpu)
    then
      (* A zero-latency cross-shard state access — by definition inside
         the lookahead, so it counts as a coupling. *)
      sh.sh_coupled <- sh.sh_coupled + 1

let shard_report t =
  match t.sharding with
  | None -> None
  | Some sh ->
    Some
      {
        r_shards = sh.sh_nshards;
        r_lookahead = sh.sh_lookahead;
        r_windows = sh.sh_windows;
        r_cross = sh.sh_cross;
        r_coupled = sh.sh_coupled;
        r_events = Array.copy sh.sh_fired;
      }

let shard_fingerprint t =
  match t.sharding with
  | None -> None
  | Some sh ->
    let b = Buffer.create (16 * sh.sh_nshards) in
    Buffer.add_string b (Printf.sprintf "w%d" sh.sh_windows);
    for s = 0 to sh.sh_nshards - 1 do
      Buffer.add_string b
        (Printf.sprintf "|s%d:%d@%d:%08x" s sh.sh_fired.(s) sh.sh_clock.(s)
           (sh.sh_fp.(s) land 0xFFFFFFFF))
    done;
    Some (Buffer.contents b)

let schedule_at ?shard t ~time action =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time
         t.clock);
  let action =
    match t.sharding with
    | None -> action
    | Some sh ->
      let s =
        match shard with
        | Some s ->
          if s < 0 || s >= sh.sh_nshards then
            invalid_arg "Engine.schedule_at: shard out of range";
          s
        | None -> sh.sh_cur
      in
      if s <> sh.sh_cur then
        if time - t.clock >= sh.sh_lookahead then
          sh.sh_cross <- sh.sh_cross + 1
        else sh.sh_coupled <- sh.sh_coupled + 1;
      fun () ->
        (* Window accounting at the lookahead quantum: how many
           conservative barriers a decoupled run of this event stream
           would have executed. *)
        if t.clock >= sh.sh_horizon then begin
          sh.sh_windows <- sh.sh_windows + 1;
          sh.sh_horizon <- t.clock + sh.sh_lookahead
        end;
        sh.sh_cur <- s;
        sh.sh_clock.(s) <- t.clock;
        sh.sh_fired.(s) <- sh.sh_fired.(s) + 1;
        sh.sh_fp.(s) <- ((sh.sh_fp.(s) * 31) + t.clock + s + 1) land max_int;
        action ()
  in
  Equeue.schedule t.queue ~time action

let schedule_after ?shard t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at ?shard t ~time:(t.clock + delay) action

let cancel t h = ignore (Equeue.cancel t.queue h)

let is_pending t h = Equeue.is_pending t.queue h

let fire_time t h = Equeue.fire_time t.queue h

let pending_count t = Equeue.length t.queue

let step t =
  match Equeue.pop t.queue with
  | Equeue.Empty | Equeue.Beyond -> false
  | Equeue.Event (time, action) ->
    t.clock <- time;
    t.fired_count <- t.fired_count + 1;
    t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
    action ();
    true

let halt t = t.stop <- true

let halted t = t.stop

(* The fire loop is [Equeue.drain]: one queue descent per event and
   no per-event allocation. An event beyond [until] stays queued and
   the clock advances to [until] unless the run was halted. *)
let run ?until t =
  t.stop <- false;
  let limit = match until with Some l -> l | None -> max_int in
  Equeue.drain t.queue ~limit
    ~stop:(fun () -> t.stop)
    (fun time action ->
      t.clock <- time;
      t.fired_count <- t.fired_count + 1;
      t.stream_fp <- ((t.stream_fp * 31) + time + 1) land max_int;
      action ());
  match until with
  | Some limit when (not t.stop) && t.clock < limit -> t.clock <- limit
  | _ -> ()

let events_fired t = t.fired_count

let stream_fp t = t.stream_fp

let next_time t = Equeue.next_time t.queue

(* Self-rescheduling event chains: the machine's slot/period clocks
   and the fault injector's recurring chaos windows. The action runs
   first and the next occurrence is scheduled after it returns, so a
   chain created with no jitter hook fires at exactly [start + k *
   period] with the same queue insertion order as a hand-rolled
   recursive schedule. *)
let periodic ?shard t ~start ~period ?jitter action =
  if period <= 0 then invalid_arg "Engine.periodic: period must be positive";
  let stopped = ref false in
  let pending = ref None in
  let rec fire () =
    action ();
    if not !stopped then begin
      let extra = match jitter with None -> 0 | Some j -> max 0 (j ()) in
      (* Reschedules inherit the chain's shard ambiently: they are
         created while its own event is the one executing. *)
      pending := Some (schedule_after t ~delay:(period + extra) fire)
    end
  in
  pending := Some (schedule_at ?shard t ~time:start fire);
  fun () ->
    stopped := true;
    match !pending with
    | Some h ->
      cancel t h;
      pending := None
    | None -> ()
