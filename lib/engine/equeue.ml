(* Event-queue dispatch: one pooled handle representation, two
   interchangeable backends.

   - Wheel: the hierarchical timing wheel (Wheel.t) — O(1) schedule,
     near-O(1) amortised pop, eager cancel. The default.
   - Heap: a single slot-heap over the same pool (Wheel.Sheap, lazy
     cancellation), kept as the differential-testing oracle behind
     `--engine-queue=heap`.

   Both backends order events by the exact lexicographic (time, seq)
   key, so their pop sequences are identical event for event; figures
   and ablations are byte-identical across backends.

   In front of either backend sits a one-event front slot. A guest
   that computes, fires, and computes again schedules each event
   earlier than everything else pending; such an event waits in the
   slot and fires from there without touching the backend. *)

type kind = Wheel_queue | Heap_queue

let kind_name = function Wheel_queue -> "wheel" | Heap_queue -> "heap"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "wheel" -> Some Wheel_queue
  | "heap" -> Some Heap_queue
  | _ -> None

type backend = Wheel of Wheel.t | Heap of Wheel.Sheap.t

type t = {
  pool : Wheel.pool;
  backend : backend;
  mutable seq : int;
  (* Live (scheduled - fired - cancelled) events, maintained here so
     [length] is O(1) with either backend. *)
  mutable live : int;
  (* Front slot: at most one pending event held outside the backend,
     and only while it precedes every backend resident in (time, seq)
     order; -1 when empty. *)
  mutable front : int;
  (* Cached backend minimum fire time: a lower bound on every backend
     resident's, max_int for an empty backend. Marked stale after
     every backend pop and recomputed on demand. *)
  mutable bmin_time : int;
  mutable bmin_stale : bool;
}

let create kind =
  let pool = Wheel.pool_create () in
  let backend =
    match kind with
    | Wheel_queue -> Wheel (Wheel.create pool)
    | Heap_queue -> Heap (Wheel.Sheap.create ())
  in
  {
    pool;
    backend;
    seq = 0;
    live = 0;
    front = -1;
    bmin_time = max_int;
    bmin_stale = false;
  }

let kind t =
  match t.backend with Wheel _ -> Wheel_queue | Heap _ -> Heap_queue

let length t = t.live

let is_empty t = t.live = 0

type handle = int

(* Drop tombstones off the heap-oracle top; [true] iff a live event
   remains on top. *)
let rec heap_ensure pool h =
  let s = Wheel.Sheap.top h in
  if s < 0 then false
  else if pool.Wheel.loc.(s) = Wheel.loc_dead then begin
    ignore (Wheel.Sheap.pop pool h);
    Wheel.release pool s;
    heap_ensure pool h
  end
  else true

(* The backend's live minimum slot, left in place; -1 when the backend
   holds no live event. The wheel advances its cursor until the near
   heap holds the minimum, the heap oracle sheds tombstones off its
   top: both are work the next backend pop would do anyway. Refreshes
   the cached backend minimum. *)
let backend_top t =
  let s =
    match t.backend with
    | Wheel w -> if Wheel.ensure_near w then Wheel.near_top w else -1
    | Heap h -> if heap_ensure t.pool h then Wheel.Sheap.top h else -1
  in
  t.bmin_time <- (if s < 0 then max_int else t.pool.Wheel.time.(s));
  t.bmin_stale <- false;
  s

(* Extract the slot [backend_top] just returned. *)
let backend_take t =
  t.bmin_stale <- true;
  match t.backend with
  | Wheel w -> Wheel.take_near w
  | Heap h -> Wheel.Sheap.pop t.pool h

let backend_insert t s =
  let p = t.pool in
  (match t.backend with
  | Wheel w -> Wheel.insert w s
  | Heap h ->
    p.Wheel.loc.(s) <- Wheel.loc_aux;
    Wheel.Sheap.push p h s);
  if (not t.bmin_stale) && p.Wheel.time.(s) < t.bmin_time then
    t.bmin_time <- p.Wheel.time.(s)

(* A new event carries the largest seq so far, so it precedes an
   existing event iff its time is strictly smaller. It takes the front
   slot when that is empty and it beats the backend minimum, or when
   it beats the current occupant, which is demoted into the backend
   (where it is now the minimum). *)
let schedule t ~time action =
  let p = t.pool in
  let s = Wheel.alloc p ~time ~seq:t.seq action in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  let f = t.front in
  if f >= 0 then begin
    if time < p.Wheel.time.(f) then begin
      backend_insert t f;
      t.bmin_time <- p.Wheel.time.(f);
      t.bmin_stale <- false;
      p.Wheel.loc.(s) <- Wheel.loc_front;
      t.front <- s
    end
    else backend_insert t s
  end
  else begin
    if t.bmin_stale then ignore (backend_top t);
    if time < t.bmin_time then begin
      p.Wheel.loc.(s) <- Wheel.loc_front;
      t.front <- s
    end
    else backend_insert t s
  end;
  Wheel.handle_of p s

let is_pending t h = Wheel.handle_live t.pool h

let fire_time t h =
  if not (Wheel.handle_live t.pool h) then
    invalid_arg "Equeue.fire_time: stale or fired handle"
  else t.pool.Wheel.time.(Wheel.handle_slot h)

(* [cancel] returns whether the event was still pending (the caller
   keeps the live-event accounting). The front-slot event and
   wheel-bucket residents are unlinked and recycled on the spot;
   slot-heap residents (near/far regions and the heap oracle) are
   tombstoned and dropped when they surface. *)
let cancel t h =
  let p = t.pool in
  if not (Wheel.handle_live p h) then false
  else begin
    let s = Wheel.handle_slot h in
    let loc = p.Wheel.loc.(s) in
    if loc = Wheel.loc_front then begin
      t.front <- -1;
      Wheel.release p s
    end
    else begin
      (* Possibly the cached backend minimum: refresh it lazily. *)
      if p.Wheel.time.(s) = t.bmin_time then t.bmin_stale <- true;
      if loc >= 0 then begin
        (match t.backend with
        | Wheel w -> Wheel.remove w s
        | Heap _ -> assert false);
        Wheel.release p s
      end
      else begin
        p.Wheel.loc.(s) <- Wheel.loc_dead;
        p.Wheel.act.(s) <- Wheel.noop
      end
    end;
    t.live <- t.live - 1;
    true
  end

(* The live minimum: the front slot if occupied, else the backend top;
   -1 on an empty queue. *)
let top t = if t.front >= 0 then t.front else backend_top t

(* Remove [top t]'s slot and hand back its action. *)
let take t s =
  if s = t.front then t.front <- -1 else ignore (backend_take t);
  let action = t.pool.Wheel.act.(s) in
  Wheel.release t.pool s;
  t.live <- t.live - 1;
  action

let next_time t =
  let s = top t in
  if s < 0 then None else Some t.pool.Wheel.time.(s)

type pop_result =
  | Event of int * (unit -> unit)  (** fire time and action *)
  | Beyond  (** next live event is after [limit]; left queued *)
  | Empty

(* One queue descent per fired event: find the live minimum, compare
   against the limit, and either extract it or leave it queued. *)
let pop ?limit t =
  let s = top t in
  if s < 0 then Empty
  else begin
    let time = t.pool.Wheel.time.(s) in
    match limit with
    | Some l when time > l -> Beyond
    | _ -> Event (time, take t s)
  end

let never () = false

(* Fused fire loop: equivalent to looping over [pop ~limit] but with
   no per-event allocation (neither the [limit] option nor the
   [pop_result] block). [Engine.run] fires every event through
   here. *)
let drain ?(stop = never) t ~limit f =
  let continue_ = ref true in
  while !continue_ && not (stop ()) do
    let s = top t in
    if s < 0 then continue_ := false
    else begin
      let time = t.pool.Wheel.time.(s) in
      if time > limit then continue_ := false
      else f time (take t s)
    end
  done
