(* Bounded ring buffer with drop accounting. Storage grows with the
   entries held: the backing array starts empty, then holds
   [initial_slots] and doubles (copying the live elements oldest-first)
   until it reaches [cap]. Only a full ring overwrites its oldest
   element, so memory is proportional to what was recorded and never
   exceeds [cap] slots. *)

type 'a t = {
  cap : int;
  mutable buf : 'a array;  (** [[||]] until the first push *)
  mutable start : int;  (** index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let initial_slots = 16

let create ~cap =
  if cap < 0 then invalid_arg "Ring.create: negative capacity";
  { cap; buf = [||]; start = 0; len = 0; dropped = 0 }

let capacity t = t.cap

let length t = t.len

let dropped t = t.dropped

let is_empty t = t.len = 0

(* A ring that is not full has [start = 0]: only the overwrite branch
   moves [start], and only [clear] (which resets it) makes a full ring
   non-full. So the live elements sit oldest-first at [0, len), which
   is where appends go and what growing copies. *)
let push t x =
  if t.cap = 0 then t.dropped <- t.dropped + 1
  else if t.len < t.cap then begin
    if t.len = Array.length t.buf then begin
      let buf = Array.make (min t.cap (max initial_slots (2 * t.len))) x in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    t.buf.(t.len) <- x;
    t.len <- t.len + 1
  end
  else begin
    (* Full, so the array holds [cap] slots: overwrite the oldest. *)
    t.buf.(t.start) <- x;
    t.start <- (t.start + 1) mod t.cap;
    t.dropped <- t.dropped + 1
  end

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod t.cap)
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (t.buf.((t.start + i) mod t.cap) :: acc)
  in
  go (t.len - 1) []

(* Clearing keeps the drop count: it tallies lifetime losses, the
   semantics Monitor.trace_dropped has always had across window
   resets. It also keeps the grown array, so a ring cleared every
   window does not regrow. *)
let clear t =
  t.start <- 0;
  t.len <- 0
