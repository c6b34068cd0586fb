(* Unit and property tests for the slot-heap (Wheel.Sheap): the binary
   min-heap behind the wheel's near/far regions and the heap-oracle
   event-queue backend. Entries are pool slots ordered by their
   (time, seq) key. *)

open Sim_engine

type h = { pool : Wheel.pool; heap : Wheel.Sheap.t }

let create () = { pool = Wheel.pool_create (); heap = Wheel.Sheap.create () }

let add h ~key ~seq =
  Wheel.Sheap.push h.pool h.heap (Wheel.alloc h.pool ~time:key ~seq Wheel.noop)

let key h s = (h.pool.Wheel.time.(s), h.pool.Wheel.seq.(s))

(* Pop everything as (time, seq) pairs, recycling the slots. *)
let pop_all h =
  let rec go acc =
    let s = Wheel.Sheap.pop h.pool h.heap in
    if s < 0 then List.rev acc
    else begin
      let k = key h s in
      Wheel.release h.pool s;
      go (k :: acc)
    end
  in
  go []

let test_empty () =
  let h = create () in
  Alcotest.(check int) "length" 0 (Wheel.Sheap.length h.heap);
  Alcotest.(check bool) "is_empty" true (Wheel.Sheap.is_empty h.heap);
  Alcotest.(check int) "top" (-1) (Wheel.Sheap.top h.heap);
  Alcotest.(check int) "pop" (-1) (Wheel.Sheap.pop h.pool h.heap)

let test_ordering () =
  let h = create () in
  List.iteri (fun i k -> add h ~key:k ~seq:i) [ 5; 3; 9; 1; 7; 3 ];
  let keys = List.map fst (pop_all h) in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5; 7; 9 ] keys

let test_fifo_ties () =
  let h = create () in
  for i = 0 to 9 do
    add h ~key:42 ~seq:i
  done;
  let seqs = List.map snd (pop_all h) in
  Alcotest.(check (list int)) "fifo on equal keys" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] seqs

let test_peek_does_not_remove () =
  let h = create () in
  add h ~key:1 ~seq:0;
  let s = Wheel.Sheap.top h.heap in
  Alcotest.(check (pair int int)) "top key" (1, 0) (key h s);
  Alcotest.(check int) "still there" 1 (Wheel.Sheap.length h.heap)

let test_clear () =
  let h = create () in
  for i = 0 to 99 do
    add h ~key:i ~seq:i
  done;
  Wheel.Sheap.clear h.heap;
  Alcotest.(check int) "cleared" 0 (Wheel.Sheap.length h.heap);
  (* Reusable after clear. *)
  add h ~key:7 ~seq:100;
  Alcotest.(check int) "reusable" 1 (Wheel.Sheap.length h.heap)

let test_growth () =
  let h = create () in
  for i = 1000 downto 1 do
    add h ~key:i ~seq:(1000 - i)
  done;
  Alcotest.(check int) "length" 1000 (Wheel.Sheap.length h.heap);
  let keys = List.map fst (pop_all h) in
  Alcotest.(check (list int)) "sorted 1..1000" (List.init 1000 (fun i -> i + 1)) keys

let prop_extraction_sorted =
  QCheck.Test.make ~name:"heap extraction is sorted"
    QCheck.(list small_int)
    (fun keys ->
      let h = create () in
      List.iteri (fun i k -> add h ~key:k ~seq:i) keys;
      let out = pop_all h in
      out = List.sort compare out)

let prop_length =
  QCheck.Test.make ~name:"heap length tracks insertions"
    QCheck.(list small_int)
    (fun keys ->
      let h = create () in
      List.iteri (fun i k -> add h ~key:k ~seq:i) keys;
      Wheel.Sheap.length h.heap = List.length keys)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
    Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "growth" `Quick test_growth;
    QCheck_alcotest.to_alcotest prop_extraction_sorted;
    QCheck_alcotest.to_alcotest prop_length;
  ]
