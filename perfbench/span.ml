(* In-memory span recorder for the traced benchmark run.

   A span is one timed call into a layer's public function: name,
   start, end (host seconds), the span that caused it, and the run id
   shared by every span of one workload run. Spans are kept in memory
   and written out once, as Chrome trace JSON, when the run ends.
   Pool workers record from their own domains, so parents are passed
   explicitly and the buffer is mutex-protected. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  start : float;
  stop : float;
  tid : int;  (** recording domain, one Chrome trace lane each *)
}

type t = {
  run_id : string;
  mu : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~run_id = { run_id; mu = Mutex.create (); next = 0; spans = [] }

let fresh_id t = Mutex.protect t.mu (fun () -> let id = t.next in t.next <- id + 1; id)

let add t ?(parent = -1) ?id name ~start ~stop =
  let id = match id with Some id -> id | None -> fresh_id t in
  let s = { id; name; parent; start; stop; tid = (Domain.self () :> int) } in
  Mutex.protect t.mu (fun () -> t.spans <- s :: t.spans)

(* [f] receives the new span's id, to parent the spans it causes. The
   span is recorded even when [f] raises. *)
let time t ?parent name f =
  let id = fresh_id t in
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add t ?parent ~id name ~start ~stop:(Unix.gettimeofday ()))
    (fun () -> f id)

(* Tracing off is a plain call: the untraced run pays nothing. *)
let maybe t ?parent name f =
  match t with None -> f (-1) | Some t -> time t ?parent name f

let spans t = Mutex.protect t.mu (fun () -> List.rev t.spans)

(* Add spans recorded by another recorder (another process), with ids
   shifted past this recorder's so parents stay unambiguous. *)
let import t spans =
  Mutex.protect t.mu (fun () ->
      let base = t.next in
      List.iter
        (fun s ->
          let shift i = if i < 0 then i else i + base in
          t.spans <- { s with id = shift s.id; parent = shift s.parent } :: t.spans;
          t.next <- max t.next (shift s.id + 1))
        spans)

(* Length of the union of [intervals], each clipped to [lo, hi]. Child
   spans from parallel workers overlap; a covered instant counts once. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of one span: its duration minus the part of that interval
   its child spans cover. [kids] maps a span id to its children's
   intervals. *)
let self_time kids s =
  let intervals = Option.value ~default:[] (Hashtbl.find_opt kids s.id) in
  s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop intervals

let children spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt kids c.parent) in
      Hashtbl.replace kids c.parent ((c.start, c.stop) :: prev))
    spans;
  kids

(* Self time summed per span name, sorted by name. *)
let self_by_name spans =
  let kids = children spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self_time kids s))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Total duration per span name (children included). *)
let total_by_name spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0. spans

(* Chrome trace_event JSON ("X" complete events, microseconds relative
   to the earliest span) — loads in Perfetto and chrome://tracing. *)
let to_chrome_json t =
  let spans = spans t in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let event s =
    Sim_registry.Cjson.(
      Obj
        [
          ("name", String s.name);
          ("cat", String "perfbench");
          ("ph", String "X");
          ("ts", Float ((s.start -. t0) *. 1e6));
          ("dur", Float ((s.stop -. s.start) *. 1e6));
          ("pid", Int 1);
          ("tid", Int s.tid);
          ("args", Obj [ ("run_id", String t.run_id); ("span", Int s.id); ("parent", Int s.parent) ]);
        ])
  in
  Sim_registry.Cjson.(
    to_string (Obj [ ("traceEvents", List (List.map event spans)); ("displayTimeUnit", String "ms") ]))
