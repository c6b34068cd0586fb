type op =
  | Compute of int
  | Compute_rand of { mean : int; cv : float }
  | Lock of int
  | Unlock of int
  | Sem_wait of int
  | Sem_post of int
  | Barrier of int
  | Mark
  | Sleep of int
  | Repeat of int * op list

(* [make] compiles the op tree into flat code: [code] holds
   (opcode, operand) int pairs, a loop becomes an enter/back pair
   around its body, and a [Compute_rand] operand indexes [rand]. *)
type t = {
  ops : op list;
  code : int array;
  rand : (float * float) array;  (* (mean, cv), boxed once here *)
  depth : int;  (* deepest loop nesting *)
}

let c_compute = 0
let c_compute_rand = 1
let c_lock = 2
let c_unlock = 3
let c_sem_wait = 4
let c_sem_post = 5
let c_barrier = 6
let c_mark = 7
let c_sleep = 8
let c_loop_enter = 9 (* operand: iteration count *)
let c_loop_back = 10 (* operand: code index of the body start *)

let rec validate ops =
  List.iter
    (fun op ->
      match op with
      | Compute n -> if n < 0 then invalid_arg "Program: negative compute"
      | Compute_rand { mean; cv } ->
        if mean <= 0 then invalid_arg "Program: non-positive compute mean";
        if cv < 0. then invalid_arg "Program: negative cv"
      | Sleep n -> if n <= 0 then invalid_arg "Program: non-positive sleep"
      | Repeat (n, body) ->
        if n < 0 then invalid_arg "Program: negative repeat count";
        validate body
      | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark -> ())
    ops

let compile ops =
  let code = ref [] and len = ref 0 in
  let rand = ref [] and nrand = ref 0 in
  let depth = ref 0 in
  let emit opcode operand =
    code := operand :: opcode :: !code;
    len := !len + 2
  in
  let rec go d ops =
    List.iter
      (fun op ->
        match op with
        | Compute n -> emit c_compute n
        | Compute_rand { mean; cv } ->
          emit c_compute_rand !nrand;
          rand := (float_of_int mean, cv) :: !rand;
          incr nrand
        | Lock id -> emit c_lock id
        | Unlock id -> emit c_unlock id
        | Sem_wait id -> emit c_sem_wait id
        | Sem_post id -> emit c_sem_post id
        | Barrier id -> emit c_barrier id
        | Mark -> emit c_mark 0
        | Sleep n -> emit c_sleep n
        | Repeat (n, body) ->
          if n > 0 then begin
            emit c_loop_enter n;
            let start = !len in
            go (d + 1) body;
            if !len = start then begin
              (* The body emits nothing: drop the loop altogether. *)
              code := List.tl (List.tl !code);
              len := start - 2
            end
            else begin
              emit c_loop_back start;
              depth := max !depth (d + 1)
            end
          end)
      ops
  in
  go 0 ops;
  {
    ops;
    code = Array.of_list (List.rev !code);
    rand = Array.of_list (List.rev !rand);
    depth = !depth;
  }

let make ops =
  validate ops;
  compile ops

let ops t = t.ops

let rec count_ops ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Repeat (n, body) -> acc + (n * count_ops body)
      | Compute _ | Compute_rand _ | Lock _ | Unlock _ | Sem_wait _ | Sem_post _
      | Barrier _ | Mark | Sleep _ ->
        acc + 1)
    0 ops

let static_instr_count t = count_ops t.ops

let rec compute_cycles ops =
  List.fold_left
    (fun acc op ->
      match op with
      | Compute n -> acc + n
      | Compute_rand { mean; _ } -> acc + mean
      | Repeat (n, body) -> acc + (n * compute_cycles body)
      | Lock _ | Unlock _ | Sem_wait _ | Sem_post _ | Barrier _ | Mark
      | Sleep _ ->
        acc)
    0 ops

let total_compute_cycles t = compute_cycles t.ops

(* The cursor is a program counter into [code] plus a stack of loop
   counters: fetching writes only ints and allocates nothing. *)
type cursor = {
  program : t;
  mutable pc : int;
  counters : int array;
  mutable sp : int;
  mutable operand : int;
}

type opcode =
  | O_compute
  | O_lock
  | O_unlock
  | O_sem_wait
  | O_sem_post
  | O_barrier
  | O_mark
  | O_sleep
  | O_end

let cursor program =
  { program; pc = 0; counters = Array.make program.depth 0; sp = 0; operand = 0 }

let reset c =
  c.pc <- 0;
  c.sp <- 0

let operand c = c.operand

let rec fetch c ~rng =
  let code = c.program.code in
  let pc = c.pc in
  if pc >= Array.length code then O_end
  else begin
    let opcode = code.(pc) and arg = code.(pc + 1) in
    if opcode = c_loop_enter then begin
      c.counters.(c.sp) <- arg;
      c.sp <- c.sp + 1;
      c.pc <- pc + 2;
      fetch c ~rng
    end
    else if opcode = c_loop_back then begin
      let left = c.counters.(c.sp - 1) - 1 in
      if left > 0 then begin
        c.counters.(c.sp - 1) <- left;
        c.pc <- arg
      end
      else begin
        c.sp <- c.sp - 1;
        c.pc <- pc + 2
      end;
      fetch c ~rng
    end
    else begin
      c.pc <- pc + 2;
      c.operand <- arg;
      if opcode = c_compute then O_compute
      else if opcode = c_compute_rand then begin
        let mean, cv = c.program.rand.(arg) in
        let n = Sim_engine.Rng.lognormal_cv rng ~mean ~cv in
        c.operand <- max 1 (int_of_float n);
        O_compute
      end
      else if opcode = c_lock then O_lock
      else if opcode = c_unlock then O_unlock
      else if opcode = c_sem_wait then O_sem_wait
      else if opcode = c_sem_post then O_sem_post
      else if opcode = c_barrier then O_barrier
      else if opcode = c_mark then O_mark
      else O_sleep
    end
  end

let referenced ~f t =
  let rec collect acc ops =
    List.fold_left
      (fun acc op ->
        match f op with
        | Some id -> id :: acc
        | None -> ( match op with Repeat (_, body) -> collect acc body | _ -> acc))
      acc ops
  in
  List.sort_uniq compare (collect [] t.ops)

let locks_referenced t =
  referenced t ~f:(function Lock id | Unlock id -> Some id | _ -> None)

let barriers_referenced t =
  referenced t ~f:(function Barrier id -> Some id | _ -> None)

let semaphores_referenced t =
  referenced t ~f:(function Sem_wait id | Sem_post id -> Some id | _ -> None)
