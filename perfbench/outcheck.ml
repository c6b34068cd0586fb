(* Output check: every operation of a run (a figure, a fuzz case, a
   trace VM, a workload VM) carries a digest of its simulated output.
   On a seed with committed reference digests the digests must match
   them; on any other seed the check falls back to the workload's
   semantic checks (oracles, conservation, determinism), recorded in
   [ok]. *)

type op = {
  key : string;  (** stable within a workload, e.g. "fig7", "case12", "vm3" *)
  digest : string;
  ok : bool;  (** the semantic checks passed *)
}

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Reference file: one [workload seed key digest] line per operation;
   blank lines and [#] comments are skipped. *)
type reference = (string * int * string * string) list

let parse_reference text : reference =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line with
           | [ w; s; k; d ] -> (
             match int_of_string_opt s with
             | Some s -> Some (w, s, k, d)
             | None -> failwith ("bad reference line: " ^ line))
           | _ -> failwith ("bad reference line: " ^ line))

let load_reference path : reference =
  if Sys.file_exists path then
    parse_reference (In_channel.with_open_bin path In_channel.input_all)
  else []

let line (w, s, k, d) = Printf.sprintf "%s %d %s %s" w s k d

let reference_lines ~workload ~seed ops =
  List.map (fun o -> line (workload, seed, o.key, o.digest)) ops

type verdict = {
  attempted : int;
  failed : int;
  problems : string list;  (** one line per failed operation *)
}

(* Judge one run's operations. With reference digests for this
   (workload, seed) every operation must match its entry and every
   entry must have run; otherwise only the semantic checks count. *)
let judge (reference : reference) ~workload ~seed ops =
  let expected =
    List.filter_map
      (fun (w, s, k, d) -> if w = workload && s = seed then Some (k, d) else None)
      reference
  in
  let problem o =
    if not o.ok then Some (o.key ^ ": semantic check failed")
    else
      match expected with
      | [] -> None
      | _ -> (
        match List.assoc_opt o.key expected with
        | Some d when d = o.digest -> None
        | Some d -> Some (Printf.sprintf "%s: digest %s, reference %s" o.key o.digest d)
        | None -> Some (o.key ^ ": not in the reference"))
  in
  let missing =
    List.filter_map
      (fun (k, _) ->
        if List.exists (fun o -> o.key = k) ops then None
        else Some (k ^ ": in the reference but not run"))
      expected
  in
  let problems = List.filter_map problem ops @ missing in
  {
    attempted = List.length ops + List.length missing;
    failed = List.length problems;
    problems;
  }

let fail_ratio v =
  if v.attempted = 0 then 1. else float_of_int v.failed /. float_of_int v.attempted
