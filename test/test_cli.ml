(* Numeric CLI flags: a bad value is a usage error (exit 2) with a
   message naming the flag, rejected while parsing, before any
   simulation starts. *)

let cli = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "asman_cli.exe"

(* Run the CLI with [args]; returns (exit code, stderr). *)
let run args =
  let err = Filename.temp_file "asman_cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command cli args ~stdout:Filename.null ~stderr:err)
  in
  let ic = open_in err in
  let msg = In_channel.input_all ic in
  close_in ic;
  Sys.remove err;
  (code, msg)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let rejects args ~msg () =
  let code, err = run args in
  Alcotest.(check int) (String.concat " " args ^ ": exit code") 2 code;
  if not (contains ~sub:msg err) then
    Alcotest.failf "%s: stderr %S lacks %S" (String.concat " " args) err msg

let case name args ~msg = Alcotest.test_case name `Quick (rejects args ~msg)

let suite =
  [
    case "experiment --scale 0" [ "experiment"; "fig7"; "--scale"; "0" ]
      ~msg:"--scale must be > 0";
    case "experiment fig10 --scale 0" [ "experiment"; "fig10"; "--scale"; "0" ]
      ~msg:"--scale must be > 0";
    case "run --scale 0" [ "run"; "--scale"; "0" ] ~msg:"--scale must be > 0";
    case "run --scale nan" [ "run"; "--scale"; "nan" ] ~msg:"--scale must be > 0";
    case "run --rounds 0" [ "run"; "--rounds"; "0" ] ~msg:"--rounds must be >= 1";
    case "run --weight 0" [ "run"; "--weight"; "0" ] ~msg:"--weight must be >= 1";
    case "trace --weight 0" [ "trace"; "--weight"; "0" ]
      ~msg:"--weight must be >= 1";
    case "run --sim-jobs 0" [ "run"; "--sim-jobs"; "0" ]
      ~msg:"--sim-jobs must be >= 1";
    case "cluster --workers 0" [ "cluster"; "--workers"; "0" ]
      ~msg:"--workers must be >= 1";
    case "experiment -j 0" [ "experiment"; "fig1a"; "-j"; "0" ]
      ~msg:"-j/--jobs must be >= 1";
  ]
