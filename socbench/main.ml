(* socbench: one process, three workloads, every output checked.

     main.exe --workload paper_cold|fleet_warm|serve_warm --seed N
              --seconds S --trace 0|1
     main.exe --selftest

   The last line of standard output is the result object; everything a
   run wrote (the result, its metadata and, for a traced run, the span
   trace) is also kept under _socbench_run/. *)

open Report

let workloads = Selftest.workloads

let result_json (o : outcome) =
  Util.Obj
    [
      ("correct", Util.Bool (o.problems = []));
      ("attempted", Util.Int o.attempted);
      ("failed", Util.Int o.failed);
      ( "metrics",
        Util.Obj
          (List.map
             (fun (name, v, u) -> (name, Util.Obj [ ("value", Util.Num v); ("unit", Util.Str u) ]))
             o.metrics) );
    ]

let run_one ~workload (cfg : cfg) =
  let run = List.assoc workload workloads in
  Util.mkdir_p Util.run_dir;
  let steal0, total0 = Util.cpu_steal () in
  let o = run cfg in
  let steal1, total1 = Util.cpu_steal () in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload cfg.seed (if cfg.trace then 1 else 0) in
  let meta =
    Util.Obj
      ([
         ("workload", Util.Str workload);
         ("seed", Util.Int cfg.seed);
         ("seconds", Util.Num cfg.seconds);
         ("trace", Util.Bool cfg.trace);
         ("commit", Util.Str (Util.commit ()));
         ("source_digest", Util.Str (Util.source_digest ()));
         ("ocaml", Util.Str Sys.ocaml_version);
         ("output_digest", Util.Str o.digest);
         ( "host_steal_pct",
           Util.Num
             (100.0 *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0))) );
         ("problems", Util.Arr (List.map (fun p -> Util.Str p) o.problems));
       ]
      @ pool_meta () @ o.meta)
  in
  (match o.trace with
  | None -> ()
  | Some (spans, rollup) ->
      let file = Filename.concat Util.run_dir (tag ^ ".trace.json") in
      Util.write_file file (Util.json_to_string (Trace.to_json ~meta spans));
      Printf.printf "layer roll-up (self time, share of traced wall); %d spans in %s\n%s"
        (List.length spans) file (rollup_table rollup));
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) o.problems;
  let result = result_json o in
  Util.write_file
    (Filename.concat Util.run_dir (tag ^ ".json"))
    (Util.json_to_string (Util.Obj [ ("meta", meta); ("result", result) ]));
  Printf.printf "meta: %s\n" (Util.json_to_string meta);
  print_endline (Util.json_to_string result)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | --selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | "--selftest" :: rest -> parse (("selftest", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  if get "selftest" <> None then exit (Selftest.run ())
  else
    match (get "workload", get "seed", get "seconds", get "trace") with
    | Some w, Some seed, Some seconds, Some trace when List.mem_assoc w workloads ->
        let cfg =
          {
            seed = int_of_string seed;
            seconds = float_of_string seconds;
            trace = trace = "1";
            tiny = false;
          }
        in
        run_one ~workload:w cfg
    | _ -> usage ()
