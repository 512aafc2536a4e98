(* The benchmark's own tests: a tiny run of each workload with every check
   on (at the pool's default size, at one domain, and traced; all three
   must produce the same output digest), then one deliberately corrupted
   output per check, which the check must reject. *)

open Socet_core
module Backend = Socet_tam.Backend
module Fleet = Socet_tam.Fleet
module Dispatch = Socet_serve.Dispatch
module Client = Socet_serve.Client
module Podem = Socet_atpg.Podem
module Fault = Socet_atpg.Fault

let failures = ref 0

let report name ok detail =
  if not ok then incr failures;
  Printf.printf "%s %s%s\n%!" (if ok then "ok  " else "FAIL") name
    (if detail = "" then "" else ": " ^ detail)

let passes name problems = report name (problems = []) (String.concat "; " problems)

let rejects name problems =
  report ("corrupted: " ^ name) (problems <> [])
    (match problems with [] -> "the check accepted a corrupted output" | p :: _ -> "caught: " ^ p)

let workloads =
  [ ("paper_cold", Paper_cold.run); ("fleet_warm", Fleet_warm.run); ("serve_warm", Serve_warm.run) ]

let tiny = { Report.seed = 5; seconds = 0.0; trace = false; tiny = true }

let workload_runs () =
  List.iter
    (fun (name, run) ->
      let a = run tiny in
      let b = Util.with_domains 1 (fun () -> run tiny) in
      let t = run { tiny with Report.trace = true } in
      passes (name ^ ": checks") a.Report.problems;
      passes (name ^ ": checks at 1 domain") b.Report.problems;
      passes (name ^ ": checks, traced") t.Report.problems;
      report (name ^ ": no failed jobs") (a.Report.failed + b.Report.failed + t.Report.failed = 0) "";
      passes (name ^ ": one output digest")
        (Checks.same_digest ~what:name
           [ ("default", a.Report.digest); ("1 domain", b.Report.digest); ("traced", t.Report.digest) ]))
    workloads

let bump_first_digit s =
  (* "total time: 3950 cycles" -> "total time: 4950 cycles" *)
  match String.index_opt s ':' with
  | None -> s ^ "!"
  | Some i ->
      let b = Bytes.of_string s in
      let rec go j =
        if j >= Bytes.length b then ()
        else
          match Bytes.get b j with
          | '0' .. '8' as c -> Bytes.set b j (Char.chr (Char.code c + 1))
          | '9' -> Bytes.set b j '0'
          | _ -> go (j + 1)
      in
      go (i + 1);
      Bytes.to_string b

let corrupted () =
  (* Paper system 2: schedule replay, dispatcher agreement, per-core checks. *)
  let soc = Layers.build_system "system2" in
  let plan =
    match Layers.ccg_plan soc with Ok p -> p | Error e -> failwith (Socet_util.Error.to_string e)
  in
  let sched = match plan.Backend.p_detail with Backend.D_ccg s -> s | Backend.D_tam _ -> assert false in
  passes "replay of the real schedule" (Checks.schedule_replay ~gate_level:true "chip" sched);
  rejects "flipped chip TAT"
    (Checks.schedule_replay "chip" { sched with Schedule.s_total_time = sched.Schedule.s_total_time + 1 });
  rejects "flipped core test time"
    (Checks.schedule_replay "chip"
       {
         sched with
         Schedule.s_tests =
           List.mapi
             (fun k t -> if k = 0 then { t with Schedule.ct_time = t.Schedule.ct_time + 1 } else t)
             sched.Schedule.s_tests;
       });
  let reply = Dispatch.run (Layers.request [ "chip"; "system2" ]) in
  passes "plan totals against the dispatcher" (Layers.agrees (Layers.Chip (soc, Ok plan)) reply);
  rejects "plan total differs from the dispatcher"
    (Layers.agrees
       (Layers.Chip (soc, Ok { plan with Backend.p_total_time = plan.Backend.p_total_time + 1 }))
       reply);
  (match reply with
  | Ok o ->
      let lines = String.split_on_char '\n' o.Dispatch.o_stdout in
      let stdout =
        String.concat "\n"
          (List.map
             (fun l ->
               if String.length l > 10 && String.sub l 0 10 = "total time" then bump_first_digit l else l)
             lines)
      in
      rejects "dispatcher reply with a flipped total"
        (Layers.agrees (Layers.Chip (soc, Ok plan)) (Ok { o with Dispatch.o_stdout = stdout }))
  | Error _ -> report "dispatcher chip reply" false "error");
  let cores = Checks.of_soc soc in
  List.iter
    (fun (c : Checks.core) ->
      passes ("legacy fsim agrees on " ^ c.Checks.label) (Checks.ref_fsim c);
      passes ("fault partition of " ^ c.Checks.label) (Checks.partition c))
    cores;
  let c = List.hd cores in
  let s = c.Checks.stats in
  rejects "detected list missing a fault"
    (Checks.ref_fsim { c with Checks.stats = { s with Podem.detected = List.tl s.Podem.detected } });
  rejects "detected list with an undetected fault"
    (Checks.ref_fsim
       {
         c with
         Checks.stats =
           {
             s with
             Podem.detected =
               List.filter (fun f -> not (List.exists (Fault.equal f) s.Podem.detected)) (Fault.collapse c.Checks.nl)
               @ s.Podem.detected;
           };
       });
  let only_detected =
    List.find
      (fun f -> not (List.exists (Fault.equal f) (s.Podem.redundant @ s.Podem.aborted)))
      s.Podem.detected
  in
  rejects "partition missing a fault"
    (Checks.partition
       {
         c with
         Checks.stats =
           { s with Podem.detected = List.filter (fun f -> not (Fault.equal f only_detected)) s.Podem.detected };
       });
  report "a refuted verdict is named"
    (Checks.refuted { c with Checks.stats = { s with Podem.redundant = only_detected :: s.Podem.redundant } }
    <> [])
    "";
  (* Fleet: the whole entry list, not the preview's first rows. *)
  let entries = Fleet.run ~seed:tiny.Report.seed ~count:16 () in
  passes "fleet entries equal themselves" (Checks.fleet_equal ~what:"fleet" ~expected:entries entries);
  passes "fleet healthy" (Checks.fleet_healthy entries);
  let past_preview =
    List.map
      (fun (e : Fleet.entry) ->
        if e.Fleet.e_index = 13 then
          match e.Fleet.e_ccg with
          | Ok o -> { e with Fleet.e_ccg = Ok { o with Fleet.o_time = o.Fleet.o_time + 1 } }
          | Error m -> { e with Fleet.e_ccg = Error (m ^ "!") }
        else e)
      entries
  in
  rejects "fleet entry 13 changed" (Checks.fleet_equal ~what:"fleet" ~expected:entries past_preview);
  rejects "fleet list truncated"
    (Checks.fleet_equal ~what:"fleet" ~expected:entries (List.filteri (fun i _ -> i < 12) entries));
  rejects "fleet replay issue"
    (Checks.fleet_healthy
       (List.mapi (fun i (e : Fleet.entry) -> if i = 14 then { e with Fleet.e_issues = 1 } else e) entries));
  (* Served replies. *)
  let expected = Dispatch.run (Layers.request [ "atpg"; "x25" ]) in
  let good =
    match expected with
    | Ok o -> { Client.r_stdout = o.Dispatch.o_stdout; r_stderr = o.Dispatch.o_stderr; r_code = o.Dispatch.o_code }
    | Error _ -> failwith "atpg x25 failed"
  in
  passes "served reply equal to the dispatcher" (Checks.reply ~what:"atpg" ~expected (Ok good));
  rejects "altered served stdout"
    (Checks.reply ~what:"atpg" ~expected (Ok { good with Client.r_stdout = bump_first_digit good.Client.r_stdout }));
  rejects "altered served stderr"
    (Checks.reply ~what:"atpg" ~expected (Ok { good with Client.r_stderr = "warning\n" }));
  rejects "altered served exit code"
    (Checks.reply ~what:"atpg" ~expected (Ok { good with Client.r_code = 4 }));
  (* Digests, warm-cache facts, roll-ups. *)
  rejects "output digests differ" (Checks.same_digest ~what:"run" [ ("a", "00"); ("b", "01") ]);
  passes "warm pass" (Checks.warm ~counters:[] ~board:[ ("podem1", 10, 0) ]);
  rejects "warm pass targeted faults"
    (Checks.warm ~counters:[ ("atpg.podem.faults_targeted", 3) ] ~board:[ ("podem1", 10, 0) ]);
  rejects "warm pass missed podem1" (Checks.warm ~counters:[] ~board:[ ("podem1", 9, 1) ]);
  let span id parent name t0 t1 = { Trace.id; parent; name; job = 0; t0; t1 } in
  let good_spans =
    [ span 0 (-1) "job" 0.0 1.0; span 1 0 "atpg.run" 0.1 0.6; span 2 0 "soc.build" 0.6 0.9 ]
  in
  passes "consistent roll-up" (Checks.rollup (Trace.rollup ~wall:1.2 good_spans));
  rejects "overlapping spans"
    (Checks.rollup
       (Trace.rollup ~wall:1.0
          [ span 0 (-1) "job" 0.0 1.0; span 1 0 "atpg.run" 0.1 0.7; span 2 0 "soc.build" 0.5 0.9 ]));
  rejects "roll-up that misses its wall"
    (Checks.rollup { (Trace.rollup ~wall:1.2 good_spans) with Trace.other = 0.0 })

let run () =
  Util.mkdir_p Util.run_dir;
  workload_runs ();
  corrupted ();
  Printf.printf "selftest: %d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
