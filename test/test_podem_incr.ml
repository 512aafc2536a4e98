(* The incremental PODEM engine ([Podem.generate]) against the whole-
   circuit engine it replaced ([Podem_ref.generate], kept verbatim under
   test/).  Both make the same decisions in the same order, so every
   outcome — the vector bits of a Test included — and every call's
   decision and backtrack counts must match exactly: on all collapsed
   faults of the six paper cores with and without SCOAP guidance, on each
   core's hard tail at the full backtrack limit, on generated random-SOC
   cores, and under fuel budgets that cut the search at arbitrary steps.

   The full [Podem.run] flow is gated on signatures recorded from the
   whole-circuit engine, and [atpg.podem.implied_gates] is bounded per
   decision/backtrack so that a return to whole-circuit implication
   fails here deterministically, independent of the hardware. *)

open Socet_util
module Netlist = Socet_netlist.Netlist
module Podem = Socet_atpg.Podem
module Fault = Socet_atpg.Fault
module Scoap = Socet_atpg.Scoap
module Obs = Socet_obs.Obs

let decisions = Obs.sharded_counter ~scope:"atpg" "podem.decisions"
let backtracks = Obs.sharded_counter ~scope:"atpg" "podem.backtracks"
let implied = Obs.sharded_counter ~scope:"atpg" "podem.implied_gates"

let paper_cores =
  lazy
    (List.map
       (fun core ->
         ( Socet_rtl.Rtl_core.name core,
           Socet_synth.Elaborate.core_to_netlist core ))
       Socet_cores.
         [
           Cpu.core ();
           Preprocessor.core ();
           Display.core ();
           Gcd_core.core ();
           Graphics.core ();
           X25.core ();
         ])

let with_domains n f =
  let prev = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size prev) f

let outcome_sig = function
  | Podem.Test v -> "test " ^ Bitvec.to_string v
  | Podem.Untestable -> "untestable"
  | Podem.Aborted -> "aborted"

(* One call's outcome with the decisions and backtracks it counted, read
   from the calling domain's own counter cells so that calls running on
   other pool domains do not disturb the count. *)
let traced search =
  let own c = (Obs.sshards c).(Pool.domain_slot ()) in
  let d0 = own decisions and b0 = own backtracks in
  let o = search () in
  (outcome_sig o, own decisions - d0, own backtracks - b0)

(* Faults on which the two engines disagree; [steps] gives each call of
   each engine its own fresh fuel budget.  Faults are compared in
   parallel: both engines only read the netlist, whose flat form is
   compiled here first. *)
let mismatches ?steps ~limit ~scoap nl faults =
  ignore (Socet_netlist.Flat.of_netlist nl);
  let budget () = Option.map (fun s -> Budget.create ~steps:s ()) steps in
  Pool.parallel_map_list
    (fun f ->
      let got =
        traced (fun () ->
            Podem.generate ~backtrack_limit:limit ?scoap ?budget:(budget ()) nl f)
      in
      let want =
        traced (fun () ->
            Podem_ref.generate ~backtrack_limit:limit ?scoap
              ?budget:(budget ()) nl f)
      in
      if got <> want then Some f else None)
    faults
  |> List.filter_map Fun.id

let check_same name ?steps ~limit ~scoap nl faults =
  let bad = mismatches ?steps ~limit ~scoap nl faults in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: %d faults" name (List.length faults))
    []
    (List.map (Fault.name nl) bad)

let test_all_faults () =
  List.iter
    (fun (name, nl) ->
      let faults = Fault.collapse nl in
      check_same (name ^ " scoap") ~limit:32 ~scoap:(Some (Scoap.compute nl)) nl
        faults;
      check_same (name ^ " plain") ~limit:32 ~scoap:None nl faults)
    (Lazy.force paper_cores)

(* [Podem.run] on each paper core at one domain (speculative windows
   off), with the decisions, backtracks and implied gates it counted. *)
let one_domain_runs =
  lazy
    ( with_domains 1 @@ fun () ->
      List.map
        (fun (name, nl) ->
          let d0 = Obs.svalue decisions
          and b0 = Obs.svalue backtracks
          and i0 = Obs.svalue implied in
          let s = Podem.run nl in
          ( name,
            ( s,
              Obs.svalue decisions - d0,
              Obs.svalue backtracks - b0,
              Obs.svalue implied - i0 ) ))
        (Lazy.force paper_cores) )

(* The faults the flow could not detect are where the search runs
   longest: every backtrack and every deep re-implication happens here. *)
let test_hard_tail () =
  List.iter
    (fun (name, nl) ->
      let s, _, _, _ = List.assoc name (Lazy.force one_domain_runs) in
      check_same (name ^ " tail") ~limit:1000 ~scoap:(Some (Scoap.compute nl))
        nl
        (s.Podem.redundant @ s.Podem.aborted))
    (Lazy.force paper_cores)

let test_budgets () =
  List.iter
    (fun (name, nl) ->
      let faults = Fault.collapse nl in
      let scoap = Some (Scoap.compute nl) in
      List.iter
        (fun steps ->
          check_same (Printf.sprintf "%s fuel %d" name steps) ~steps
            ~limit:1000 ~scoap nl faults)
        [ 1; 2; 7; 40 ])
    (List.filter
       (fun (name, _) -> name = "GCD" || name = "X25")
       (Lazy.force paper_cores))

let prop_random_soc =
  QCheck.Test.make ~name:"random-SOC cores: identical outcomes" ~count:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let soc = Socet_cores.Gen.random_soc (Rng.create seed) in
      List.for_all
        (fun ci ->
          let nl = ci.Socet_core.Soc.ci_netlist in
          let faults = Fault.collapse nl in
          mismatches ~limit:32 ~scoap:(Some (Scoap.compute nl)) nl faults = []
          && mismatches ~limit:32 ~scoap:None nl faults = [])
        soc.Socet_core.Soc.insts)

(* Canonical text of a whole run: vectors, fault lists (order included)
   and the percentages to the bit. *)
let stats_digest (s : Podem.stats) =
  let faults fs =
    String.concat ","
      (List.map (fun (f : Fault.t) -> Printf.sprintf "%d/%b" f.f_net f.f_stuck) fs)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            String.concat "," (List.map Bitvec.to_string s.Podem.vectors);
            faults s.Podem.detected;
            faults s.Podem.redundant;
            faults s.Podem.aborted;
            string_of_int s.Podem.total_faults;
            Printf.sprintf "%h" s.Podem.coverage;
            Printf.sprintf "%h" s.Podem.efficiency;
          ]))

(* Recorded from the whole-circuit engine: run digest, then the decision
   and backtrack totals of a one-domain run (speculative windows off). *)
let recorded =
  [
    ("CPU", ("de780ab601599879cfde0128a368ab85", 8519, 6623));
    ("PREPROCESSOR", ("338c9cb340257206c831e37bab9ed759", 14750, 12817));
    ("DISPLAY", ("2a774c3d651571781c54f437bcd55365", 29877, 26713));
    ("GCD", ("def865614d9ce38f120d836ebbff5623", 12523, 11496));
    ("GRAPHICS", ("ba44e8e38d2d2cce59ff85c16fd4f476", 18337, 16645));
    ("X25", ("095bd46ff20ae281d2e95f4422ca73b4", 1658, 929));
  ]

(* At the pool's own size (SOCET_DOMAINS) only the stats are fixed; the
   speculative windows waste a domain-dependent number of searches. *)
let test_run_signatures () =
  List.iter
    (fun (name, nl) ->
      let digest, _, _ = List.assoc name recorded in
      Alcotest.(check string)
        (Printf.sprintf "%s run at %d domain(s)" name (Pool.size ()))
        digest
        (stats_digest (Podem.run nl)))
    (Lazy.force paper_cores)

let test_run_counters () =
  List.iter
    (fun (name, (s, d, b, _)) ->
      let digest, dec, bt = List.assoc name recorded in
      Alcotest.(check (triple string int int))
        (name ^ " run at 1 domain")
        (digest, dec, bt)
        (stats_digest s, d, b))
    (Lazy.force one_domain_runs)

(* Whole-circuit implication evaluates every gate per decision and per
   backtrack; incremental implication touches a small fraction. *)
let test_implication_stays_incremental () =
  let nl = List.assoc "DISPLAY" (Lazy.force paper_cores) in
  let _, d, b, i = List.assoc "DISPLAY" (Lazy.force one_domain_runs) in
  let bound = (d + b) * Netlist.gate_count nl / 10 in
  Alcotest.(check bool)
    (Printf.sprintf "implied_gates %d <= %d ((%d + %d) x %d / 10)" i bound d b
       (Netlist.gate_count nl))
    true
    (i > 0 && i <= bound)

let () =
  Obs.configure ();
  Alcotest.run "socet_podem_incr"
    [
      ( "generate",
        [
          Alcotest.test_case "every collapsed fault, limit 32" `Quick
            test_all_faults;
          Alcotest.test_case "hard tail, limit 1000" `Quick test_hard_tail;
          Alcotest.test_case "fuel budgets" `Quick test_budgets;
          QCheck_alcotest.to_alcotest prop_random_soc;
        ] );
      ( "run",
        [
          Alcotest.test_case "stats signatures" `Quick test_run_signatures;
          Alcotest.test_case "stats and counters at 1 domain" `Quick
            test_run_counters;
          Alcotest.test_case "implication stays incremental" `Quick
            test_implication_stays_incremental;
        ] );
    ]
