(* Output checks.  Each check is a pure function of a run's outputs and
   returns the list of problems it found ([] = pass), so the self-test can
   feed it a deliberately corrupted output and expect a non-empty list.
   No check compares against a stored golden: every expected value is
   recomputed in-process by an independent path (the gate-level replay,
   the legacy fault simulator, the dispatcher, the library's own
   [Fleet.run]). *)

open Socet_core
module Fault = Socet_atpg.Fault
module Fsim = Socet_atpg.Fsim
module Podem = Socet_atpg.Podem
module Netlist = Socet_netlist.Netlist
module Backend = Socet_tam.Backend
module Fleet = Socet_tam.Fleet
module Dispatch = Socet_serve.Dispatch
module Client = Socet_serve.Client
module Err = Socet_util.Error

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let schedule_replay ?(gate_level = false) what sched =
  List.map
    (fun i -> Printf.sprintf "%s: replay: %s" what (Replay.pp_issue i))
    (Replay.check ~gate_level sched)

(* Every schedule a request produced replays, at the gate level for the
   CCG flow (the chip schedule and every explore point). *)
let replay = function
  | Layers.Chip (soc, Ok p) -> (
      let what = "chip " ^ soc.Soc.soc_name in
      match p.Backend.p_detail with
      | Backend.D_ccg s -> schedule_replay ~gate_level:true what s
      | Backend.D_tam s ->
          List.map
            (fun i -> Printf.sprintf "%s (tam): replay: %s" what (Socet_tam.Replay.pp_issue i))
            (Socet_tam.Replay.check soc s))
  | Layers.Chip (soc, Error e) ->
      [ Printf.sprintf "chip %s: %s" soc.Soc.soc_name (Err.to_string e) ]
  | Layers.Explore (soc, traj) ->
      List.concat
        (List.mapi
           (fun k pt ->
             schedule_replay ~gate_level:true
               (Printf.sprintf "explore %s point %d" soc.Soc.soc_name k)
               pt.Select.pt_schedule)
           traj)
  | Layers.Atpg _ -> []

(* ------------------------------------------------------------------ *)
(* Per-core ATPG results                                               *)
(* ------------------------------------------------------------------ *)

type core = { label : string; nl : Netlist.t; stats : Podem.stats }

(* One record per structurally distinct netlist, first label kept. *)
let distinct cores =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let h = Socet_netlist.Structhash.netlist c.nl in
      (not (Hashtbl.mem seen h)) && (Hashtbl.add seen h (); true))
    cores

let of_soc soc =
  List.map
    (fun ci -> { label = ci.Soc.ci_name; nl = ci.Soc.ci_netlist; stats = Lazy.force ci.Soc.ci_atpg })
    soc.Soc.insts

(* The cores behind a set of request results. *)
let cores_of results =
  List.concat_map
    (function
      | Layers.Chip (soc, _) | Layers.Explore (soc, _) -> of_soc soc
      | Layers.Atpg (label, nl, stats) -> [ { label; nl; stats } ])
    results
  |> distinct

let sorted fs = List.sort_uniq Fault.compare fs

(* The kept vectors, re-simulated with the legacy engine, detect exactly
   the reported [detected] list. *)
let ref_fsim c =
  let got =
    Fsim.run_comb_ref c.nl ~vectors:c.stats.Podem.vectors ~faults:(Fault.collapse c.nl)
  in
  if List.equal Fault.equal (sorted got) (sorted c.stats.Podem.detected) then []
  else
    [
      Printf.sprintf "%s: legacy fsim detects %d faults with the kept vectors, run reports %d"
        c.label (List.length (sorted got)) (List.length (sorted c.stats.Podem.detected));
    ]

(* detected ∪ redundant ∪ aborted is the collapsed list. *)
let partition c =
  let s = c.stats in
  let union = sorted (s.Podem.detected @ s.Podem.redundant @ s.Podem.aborted) in
  let collapsed = sorted (Fault.collapse c.nl) in
  if List.equal Fault.equal union collapsed then []
  else
    [
      Printf.sprintf "%s: detected+redundant+aborted covers %d faults, collapsed list has %d"
        c.label (List.length union) (List.length collapsed);
    ]

(* PODEM verdicts "untestable" that the kept vectors nevertheless
   detect — a search defect, reported by name, never gated on. *)
let refuted c =
  List.filter (fun f -> List.exists (Fault.equal f) c.stats.Podem.detected) c.stats.Podem.redundant
  |> List.map (fun f -> c.label ^ ":" ^ Fault.name c.nl f)

type quality = {
  q_cores : int;
  q_vectors : int;
  q_detected : int;
  q_faults : int;
  q_aborted : int;
  q_refuted : string list;
}

let quality cores =
  let cores = distinct cores in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cores in
  {
    q_cores = List.length cores;
    q_vectors = sum (fun c -> List.length c.stats.Podem.vectors);
    q_detected = sum (fun c -> List.length c.stats.Podem.detected);
    q_faults = sum (fun c -> c.stats.Podem.total_faults);
    q_aborted = sum (fun c -> List.length c.stats.Podem.aborted);
    q_refuted = List.concat_map refuted cores;
  }

let coverage_pct q =
  if q.q_faults = 0 then 0.0 else 100.0 *. float_of_int q.q_detected /. float_of_int q.q_faults

(* Faults detected or left untestable, over the collapsed faults: every
   fault but the aborted ones (the partition check makes the three lists
   cover the collapsed list; a refuted "untestable" fault counts once, as
   detected).  It carries the aborted count as a share that is never 0. *)
let efficiency_pct q =
  if q.q_faults = 0 then 0.0
  else 100.0 *. float_of_int (q.q_faults - q.q_aborted) /. float_of_int q.q_faults

(* ------------------------------------------------------------------ *)
(* Replies, fleets, digests, roll-ups                                  *)
(* ------------------------------------------------------------------ *)

(* A served reply is byte-for-byte the dispatcher's answer. *)
let reply ~what ~(expected : (Dispatch.outcome, Err.t) result)
    (got : (Client.reply, Err.t) result) =
  match (expected, got) with
  | Ok e, Ok r ->
      (if r.Client.r_stdout = e.Dispatch.o_stdout then []
       else [ what ^ ": stdout differs from Dispatch.run" ])
      @ (if r.Client.r_stderr = e.Dispatch.o_stderr then []
         else [ what ^ ": stderr differs from Dispatch.run" ])
      @
      if r.Client.r_code = e.Dispatch.o_code then []
      else [ Printf.sprintf "%s: exit code %d, Dispatch.run says %d" what r.Client.r_code e.Dispatch.o_code ]
  | Error e, Error r when Err.to_string e = Err.to_string r -> []
  | _, Error r -> [ what ^ ": served error: " ^ Err.to_string r ]
  | Error e, Ok _ -> [ what ^ ": served a reply, Dispatch.run fails: " ^ Err.to_string e ]

let fleet_healthy entries =
  let s = Fleet.summarize entries in
  if s.Fleet.s_failures = 0 && s.Fleet.s_issues = 0 then []
  else
    [ Printf.sprintf "fleet: %d failure(s), %d replay issue(s)" s.Fleet.s_failures s.Fleet.s_issues ]

(* The whole entry list, not the rendered preview's first rows. *)
let fleet_equal ~what ~expected got =
  let ne = List.length expected and ng = List.length got in
  if ne <> ng then [ Printf.sprintf "%s: %d entries, expected %d" what ng ne ]
  else
    List.concat
      (List.map2
         (fun (e : Fleet.entry) (g : Fleet.entry) ->
           if e = g then []
           else [ Printf.sprintf "%s: entry %d (%s) differs" what e.Fleet.e_index e.Fleet.e_soc ])
         expected got)

let same_digest ~what digests =
  match List.sort_uniq compare (List.map snd digests) with
  | [] | [ _ ] -> []
  | _ ->
      [
        Printf.sprintf "%s: output digests differ: %s" what
          (String.concat ", " (List.map (fun (k, d) -> k ^ "=" ^ d) digests));
      ]

(* Layer self times plus [other] add up to the traced wall within 1%. *)
let rollup (r : Trace.rollup) =
  let sum = List.fold_left (fun a (_, v) -> a +. v) r.Trace.other r.Trace.by_name in
  let neg = List.filter (fun (_, v) -> v < -1e-6) r.Trace.by_name in
  (if Float.abs (sum -. r.Trace.wall) <= 0.01 *. r.Trace.wall then []
   else [ Printf.sprintf "roll-up: layers + other = %.6f s, traced wall %.6f s" sum r.Trace.wall ])
  @ (if r.Trace.other >= -1e-6 then [] else [ Printf.sprintf "roll-up: other is %.6f s" r.Trace.other ])
  @ List.map (fun (k, v) -> Printf.sprintf "roll-up: %s self time %.6f s" k v) neg

(* A warm pass does no ATPG search: every podem1 lookup hits.  [counters]
   are the obs counter deltas over the pass ([] when obs was off), [board]
   the cache scoreboard. *)
let warm ~counters ~board =
  let targeted = Option.value ~default:0 (List.assoc_opt "atpg.podem.faults_targeted" counters) in
  (if targeted = 0 then [] else [ Printf.sprintf "warm pass targeted %d faults" targeted ])
  @
  match List.find_opt (fun (ns, _, _) -> ns = "podem1") board with
  | Some (_, hits, 0) when hits > 0 -> []
  | Some (_, hits, misses) -> [ Printf.sprintf "warm pass: podem1 %d hits, %d misses" hits misses ]
  | None -> [ "warm pass: no podem1 lookups" ]
