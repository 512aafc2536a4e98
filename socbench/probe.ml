(* ATPG layer probes for traced runs.  They time the engine's inner calls
   on the cores a run produced, with the same call shapes [Podem.run]
   uses, because those calls happen deep inside one library call and
   cannot be spanned from outside:

   - search: [Podem.generate] (SCOAP on, default backtrack limit) on each
     core's hard tail — every fault the run left redundant or aborted;
   - fsim: [Fsim.run_comb] with one kept vector per call against the
     collapsed faults, as the deterministic phase calls it;
   - compact: [Compact.reverse_order] over the kept vectors;
   - scoap: [Scoap.compute].

   The decision and backtrack counts are the library's own obs counters,
   so the probe needs obs recording on. *)

module Podem = Socet_atpg.Podem
module Fault = Socet_atpg.Fault
module Obs = Socet_obs.Obs

type t = {
  search_s : float;
  search_calls : int;
  search_useful : int;  (** Test or Untestable outcomes *)
  decisions : int;
  backtracks : int;
  fsim_s : float;
  fsim_calls : int;
  compact_s : float;
  scoap_s : float;
}

let zero =
  {
    search_s = 0.0;
    search_calls = 0;
    search_useful = 0;
    decisions = 0;
    backtracks = 0;
    fsim_s = 0.0;
    fsim_calls = 0;
    compact_s = 0.0;
    scoap_s = 0.0;
  }

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.snapshot_counters ()))

let run (cores : Checks.core list) =
  let cores = Checks.distinct cores in
  let d0 = counter "atpg.podem.decisions" and b0 = counter "atpg.podem.backtracks" in
  List.fold_left
    (fun acc (c : Checks.core) ->
      let nl = c.Checks.nl and s = c.Checks.stats in
      let scoap, scoap_s = Util.time (fun () -> Socet_atpg.Scoap.compute nl) in
      let tail = s.Podem.redundant @ s.Podem.aborted in
      let useful, search_s =
        Util.time (fun () ->
            List.fold_left
              (fun n f ->
                match Podem.generate ~scoap nl f with
                | Podem.Test _ | Podem.Untestable -> n + 1
                | Podem.Aborted -> n)
              0 tail)
      in
      let collapsed = Fault.collapse nl in
      let (), fsim_s =
        Util.time (fun () ->
            List.iter
              (fun v -> ignore (Socet_atpg.Fsim.run_comb nl ~vectors:[ v ] ~faults:collapsed))
              s.Podem.vectors)
      in
      let _, compact_s =
        Util.time (fun () ->
            Socet_atpg.Compact.reverse_order nl ~vectors:s.Podem.vectors ~faults:s.Podem.detected)
      in
      {
        acc with
        search_s = acc.search_s +. search_s;
        search_calls = acc.search_calls + List.length tail;
        search_useful = acc.search_useful + useful;
        fsim_s = acc.fsim_s +. fsim_s;
        fsim_calls = acc.fsim_calls + List.length s.Podem.vectors;
        compact_s = acc.compact_s +. compact_s;
        scoap_s = acc.scoap_s +. scoap_s;
      })
    zero cores
  |> fun p ->
  {
    p with
    decisions = counter "atpg.podem.decisions" - d0;
    backtracks = counter "atpg.podem.backtracks" - b0;
  }
