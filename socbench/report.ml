(* What a workload run returns, and the metric sets of BENCHMARK.json. *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test size: a few jobs, every check *)
}

type metric = string * float * string  (** name, value, unit *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks *)
  digest : string;  (** MD5 over every output the run checks *)
  metrics : metric list;
  meta : (string * Util.json) list;
  trace : (Trace.span list * Trace.rollup) option;  (** traced runs *)
}

let pool_meta () =
  [
    ("pool_size", Util.Int (Socet_util.Pool.size ()));
    ("hw_domains", Util.Int (Domain.recommended_domain_count ()));
  ]

(* ------------------------------------------------------------------ *)
(* End to end (--trace 0)                                              *)
(* ------------------------------------------------------------------ *)

type quality = {
  tat : int;  (** summed over every plan the run reports *)
  dft : int;
  q : Checks.quality;
}

let quality_of ~plans ~cores =
  {
    tat = List.fold_left (fun a (t, _) -> a + t) 0 plans;
    dft = List.fold_left (fun a (_, d) -> a + d) 0 plans;
    q = Checks.quality cores;
  }

(* [latencies] in seconds, one independent sample per entry; [rate] in
   jobs per host second. *)
let end_to_end ~setup ~rate ~latencies ~attempted ~failed ~(quality : quality) =
  let ms = List.map (fun s -> s *. 1000.0) latencies in
  let p99, p99_label = Util.tail ms in
  let metrics =
    [
      ("setup_s", setup, "s");
      ("jobs_per_s", rate, "1/s");
      ("job_p50_ms", Util.median ms, "ms");
      ("job_p99_ms", p99, "ms");
      ("ok_ratio", float_of_int (attempted - failed) /. float_of_int (max 1 attempted), "ratio");
      ("peak_rss_mb", Util.peak_rss_mb (), "MiB");
      ("tat_cycles", float_of_int quality.tat, "cycles");
      ("dft_cells", float_of_int quality.dft, "cells");
      ("test_vectors", float_of_int quality.q.Checks.q_vectors, "count");
      ("fault_coverage_pct", Checks.coverage_pct quality.q, "%");
      ("fault_efficiency_pct", Checks.efficiency_pct quality.q, "%");
    ]
  in
  let meta =
    [
      ("jobs_timed", Util.Int attempted);
      ("job_p50_ms", Util.Str (Printf.sprintf "p50 of %d samples" (List.length ms)));
      ("job_p99_ms", Util.Str p99_label);
      ("distinct_cores", Util.Int quality.q.Checks.q_cores);
      ("aborted_faults", Util.Int quality.q.Checks.q_aborted);
      ("refuted_untestable", Util.Int (List.length quality.q.Checks.q_refuted));
      ("refuted_untestable_faults", Util.Arr (List.map (fun s -> Util.Str s) quality.q.Checks.q_refuted));
    ]
  in
  (metrics, meta)

(* ------------------------------------------------------------------ *)
(* Per layer (--trace 1)                                               *)
(* ------------------------------------------------------------------ *)

type serve_probe = {
  request_ms_p50 : float;  (** client-observed, through the server *)
  dispatch_ms_p50 : float;  (** [Dispatch.run] on the same requests *)
  codec_us : float;  (** Proto + Wire encode/decode, per request *)
}

let no_serve = { request_ms_p50 = 0.0; dispatch_ms_p50 = 0.0; codec_us = 0.0 }

(* Span names whose self time is a layer metric ("<name>_s"). *)
let span_names =
  [
    "atpg.run"; "netlist.structhash"; "netlist.validate"; "soc.build"; "soc.version";
    "core.ccg_plan"; "core.select"; "core.replay"; "tam.plan"; "cache.open"; "serve.codec";
  ]

let hit_ratio board ns =
  match List.find_opt (fun (n, _, _) -> n = ns) board with
  | Some (_, h, m) when h + m > 0 -> float_of_int h /. float_of_int (h + m)
  | _ -> 0.0

let per_layer ~(rollup : Trace.rollup) ~untraced_wall ~counters ~board ~store_bytes
    ~(probe : Probe.t) ~(quality : Checks.quality) ~serve =
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  List.map (fun n -> (n ^ "_s", Trace.self_of rollup n, "s")) span_names
  @ [
      ("atpg.faults_targeted", count "atpg.podem.faults_targeted", "count");
      ("atpg.aborted_faults", float_of_int quality.Checks.q_aborted, "count");
      ("atpg.refuted_untestable", float_of_int (List.length quality.Checks.q_refuted), "count");
      ("atpg.search_s", probe.Probe.search_s, "s");
      ("atpg.search_calls", float_of_int probe.Probe.search_calls, "count");
      ( "atpg.search_useful_ratio",
        (if probe.Probe.search_calls = 0 then 0.0
         else float_of_int probe.Probe.search_useful /. float_of_int probe.Probe.search_calls),
        "ratio" );
      ("atpg.search_decisions", float_of_int probe.Probe.decisions, "count");
      ("atpg.search_backtracks", float_of_int probe.Probe.backtracks, "count");
      ("atpg.fsim_s", probe.Probe.fsim_s, "s");
      ("atpg.fsim_calls", float_of_int probe.Probe.fsim_calls, "count");
      ("atpg.compact_s", probe.Probe.compact_s, "s");
      ("atpg.scoap_s", probe.Probe.scoap_s, "s");
      ("core.select.opt_memo_hits", count "core.select.opt_memo_hits", "count");
      ("core.schedule.full_builds", count "core.schedule.full_builds", "count");
      ("cache.store_bytes", float_of_int store_bytes, "bytes");
      ("cache.hit_ratio.podem1", hit_ratio board "podem1", "ratio");
      ("cache.hit_ratio.routes1", hit_ratio board "routes1", "ratio");
      ("cache.hit_ratio.versions1", hit_ratio board "versions1", "ratio");
      ("cache.hit_ratio.tamsched1", hit_ratio board "tamsched1", "ratio");
      ("serve.request_ms_p50", serve.request_ms_p50, "ms");
      ("serve.dispatch_ms_p50", serve.dispatch_ms_p50, "ms");
      ("serve.overhead_ms_p50", serve.request_ms_p50 -. serve.dispatch_ms_p50, "ms");
      ("serve.codec_us", serve.codec_us, "us");
      ("pool.size", float_of_int (Socet_util.Pool.size ()), "count");
      ("layers.wall_s", rollup.Trace.wall, "s");
      ("layers.other_s", rollup.Trace.other, "s");
      ("trace_overhead", (rollup.Trace.wall /. untraced_wall) -. 1.0, "ratio");
    ]

(* Obs counters the traced pass moved: [after - before], by name. *)
let counter_delta before after =
  List.map
    (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

(* The roll-up as a table: each layer's self time and share of the wall. *)
let rollup_table (r : Trace.rollup) =
  let row name v = Printf.sprintf "  %-22s %10.4f s %6.1f%%\n" name v (100.0 *. v /. r.Trace.wall) in
  String.concat ""
    ((Printf.sprintf "  %-22s %10.4f s %6.1f%%\n" "traced wall" r.Trace.wall 100.0
     :: List.map (fun (k, v) -> row k v) r.Trace.by_name)
    @ [ row "other" r.Trace.other ])
