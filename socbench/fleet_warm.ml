(* fleet_warm: the [socet tam --fleet N --cache DIR] workload on a warm
   store.  Heterogeneous random SOCs from [Gen.random_soc ~hetero:true]
   (seeded by --seed), each planned by both backends and CCG-replayed, fanned
   over the pool as [Fleet.run] does.  Set-up fills a fresh store with a
   cold [Fleet.run]; the timed passes repeat against it, so every ATPG
   lookup hits and the time goes to SOC construction, structural hashing,
   cache reads and planning. *)

module Fleet = Socet_tam.Fleet
module Backend = Socet_tam.Backend
module Cache = Socet_cache.Cache
module Pool = Socet_util.Pool
module Err = Socet_util.Error
module Obs = Socet_obs.Obs
open Report

(* Large enough that the fleet's summed TAT, area and vector counts move by
   well under 5% between seeds. *)
let count (cfg : cfg) = if cfg.tiny then 16 else 240

let probe_cores = 48

(* [Fleet.run]'s per-index generator: entry i depends on (seed, i) only. *)
let soc_of ~seed i =
  Socet_cores.Gen.random_soc ~hetero:true (Socet_util.Rng.create ((seed * 1_000_003) + i))

(* One fleet entry, through the calls [Fleet.run] makes for it; a timed
   pass is checked entry for entry against [Fleet.run]'s own list. *)
let job ~seed i =
  let soc = Trace.span "soc.build" (fun () -> soc_of ~seed i) in
  Layers.attribute soc;
  let issues = ref 0 in
  let outcome_of = function
    | Error e ->
        if e.Err.err_kind = Err.Internal then incr issues;
        Error (Err.to_string e)
    | Ok p ->
        (match p.Backend.p_detail with
        | Backend.D_ccg sched when p.Backend.p_degraded = 0 ->
            issues :=
              !issues
              + List.length (Trace.span "core.replay" (fun () -> Socet_core.Replay.check sched))
        | _ -> ());
        Ok { Fleet.o_time = p.Backend.p_total_time; o_area = p.Backend.p_area_overhead }
  in
  let e_ccg = outcome_of (Layers.ccg_plan soc) in
  let e_tam = outcome_of (Layers.tam_plan soc) in
  {
    Fleet.e_index = i;
    e_soc = soc.Socet_core.Soc.soc_name;
    e_cores = List.length soc.Socet_core.Soc.insts;
    e_ccg;
    e_tam;
    e_issues = !issues;
  }

(* A pass over the fleet on the pool, each entry timed where it runs. *)
let pass ~seed n =
  Pool.parallel_map_list (fun i -> Util.time (fun () -> job ~seed i)) (List.init n Fun.id)

let render entries =
  String.concat "\n"
    (List.map
       (fun (e : Fleet.entry) ->
         let o = function
           | Ok (x : Fleet.outcome) -> Printf.sprintf "%d/%d" x.Fleet.o_time x.Fleet.o_area
           | Error s -> "error " ^ s
         in
         Printf.sprintf "%d %s %d %s %s %d" e.Fleet.e_index e.Fleet.e_soc e.Fleet.e_cores
           (o e.Fleet.e_ccg) (o e.Fleet.e_tam) e.Fleet.e_issues)
       entries)

(* (TAT, chip DFT) of both backends' plans for every SOC. *)
let plans entries =
  List.concat_map
    (fun (e : Fleet.entry) ->
      List.filter_map
        (function Ok (x : Fleet.outcome) -> Some (x.Fleet.o_time, x.Fleet.o_area) | Error _ -> None)
        [ e.Fleet.e_ccg; e.Fleet.e_tam ])
    entries

let wrong expected got = List.fold_left2 (fun k e g -> if e = g then k else k + 1) 0 expected got

let run (cfg : cfg) =
  let n = count cfg in
  let seed = cfg.seed in
  let dir = Util.fresh_dir "fleet-store" in
  let store =
    match Cache.open_dir dir with Ok s -> s | Error e -> failwith (Err.to_string e)
  in
  Cache.set_active (Some store);
  let reference, setup_s = Util.time (fun () -> Fleet.run ~seed ~count:n ()) in
  let problems = ref (Checks.fleet_healthy reference) in
  let add ps = problems := !problems @ ps in
  (* The per-core results behind the fleet, read back from the store. *)
  let cores () =
    List.concat_map (fun i -> Checks.of_soc (soc_of ~seed i)) (List.init n Fun.id)
    |> Checks.distinct
  in
  let outcome =
    if not cfg.trace then begin
      Cache.reset_scoreboard ();
      let t0 = Util.now () in
      let rec go passes walls =
        let p, w = Util.time (fun () -> pass ~seed n) in
        if Util.now () -. t0 >= cfg.seconds then (p :: passes, w :: walls)
        else go (p :: passes) (w :: walls)
      in
      let passes, walls = go [] [] in
      let elapsed = Util.now () -. t0 in
      add (Checks.warm ~counters:[] ~board:(Cache.scoreboard ()));
      (* A job fails when its entry is not the set-up entry. *)
      let failed =
        List.fold_left (fun acc p -> acc + wrong reference (List.map fst p)) 0 passes
      in
      List.iteri
        (fun k p ->
          add
            (Checks.fleet_equal ~what:(Printf.sprintf "warm pass %d" k) ~expected:reference
               (List.map fst p)))
        passes;
      let one = Util.with_domains 1 (fun () -> List.map fst (pass ~seed n)) in
      add (Checks.fleet_equal ~what:"warm pass at 1 domain" ~expected:reference one);
      add
        (Checks.fleet_equal ~what:"Fleet.run warm" ~expected:reference (Fleet.run ~seed ~count:n ()));
      let cs = cores () in
      List.iter (fun c -> add (Checks.partition c)) cs;
      let attempted = n * List.length passes in
      (* Repeated passes time the same SOCs again, so the independent
         latency samples are the SOCs: one per SOC, its median over the
         passes.  Throughput is the median pass's. *)
      let per_soc =
        List.map Util.median
          (List.fold_left
             (fun acc p -> List.map2 (fun ts (_, t) -> t :: ts) acc p)
             (List.init n (fun _ -> []))
             passes)
      in
      let metrics, meta =
        end_to_end ~setup:setup_s
          ~rate:(float_of_int n /. Util.median walls)
          ~latencies:per_soc
          ~attempted ~failed
          ~quality:(quality_of ~plans:(plans reference) ~cores:cs)
      in
      {
        attempted;
        failed;
        problems = [];
        digest = Util.hex (render reference);
        metrics;
        meta =
          ("fleet_seed", Util.Int seed) :: ("fleet_socs", Util.Int n)
          :: ("passes", Util.Int (List.length passes)) :: ("timed_s", Util.Num elapsed) :: meta;
        trace = None;
      }
    end
    else begin
      let _, untraced_wall = Util.time (fun () -> List.init n (job ~seed)) in
      Obs.configure ();
      let before = Obs.snapshot_counters () in
      Cache.reset_scoreboard ();
      let entries, spans, wall =
        Trace.traced (fun () -> List.init n (fun i -> Trace.job i (fun () -> job ~seed i)))
      in
      let counters = counter_delta before (Obs.snapshot_counters ()) in
      let board = Cache.scoreboard () in
      let rollup = Trace.rollup ~wall spans in
      add (Checks.fleet_equal ~what:"traced pass" ~expected:reference entries);
      add (Checks.warm ~counters ~board);
      add (Checks.rollup rollup);
      (* The probes run on the first cores only: the whole fleet's hard
         tail would take longer than the rest of the run. *)
      let cs = cores () in
      let probe = Probe.run (List.filteri (fun k _ -> k < probe_cores) cs) in
      {
        attempted = n;
        failed = wrong reference entries;
        problems = [];
        digest = Util.hex (render reference);
        metrics =
          per_layer ~rollup ~untraced_wall ~counters ~board ~store_bytes:(Util.dir_bytes dir)
            ~probe ~quality:(Checks.quality cs) ~serve:no_serve;
        meta = [ ("fleet_seed", Util.Int seed); ("fleet_socs", Util.Int n) ];
        trace = Some (spans, rollup);
      }
    end
  in
  Cache.set_active None;
  Util.rm_rf dir;
  { outcome with problems = !problems }
