(* paper_cold: [socet chip] (ccg) and [socet explore] (min time, max area
   500) on the paper's Systems 1 and 2 through [Dispatch.run], with no
   cache.  Every job rebuilds its SOC, as the CLI does, so each pays ATPG
   on the system's cores: this is where the ATPG engine shows. *)

module Dispatch = Socet_serve.Dispatch
module Obs = Socet_obs.Obs
open Report

let systems (cfg : cfg) = if cfg.tiny then [ "system2" ] else [ "system1"; "system2" ]

let requests cfg =
  List.concat_map
    (fun s -> [ [ "chip"; s ]; [ "explore"; s; "--objective"; "time"; "--max-area"; "500" ] ])
    (systems cfg)

let ok_reply = function Ok o -> o.Dispatch.o_code = 0 | Error _ -> false

(* One round of dispatcher jobs: (args, reply, seconds) in order. *)
let round order =
  List.map
    (fun args ->
      let r, dt = Util.time (fun () -> Dispatch.run (Layers.request args)) in
      (args, r, dt))
    order

(* Set-up: the SOC builds a job starts with, without ATPG, and the pool's
   first fan-out. *)
let setup cfg =
  let once () =
    snd
      (Util.time (fun () ->
           ignore (Socet_util.Pool.parallel_map (fun x -> x + 1) [| 1; 2; 3; 4 |]);
           List.iter
             (fun s ->
               match Dispatch.system_of_name s with
               | Ok _ -> ()
               | Error e -> failwith (Socet_util.Error.to_string e))
             (systems cfg)))
  in
  Util.median (List.init 9 (fun _ -> once ()))

(* What the call-by-call path computed, checked against the dispatcher's
   replies, the gate-level replay and the legacy fault simulator. *)
let check_results ~replies results =
  let reply_to args =
    match List.find_opt (fun (a, _, _) -> a = args) replies with
    | Some (_, r, _) -> r
    | None -> invalid_arg "no reply"
  in
  let cores = Checks.cores_of (List.map snd results) in
  ( List.concat_map (fun (args, res) -> Layers.agrees res (reply_to args)) results
    @ List.concat_map (fun (_, res) -> Checks.replay res) results
    @ List.concat_map (fun c -> Checks.ref_fsim c @ Checks.partition c) cores,
    cores )

let distinct_requests replies = List.sort_uniq compare (List.map (fun (a, _, _) -> a) replies)

let of_request args replies = List.filter (fun (a, _, _) -> a = args) replies

(* The independent latency samples are the distinct jobs: each is its
   median over the rounds. *)
let per_request replies =
  List.map
    (fun args -> Util.median (List.map (fun (_, _, dt) -> dt) (of_request args replies)))
    (distinct_requests replies)

(* Outputs of the same request must not differ between rounds. *)
let stable replies =
  List.filter_map
    (fun args ->
      match
        List.sort_uniq compare (List.map (fun (_, r, _) -> Layers.render_reply r) (of_request args replies))
      with
      | [ _ ] -> None
      | _ -> Some (String.concat " " args ^ ": output differs between rounds"))
    (distinct_requests replies)

let digest replies =
  List.sort_uniq compare
    (List.map (fun (a, r, _) -> String.concat " " a ^ "\000" ^ Layers.render_reply r) replies)
  |> String.concat "\001" |> Util.hex

let run (cfg : cfg) =
  let setup_s = setup cfg in
  (* One untimed job first: the first ATPG run of a process also grows the
     heap, which would otherwise land on whichever job the seed puts
     first. *)
  ignore (Dispatch.run (Layers.request [ "chip"; "system2" ]));
  let order = Util.shuffle (Random.State.make [| cfg.seed |]) (requests cfg) in
  let failed_jobs replies = List.length (List.filter (fun (_, r, _) -> not (ok_reply r)) replies) in
  if not cfg.trace then begin
    (* Whole rounds until the measuring time is used. *)
    let t0 = Util.now () in
    let rec go acc =
      let acc = acc @ round order in
      if Util.now () -. t0 >= cfg.seconds then acc else go acc
    in
    let replies = go [] in
    let elapsed = Util.now () -. t0 in
    (* The call-by-call path, one SOC build per system. *)
    let results =
      List.concat_map
        (fun s ->
          let soc = Layers.build_system s in
          List.filter_map
            (fun args ->
              match args with
              | _ :: s' :: _ when s' = s -> Some (args, Layers.body ~soc (Layers.request args))
              | _ -> None)
            (requests cfg))
        (systems cfg)
    in
    let problems, cores = check_results ~replies results in
    let attempted = List.length replies in
    let failed = failed_jobs replies in
    let metrics, meta =
      end_to_end ~setup:setup_s ~rate:(float_of_int attempted /. elapsed)
        ~latencies:(per_request replies) ~attempted ~failed
        ~quality:(quality_of ~plans:(List.concat_map (fun (_, r) -> Layers.plans r) results) ~cores)
    in
    {
      attempted;
      failed;
      problems = stable replies @ problems;
      digest = digest replies;
      metrics;
      meta =
        ("timed_s", Util.Num elapsed)
        :: ( "job_ms",
             Util.Arr
               (List.map
                  (fun (a, _, dt) -> Util.Arr [ Util.Str (String.concat " " a); Util.Num (1000.0 *. dt) ])
                  replies) )
        :: meta;
      trace = None;
    }
  end
  else begin
    let replies, untraced_wall = Util.time (fun () -> round order) in
    Obs.configure ();
    let before = Obs.snapshot_counters () in
    Socet_cache.Cache.reset_scoreboard ();
    let results, spans, wall =
      Trace.traced (fun () ->
          List.mapi
            (fun k args -> Trace.job k (fun () -> (args, Layers.run (Layers.request args))))
            order)
    in
    let counters = counter_delta before (Obs.snapshot_counters ()) in
    let board = Socet_cache.Cache.scoreboard () in
    let rollup = Trace.rollup ~wall spans in
    let problems, cores = check_results ~replies results in
    let metrics =
      per_layer ~rollup ~untraced_wall ~counters ~board ~store_bytes:0 ~probe:(Probe.run cores)
        ~quality:(Checks.quality cores) ~serve:no_serve
    in
    {
      attempted = List.length replies;
      failed = failed_jobs replies;
      problems = stable replies @ problems @ Checks.rollup rollup;
      digest = digest replies;
      metrics;
      meta = [];
      trace = Some (spans, rollup);
    }
  end
