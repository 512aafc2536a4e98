(* serve_warm: [socet serve] in-process (workers 0) under a closed loop of
   two clients — one per hardware thread of the reference box — each
   sending its next request only after the previous reply.  Requests are a
   seeded order of a fixed catalogue (chip ccg/tam, explore, atpg over the
   paper systems and cores), every one naming a store that set-up filled,
   so each pays the per-request store open, SOC construction, cache reads
   and framing, and no ATPG search. *)

module Dispatch = Socet_serve.Dispatch
module Proto = Socet_serve.Proto
module Wire = Socet_serve.Wire
module Server = Socet_serve.Server
module Client = Socet_serve.Client
module Cache = Socet_cache.Cache
module Obs = Socet_obs.Obs
module Err = Socet_util.Error
open Report

let catalogue (cfg : cfg) =
  let systems, cores =
    if cfg.tiny then ([ "system2" ], [ "gcd"; "graphics"; "x25" ])
    else ([ "system1"; "system2" ], List.map fst (Dispatch.builtin_cores ()))
  in
  List.concat_map
    (fun s -> [ [ "chip"; s ]; [ "chip"; s; "--backend"; "tam" ]; [ "explore"; s ] ])
    systems
  @ List.map (fun c -> [ "atpg"; c ]) cores

(* Enough jobs that p99 has ten samples beyond it. *)
let min_jobs (cfg : cfg) = if cfg.tiny then 40 else 1000

(* Request k of the run: round k / |catalogue| is a seeded permutation of
   the whole catalogue, so every window of rounds has the same mix. *)
let sequence ~seed cat =
  let n = Array.length cat in
  let rounds = Hashtbl.create 64 in
  fun k ->
    let r = k / n in
    let perm =
      match Hashtbl.find_opt rounds r with
      | Some p -> p
      | None ->
          let p = Array.of_list (Util.shuffle (Random.State.make [| seed; r |]) (List.init n Fun.id)) in
          Hashtbl.add rounds r p;
          p
    in
    perm.(k mod n)

let render = Layers.render_reply

(* Proto + Wire, both directions, as one served request crosses them. *)
let codec req (reply : Dispatch.outcome) =
  let frame = Wire.encode (Wire.request ~id:1 (Proto.encode req)) in
  (match Wire.decode frame ~pos:0 with
  | Ok (f, _) -> ignore (Proto.decode f.Wire.f_payload)
  | Error _ -> failwith "codec: request frame does not decode");
  let status =
    Proto.encode_status { Proto.st_code = reply.Dispatch.o_code; st_stderr = reply.Dispatch.o_stderr }
  in
  List.iter
    (fun fr ->
      match Wire.decode (Wire.encode fr) ~pos:0 with
      | Ok _ -> ()
      | Error _ -> failwith "codec: reply frame does not decode")
    [ Wire.chunk ~id:1 ~seq:0 reply.Dispatch.o_stdout; Wire.response ~id:1 status ];
  ignore (Proto.decode_status status)

(* The closed loop: [clients] threads, each with its own connection, until
   the time is used and [min_jobs] replies are in (or a hard cap). *)
let closed_loop ~socket ~seconds ~min_jobs ~clients ~next_request =
  let next = Atomic.make 0 and done_ = Atomic.make 0 and stop = Atomic.make false in
  let results = Array.make clients [] in
  let client slot =
    match Client.connect socket with
    | Error e -> failwith (Err.to_string e)
    | Ok c ->
        let acc = ref [] in
        while not (Atomic.get stop) do
          let k = Atomic.fetch_and_add next 1 in
          let req = next_request k in
          let r, dt = Util.time (fun () -> Client.request c req) in
          acc := (k, r, dt) :: !acc;
          Atomic.incr done_
        done;
        Client.close c;
        results.(slot) <- !acc
  in
  let t0 = Util.now () in
  let threads = List.init clients (fun slot -> Thread.create client slot) in
  let cap = (3.0 *. seconds) +. 60.0 in
  while
    let el = Util.now () -. t0 in
    (el < seconds || Atomic.get done_ < min_jobs) && el < cap
  do
    Thread.delay 0.01
  done;
  Atomic.set stop true;
  List.iter Thread.join threads;
  let elapsed = Util.now () -. t0 in
  (List.concat (Array.to_list results), elapsed)

let run (cfg : cfg) =
  let dir = Util.fresh_dir "serve-store" in
  let socket = Filename.concat Util.run_dir "serve.sock" in
  let cat = Array.of_list (catalogue cfg) in
  let reqs = Array.map (Layers.request ~cache:dir) cat in
  (* Set-up: fill a fresh store through the dispatcher (cold ATPG on every
     core, cache writes) and start the server.  Done three times (once in
     the self-test); the run keeps the last store and server and reports
     the median. *)
  let setup () =
    Util.rm_rf dir;
    Util.mkdir_p dir;
    Util.time (fun () ->
        Array.iter (fun r -> ignore (Dispatch.run r)) reqs;
        Server.start ~workers:0 ~socket ())
  in
  let stop srv =
    Server.shutdown srv;
    Server.wait srv
  in
  let rec setups k times =
    let srv, t = setup () in
    if k <= 1 then (srv, Util.median (t :: times))
    else begin
      ignore (stop srv);
      setups (k - 1) (t :: times)
    end
  in
  let srv, setup_s = setups (if cfg.tiny then 1 else 3) [] in
  let expected = Array.map Dispatch.run reqs in
  let problems = ref [] in
  let add ps = problems := !problems @ ps in
  let what i = String.concat " " cat.(i) in
  (* The same replies from a one-domain pool. *)
  Util.with_domains 1 (fun () ->
      Array.iteri
        (fun i r ->
          if render (Dispatch.run r) <> render expected.(i) then
            add [ what i ^ ": reply at 1 domain differs" ])
        reqs);
  let seq = sequence ~seed:cfg.seed cat in
  let replies, elapsed =
    closed_loop ~socket ~seconds:cfg.seconds ~min_jobs:(min_jobs cfg) ~clients:2
      ~next_request:(fun k -> reqs.(seq k))
  in
  let wrong =
    List.filter_map
      (fun (k, r, _) ->
        match Checks.reply ~what:(what (seq k)) ~expected:expected.(seq k) r with
        | [] -> None
        | p -> Some p)
      replies
  in
  (* Report each distinct problem once; every wrong reply is a failed job. *)
  add (List.sort_uniq compare (List.concat wrong));
  let attempted = List.length replies and failed = List.length wrong in
  let latencies = List.map (fun (_, _, dt) -> dt) replies in
  let digest =
    Util.hex
      (String.concat "\001"
         (Array.to_list (Array.mapi (fun i e -> what i ^ "\000" ^ render e) expected)))
  in
  let outcome =
    if not cfg.trace then begin
      (* The call-by-call path on every catalogue request, checked against
         the dispatcher's replies; it also yields the plans and cores the
         quality metrics sum over. *)
      let results =
        Array.to_list
          (Array.mapi
             (fun i r ->
               let res = Layers.run r in
               add (Layers.agrees res expected.(i));
               res)
             reqs)
      in
      let cores = Checks.cores_of results in
      List.iter (fun c -> add (Checks.partition c)) cores;
      let metrics, meta =
        end_to_end ~setup:setup_s ~rate:(float_of_int attempted /. elapsed) ~latencies ~attempted
          ~failed
          ~quality:(quality_of ~plans:(List.concat_map Layers.plans results) ~cores)
      in
      {
        attempted;
        failed;
        problems = [];
        digest;
        metrics;
        meta = ("clients", Util.Int 2) :: ("timed_s", Util.Num elapsed) :: meta;
        trace = None;
      }
    end
    else begin
      (* Untraced: the dispatcher alone on a few rounds of the sequence. *)
      let rounds = 20 in
      let ks = List.init (rounds * Array.length cat) Fun.id in
      let dispatch_ms, untraced_wall =
        Util.time (fun () ->
            List.map (fun k -> 1000.0 *. snd (Util.time (fun () -> Dispatch.run reqs.(seq k)))) ks)
      in
      Obs.configure ();
      let before = Obs.snapshot_counters () in
      Cache.reset_scoreboard ();
      let results, spans, wall =
        Trace.traced (fun () ->
            List.map
              (fun k ->
                let i = seq k in
                Trace.job k (fun () ->
                    (match expected.(i) with
                    | Ok o -> Trace.span "serve.codec" (fun () -> codec reqs.(i) o)
                    | Error _ -> ());
                    let res = Layers.run reqs.(i) in
                    add (Layers.agrees res expected.(i));
                    res))
              ks)
      in
      let counters = counter_delta before (Obs.snapshot_counters ()) in
      let board = Cache.scoreboard () in
      let rollup = Trace.rollup ~wall spans in
      add (Checks.rollup rollup);
      add (Checks.warm ~counters ~board);
      let cores = Checks.cores_of results in
      let codec_s = Trace.self_of rollup "serve.codec" in
      let serve =
        {
          request_ms_p50 = Util.median (List.map (fun s -> 1000.0 *. s) latencies);
          dispatch_ms_p50 = Util.median dispatch_ms;
          codec_us = 1e6 *. codec_s /. float_of_int (List.length ks);
        }
      in
      {
        attempted;
        failed;
        problems = [];
        digest;
        metrics =
          per_layer ~rollup ~untraced_wall ~counters ~board ~store_bytes:(Util.dir_bytes dir)
            ~probe:(Probe.run cores) ~quality:(Checks.quality cores) ~serve;
        meta =
          [
            ("clients", Util.Int 2);
            ("serve.request_ms_p50", Util.Str (Printf.sprintf "p50 of %d replies" (List.length latencies)));
            ("serve.dispatch_ms_p50", Util.Str (Printf.sprintf "p50 of %d calls" (List.length ks)));
          ];
        trace = Some (spans, rollup);
      }
    end
  in
  (match stop srv with 0 -> () | c -> add [ Printf.sprintf "server drained with code %d" c ]);
  Util.rm_rf dir;
  { outcome with problems = !problems }
