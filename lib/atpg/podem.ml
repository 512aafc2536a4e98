open Socet_util
open Socet_netlist
module Obs = Socet_obs.Obs
module Cache = Socet_cache.Cache

(* Observability: PODEM's effort is dominated by its decision/backtrack
   loop, so those are the counters every perf PR will watch. *)
let c_faults = Obs.counter ~scope:"atpg" "podem.faults_targeted"

(* The decision/backtrack cells are hammered from inside speculative
   windows, so they are sharded per pool domain slot — increments stay on
   the worker's own cache line, reads sum to the exact total. *)
let c_decisions = Obs.sharded_counter ~scope:"atpg" "podem.decisions"
let c_backtracks = Obs.sharded_counter ~scope:"atpg" "podem.backtracks"
let h_backtracks = Obs.histogram ~scope:"atpg" "podem.backtracks_per_fault"

(* Gates re-evaluated by incremental implication (the one whole-circuit
   evaluation at the start of each [generate] is not counted), added once
   per call.  A deterministic effort count: the test suite bounds it per
   decision/backtrack, so a return to whole-circuit implication fails. *)
let c_implied = Obs.sharded_counter ~scope:"atpg" "podem.implied_gates"

(* Adaptive-budget telemetry: one escalation per fault per pass that had
   to be retried with a larger backtrack limit (ROADMAP: the
   backtracks_per_fault histogram is bimodal, so most faults never leave
   the cheap first pass). *)
let c_escalations = Obs.counter ~scope:"atpg" "podem.budget_escalations"

type outcome = Test of Bitvec.t | Untestable | Aborted

(* Ternary values: 0, 1, X. *)
type tv = T0 | T1 | TX

let tv_not = function T0 -> T1 | T1 -> T0 | TX -> TX

let tv_and a b =
  match (a, b) with
  | T0, _ | _, T0 -> T0
  | T1, T1 -> T1
  | _ -> TX

let tv_or a b =
  match (a, b) with
  | T1, _ | _, T1 -> T1
  | T0, T0 -> T0
  | _ -> TX

let tv_xor a b =
  match (a, b) with
  | TX, _ | _, TX -> TX
  | x, y -> if x = y then T0 else T1

let tv_mux s a b =
  match s with
  | T0 -> a
  | T1 -> b
  | TX -> if a = b && a <> TX then a else TX

let tv_of_bool b = if b then T1 else T0

(* Ternary evaluation of combinational gate [g] over one machine's net
   values, on the flat kind codes (Flat.k_const0 .. Flat.k_mux2). *)
let eval_gate (flat : Flat.t) v g =
  let b = flat.Flat.fanin_off.(g) and fi = flat.Flat.fanin in
  match flat.Flat.kinds.(g) with
  | 1 -> T0
  | 2 -> T1
  | 3 -> v.(fi.(b))
  | 4 -> tv_not v.(fi.(b))
  | 5 -> tv_and v.(fi.(b)) v.(fi.(b + 1))
  | 6 -> tv_or v.(fi.(b)) v.(fi.(b + 1))
  | 7 -> tv_not (tv_and v.(fi.(b)) v.(fi.(b + 1)))
  | 8 -> tv_not (tv_or v.(fi.(b)) v.(fi.(b + 1)))
  | 9 -> tv_xor v.(fi.(b)) v.(fi.(b + 1))
  | 10 -> tv_not (tv_xor v.(fi.(b)) v.(fi.(b + 1)))
  | 11 -> tv_mux v.(fi.(b)) v.(fi.(b + 1)) v.(fi.(b + 2))
  | _ -> invalid_arg "Podem.eval_gate: not a combinational gate"

(* Ternary D capture of flip-flop [ff], per the cell semantics
   (Flat.k_dff .. Flat.k_sdffe). *)
let capture (flat : Flat.t) v ff =
  let b = flat.Flat.fanin_off.(ff) and fi = flat.Flat.fanin in
  match flat.Flat.kinds.(ff) with
  | 12 -> v.(fi.(b))
  | 13 -> tv_mux v.(fi.(b + 1)) v.(ff) v.(fi.(b))
  | 14 -> tv_mux v.(fi.(b + 2)) v.(fi.(b)) v.(fi.(b + 1))
  | _ ->
      let functional = tv_mux v.(fi.(b + 1)) v.(ff) v.(fi.(b)) in
      tv_mux v.(fi.(b + 3)) functional v.(fi.(b + 2))

(* PODEM on the flat form with incremental state (DESIGN.md §17).  All
   gates are evaluated once; afterwards an input change enqueues its
   combinational fanouts into level buckets, each gate is re-evaluated in
   both machines in level order, and its fanouts are enqueued only when
   one of its two values changed.  Because a gate's fanins all sit on
   lower levels, every gate is evaluated after its fanins are final, so
   the values equal a whole-circuit re-evaluation from the current input
   assignment — which is why backtracking needs no undo trail: it sets
   the popped inputs back to X (or flips one) through the same path.
   The D-frontier is an indexed set refreshed whenever a gate is
   (re-)evaluated, i.e. whenever the gate or one of its fanins changed.
   The decision sequence is that of the whole-circuit engine this
   replaced, so outcomes, vectors and counters are byte-identical. *)
let generate ?(backtrack_limit = 1000) ?scoap ?budget nl (fault : Fault.t) =
  Obs.incr c_faults;
  let flat = Flat.of_netlist nl in
  let n = flat.Flat.n in
  let kinds = flat.Flat.kinds and level = flat.Flat.level in
  let fi_off = flat.Flat.fanin_off and fi = flat.Flat.fanin in
  let fo_off = flat.Flat.fanout_off and fo = flat.Flat.fanout in
  let pis = flat.Flat.pis and dffs = flat.Flat.dffs in
  let npi = Array.length pis in
  let ninputs = npi + Array.length dffs in
  let site = fault.f_net in
  let stuck = tv_of_bool fault.f_stuck in
  let assign = Array.make ninputs TX in
  (* Good and faulty machine: ternary value per net. *)
  let good = Array.make n TX and bad = Array.make n TX in
  let is_d net =
    let a = good.(net) and b = bad.(net) in
    a <> TX && b <> TX && a <> b
  in
  (* D-frontier: combinational gates with an X output in either machine
     and a D on some fanin.  [fpos.(g)] is g's slot in [fmem], or -1. *)
  let fpos = Array.make n (-1) and fmem = Array.make (max 1 n) 0 in
  let fsize = ref 0 in
  let refresh g =
    let k = kinds.(g) in
    let member =
      k >= Flat.k_buf && k < Flat.k_dff
      && (good.(g) = TX || bad.(g) = TX)
      &&
      let rec any e = e < fi_off.(g + 1) && (is_d fi.(e) || any (e + 1)) in
      any fi_off.(g)
    in
    let p = fpos.(g) in
    if member && p < 0 then begin
      fpos.(g) <- !fsize;
      fmem.(!fsize) <- g;
      incr fsize
    end
    else if (not member) && p >= 0 then begin
      decr fsize;
      let last = fmem.(!fsize) in
      fmem.(p) <- last;
      fpos.(last) <- p;
      fpos.(g) <- -1
    end
  in
  (* Level buckets: one slice of [bucket] per combinational level, sized
     by the number of gates on that level; [queued] keeps each gate in at
     most once per propagation. *)
  let nlevels = 1 + Array.fold_left max 0 level in
  let bstart = Array.make (nlevels + 1) 0 in
  Array.iter (fun l -> bstart.(l + 1) <- bstart.(l + 1) + 1) level;
  for l = 1 to nlevels do
    bstart.(l) <- bstart.(l) + bstart.(l - 1)
  done;
  let blen = Array.make nlevels 0 and bucket = Array.make (max 1 n) 0 in
  let queued = Bytes.make n '\000' in
  let lo = ref nlevels and hi = ref (-1) in
  let implied = ref 0 in
  let enqueue_fanouts g =
    for e = fo_off.(g) to fo_off.(g + 1) - 1 do
      let h = fo.(e) in
      if kinds.(h) < Flat.k_dff && Bytes.get queued h = '\000' then begin
        Bytes.set queued h '\001';
        let l = level.(h) in
        bucket.(bstart.(l) + blen.(l)) <- h;
        blen.(l) <- blen.(l) + 1;
        if l < !lo then lo := l;
        if l > !hi then hi := l
      end
    done
  in
  let eval_both g =
    good.(g) <- eval_gate flat good g;
    bad.(g) <- (if g = site then stuck else eval_gate flat bad g)
  in
  let propagate () =
    (* Evaluating level l only enqueues levels above l, so each bucket is
       complete by the time the sweep reaches it. *)
    let l = ref !lo in
    while !l <= !hi do
      let base = bstart.(!l) in
      for j = base to base + blen.(!l) - 1 do
        let g = bucket.(j) in
        Bytes.set queued g '\000';
        incr implied;
        let g0 = good.(g) and b0 = bad.(g) in
        eval_both g;
        if good.(g) <> g0 || bad.(g) <> b0 then enqueue_fanouts g;
        refresh g
      done;
      blen.(!l) <- 0;
      incr l
    done;
    lo := nlevels;
    hi := -1
  in
  (* Input slot i is PI i for i < npi, flip-flop (i - npi) above.  The
     faulty machine mirrors the good one except at the fault site. *)
  let set_input i v =
    assign.(i) <- v;
    let net = if i < npi then pis.(i) else dffs.(i - npi) in
    let fv = if net = site then stuck else v in
    if good.(net) <> v || bad.(net) <> fv then begin
      good.(net) <- v;
      bad.(net) <- fv;
      enqueue_fanouts net
    end
  in
  (* Observation: a D can only reach the POs and flip-flop captures of the
     fault's own cone — outside it both machines agree. *)
  let cone, _ = Flat.cone flat site in
  let observable_d () =
    Array.exists (fun i -> is_d flat.Flat.pos_net.(i)) cone.Flat.c_pos
    || Array.exists
         (fun k ->
           let gd = capture flat good dffs.(k) and fd = capture flat bad dffs.(k) in
           gd <> TX && fd <> TX && gd <> fd)
         cone.Flat.c_dffs
  in
  (* X-path check: can a D on the frontier still reach an observation
     point through X-valued nets?  Breadth-first over a stamp array and an
     array queue reused across calls. *)
  let stamp = Array.make n 0 and epoch = ref 0 in
  let xq = Array.make (max 1 n) 0 in
  let x_path_exists () =
    incr epoch;
    let ep = !epoch in
    for i = 0 to !fsize - 1 do
      stamp.(fmem.(i)) <- ep;
      xq.(i) <- fmem.(i)
    done;
    let head = ref 0 and tail = ref !fsize and found = ref false in
    while (not !found) && !head < !tail do
      let g = xq.(!head) in
      incr head;
      if flat.Flat.is_obs.(g) then found := true
      else
        for e = fo_off.(g) to fo_off.(g + 1) - 1 do
          let h = fo.(e) in
          if stamp.(h) <> ep
             && kinds.(h) < Flat.k_dff
             && (good.(h) = TX || bad.(h) = TX)
          then begin
            stamp.(h) <- ep;
            xq.(!tail) <- h;
            incr tail
          end
        done
    done;
    !found
  in
  (* Fault effect can also still be unactivated but activatable. *)
  let site_ok () =
    match good.(site) with
    | TX -> true
    | v -> v <> stuck
  in
  (* SCOAP guidance: cheapest controllability for a wanted value, most
     observable D-frontier gate. *)
  let cc net v =
    match (scoap, v) with
    | Some (s : Scoap.t), T0 -> s.Scoap.cc0.(net)
    | Some s, T1 -> s.Scoap.cc1.(net)
    | _ -> 0
  in
  let frontier_rank g =
    match scoap with Some (s : Scoap.t) -> s.Scoap.co.(g) | None -> 0
  in
  (* The frontier gate to propagate through: lowest (rank, topological
     position), the head of a stable rank sort over the circuit order. *)
  let frontier_pick () =
    let best = ref (-1) in
    for i = 0 to !fsize - 1 do
      let g = fmem.(i) in
      let b = !best in
      if b < 0
         || frontier_rank g < frontier_rank b
         || (frontier_rank g = frontier_rank b
             && flat.Flat.topo_pos.(g) < flat.Flat.topo_pos.(b))
      then best := g
    done;
    !best
  in
  (* The first fanin of [g] with an X good value whose cost for [target]
     is lowest, or -1. *)
  let pick_x_for g target =
    let best = ref (-1) and best_cost = ref 0 in
    for e = fi_off.(g) to fi_off.(g + 1) - 1 do
      let p = fi.(e) in
      if good.(p) = TX then begin
        let c = cc p target in
        if !best < 0 || c < !best_cost then begin
          best := p;
          best_cost := c
        end
      end
    done;
    !best
  in
  let objective () =
    if good.(site) = TX then Some (site, tv_not stuck)
    else
      let gate = frontier_pick () in
      if gate < 0 then None
      else
        let b = fi_off.(gate) in
        let rec first_x e =
          if e = fi_off.(gate + 1) then -1
          else if good.(fi.(e)) = TX then fi.(e)
          else first_x (e + 1)
        in
        match first_x b with
        | -1 -> None
        | pin ->
            let v =
              match kinds.(gate) with
              | 5 | 7 (* and2, nand2 *) -> T1
              | 6 | 8 (* or2, nor2 *) -> T0
              | 11 (* mux2 *) ->
                  if pin = fi.(b) then
                    (* Select the data input carrying the D. *)
                    if is_d fi.(b + 1) then T0 else T1
                  else T1
              | _ -> T1
            in
            Some (pin, v)
  in
  let rec backtrace net v =
    if flat.Flat.pi_of.(net) >= 0 then
      let i = flat.Flat.pi_of.(net) in
      if assign.(i) = TX then Some (i, v) else None
    else if flat.Flat.dff_of.(net) >= 0 then
      let i = npi + flat.Flat.dff_of.(net) in
      if assign.(i) = TX then Some (i, v) else None
    else
      (* Among the unassigned fanins, prefer the one SCOAP deems easiest
         to drive to the value this branch will request. *)
      let via target =
        match pick_x_for net target with -1 -> None | p -> backtrace p target
      in
      let b = fi_off.(net) in
      match kinds.(net) with
      | 3 (* buf *) -> backtrace fi.(b) v
      | 4 (* inv *) -> backtrace fi.(b) (tv_not v)
      | 5 | 6 | 9 | 10 (* and2, or2, xor2, xnor2 *) -> via v
      | 7 | 8 (* nand2, nor2 *) -> via (tv_not v)
      | 11 (* mux2 *) ->
          let s = fi.(b) and a = fi.(b + 1) and c = fi.(b + 2) in
          if good.(a) = TX then backtrace a v
          else if good.(c) = TX then backtrace c v
          else if good.(s) = TX then
            backtrace s (if good.(a) = v then T0 else T1)
          else None
      | _ -> None
  in
  (* Whole-circuit evaluation once, with every input at X. *)
  Array.iter
    (fun g ->
      let k = kinds.(g) in
      if k = Flat.k_pi || k >= Flat.k_dff then begin
        if g = site then bad.(g) <- stuck
      end
      else eval_both g;
      refresh g)
    flat.Flat.order;
  (* Decision stack: (input index, value, flipped already?). *)
  let stack = ref [] in
  let backtracks = ref 0 in
  let result = ref None in
  while !result = None do
    if (match budget with Some b -> not (Budget.spend b) | None -> false) then
      (* Fuel or deadline gone mid-search: degrade to Aborted so the
         caller's ladder (D-alg retry, random top-off) can take over. *)
      result := Some Aborted
    else if observable_d () then begin
      let vec = Bitvec.create ninputs in
      Array.iteri (fun i v -> if v = T1 then Bitvec.set vec i true) assign;
      result := Some (Test vec)
    end
    else begin
      let dead =
        (not (site_ok ()))
        || (good.(site) <> TX && !fsize = 0)
        || (!fsize > 0 && not (x_path_exists ()))
      in
      let next_decision =
        if dead then None
        else
          match objective () with
          | None -> None
          | Some (net, v) -> backtrace net v
      in
      match next_decision with
      | Some (i, v) ->
          Obs.sincr c_decisions;
          set_input i v;
          stack := (i, v, false) :: !stack;
          propagate ()
      | None ->
          (* Backtrack. *)
          incr backtracks;
          Obs.sincr c_backtracks;
          if !backtracks > backtrack_limit then result := Some Aborted
          else begin
            let rec pop () =
              match !stack with
              | [] -> result := Some Untestable
              | (i, v, flipped) :: rest ->
                  if flipped then begin
                    set_input i TX;
                    stack := rest;
                    pop ()
                  end
                  else begin
                    let v' = tv_not v in
                    set_input i v';
                    stack := (i, v', true) :: rest
                  end
            in
            pop ();
            if !result = None then propagate ()
          end
    end
  done;
  Obs.observe h_backtracks (float_of_int !backtracks);
  Obs.sadd c_implied !implied;
  match !result with Some r -> r | None -> assert false

type stats = {
  vectors : Bitvec.t list;
  detected : Fault.t list;
  redundant : Fault.t list;
  aborted : Fault.t list;
  total_faults : int;
  coverage : float;
  efficiency : float;
}

(* Persistent-cache key: the netlist's canonical structural hash plus
   every engine parameter that can change the result.  Budgeted runs are
   never cached — a deadline can truncate the determ phase anywhere, so
   their output is not a pure function of the key. *)
let cache_key ~backtrack_limit ~random_patterns ~seed ~use_scoap nl =
  Printf.sprintf "%s|bt=%d|rp=%d|seed=%d|scoap=%b"
    (Structhash.netlist nl) backtrack_limit random_patterns seed use_scoap

let run_uncached ?(backtrack_limit = 1000) ?(random_patterns = 64) ?(seed = 42)
    ?(use_scoap = true) ?budget nl =
  Obs.with_span ~cat:"atpg" "podem.run" @@ fun () ->
  let scoap = if use_scoap then Some (Scoap.compute nl) else None in
  let faults = Fault.collapse nl in
  let total = List.length faults in
  let rng = Rng.create seed in
  let veclen = Fsim.vector_length nl in
  let vectors = ref [] in
  let remaining = ref faults in
  let detected = ref [] in
  (* Phase 1: random patterns with fault dropping. *)
  if random_patterns > 0 && veclen > 0 then
    Obs.with_span ~cat:"atpg" "podem.random_phase" (fun () ->
        let random_vecs =
          List.init random_patterns (fun _ -> Rng.bitvec rng veclen)
        in
        let hit = Fsim.run_comb nl ~vectors:random_vecs ~faults:!remaining in
        (* Keep only the random vectors that contribute; cheap pre-compaction. *)
        let contributing =
          Compact.reverse_order nl ~vectors:random_vecs ~faults:hit
        in
        vectors := contributing;
        detected := hit;
        remaining := Fault.diff !remaining hit);
  (* Phase 2: deterministic PODEM with fault dropping and an adaptive
     backtrack budget.  The backtracks_per_fault histogram is bimodal
     (p50 around 5, p99 at the limit), so a small first-pass limit covers
     the easy mode cheaply; faults that abort are pushed to the end of the
     queue and retried with the limit multiplied, up to the caller's
     [backtrack_limit].  The final pass runs at exactly [backtrack_limit],
     so the aborted set is the same one a flat run would produce — only
     the wasted effort on hard faults moves. *)
  let redundant = ref [] and aborted = ref [] in
  let budget_alive () =
    match budget with None -> true | Some b -> not (Budget.exhausted b)
  in
  let determ () =
    (* Speculative windows: [generate] is a pure function of
       (netlist, fault, limit, scoap), so a prefix of the queue can be
       searched in parallel and the outcomes consumed in queue order.
       Consuming replays the sequential engine exactly — a window fault
       collaterally dropped by an earlier Test vector is no longer at
       the queue head when its slot comes up, and its speculative
       outcome is simply discarded.  Since the pass limit is constant
       within a window, surviving outcomes are the ones the serial
       engine would have computed, so vectors/detected/redundant/
       aborted are bit-identical at any domain count; only the wasted
       speculation (and its decision/backtrack counters) varies. *)
    (* Warm the netlist's lazily-built flat form on the submitting domain;
       window workers then only read it. *)
    ignore (Flat.of_netlist nl);
    let window_size =
      (* Budgeted runs stay serial: the fuse is checked inside [generate],
         so parallel speculation would make the abort point timing-
         dependent. *)
      if budget <> None || Pool.size () = 1 then 1 else 4 * Pool.size ()
    in
    let rec take k xs =
      if k = 0 then [] else match xs with [] -> [] | x :: tl -> x :: take (k - 1) tl
    in
    let limit = ref (min 32 backtrack_limit) in
    let queue = ref !remaining in
    let stop = ref false in
    while not !stop do
      let retry = ref [] in
      let pass_on = ref true in
      while !pass_on do
        match !queue with
        | [] -> pass_on := false
        | _ when not (budget_alive ()) ->
            (* Out of fuel/deadline: everything still queued is aborted;
               vectors found so far remain valid. *)
            aborted := !queue @ !retry @ !aborted;
            retry := [];
            queue := [];
            pass_on := false;
            stop := true
        | _ ->
            let win = Array.of_list (take window_size !queue) in
            let outcomes =
              if Array.length win <= 1 then
                Array.map
                  (fun f -> generate ~backtrack_limit:!limit ?scoap ?budget nl f)
                  win
              else
                Pool.parallel_map ~chunk:1
                  (fun f -> generate ~backtrack_limit:!limit ?scoap nl f)
                  win
            in
            Array.iteri
              (fun i f ->
                match !queue with
                | g :: rest when Fault.equal g f -> (
                    queue := rest;
                    match outcomes.(i) with
                    | Untestable -> redundant := f :: !redundant
                    | Aborted -> retry := f :: !retry
                    | Test vec ->
                        detected := f :: !detected;
                        let extra =
                          Fsim.run_comb nl ~vectors:[ vec ] ~faults:!queue
                        in
                        detected := extra @ !detected;
                        queue := Fault.diff !queue extra;
                        vectors := vec :: !vectors)
                | _ ->
                    (* Collaterally dropped earlier in this window; the
                       speculative outcome is discarded. *)
                    ())
              win
      done;
      if not !stop then begin
        match !retry with
        | [] -> stop := true
        | rs when !limit >= backtrack_limit ->
            aborted := rs @ !aborted;
            stop := true
        | rs ->
            Obs.add c_escalations (List.length rs);
            limit := min (!limit * 8) backtrack_limit;
            queue := List.rev rs
      end
    done
  in
  Obs.with_span ~cat:"atpg" "podem.determ_phase" determ;
  let final_vectors =
    Compact.reverse_order nl ~vectors:(List.rev !vectors) ~faults:!detected
  in
  (* Re-measure against the full fault list: compaction keeps the coverage
     of the deterministic run, and the kept vectors may collaterally catch
     faults the search had to abort on. *)
  let final_detected = Fsim.run_comb nl ~vectors:final_vectors ~faults in
  let aborted = Fault.diff !aborted final_detected in
  let ndet = List.length final_detected and nred = List.length !redundant in
  {
    vectors = final_vectors;
    detected = final_detected;
    redundant = !redundant;
    aborted;
    total_faults = total;
    coverage = (if total = 0 then 0.0 else 100.0 *. float_of_int ndet /. float_of_int total);
    efficiency =
      (if total = 0 then 0.0
       else 100.0 *. float_of_int (ndet + nred) /. float_of_int total);
  }

(* The public entry: serve the whole stats record from the persistent
   cache when one is active and the run is un-budgeted.  The namespace
   version ("podem1") pins the marshaled [stats] shape; the key pins the
   netlist content and every parameter above.  A cached record is the
   bit-for-bit result of an identical cold run, so callers (vector
   counts, schedule periods, coverage tables) cannot observe the
   difference. *)
let run ?(backtrack_limit = 1000) ?(random_patterns = 64) ?(seed = 42)
    ?(use_scoap = true) ?budget nl =
  match budget with
  | Some _ ->
      run_uncached ~backtrack_limit ~random_patterns ~seed ~use_scoap ?budget nl
  | None when Cache.enabled () ->
      Cache.memo ~ns:"podem1"
        ~key:(cache_key ~backtrack_limit ~random_patterns ~seed ~use_scoap nl)
        (fun () ->
          run_uncached ~backtrack_limit ~random_patterns ~seed ~use_scoap nl)
  | None -> run_uncached ~backtrack_limit ~random_patterns ~seed ~use_scoap nl
