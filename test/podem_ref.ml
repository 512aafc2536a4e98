(* The whole-circuit PODEM engine that [Socet_atpg.Podem.generate]
   replaced, kept verbatim as a test-only reference: every implication
   step re-evaluates both machines over the full topological order and
   the D-frontier is rebuilt by a whole-circuit scan.  The equivalence
   suite (test_podem_incr.ml) checks the incremental engine against it
   outcome for outcome, vector bits and decision/backtrack counts
   included.  It increments the same obs counters as the library
   engine, so per-call counter deltas are comparable. *)

open Socet_util
open Socet_netlist
module Obs = Socet_obs.Obs
module Fault = Socet_atpg.Fault
module Scoap = Socet_atpg.Scoap
module Podem = Socet_atpg.Podem

let c_faults = Obs.counter ~scope:"atpg" "podem.faults_targeted"
let c_decisions = Obs.sharded_counter ~scope:"atpg" "podem.decisions"
let c_backtracks = Obs.sharded_counter ~scope:"atpg" "podem.backtracks"
let h_backtracks = Obs.histogram ~scope:"atpg" "podem.backtracks_per_fault"

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

(* The five-valued machine state: good and faulty ternary value per net. *)
type machine = { g : tv array; f : tv array }

let eval_tv nl v g =
  let f = Netlist.fanin nl g in
  match Netlist.kind nl g with
  | Cell.Pi | Cell.Dff | Cell.Dffe | Cell.Sdff | Cell.Sdffe -> v.(g)
  | Cell.Const0 -> T0
  | Cell.Const1 -> T1
  | Cell.Buf -> v.(f.(0))
  | Cell.Inv -> tv_not v.(f.(0))
  | Cell.And2 -> tv_and v.(f.(0)) v.(f.(1))
  | Cell.Or2 -> tv_or v.(f.(0)) v.(f.(1))
  | Cell.Nand2 -> tv_not (tv_and v.(f.(0)) v.(f.(1)))
  | Cell.Nor2 -> tv_not (tv_or v.(f.(0)) v.(f.(1)))
  | Cell.Xor2 -> tv_xor v.(f.(0)) v.(f.(1))
  | Cell.Xnor2 -> tv_not (tv_xor v.(f.(0)) v.(f.(1)))
  | Cell.Mux2 -> tv_mux v.(f.(0)) v.(f.(1)) v.(f.(2))

(* Ternary D capture of a flip-flop, per the cell semantics. *)
let capture_tv nl v ff =
  let f = Netlist.fanin nl ff in
  match Netlist.kind nl ff with
  | Cell.Dff -> v.(f.(0))
  | Cell.Dffe -> tv_mux v.(f.(1)) v.(ff) v.(f.(0))
  | Cell.Sdff -> tv_mux v.(f.(2)) v.(f.(0)) v.(f.(1))
  | Cell.Sdffe ->
      let functional = tv_mux v.(f.(1)) v.(ff) v.(f.(0)) in
      tv_mux v.(f.(3)) functional v.(f.(2))
  | _ -> assert false

let generate ?(backtrack_limit = 1000) ?scoap ?budget nl (fault : Fault.t) =
  Obs.incr c_faults;
  let n = Netlist.gate_count nl in
  (* All structural queries below run on the flat form: input index maps
     (pi_of/dff_of), observability bits and the fanout CSR replace the
     per-call Hashtbl and list scans of the original. *)
  let flat = Flat.of_netlist nl in
  let order = flat.Flat.order in
  let npi = Array.length flat.Flat.pis in
  let ninputs = npi + Array.length flat.Flat.dffs in
  let assign = Array.make ninputs TX in
  let m = { g = Array.make n TX; f = Array.make n TX } in
  let stuck = tv_of_bool fault.f_stuck in
  let imply () =
    (* Load input assignments: slot i is PI i for i < npi, flip-flop
       (i - npi) above. *)
    Array.iteri (fun i net -> m.g.(net) <- assign.(i)) flat.Flat.pis;
    Array.iteri (fun i net -> m.g.(net) <- assign.(npi + i)) flat.Flat.dffs;
    Array.iter
      (fun g ->
        let gv = eval_tv nl m.g g in
        m.g.(g) <- gv;
        let fv = if g = fault.f_net then stuck else eval_tv nl m.f g in
        (* Inputs of the faulty machine mirror the good machine. *)
        let fv =
          match Netlist.kind nl g with
          | (Cell.Pi | Cell.Dff | Cell.Dffe | Cell.Sdff | Cell.Sdffe)
            when g <> fault.f_net ->
              gv
          | _ -> fv
        in
        m.f.(g) <- fv)
      order
  in
  let is_d net = m.g.(net) <> TX && m.f.(net) <> TX && m.g.(net) <> m.f.(net) in
  let observable_d () =
    Array.exists is_d flat.Flat.pos_net
    || Array.exists
         (fun ff ->
           let gd = capture_tv nl m.g ff and fd = capture_tv nl m.f ff in
           gd <> TX && fd <> TX && gd <> fd)
         flat.Flat.dffs
  in
  let d_frontier () =
    let res = ref [] in
    Array.iter
      (fun g ->
        match Netlist.kind nl g with
        | Cell.Pi | Cell.Const0 | Cell.Const1 | Cell.Dff | Cell.Dffe | Cell.Sdff
        | Cell.Sdffe ->
            ()
        | _ ->
            if (m.g.(g) = TX || m.f.(g) = TX)
               && Array.exists is_d (Netlist.fanin nl g)
            then res := g :: !res)
      order;
    List.rev !res
  in
  (* X-path check: can a D on the frontier still reach an observation
     point through X-valued nets? *)
  let x_path_exists frontier =
    let seen = Array.make n false in
    let queue = Queue.create () in
    List.iter
      (fun g ->
        seen.(g) <- true;
        Queue.add g queue)
      frontier;
    let found = ref false in
    let fo_off = flat.Flat.fanout_off and fo = flat.Flat.fanout in
    while (not !found) && not (Queue.is_empty queue) do
      let g = Queue.pop queue in
      if flat.Flat.is_obs.(g) then found := true
      else
        for j = fo_off.(g) to fo_off.(g + 1) - 1 do
          let h = fo.(j) in
          if (not seen.(h))
             && flat.Flat.kinds.(h) < Flat.k_dff
             && (m.g.(h) = TX || m.f.(h) = TX)
          then begin
            seen.(h) <- true;
            Queue.add h queue
          end
        done
    done;
    !found
  in
  (* Fault effect can also still be unactivated but activatable. *)
  let site_ok () =
    match m.g.(fault.f_net) with
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
  let objective () =
    if m.g.(fault.f_net) = TX then Some (fault.f_net, tv_not stuck)
    else
      match
        List.sort (fun a b -> compare (frontier_rank a) (frontier_rank b))
          (d_frontier ())
      with
      | [] -> None
      | gate :: _ ->
          let fanin = Netlist.fanin nl gate in
          let xpins =
            Array.to_list fanin |> List.filter (fun p -> m.g.(p) = TX)
          in
          (match xpins with
          | [] -> None
          | pin :: _ ->
              let v =
                match Netlist.kind nl gate with
                | Cell.And2 | Cell.Nand2 -> T1
                | Cell.Or2 | Cell.Nor2 -> T0
                | Cell.Mux2 ->
                    if pin = fanin.(0) then
                      (* Select the data input carrying the D. *)
                      if is_d fanin.(1) then T0 else T1
                    else T1
                | _ -> T1
              in
              Some (pin, v))
  in
  let input_index net =
    if flat.Flat.pi_of.(net) >= 0 then Some flat.Flat.pi_of.(net)
    else if flat.Flat.dff_of.(net) >= 0 then Some (npi + flat.Flat.dff_of.(net))
    else None
  in
  let rec backtrace net v =
    match input_index net with
    | Some i -> if assign.(i) = TX then Some (i, v) else None
    | None -> (
        let fanin = Netlist.fanin nl net in
        (* Among the unassigned fanins, prefer the one SCOAP deems easiest
           to drive to the value this branch will request. *)
        let pick_x_for target =
          Array.to_list fanin
          |> List.filter (fun p -> m.g.(p) = TX)
          |> List.sort (fun a b -> compare (cc a target) (cc b target))
          |> function [] -> None | p :: _ -> Some p
        in
        let pick_x () = pick_x_for v in
        ignore pick_x;
        match Netlist.kind nl net with
        | Cell.Buf -> backtrace fanin.(0) v
        | Cell.Inv -> backtrace fanin.(0) (tv_not v)
        | Cell.And2 | Cell.Or2 -> (
            match pick_x_for v with Some p -> backtrace p v | None -> None)
        | Cell.Nand2 | Cell.Nor2 -> (
            match pick_x_for (tv_not v) with
            | Some p -> backtrace p (tv_not v)
            | None -> None)
        | Cell.Xor2 | Cell.Xnor2 -> (
            match pick_x_for v with Some p -> backtrace p v | None -> None)
        | Cell.Mux2 ->
            if m.g.(fanin.(1)) = TX then backtrace fanin.(1) v
            else if m.g.(fanin.(2)) = TX then backtrace fanin.(2) v
            else if m.g.(fanin.(0)) = TX then
              backtrace fanin.(0) (if m.g.(fanin.(1)) = v then T0 else T1)
            else None
        | _ -> None)
  in
  (* Decision stack: (input index, value, flipped already?). *)
  let stack = ref [] in
  let backtracks = ref 0 in
  let result = ref None in
  imply ();
  while !result = None do
    if (match budget with Some b -> not (Budget.spend b) | None -> false) then
      (* Fuel or deadline gone mid-search: degrade to Aborted so the
         caller's ladder (D-alg retry, random top-off) can take over. *)
      result := Some Podem.Aborted
    else if observable_d () then begin
      let vec = Bitvec.create ninputs in
      Array.iteri (fun i v -> if v = T1 then Bitvec.set vec i true) assign;
      result := Some (Podem.Test vec)
    end
    else begin
      let frontier = d_frontier () in
      let dead =
        (not (site_ok ()))
        || (m.g.(fault.f_net) <> TX && frontier = [])
        || (frontier <> [] && not (x_path_exists frontier))
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
          assign.(i) <- v;
          stack := (i, v, false) :: !stack;
          imply ()
      | None ->
          (* Backtrack. *)
          incr backtracks;
          Obs.sincr c_backtracks;
          if !backtracks > backtrack_limit then result := Some Podem.Aborted
          else begin
            let rec pop () =
              match !stack with
              | [] -> result := Some Podem.Untestable
              | (i, v, flipped) :: rest ->
                  if flipped then begin
                    assign.(i) <- TX;
                    stack := rest;
                    pop ()
                  end
                  else begin
                    let v' = tv_not v in
                    assign.(i) <- v';
                    stack := (i, v', true) :: rest
                  end
            in
            pop ();
            if !result = None then imply ()
          end
    end
  done;
  Obs.observe h_backtracks (float_of_int !backtracks);
  match !result with Some r -> r | None -> assert false
