module Obs = Socet_obs.Obs

let c_in = Obs.counter ~scope:"atpg" "compact.vectors_in"
let c_kept = Obs.counter ~scope:"atpg" "compact.vectors_kept"

let reverse_order nl ~vectors ~faults =
  Obs.with_span ~cat:"atpg" "compact.reverse_order" @@ fun () ->
  Obs.add c_in (List.length vectors);
  let kept = ref [] in
  let remaining = ref faults in
  List.iter
    (fun vec ->
      if !remaining <> [] then begin
        let hit = Fsim.run_comb nl ~vectors:[ vec ] ~faults:!remaining in
        if hit <> [] then begin
          kept := vec :: !kept;
          remaining := Fault.diff !remaining hit
        end
      end)
    (List.rev vectors);
  Obs.add c_kept (List.length !kept);
  !kept
