open Socet_netlist

type t = { f_net : Netlist.net; f_stuck : bool }

let equal a b = a.f_net = b.f_net && a.f_stuck = b.f_stuck
let compare = compare

(* Membership marks over fault slots (2 * net + polarity): linear in
   both lists, where a [List.exists] scan per element is quadratic. *)
let diff xs drop =
  match drop with
  | [] -> xs
  | _ ->
      let slot f = (2 * f.f_net) + Bool.to_int f.f_stuck in
      let size = List.fold_left (fun m f -> max m (slot f + 1)) 0 drop in
      let marked = Bytes.make size '\000' in
      List.iter (fun f -> Bytes.set marked (slot f) '\001') drop;
      List.filter
        (fun f ->
          let s = slot f in
          s >= size || Bytes.get marked s = '\000')
        xs

let name nl f =
  Printf.sprintf "%s/sa%d" (Netlist.gate_name nl f.f_net) (if f.f_stuck then 1 else 0)

let faultable nl g =
  match Netlist.kind nl g with Cell.Const0 | Cell.Const1 -> false | _ -> true

let all nl =
  let acc = ref [] in
  for g = Netlist.gate_count nl - 1 downto 0 do
    if faultable nl g then
      acc := { f_net = g; f_stuck = false } :: { f_net = g; f_stuck = true } :: !acc
  done;
  !acc

let collapse nl =
  let keep f =
    match Netlist.kind nl f.f_net with
    | Cell.Buf | Cell.Inv ->
        let input = (Netlist.fanin nl f.f_net).(0) in
        (* Equivalent to a fault on the input when the input only feeds
           this gate; drop the output fault in that case. *)
        not (faultable nl input && List.length (Netlist.fanout nl input) = 1)
    | _ -> true
  in
  List.filter keep (all nl)
