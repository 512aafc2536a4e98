(* The public library calls behind one request, made one by one so that a
   traced pass can time each layer from outside the library.

   [run] computes what [Dispatch.run] computes for the same request, with
   the same inputs in the same order; {!agrees} checks it against the
   dispatcher's rendered reply.  With tracing on, [run] also makes three
   attribution calls that the dispatcher makes implicitly or not at all:
   [Structhash.netlist] and [Version.generate] per instance (both happen
   inside the library's own calls, where they cannot be timed from
   outside), and forcing each instance's lazy ATPG before planning instead
   of inside it. *)

open Socet_core
module Dispatch = Socet_serve.Dispatch
module Proto = Socet_serve.Proto
module Backend = Socet_tam.Backend
module Cache = Socet_cache.Cache
module Podem = Socet_atpg.Podem
module Fault = Socet_atpg.Fault
module Netlist = Socet_netlist.Netlist
module Structhash = Socet_netlist.Structhash
module Err = Socet_util.Error

let span = Trace.span

(* The request the CLI builds from these arguments. *)
let request ?cache args =
  match Proto.of_args ?cache args with Ok r -> r | Error e -> invalid_arg e

(* A dispatcher reply as one string, for digests and comparisons. *)
let render_reply = function
  | Ok o -> Printf.sprintf "%s\000%s\000%d" o.Dispatch.o_stdout o.Dispatch.o_stderr o.Dispatch.o_code
  | Error e -> "error\000" ^ Err.to_string e

(* The name resolution of [Dispatch.system_of_name]. *)
let system_by_name = function
  | "system1" | "1" | "barcode" -> Socet_cores.Systems.system1 ()
  | "system2" | "2" -> Socet_cores.Systems.system2 ()
  | "system3" | "3" -> Socet_cores.Systems.system3 ()
  | s -> invalid_arg ("unknown system " ^ s)

(* Traced passes only: time the per-instance work the library does inside
   other calls. *)
let attribute soc =
  if !Trace.enabled then begin
    let insts = soc.Soc.insts in
    span "netlist.structhash" (fun () ->
        List.iter (fun ci -> ignore (Structhash.netlist ci.Soc.ci_netlist)) insts);
    (* The ladder needs the RCG with HSCAN inserted, as [Soc.instantiate]
       builds it; both are rebuilt inside this span. *)
    span "soc.version" (fun () ->
        List.iter
          (fun ci ->
            let rcg = Socet_rtl.Rcg.of_core ci.Soc.ci_core in
            ignore (Socet_scan.Hscan.insert rcg);
            ignore (Version.generate rcg))
          insts);
    span "atpg.run" (fun () -> List.iter (fun ci -> ignore (Lazy.force ci.Soc.ci_atpg)) insts)
  end

let validate soc =
  span "netlist.validate" (fun () ->
      List.iter (fun ci -> Socet_netlist.Validate.check_exn ci.Soc.ci_netlist) soc.Soc.insts)

let build_system name =
  let soc = span "soc.build" (fun () -> system_by_name name) in
  validate soc;
  attribute soc;
  soc

(* What one request produced, kept for the output checks. *)
type result =
  | Chip of Soc.t * (Backend.plan, Err.t) Stdlib.result
  | Explore of Soc.t * Select.point list
  | Atpg of string * Netlist.t * Podem.stats

let ccg_plan soc = span "core.ccg_plan" (fun () -> Backend.Ccg_backend.plan soc)
let tam_plan soc = span "tam.plan" (fun () -> Backend.Tam_backend.plan soc)

(* [soc], when given, stands in for the system the request names (one
   build shared by several requests on the same system). *)
let body ?soc (req : Proto.t) =
  let system name = match soc with Some s -> s | None -> build_system name in
  match req.Proto.rq_body with
  | Proto.Chip c ->
      let soc = system c.Proto.ch_system in
      let plan =
        match c.Proto.ch_backend with Proto.Ccg -> ccg_plan soc | Proto.Tam -> tam_plan soc
      in
      Chip (soc, plan)
  | Proto.Explore e ->
      let soc = system e.Proto.ex_system in
      let use_memo = not e.Proto.ex_no_memo in
      let traj =
        span "core.select" (fun () ->
            match e.Proto.ex_objective with
            | Proto.Min_time -> Select.minimize_time ~use_memo soc ~max_area:e.Proto.ex_max_area
            | Proto.Min_area -> Select.minimize_area ~use_memo soc ~max_time:e.Proto.ex_max_time)
      in
      Explore (soc, traj)
  | Proto.Atpg a ->
      let nl =
        span "soc.build" (fun () ->
            Socet_synth.Elaborate.core_to_netlist
              (List.assoc a.Proto.at_core (Dispatch.builtin_cores ())))
      in
      if !Trace.enabled then
        span "netlist.structhash" (fun () -> ignore (Structhash.netlist nl));
      let stats =
        span "atpg.run" (fun () ->
            ignore (Fault.collapse nl);
            Podem.run nl)
      in
      Atpg (a.Proto.at_core, nl, stats)
  | _ -> invalid_arg "Layers.run: not a chip/explore/atpg request"

(* The request's cache scoping, as the dispatcher does it: open the named
   store for this request only, or run with none. *)
let run (req : Proto.t) =
  let store =
    Option.map
      (fun dir ->
        match span "cache.open" (fun () -> Cache.open_dir dir) with
        | Ok s -> s
        | Error e -> failwith (Err.to_string e))
      req.Proto.rq_cache
  in
  Cache.with_store store (fun () -> body req)

(* ------------------------------------------------------------------ *)
(* What the reply must say                                             *)
(* ------------------------------------------------------------------ *)

(* Chip TAT and chip-level DFT cells of every plan a result reports: the
   plan of a chip request, the best point of an explore trajectory. *)
let plans = function
  | Chip (_, Ok p) -> [ (p.Backend.p_total_time, p.Backend.p_area_overhead) ]
  | Chip (_, Error _) | Atpg _ -> []
  | Explore (_, traj) ->
      let best = Select.best_time_point traj in
      [ (best.Select.pt_time, best.Select.pt_area) ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let atpg_table name (stats : Podem.stats) nl =
  Socet_util.Ascii_table.render
    ~header:[ "core"; "faults"; "vectors"; "FC %"; "TEff %"; "aborted" ]
    [
      [
        name;
        string_of_int (List.length (Fault.collapse nl));
        string_of_int (List.length stats.Podem.vectors);
        Printf.sprintf "%.1f" stats.Podem.coverage;
        Printf.sprintf "%.1f" stats.Podem.efficiency;
        string_of_int (List.length stats.Podem.aborted);
      ];
    ]

(* [] when the dispatcher's reply states what [result] computed: the chip
   plan's totals, the best explore point, the whole ATPG table. *)
let agrees result (reply : (Dispatch.outcome, Err.t) Stdlib.result) =
  let expect what line =
    match reply with
    | Ok o when o.Dispatch.o_code = 0 && contains ~sub:line o.Dispatch.o_stdout -> []
    | Ok o ->
        [ Printf.sprintf "%s: reply (exit %d) lacks %S" what o.Dispatch.o_code (String.trim line) ]
    | Error e -> [ Printf.sprintf "%s: reply is an error: %s" what (Err.to_string e) ]
  in
  match result with
  | Chip (soc, Ok p) ->
      expect ("chip " ^ soc.Soc.soc_name)
        (Printf.sprintf "total time: %d cycles, area overhead: %d cells\n"
           p.Backend.p_total_time p.Backend.p_area_overhead)
  | Chip (soc, Error e) -> (
      match reply with
      | Error e' when Err.to_string e = Err.to_string e' -> []
      | _ -> [ Printf.sprintf "chip %s: plan failed (%s), reply did not" soc.Soc.soc_name (Err.to_string e) ])
  | Explore (soc, traj) ->
      let best = Select.best_time_point traj in
      expect ("explore " ^ soc.Soc.soc_name)
        (Printf.sprintf "best: area %d cells, TAT %d cycles\n" best.Select.pt_area
           best.Select.pt_time)
  | Atpg (name, nl, stats) -> expect ("atpg " ^ name) (atpg_table name stats nl)
