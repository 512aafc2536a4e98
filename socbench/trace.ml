(* The benchmark's own spans.  A traced pass wraps each public library call
   it makes in [span]; spans stay in memory and are written out once, at
   the end of the run.  Only the benchmark's files record spans — the
   library is measured from outside.

   Spans are recorded on the main domain only: the traced passes run their
   jobs one after another (the library may still fan work out over its
   pool inside a call), so spans nest and never overlap. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;  (** "<layer>.<call>", or "job" for a root *)
  job : int;  (** the job (request, fleet SOC) the span belongs to *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_job = ref (-1)

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  current_job := -1

let span name f =
  if (not !enabled) || not (Domain.is_main_domain ()) then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now () in
        stack := List.tl !stack;
        recorded := { id; parent; name; job = !current_job; t0; t1 } :: !recorded)
      f
  end

(* A root span around one job; everything the job does outside a layer
   span (rendering, result assembly) is its self time. *)
let job k f =
  if not !enabled then f ()
  else begin
    current_job := k;
    span "job" f
  end

(* Run [f] with spans on; the result, the spans and the pass's wall. *)
let traced f =
  reset ();
  enabled := true;
  let t0 = Util.now () in
  let v = Fun.protect ~finally:(fun () -> enabled := false) f in
  let t1 = Util.now () in
  (v, List.rev !recorded, t1 -. t0)

(* ------------------------------------------------------------------ *)
(* Roll-up                                                             *)
(* ------------------------------------------------------------------ *)

let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus the part its children
   cover.  Children never overlap (one domain, properly nested). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

type rollup = {
  wall : float;
  by_name : (string * float) list;  (** layer span self time, by span name *)
  other : float;  (** wall not covered by a layer span *)
}

(* Per-name self time, plus [other]: the part of the wall that no layer
   span covers (the union of their intervals, measured on the timeline).
   [sum by_name + other = wall] therefore holds only when layer spans nest
   properly and never overlap — {!Checks.rollup} tests it. *)
let rollup ~wall spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.name <> "job" then
        Hashtbl.replace tbl s.name
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  let intervals =
    List.sort compare (List.filter_map (fun s -> if s.name = "job" then None else Some (s.t0, s.t1)) spans)
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (c0, c1) when a <= c1 -> (acc, Some (c0, Float.max c1 b))
        | Some (c0, c1) -> (acc +. (c1 -. c0), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) intervals
  in
  let covered = match last with Some (c0, c1) -> covered +. (c1 -. c0) | None -> covered in
  {
    wall;
    by_name = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []);
    other = wall -. covered;
  }

let self_of r name = Option.value ~default:0.0 (List.assoc_opt name r.by_name)

(* Chrome trace-event JSON ("X" events), timestamps relative to the first
   span, for chrome://tracing or Perfetto. *)
let to_json ~meta spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let layer name =
    match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
  in
  Util.Obj
    [
      ("meta", meta);
      ( "traceEvents",
        Util.Arr
          (List.map
             (fun s ->
               Util.Obj
                 [
                   ("name", Util.Str s.name);
                   ("cat", Util.Str (layer s.name));
                   ("ph", Util.Str "X");
                   ("ts", Util.Num ((s.t0 -. base) *. 1e6));
                   ("dur", Util.Num (dur s *. 1e6));
                   ("pid", Util.Int 1);
                   ("tid", Util.Int 1);
                   ( "args",
                     Util.Obj
                       [
                         ("id", Util.Int s.id);
                         ("parent", Util.Int s.parent);
                         ("job", Util.Int s.job);
                       ] );
                 ])
             spans) );
    ]
