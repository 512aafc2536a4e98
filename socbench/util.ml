(* Clocks, sample statistics, process facts and result printing shared by
   the three workloads. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A seeded permutation of [xs]. *)
let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run [f] on a pool of [k] domains, then restore the size. *)
let with_domains k f =
  let prev = Socet_util.Pool.size () in
  Socet_util.Pool.set_size k;
  Fun.protect ~finally:(fun () -> Socet_util.Pool.set_size prev) f

(* Nearest-rank percentile of a non-empty sample. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The highest of p99, p95 and p90 with at least ten samples beyond it,
   else the maximum (a run of a few long jobs).  [xs] must be independent
   samples.  Returns the value and the label recorded in the run
   metadata. *)
let tail xs =
  let n = List.length xs in
  match List.find_opt (fun p -> float_of_int n *. (1.0 -. p) >= 10.0) [ 0.99; 0.95; 0.90 ] with
  | Some p ->
      (percentile p xs, Printf.sprintf "p%.0f of %d samples" (100.0 *. p) n)
  | None -> (percentile 1.0 xs, Printf.sprintf "max of %d samples" n)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Aggregate CPU jiffies of the host as (steal, total), from /proc/stat:
   the share of time the hypervisor gave our vCPUs to someone else. *)
let cpu_steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      let fields =
        String.split_on_char ' ' line |> List.filter (fun f -> f <> "") |> List.tl
        |> List.filter_map int_of_string_opt
      in
      let steal = match List.nth_opt fields 7 with Some v -> v | None -> 0 in
      (steal, List.fold_left ( + ) 0 fields)

let hex s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes lives under this directory of the checkout. *)
let run_dir = "_socbench_run"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let fresh_dir name =
  let d = Filename.concat run_dir name in
  rm_rf d;
  mkdir_p d;
  d

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | st -> st.Unix.st_size

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The commit the checkout was taken from, when it is a git work tree;
   [source_digest] identifies the code either way. *)
let commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git work tree)"
  | Some head -> (
      let head = trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = trim (String.sub head (i + 1) (String.length head - i - 1)) in
          match read_file (Filename.concat ".git" r) with
          | Some h -> trim h
          | None -> "unknown (" ^ r ^ " is packed)")
      | _ -> head)

(* MD5 over every library source file, in sorted path order. *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  if Sys.file_exists "lib" then
    let paths = List.sort compare (files "lib") in
    hex
      (String.concat "\000"
         (List.map (fun p -> p ^ "\000" ^ Option.value ~default:"" (read_file p)) paths))
  else "unknown"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | Arr xs -> "[" ^ String.concat ", " (List.map json_to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_to_string (Str k) ^ ": " ^ json_to_string v) kvs)
      ^ "}"
