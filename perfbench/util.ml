(* Clock, order statistics, process memory and the result record shared
   by the three workloads. *)

let now = Unix.gettimeofday

(* Wall time of [f ()] in seconds, with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds (all threads) process [pid] has used so far; 0 is this
   process.  On a shared virtual machine the kernel leaves out of it the
   time the process waited for a CPU, its own or the host's (steal),
   which is what makes wall time swing from run to run there. *)
external process_cpu : int -> float = "perfbench_process_cpu"

let cpu_now () = process_cpu 0

(* CPU time of [f ()] in seconds, with its result. *)
let cpu_timed f =
  let c0 = cpu_now () in
  let v = f () in
  (v, cpu_now () -. c0)

(* Linear-interpolated quantile (numpy's default) of an unsorted
   sample; 0 on the empty sample. *)
let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0. xs

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set size (VmHWM) of a process, in MiB; 0 when
   unreadable. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* A named value with its unit, as printed in the result line. *)
type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* What a workload run hands back to [Corebench]: [metrics] are the
   contract's metrics for the run's mode, [extra] are printed on the
   human-readable lines only. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  extra : metric list;
  notes : string list;
}

(* The options every workload receives. *)
type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  tmp : string;  (** scratch directory, created and removed by run.py *)
  out : string;  (** directory for the benchmark's own result files *)
  cli : string;  (** the corechase executable, for the serve daemon *)
  tiny : bool;  (** self-test size: minimal inputs, a few ops *)
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let dir_bytes path =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat path f) with
      | { Unix.st_size; _ } -> acc + st_size
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir path)

(* JSON number with all its digits; non-finite values become 0. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
