(* How fast the machine runs right now, and CPU times scaled by it.

   On a shared virtual machine the same code can run 1.7 times slower
   for seconds at a time, on one virtual CPU and not the other, with no
   steal time to show for it: neighbours on the same physical core.
   CPU time does not leave that out, so the benchmark runs a fixed
   kernel next to the work it measures, on the same CPU (the process is
   pinned, and the daemon inherits the pin), and scales each CPU time
   by the kernel's time measured around it.  A normalised time is the
   CPU time the work would take on a machine where one kernel run takes
   [nominal_ms].

   The kernel belongs to the benchmark and uses only the standard
   library, so no change to corechase can move it.  Its mix (small
   allocations, sorting, hashing, a balanced tree) is the kind of work
   the chase does. *)

module IntMap = Map.Make (Int)

(* About what one kernel run takes on an idle core of a 2-vCPU Xeon
   (Sapphire Rapids) virtual machine. *)
let nominal_ms = 5.0

let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for round = 0 to 2 do
    let l = List.init 3000 (fun i -> (((i * 7919) + round) mod 10007, i)) in
    let l = List.sort compare l in
    List.iter (fun (k, v) -> Hashtbl.replace h (k, round) v) l;
    let m = List.fold_left (fun m (k, v) -> IntMap.add k v m) IntMap.empty l in
    acc := !acc + IntMap.cardinal m + Hashtbl.length h;
    Hashtbl.reset h
  done;
  !acc

(* Kernel runs so far, newest first: (wall-clock midpoint, CPU seconds). *)
let samples : (float * float) list ref = ref []

(* Run the kernel once and record how long it took. *)
let sample () =
  let t0 = Util.now () and c0 = Util.cpu_now () in
  ignore (Sys.opaque_identity (kernel ()));
  let c = Util.cpu_now () -. c0 in
  samples := ((t0 +. Util.now ()) /. 2., c) :: !samples

(* Whether the last kernel run was [every] seconds ago or more.  The
   machine's speed holds for seconds at a time, so work that runs often
   need not run the kernel each time. *)
let every = 0.2

let due () =
  match !samples with (t, _) :: _ -> Util.now () -. t >= every | [] -> true

(* The kernel's CPU seconds around the interval [t0, t1]: the mean of
   the last run before its midpoint and the first run after it, or the
   one of them there is. *)
let around t0 t1 =
  let mid = (t0 +. t1) /. 2. in
  let rec go after = function
    | (t, c) :: older when t > mid -> go (Some c) older
    | (_, c) :: _ -> ( match after with Some a -> (a +. c) /. 2. | None -> c)
    | [] -> (
        match after with Some a -> a | None -> invalid_arg "Yardstick.around: no sample")
  in
  go None !samples

(* [cpu_s] CPU seconds spent during [t0, t1], normalised. *)
let norm ~t0 ~t1 cpu_s = cpu_s *. (nominal_ms /. 1000.) /. around t0 t1

(* Median CPU milliseconds of the kernel runs so far. *)
let median_ms () = 1000. *. Util.median (List.map snd !samples)

external pin_cpu : unit -> int = "perfbench_pin_cpu"
