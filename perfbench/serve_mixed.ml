(* serve-mixed: the daemon path, reads beside a periodic writer.

   [corechase serve --jobs 2] runs as a child process on a Unix socket.
   Connection R sends seeded ENTAILs on an open-loop schedule at [rate]
   per second, each timed from when it was due; connection W does a
   LOAD inline + CHASE of the same seeded KB every [writer_period]
   seconds.  The CHASE holds the
   daemon's single select loop for about 250 ms, so the ENTAILs due
   meanwhile queue behind it (head-of-line blocking): that shows in the
   far tail of the printed ENTAIL latency (p95 and above).

   The end-to-end metrics are the daemon's CPU time, read from its
   process CPU clock and normalised by the [Yardstick] (the daemon
   inherits the benchmark's CPU pin): per ENTAIL, from its send to the
   next one's, over the intervals in which W had nothing in flight; and
   per CHASE, in a fenced phase after the open loop.  Wall-clock latency
   on a shared machine swings too much from run to run to bound, so it
   is printed but not reported.

   R reads session [r], which set-up loads and chases once; W writes
   session [w].  One session would not do: LOAD drops the session's
   chased snapshot, so an ENTAIL landing between W's LOAD and CHASE
   fails with "no chased snapshot" — a failure of the workload, not a
   measurement.

   The KB is datalog with no nulls (so its DLGP text round-trips): a
   30-node chain under quadratic transitive closure plus reachability,
   about 500 atoms at fixpoint.  The seed picks the constant names, the
   chain order and the query stream.  Every reply is checked byte for
   byte against [Server.Loopback] on the same KB and request. *)

open Util
module P = Server.Protocol

let rate = 100.

(* Seconds from one of W's LOADs to the next, on a fixed schedule, so
   every run has the same number of write cycles.  A CHASE takes about
   250 ms, so about 5% of the ENTAILs arrive while it blocks the loop:
   head-of-line blocking shows from p95 up (entail_ms.p99,
   entail_over_limit_ratio), and most ENTAILs run alone, so their CPU
   time can be read. *)
let writer_period = 4.75

let chain = 30

(* Size of the seeded query pool, a multiple of 8: index mod 8 is the
   query's kind. *)
let queries = 64

(* LOAD + CHASE repetitions of the fenced phase that measures the
   daemon's CPU time per CHASE. *)
let chase_reps = 7

(* The ENTAIL latency limit for [entail_over_limit_ratio]. *)
let limit_ms = 50.

let big = 1_000_000

(* --- KB and queries ------------------------------------------------ *)

type inputs = { kb_text : string; queries : string array }

let make_inputs ~seed ~tiny =
  let r = Random.State.make [| seed; 0x5e7e |] in
  let n = if tiny then 8 else chain in
  let names =
    Array.init n (fun i -> Printf.sprintf "n%d_%d" (Random.State.int r 1000) i)
  in
  (* a random order of the nodes along the chain *)
  for i = n - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = names.(i) in
    names.(i) <- names.(j);
    names.(j) <- t
  done;
  let b = Buffer.create 2048 in
  for i = 0 to n - 2 do
    Printf.bprintf b "e(%s,%s).\n" names.(i) names.(i + 1)
  done;
  Printf.bprintf b "src(%s).\n" names.(0);
  Buffer.add_string b
    "t(X,Y) :- e(X,Y).\n\
     t(X,Z) :- t(X,Y), t(Y,Z).\n\
     r(X) :- src(X).\n\
     r(Y) :- r(X), e(X,Y).\n";
  let node () = names.(Random.State.int r n) in
  (* three quarters boolean (about 0.13 ms of daemon CPU each, mostly
     socket and loop work), one quarter non-boolean (certain answers,
     about 1.2 ms each): p50 falls inside the boolean mode and p90 inside
     the non-boolean one, each well away from the edge between them *)
  let query k =
    match k mod 8 with
    | 0 | 1 | 2 -> Printf.sprintf "? :- t(%s,%s)." (node ()) (node ())
    | 3 | 4 | 5 -> Printf.sprintf "? :- t(%s,Y), t(Y,%s)." (node ()) (node ())
    | 6 -> Printf.sprintf "?(X) :- t(%s,X)." (node ())
    | _ -> Printf.sprintf "?(X) :- t(X,%s), r(X)." (node ())
  in
  { kb_text = Buffer.contents b; queries = Array.init queries query }

(* --- wire client --------------------------------------------------- *)

type conn = { fd : Unix.file_descr; mutable inbuf : string }

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let req_bytes req = P.encode { P.kind = P.K_req; payload = P.print_request req }

let read_more c =
  let b = Bytes.create 65536 in
  match Unix.read c.fd b 0 65536 with
  | 0 -> failwith "daemon closed the connection"
  | n -> c.inbuf <- c.inbuf ^ Bytes.sub_string b 0 n

(* The next complete response in the buffer: its raw bytes and frames,
   up to and including the final ok/err frame. *)
let take_response c =
  let rec go pos acc =
    match P.decode ~pos c.inbuf with
    | Error P.Truncated -> None
    | Error e -> failwith (Fmt.str "bad frame from daemon: %a" P.pp_error e)
    | Ok (f, used) -> (
        let pos = pos + used in
        match f.P.kind with
        | P.K_ok | P.K_err | P.K_bye ->
            let raw = String.sub c.inbuf 0 pos in
            c.inbuf <- String.sub c.inbuf pos (String.length c.inbuf - pos);
            Some (raw, List.rev (f :: acc))
        | P.K_hello ->
            c.inbuf <- String.sub c.inbuf pos (String.length c.inbuf - pos);
            go 0 []
        | _ -> go pos (f :: acc))
  in
  go 0 []

let rec await c =
  match take_response c with
  | Some r -> r
  | None ->
      read_more c;
      await c

let rpc c req =
  write_all c.fd (req_bytes req) 0;
  await c

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; inbuf = "" }

let final_payload frames = (List.nth frames (List.length frames - 1)).P.payload

let is_ok frames = (List.nth frames (List.length frames - 1)).P.kind = P.K_ok

(* --- the daemon ---------------------------------------------------- *)

let daemons : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  daemons := List.filter (( <> ) pid) !daemons

let () = at_exit (fun () -> List.iter reap !daemons)

type daemon = { pid : int; r : conn; w : conn }

let start_daemon ctx ~n =
  let dir = Filename.concat ctx.tmp (Printf.sprintf "serve-%d" n) in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "s.sock" and ready = Filename.concat dir "ready" in
  let args =
    [ ctx.cli; "serve"; "--listen"; "unix:" ^ sock; "--jobs"; "2"; "--ready-file";
      ready; "--quiet" ]
    @ if ctx.trace then [ "--metrics" ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process ctx.cli (Array.of_list args) null null Unix.stderr)
  in
  daemons := pid :: !daemons;
  let deadline = now () +. 60. in
  while not (Sys.file_exists ready) do
    if now () > deadline then failwith "daemon did not become ready";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited during start-up");
    Unix.sleepf 0.002
  done;
  let r = connect sock and w = connect sock in
  { pid; r; w }

(* --- one run ------------------------------------------------------- *)

type reply = { raw : string; frames : P.frame list }

type entail = {
  due : float;
  q : int;  (** index into the query array *)
  mutable got : float;  (** reply time; 0 until it arrives *)
  mutable reply : reply option;
  mutable codec_s : float;  (** client-side encode + decode time *)
  mutable sent : float;  (** when it was sent *)
  mutable sent_cpu : float;  (** the daemon's CPU clock then *)
  mutable cpu : (float * float) option;
      (** when the next ENTAIL was sent and the daemon's CPU seconds
          until then, if that interval held nothing but this ENTAIL's
          service *)
}

type write_cycle = {
  load : reply;
  chase : reply;
  load_s : float;
  chase_s : float;
}

let load_req session text = P.Load { session; source = P.From_text text }

let chase_req session =
  P.Chase { session; variant = Chase.Restricted; steps = big; atoms = big }

let entail_req q = P.Entail { session = "r"; query = q }

(* Set-up: daemon up, both connections open, session r loaded and
   chased, session w opened.  Returns the daemon and r's CHASE reply. *)
let setup ctx inputs ~n =
  let d = start_daemon ctx ~n in
  let expect what (raw, frames) =
    if not (is_ok frames) then
      failwith (Printf.sprintf "set-up %s failed: %s" what (final_payload frames));
    { raw; frames }
  in
  ignore (expect "OPEN r" (rpc d.r (P.Open "r")));
  ignore (expect "LOAD r" (rpc d.r (load_req "r" inputs.kb_text)));
  let chased = expect "CHASE r" (rpc d.r (chase_req "r")) in
  ignore (expect "OPEN w" (rpc d.w (P.Open "w")));
  (d, chased)

(* The measured window: R's open loop and W's cycles, multiplexed on one
   thread with select. *)
let window ctx inputs d =
  let total = max 10 (int_of_float (rate *. ctx.seconds)) in
  let t0 = now () +. 0.01 in
  let t_end = t0 +. (float_of_int total /. rate) in
  let r = Random.State.make [| ctx.seed; 0x0e17 |] in
  (* each block of 8 requests holds each query kind (its index mod 8)
     once, in a random order, so every seed sends the same mix *)
  let slots = Array.init 8 Fun.id in
  let reqs =
    Array.init total (fun k ->
        if k mod 8 = 0 then
          for i = 7 downto 1 do
            let j = Random.State.int r (i + 1) in
            let t = slots.(i) in
            slots.(i) <- slots.(j);
            slots.(j) <- t
          done;
        {
          due = t0 +. (float_of_int k /. rate);
          q = (8 * Random.State.int r (queries / 8)) + slots.(k mod 8);
          got = 0.;
          reply = None;
          codec_s = 0.;
          sent = 0.;
          sent_cpu = 0.;
          cpu = None;
        })
  in
  let sent = ref 0 and received = ref 0 and lag = ref 0. in
  let cycles = ref [] in
  (* W: idle until its next cycle time, or waiting for a LOAD reply
     (sent at t), or for a CHASE reply (sent at t, after [load]) *)
  let wstate = ref (`Idle t0) in
  let w_busy () = match !wstate with `Idle _ -> false | _ -> true in
  (* whether W had a request in flight since the last ENTAIL was sent *)
  let w_seen = ref false in
  let drain_deadline = t_end +. 30. in
  while
    (!received < total || w_busy ())
    && now () < drain_deadline
  do
    let t = now () in
    while !sent < total && reqs.(!sent).due <= t do
      let e = reqs.(!sent) in
      let bytes, enc = timed (fun () -> req_bytes (entail_req inputs.queries.(e.q))) in
      e.codec_s <- enc;
      lag := Float.max !lag (now () -. e.due);
      e.sent <- now ();
      e.sent_cpu <- process_cpu d.pid;
      (* the previous ENTAIL's service cost, if it ran alone *)
      (if !sent > 0 then
         let p = reqs.(!sent - 1) in
         if p.reply <> None && not !w_seen then
           p.cpu <- Some (e.sent, e.sent_cpu -. p.sent_cpu));
      w_seen := w_busy ();
      write_all d.r.fd bytes 0;
      incr sent
    done;
    (match !wstate with
    | `Idle next when t >= next && t < t_end ->
        write_all d.w.fd (req_bytes (load_req "w" inputs.kb_text)) 0;
        w_seen := true;
        wstate := `Loading (now ())
    | _ -> ());
    let next_due = if !sent < total then reqs.(!sent).due else t +. 0.05 in
    let next_w = match !wstate with `Idle n -> n | _ -> t +. 0.05 in
    let timeout = Float.max 0. (Float.min 0.05 (Float.min next_due next_w -. now ())) in
    let readable, _, _ =
      try Unix.select [ d.r.fd; d.w.fd ] [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem d.r.fd readable then begin
      read_more d.r;
      let rec drain () =
        let resp, dec = timed (fun () -> take_response d.r) in
        match resp with
        | None -> ()
        | Some (raw, frames) ->
            let e = reqs.(!received) in
            e.got <- now ();
            e.codec_s <- e.codec_s +. dec;
            e.reply <- Some { raw; frames };
            incr received;
            drain ()
      in
      drain ()
    end;
    (* a yardstick run when one is due, while the daemon is idle and
       the next ENTAIL is not due for a while *)
    if !received = !sent && (not (w_busy ())) && Yardstick.due ()
       && (!sent >= total || reqs.(!sent).due -. now () >= 0.008)
    then Yardstick.sample ();
    if List.mem d.w.fd readable then begin
      read_more d.w;
      let rec drain () =
        match take_response d.w with
        | None -> ()
        | Some (raw, frames) ->
            let t = now () in
            (match !wstate with
            | `Loading t_load ->
                write_all d.w.fd (req_bytes (chase_req "w")) 0;
                wstate := `Chasing (now (), { raw; frames }, t -. t_load)
            | `Chasing (t_chase, load, load_s) ->
                cycles := { load; chase = { raw; frames }; load_s; chase_s = t -. t_chase } :: !cycles;
                wstate := `Idle (t0 +. (float_of_int (List.length !cycles) *. writer_period))
            | `Idle _ -> failwith "unexpected reply on the writer connection");
            drain ()
      in
      drain ()
    end
  done;
  if !received < total then
    failwith (Printf.sprintf "only %d of %d ENTAIL replies arrived" !received total);
  (reqs, List.rev !cycles, t0, !lag)

(* "chased w generation 3: fixpoint, 465 steps, 495 atoms" -> 465 *)
let chase_steps payload =
  match String.index_opt payload ':' with
  | None -> 0
  | Some i -> (
      let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
      match String.split_on_char ',' rest with
      | _ :: steps :: _ -> (
          try Scanf.sscanf steps " %d steps" Fun.id with _ -> 0)
      | _ -> 0)

(* After the open loop, R idle: W repeats LOAD + CHASE, and the daemon's
   CPU clock is read around each CHASE.  A PING answered on each side
   fences it, so the daemon has finished everything before and after.
   Returns each cycle with the daemon's CPU seconds for its CHASE. *)
let fenced_chases ~reps inputs d =
  let runs =
    List.init reps (fun _ ->
        let raw, frames = rpc d.w (load_req "w" inputs.kb_text) in
        let load = { raw; frames } in
        ignore (rpc d.w P.Ping);
        Yardstick.sample ();
        let t0 = now () and c0 = process_cpu d.pid in
        let raw, frames = rpc d.w (chase_req "w") in
        ignore (rpc d.w P.Ping);
        let t1 = now () and c1 = process_cpu d.pid in
        ((load, { raw; frames }), (t0, t1, c1 -. c0)))
  in
  Yardstick.sample ();
  List.map (fun (r, (t0, t1, c)) -> (r, Yardstick.norm ~t0 ~t1 c)) runs

let encode_all frames = String.concat "" (List.map P.encode frames)

(* The daemon's METRICS reply as (name, integer value) pairs. *)
let daemon_counters c =
  let _, frames = rpc c P.Metrics in
  List.concat_map
    (fun f ->
      if f.P.kind <> P.K_data then []
      else
        String.split_on_char '\n' f.P.payload
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' l |> List.filter (( <> ) "") with
               | name :: v :: _ -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
               | _ -> None))
    frames

let run (ctx : ctx) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let inputs = make_inputs ~seed:ctx.seed ~tiny:ctx.tiny in
  let ctx = if ctx.tiny then { ctx with seconds = Float.min ctx.seconds 1. } else ctx in
  (* set up [Closed.setups] times; keep the last daemon *)
  let setups = ref [] and last = ref None in
  Yardstick.sample ();
  for n = 1 to Closed.setups do
    Option.iter (fun (d, _) -> reap d.pid) !last;
    (* CPU time of the set-up: this process's and all of the daemon's,
       read after a PING so that the daemon is idle *)
    let t0 = now () and c0 = cpu_now () in
    let ((d, _) as v) = setup ctx inputs ~n in
    ignore (rpc d.r P.Ping);
    let cpu = cpu_now () -. c0 +. process_cpu d.pid and t1 = now () in
    Yardstick.sample ();
    setups := Yardstick.norm ~t0 ~t1 cpu :: !setups;
    last := Some v
  done;
  let d, r_chased = Option.get !last in
  let pings =
    if not ctx.trace then []
    else List.init 200 (fun _ -> snd (timed (fun () -> rpc d.r P.Ping)))
  in
  let reqs, cycles, t0, lag = window ctx inputs d in
  let window_s = Array.fold_left (fun a e -> Float.max a e.got) 0. reqs -. t0 in
  (* the peak over set-up and the open loop, before the fenced phase:
     its back-to-back CHASEs leave a peak that swings by 20% from run
     to run, where the open loop's repeats within 3% *)
  let rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
  let fenced = fenced_chases ~reps:(if ctx.tiny then 1 else chase_reps) inputs d in
  let counters = if ctx.trace then daemon_counters d.r else [] in
  reap d.pid;
  (* checks: every reply byte-equal to the Loopback reply *)
  let lb = Server.Loopback.create () in
  let lreq req = Server.Loopback.request lb req in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  ignore (lreq (P.Open "r"));
  ignore (lreq (load_req "r" inputs.kb_text));
  if encode_all (lreq (chase_req "r")) <> r_chased.raw then
    fail "CHASE r reply differs from Loopback";
  ignore (lreq (P.Open "w"));
  let bad = ref 0 in
  let compare what (got : reply) want =
    if got.raw <> want || not (is_ok got.frames) then begin
      incr bad;
      if !bad <= 5 then
        fail "%s: reply differs from Loopback: %s" what (final_payload got.frames)
    end
  in
  List.iteri
    (fun k (load, chase) ->
      compare (Printf.sprintf "cycle %d LOAD w" k) load
        (encode_all (lreq (load_req "w" inputs.kb_text)));
      compare (Printf.sprintf "cycle %d CHASE w" k) chase
        (encode_all (lreq (chase_req "w"))))
    (List.map (fun c -> (c.load, c.chase)) cycles @ List.map fst fenced);
  let expected = Hashtbl.create 64 in
  Array.iteri
    (fun k e ->
      let want =
        match Hashtbl.find_opt expected e.q with
        | Some w -> w
        | None ->
            let w = encode_all (lreq (entail_req inputs.queries.(e.q))) in
            Hashtbl.replace expected e.q w;
            w
      in
      match e.reply with
      | Some rep -> compare (Printf.sprintf "ENTAIL %d (%s)" k inputs.queries.(e.q)) rep want
      | None -> incr bad)
    reqs;
  if !bad > 5 then fail "%d replies differ in all" !bad;
  let n = Array.length reqs in
  let lat = Array.to_list (Array.map (fun e -> (e.got -. e.due) *. 1000.) reqs) in
  let over =
    Array.fold_left
      (fun a e ->
        let ok = match e.reply with Some r -> is_ok r.frames | None -> false in
        if (not ok) || (e.got -. e.due) *. 1000. > limit_ms then a + 1 else a)
      0 reqs
  in
  let chase_ms = List.map (fun c -> c.chase_s *. 1000.) cycles in
  let steps =
    List.fold_left
      (fun a ((_, chase), _) -> a + chase_steps (final_payload chase.frames))
      0 fenced
  in
  let chase_cpu_s = List.map snd fenced in
  let entail_cpu_ms =
    Array.to_list reqs
    |> List.filter_map (fun e ->
           Option.map (fun (t1, c) -> 1000. *. Yardstick.norm ~t0:e.sent ~t1 c) e.cpu)
  in
  let attempted = n + (2 * (List.length cycles + List.length fenced)) and failed = !bad in
  let e2e =
    [
      m "setup_s" "s" (median !setups);
      m "ops_per_norm_s" "1/s"
        (ratio (float_of_int (List.length entail_cpu_ms)) (sum entail_cpu_ms /. 1000.));
      m "op_norm_ms.p50" "ms" (quantile 0.5 entail_cpu_ms);
      m "op_norm_ms.p90" "ms" (quantile 0.9 entail_cpu_ms);
      m "steps_per_norm_s" "1/s" (ratio (float_of_int steps) (sum chase_cpu_s));
      m "chase_norm_ms.p50" "ms" (1000. *. median chase_cpu_s);
      m "peak_rss_mb" "MiB" rss;
    ]
  in
  let extra =
    [
      m "ops_per_s" "1/s" (float_of_int n /. window_s);
      m "entail_cpu_samples" "count" (float_of_int (List.length entail_cpu_ms));
      m "yardstick_ms.p50" "ms" (Yardstick.median_ms ());
      m "entail_ms.p50" "ms" (quantile 0.5 lat);
      m "entail_ms.p99" "ms" (quantile 0.99 lat);
      m "entail_over_limit_ratio" "ratio" (ratio (float_of_int over) (float_of_int n));
      m "chase_req_ms.p50" "ms" (median chase_ms);
      m "load_req_ms.p50" "ms" (median (List.map (fun c -> c.load_s *. 1000.) cycles));
      m "failed_ratio" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
      m "entail_requests" "count" (float_of_int n);
      m "write_cycles" "count" (float_of_int (List.length cycles));
      m "generator_lag_ms.max" "ms" (lag *. 1000.);
    ]
  in
  let layers =
    if not ctx.trace then []
    else begin
      (* service times without the socket: the same requests through
         Loopback, untraced and then traced *)
      let exec_pass traced =
        let lb = Server.Loopback.create () in
        List.iter
          (fun req -> ignore (Server.Loopback.request lb req))
          [ P.Open "r"; load_req "r" inputs.kb_text; chase_req "r" ];
        let minor0 = Gc.minor_words () in
        let times =
          Array.mapi
            (fun k e ->
              let go () = Server.Loopback.request lb (entail_req inputs.queries.(e.q)) in
              snd
                (timed (fun () ->
                     if traced then Spans.traced_op k (fun () -> Spans.timed "session.entail_exec" go)
                     else go ())))
            reqs
        in
        (times, (Gc.minor_words () -. minor0) /. float_of_int n)
      in
      let plain, minor_per_op = exec_pass false in
      let traced, _ = exec_pass true in
      let chase_exec =
        let lb = Server.Loopback.create () in
        ignore (Server.Loopback.request lb (P.Open "w"));
        List.map
          (fun _ ->
            ignore (Server.Loopback.request lb (load_req "w" inputs.kb_text));
            snd (timed (fun () -> Server.Loopback.request lb (chase_req "w"))) *. 1000.)
          cycles
      in
      let waits =
        Array.to_list
          (Array.mapi (fun k e -> ((e.got -. e.due) -. plain.(k)) *. 1000.) reqs)
      in
      (* parse times, averaged over [reps] parses: a query parses in
         about a microsecond, near the clock's resolution *)
      let reps = 200 in
      let parse_time text =
        let ok, dt =
          timed (fun () ->
              let ok = ref true in
              for _ = 1 to reps do
                ok := !ok && Result.is_ok (Syntax.Dlgp.parse_string text)
              done;
              !ok)
        in
        if not ok then failwith ("does not parse: " ^ text);
        dt /. float_of_int reps
      in
      let parse_kb = parse_time inputs.kb_text *. 1000. in
      let parse_q = Array.to_list (Array.map (fun q -> parse_time q *. 1e6) inputs.queries) in
      Array.iteri
        (fun k e ->
          Spans.op_id := k;
          let op = Spans.fresh () in
          ignore (Spans.record ~id:op ~name:"op" ~parent:(-1) e.due e.got);
          ignore
            (Spans.record ~id:(Spans.fresh ()) ~name:"protocol.codec" ~parent:op e.due
               (e.due +. e.codec_s)))
        reqs;
      let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
      let us xs = List.map (fun s -> s *. 1e6) xs in
      Closed.count_layers c ~steps:(float_of_int steps)
      @ [
          ("session.entail_exec_us.p50", median (us (Array.to_list plain)));
          ("session.chase_exec_ms.p50", median chase_exec);
          ("protocol.codec_us.p50", median (us (Array.to_list (Array.map (fun e -> e.codec_s) reqs))));
          ("transport.ping_rtt_us.p50", median (us pings));
          ("serve.queue_wait_ms.p99", quantile 0.99 waits);
          ("serve.requests", c "serve.requests");
          ("dlgp.parse_kb_ms", parse_kb);
          ("dlgp.parse_query_us.p50", median parse_q);
          ("gc.minor_words_per_op", minor_per_op);
          ("trace.overhead_ratio",
            ratio (median (Array.to_list traced)) (median (Array.to_list plain)));
          ("trace.span_coverage", Spans.coverage ());
        ]
    end
  in
  let notes = List.rev_map (fun s -> "FAILED: " ^ s) !failures in
  ( { attempted; failed; correct = !failures = []; metrics = e2e; extra; notes },
    layers )
