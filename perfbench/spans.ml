(* The traced run's span recorder.

   Two kinds of span:
   - bench-timed: [timed name f] wraps a public call the benchmark makes
     itself; spans nest by dynamic extent, so the innermost open span is
     the parent;
   - event-bounded: the [sink] below, installed as an [Obs.Trace.Custom]
     sink, closes a span at each discovery / application / retraction
     event the engines already emit, opened at the previous such event,
     the round start or the opening of the enclosing bench-timed span.

   Spans are kept in memory and written out once, at the end.  With
   recording off, [timed] is a plain call. *)

type span = {
  id : int;
  name : string;
  op : int;  (** op or request id the span belongs to *)
  mutable parent : int;  (** id of the enclosing span; -1 at top level *)
  t0 : float;
  t1 : float;
}

(* An open bench-timed span.  [last] is where its next event-bounded
   child starts: its opening, or the latest boundary event inside it.
   [pending] are the bench-timed children that closed since then; the
   next event-bounded child adopts them, so that a journal call made
   while the engine applies a trigger nests inside that step. *)
type frame = { fid : int; mutable last : float; mutable pending : span list }

let recording = ref false

let op_id = ref 0

let next_id = ref 0

let stack : frame list ref = ref []

let spans : span list ref = ref []

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let record ~id ~name ~parent t0 t1 =
  let s = { id; name; op = !op_id; parent; t0; t1 } in
  spans := s :: !spans;
  s

let timed name f =
  if not !recording then f ()
  else begin
    let id = fresh () in
    let parent = match !stack with fr :: _ -> fr.fid | [] -> -1 in
    let t0 = Util.now () in
    stack := { fid = id; last = t0; pending = [] } :: !stack;
    let close () =
      stack := List.tl !stack;
      let s = record ~id ~name ~parent t0 (Util.now ()) in
      match !stack with fr :: _ -> fr.pending <- s :: fr.pending | [] -> ()
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Event-bounded spans: from the innermost bench-timed span's previous
   boundary to this event.  Events outside any bench-timed span are not
   attributed. *)
let sink =
  Obs.Trace.Custom
    (fun ev ->
      match !stack with
      | [] -> ()
      | fr :: _ -> (
          let t = Util.now () in
          let leaf name =
            let id = fresh () in
            List.iter (fun s -> s.parent <- id) fr.pending;
            ignore (record ~id ~name ~parent:fr.fid fr.last t);
            fr.last <- t;
            fr.pending <- []
          in
          match ev with
          | Obs.Trace.Round_start _ ->
              fr.last <- t;
              fr.pending <- []
          | Obs.Trace.Trigger_found _ -> leaf "chase.discover"
          | Obs.Trace.Trigger_applied _ -> leaf "chase.step"
          | Obs.Trace.Retract _ -> leaf "core.retract"
          | _ -> ()))

(* Run [f] as op [id] with recording, metrics and the event sink on. *)
let traced_op id f =
  op_id := id;
  recording := true;
  Obs.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      recording := false;
      Obs.Metrics.enabled := false)
    (fun () -> Obs.Trace.with_sink sink f)

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1000.) else None)
    !spans

(* Seconds of each span covered by its direct children, keyed by id. *)
let child_cover () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    !spans;
  child

(* Per span name: (count, total ms, self ms), where a span's self time
   is its duration minus the time its direct children cover. *)
let self_times () =
  let child = child_cover () in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let n, tot, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        (n + 1, tot +. (d *. 1000.), self +. ((d -. c) *. 1000.)))
    !spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort compare

(* Median share of each [op] span's duration covered by its direct
   children: how much of an op the bench-timed layer spans explain. *)
let coverage () =
  let child = child_cover () in
  List.filter_map
    (fun s ->
      if s.name = "op" && s.t1 > s.t0 then
        let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
        Some (c /. (s.t1 -. s.t0))
      else None)
    !spans
  |> Util.median

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%s,\"op\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id (Util.json_str s.name) s.op s.parent (s.t0 *. 1e6) (s.t1 *. 1e6))
        (List.rev !spans))
