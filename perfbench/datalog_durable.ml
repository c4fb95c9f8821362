(* datalog-durable: a fold-free, monotone chase under the write-ahead log.

   One op = one KB of a seeded [Zoo.Randomkb.datalog] batch, chased to
   fixpoint by the restricted chase with every step journaled through
   [Storage.Wal.journal] (fsync after every record) into a fresh
   directory; then the log is closed, reopened and [Storage.Wal.recover]ed.
   Trigger discovery, the per-step engine cost and the WAL carry the
   load; core retraction and robust aggregation do nothing here.
   Recovery is the read side of the same layer, so a write-path gain
   that slows recovery shows in the same op.  Jobs 1.

   Checks: the restricted fixpoint equals [Chase.Datalog.saturate] on the
   same KB, and the recovered state's last instance equals the live
   run's final instance. *)

open Syntax
open Util

let config =
  {
    Zoo.Randomkb.datalog with
    n_predicates = 6;
    n_constants = 8;
    n_facts = 100;
    n_rules = 24;
  }

let budget = { Chase.Variants.max_steps = 1_000_000; max_atoms = 1_000_000 }

type st = {
  tmp : string;
  batch : Kb.t array;
  mutable dirs : int;
  mutable wal_bytes : int;
  mutable wal_steps : int;
}

let saturate kb = Chase.Datalog.saturate (Kb.rules kb) (Kb.facts kb)

let setup ~tmp ~seed ~count () =
  let batch = Array.of_list (Zoo.Randomkb.generate_many ~seed ~count config) in
  {
    tmp;
    batch;
    dirs = 0;
    wal_bytes = 0;
    wal_steps = 0;
  }

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what e)

let last_instance d = (Chase.Derivation.last d).Chase.Derivation.instance

(* Chase [kb] under a fresh WAL, then recover it; [check] compares the
   outputs with [expected ()]. *)
let run_kb st ~what kb expected =
  st.dirs <- st.dirs + 1;
  let dir = Filename.concat st.tmp (Printf.sprintf "wal-%d-%06d" (Unix.getpid ()) st.dirs) in
  let wal, sink =
    Spans.timed "wal.open" (fun () ->
        let wal =
          ok_exn "wal open"
            (Storage.Wal.open_dir ~sync:Storage.Wal.Sync_every ~quiet:true dir)
        in
        (wal, Storage.Wal.journal wal ~engine:"restricted" ~budget ()))
  in
  let journal ev = Spans.timed "wal.journal" (fun () -> sink ev) in
  let run, chase_s =
    cpu_timed (fun () ->
        Spans.timed "chase.call" (fun () -> Chase.Variants.restricted ~budget ~journal kb))
  in
  Spans.timed "wal.close" (fun () -> Storage.Wal.close wal);
  let recovered, recover_s =
    cpu_timed (fun () ->
        Spans.timed "wal.recover" (fun () ->
            let w = ok_exn "wal reopen" (Storage.Wal.open_dir ~quiet:true dir) in
            Fun.protect
              ~finally:(fun () -> Storage.Wal.close w)
              (fun () -> Storage.Wal.recover w kb)))
  in
  let steps = Chase.Derivation.length run.derivation - 1 in
  let check () =
    st.wal_bytes <- st.wal_bytes + dir_bytes dir;
    st.wal_steps <- st.wal_steps + steps;
    rm_rf dir;
    let final = last_instance run.derivation in
    let fail msg = Some (what ^ ": " ^ msg) in
    if run.outcome <> Chase.Variants.Fixpoint then
      fail "restricted chase did not reach a fixpoint"
    else if not (Atomset.equal final (expected ())) then
      fail "restricted fixpoint differs from Datalog.saturate"
    else
      match recovered with
      | Error e -> fail ("recovery failed: " ^ e)
      | Ok { Storage.Wal.r_state = None; _ } -> fail "recovery found no completed round"
      | Ok { Storage.Wal.r_state = Some s; _ } ->
          if Atomset.equal (last_instance s.Chase.Variants.state_derivation) final
          then None
          else fail "recovered instance differs from the live run"
  in
  { Closed.steps; chase_s; phases = [ ("recover", recover_s) ]; check }

let op st i =
  let k = i mod Array.length st.batch in
  let kb = st.batch.(k) in
  run_kb st ~what:(Printf.sprintf "op %d (KB %d)" i k) kb (fun () -> saturate kb)

(* KBs in a batch: more than a run's ops, so that each op's KB is a new
   draw and the median op is a median over as many KBs as possible. *)
let spec (ctx : ctx) =
  let count = if ctx.tiny then 4 else 500 in
  {
    Closed.setup =
      (fun () ->
        let st = setup ~tmp:ctx.tmp ~seed:ctx.seed ~count () in
        (* warm-up on a KB that is the same for every seed, so lazy
           initialisation is not timed and set-up cost does not depend
           on the seed *)
        let kb = Zoo.Randomkb.generate ~seed:0 config in
        ignore ((run_kb st ~what:"warm-up" kb (fun () -> saturate kb)).Closed.check ());
        st);
    op;
    count_ops = (if ctx.tiny then 2 else 20);
    layer_metrics =
      (fun st ->
        [ ("wal.bytes_per_step", ratio (float_of_int st.wal_bytes) (float_of_int st.wal_steps)) ]);
  }
