(* paper-core: the paper's own pipeline (Sections 8-9, Theorem 1).

   One op = the core chase of the staircase K_h and of the elevator K_v,
   the robust sequence of each derivation with its aggregation and
   Definition-15 invariant check, a treewidth bound of each aggregation,
   and both semi-procedures of Theorem 1 on one query.  This is the only
   workload where core retraction, robust aggregation and treewidth do
   real work.  Jobs 1, no WAL.

   The seed picks, per op, the two step budgets within a band (K_h 50-70,
   K_v 30-50) and the query from a fixed pool.  Each query's expected
   verdict comes from an independent oracle: whether it maps into a
   prefix of the KB's universal model (Definitions 8 and 10). *)

open Syntax
open Util

let atom = Atom.make

let var h = Term.fresh_var ~hint:h ()

type query = { name : string; on_h : bool; q : Kb.Query.t; entailed : bool }

type st = { seed : int; kh : Kb.t; kv : Kb.t; pool : query array }

let big = 1_000_000

(* Step budget of the chase inside [Entailment.via_chase]. *)
let entail_steps = 12

(* Largest domain the countermodel search tries. *)
let max_domain = 2

(* The query pool: (name, on K_h?, atoms).  Fixed for every seed. *)
let pool_spec () =
  let x = var "X" and y = var "Y" and z = var "Z" in
  [
    ("h:c", true, [ atom "c" [ x ] ]);
    ("h:v-c", true, [ atom "v" [ x; y ]; atom "c" [ y ] ]);
    ("h:f-h-f", true, [ atom "f" [ x ]; atom "h" [ x; y ]; atom "f" [ y ] ]);
    ("h:h-v-c", true, [ atom "h" [ x; y ]; atom "v" [ y; z ]; atom "c" [ z ] ]);
    ("h:v-loop", true, [ atom "v" [ x; x ] ]);
    ("h:c-f", true, [ atom "c" [ x ]; atom "f" [ x ] ]);
    ("h:g", true, [ atom "g" [ x ] ]);
    ("v:c-d", false, [ atom "c" [ x ]; atom "d" [ x ] ]);
    ("v:h-f", false, [ atom "h" [ x; y ]; atom "f" [ y ] ]);
    ("v:v-v", false, [ atom "v" [ x; y ]; atom "v" [ y; z ] ]);
    ("v:h-loop", false, [ atom "h" [ x; x ] ]);
    ("v:g", false, [ atom "g" [ x ] ]);
  ]

let setup seed () =
  let kh = Zoo.Staircase.kb () and kv = Zoo.Elevator.kb () in
  let model_h = (Zoo.Staircase.universal_model_prefix ~cols:8).Zoo.Staircase.atoms in
  let model_v = (Zoo.Elevator.universal_model_prefix ~cols:8).Zoo.Elevator.atoms in
  let pool =
    List.map
      (fun (name, on_h, atoms) ->
        let q = Kb.Query.make ~name atoms in
        let entailed =
          Corechase.Entailment.holds_in q (if on_h then model_h else model_v)
        in
        { name; on_h; q; entailed })
      (pool_spec ())
    |> Array.of_list
  in
  { seed; kh; kv; pool }

(* The seed-determined parameters of op [i]. *)
let params st i =
  let r = Random.State.make [| st.seed; i; 0x9c0e |] in
  let hsteps = 50 + Random.State.int r 21 in
  let vsteps = 30 + Random.State.int r 21 in
  (hsteps, vsteps, st.pool.(Random.State.int r (Array.length st.pool)))

let steps_of (run : Chase.Variants.run) = Chase.Derivation.length run.derivation - 1

let analyse (run : Chase.Variants.run) =
  let r =
    Spans.timed "robust.build" (fun () ->
        Corechase.Robust.of_derivation run.derivation)
  in
  let agg = Spans.timed "robust.aggregate" (fun () -> Corechase.Robust.aggregation r) in
  let inv = Spans.timed "robust.check" (fun () -> Corechase.Robust.check_invariants r) in
  let tw = Spans.timed "treewidth.bound" (fun () -> Treewidth.upper_bound agg) in
  (inv, tw)

let verdict_name = function
  | Corechase.Entailment.Entailed -> "entailed"
  | Not_entailed -> "not-entailed"
  | Unknown _ -> "unknown"

let run_op st i (hsteps, vsteps, query) =
  let chase kb steps =
    cpu_timed (fun () ->
        Spans.timed "chase.call" (fun () ->
            Chase.Variants.core ~budget:{ max_steps = steps; max_atoms = big } kb))
  in
  let rh, th = chase st.kh hsteps in
  let rv, tv = chase st.kv vsteps in
  let inv_h, tw_h = analyse rh in
  let inv_v, _ = analyse rv in
  let kb = if query.on_h then st.kh else st.kv in
  let by_chase =
    Spans.timed "entail.via_chase" (fun () ->
        Corechase.Entailment.via_chase
          ~budget:{ max_steps = entail_steps; max_atoms = big }
          kb query.q)
  in
  let by_model =
    Spans.timed "entail.countermodel" (fun () ->
        Corechase.Entailment.via_countermodel ~max_domain kb query.q)
  in
  let check () =
    let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
    match (inv_h, inv_v) with
    | Error e, _ -> fail "op %d: K_h robust invariants: %s" i e
    | _, Error e -> fail "op %d: K_v robust invariants: %s" i e
    | Ok (), Ok () ->
        if rh.outcome <> Chase.Variants.Step_budget || steps_of rh <> hsteps then
          fail "op %d: K_h chase stopped early (%d of %d steps)" i (steps_of rh) hsteps
        else if rv.outcome <> Chase.Variants.Step_budget || steps_of rv <> vsteps
        then fail "op %d: K_v chase stopped early (%d of %d steps)" i (steps_of rv) vsteps
        else if tw_h > 2 then
          fail "op %d: K_h aggregation treewidth bound %d > 2 (Prop. 12)" i tw_h
        else
          let want_chase, want_model =
            if query.entailed then (true, false) else (false, true)
          in
          let got_chase = by_chase = Corechase.Entailment.Entailed in
          let got_model = by_model = Corechase.Entailment.Not_entailed in
          if got_chase <> want_chase || got_model <> want_model then
            fail "op %d: query %s: via_chase %s, via_countermodel %s, oracle %s" i
              query.name (verdict_name by_chase) (verdict_name by_model)
              (if query.entailed then "entailed" else "not entailed")
          else None
  in
  { Closed.steps = steps_of rh + steps_of rv; chase_s = th +. tv; phases = []; check }

let op st i = run_op st i (params st i)

let spec (ctx : ctx) =
  {
    Closed.setup =
      (fun () ->
        let st = setup ctx.seed () in
        (* warm-up with mid-band budgets, the same for every seed, so
           lazy initialisation is not timed *)
        ignore ((run_op st (-1) (60, 40, st.pool.(0))).Closed.check ());
        st);
    op;
    count_ops = (if ctx.tiny then 2 else 6);
    layer_metrics = (fun _ -> []);
  }
