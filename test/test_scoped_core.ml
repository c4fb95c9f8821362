(* Incremental core maintenance (DESIGN.md §9):

   (a) scoped-fold completeness units — deltas that break the core
       property are folded, deltas that keep it are certified, and the
       documented regression instance (an old atom mapping onto a new
       ground delta atom, no fresh null involved) is caught;
   (b) generation stamps — content changes bump the epoch, no-ops do
       not, birth stamps track exactly the live atoms;
   (c) hom failure memo — failures are cached per epoch, hits are
       counted, generation advance invalidates, and the key (not the
       epoch) tells exclusion views of one base apart;
   (d) differential runs — Scoped and Exhaustive scoping produce
       equivalent chases on staircase/elevator prefixes and random KBs,
       and Audit mode (which raises on any core disagreement) passes
       over every core-cadence engine. *)

open Syntax

let atom p args = Atom.make p args

let with_scoping mode f =
  let saved = !Homo.Core.scoping in
  Homo.Core.scoping := mode;
  Fun.protect ~finally:(fun () -> Homo.Core.scoping := saved) f

let budget steps = { Chase.Variants.max_steps = steps; max_atoms = 5_000 }

(* ------------------------------------------------------------------ *)
(* (a) scoped-fold completeness *)

let test_scoped_catches_pair_fold () =
  (* A = {s(x,y), s(y,c), s(c,c), t(y)} is a core; adding D = {t(c)}
     lets y fold onto c (and then x).  No fresh null is involved — only
     the (t(y) → t(c)) pair search can catch it. *)
  let x = Term.fresh_var ~hint:"x" () and y = Term.fresh_var ~hint:"y" () in
  let c = Term.const "c" in
  let a =
    Atomset.of_list
      [ atom "s" [ x; y ]; atom "s" [ y; c ]; atom "s" [ c; c ]; atom "t" [ y ] ]
  in
  Alcotest.(check bool) "A is a core" true (Homo.Core.is_core a);
  let d = atom "t" [ c ] in
  let i = Atomset.add d a in
  let idx = Homo.Instance.of_atomset i in
  let r =
    with_scoping Homo.Core.Scoped (fun () ->
        Homo.Core.retraction_to_core_indexed
          ~scope:(Homo.Core.Delta { fresh = []; added = [ d ] })
          idx)
  in
  let core = Subst.apply r i in
  Alcotest.(check int) "core has 2 atoms" 2 (Atomset.cardinal core);
  Alcotest.(check bool) "core is s(c,c), t(c)" true
    (Atomset.equal core (Atomset.of_list [ atom "s" [ c; c ]; d ]))

let test_scoped_catches_fresh_fold () =
  (* A = {u(k0)} plus a delta atom on a fresh null folds back onto k0 *)
  let z = Term.fresh_var ~hint:"z" () in
  let k0 = Term.const "k0" in
  let a = Atomset.of_list [ atom "u" [ k0 ] ] in
  let d = atom "u" [ z ] in
  let idx = Homo.Instance.of_atomset (Atomset.add d a) in
  let r =
    with_scoping Homo.Core.Scoped (fun () ->
        Homo.Core.retraction_to_core_indexed
          ~scope:(Homo.Core.Delta { fresh = [ z ]; added = [ d ] })
          idx)
  in
  Alcotest.(check bool) "z folded to k0" true
    (match Subst.find z r with Some t -> Term.equal t k0 | None -> false)

let test_scoped_certifies_real_core () =
  (* a genuinely new ground edge keeps the instance a core: the scoped
     search must certify it with the empty retraction *)
  let e i j =
    atom "e" [ Term.const (Printf.sprintf "n%d" i); Term.const (Printf.sprintf "n%d" j) ]
  in
  let a = Atomset.of_list [ e 0 1; e 1 2 ] in
  let d = e 2 3 in
  let idx = Homo.Instance.of_atomset (Atomset.add d a) in
  let r =
    with_scoping Homo.Core.Scoped (fun () ->
        Homo.Core.retraction_to_core_indexed
          ~scope:(Homo.Core.Delta { fresh = []; added = [ d ] })
          idx)
  in
  Alcotest.(check bool) "identity retraction" true (Subst.is_empty r)

let test_scoped_agrees_with_full_on_random_deltas () =
  (* grow random instances one atom at a time, keeping the invariant "the
     instance is a core" by retracting after each addition; the scoped
     retraction must always land on a core isomorphic to the full one
     (Audit mode checks exactly that and raises on divergence) *)
  let rand =
    let state = ref 20240805 in
    fun bound ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      !state mod bound
  in
  let random_atom () =
    let preds = [| ("p", 2); ("q", 2); ("r", 1) |] in
    let p, ar = preds.(rand (Array.length preds)) in
    let term () =
      if rand 3 = 0 then Term.const (Printf.sprintf "c%d" (rand 3))
      else Term.var_of_id ~hint:"w" (820_000 + rand 8)
    in
    atom p (List.init ar (fun _ -> term ()))
  in
  with_scoping Homo.Core.Audit (fun () ->
      for _case = 1 to 20 do
        let idx = ref (Homo.Instance.of_atomset Atomset.empty) in
        for _step = 1 to 12 do
          let a = random_atom () in
          if not (Homo.Instance.mem !idx a) then begin
            idx := Homo.Instance.add_atoms !idx [ a ];
            let r =
              Homo.Core.retraction_to_core_indexed
                ~scope:(Homo.Core.Delta { fresh = Atom.vars a; added = [ a ] })
                !idx
            in
            idx := Homo.Instance.apply_subst r !idx
          end
        done
      done)

(* ------------------------------------------------------------------ *)
(* (b) generation stamps *)

let test_generation_monotone () =
  let g0 = Homo.Instance.generation Homo.Instance.empty in
  Alcotest.(check int) "empty is epoch 0" 0 g0;
  let a1 = atom "p" [ Term.const "a" ] in
  let i1 = Homo.Instance.add_atoms Homo.Instance.empty [ a1 ] in
  Alcotest.(check bool) "add bumps" true (Homo.Instance.generation i1 > g0);
  let i2 = Homo.Instance.add_atoms i1 [ a1 ] in
  Alcotest.(check int) "re-add is a no-op" (Homo.Instance.generation i1)
    (Homo.Instance.generation i2);
  let i3 = Homo.Instance.remove_atoms i2 [ a1 ] in
  Alcotest.(check bool) "remove bumps" true
    (Homo.Instance.generation i3 > Homo.Instance.generation i2);
  let i4 = Homo.Instance.remove_atoms i3 [ a1 ] in
  Alcotest.(check int) "re-remove is a no-op" (Homo.Instance.generation i3)
    (Homo.Instance.generation i4);
  let i5 = Homo.Instance.apply_subst Subst.empty i3 in
  Alcotest.(check int) "empty subst is a no-op" (Homo.Instance.generation i3)
    (Homo.Instance.generation i5)

let test_born_and_atoms_since () =
  let a1 = atom "p" [ Term.const "a" ] and a2 = atom "p" [ Term.const "b" ] in
  let i1 = Homo.Instance.add_atoms Homo.Instance.empty [ a1 ] in
  let g1 = Homo.Instance.generation i1 in
  let i2 = Homo.Instance.add_atoms i1 [ a2 ] in
  (match Homo.Instance.born i2 a1 with
  | Some s -> Alcotest.(check int) "a1 born at g1" g1 s
  | None -> Alcotest.fail "a1 has no birth stamp");
  Alcotest.(check bool) "a2 born after g1" true
    (match Homo.Instance.born i2 a2 with Some s -> s > g1 | None -> false);
  Alcotest.(check (list string)) "atoms_since g1 = [a2]"
    [ Fmt.str "%a" Atom.pp a2 ]
    (List.map (Fmt.str "%a" Atom.pp) (Homo.Instance.atoms_since i2 g1));
  Alcotest.(check int) "atoms_since 0 sees both" 2
    (List.length (Homo.Instance.atoms_since i2 0));
  Alcotest.(check bool) "invariants" true (Homo.Instance.invariants_ok i2)

let test_apply_subst_swaps_content () =
  (* a non-idempotent substitution swapping a 2-cycle must preserve both
     atoms (regression: interleaved remove/add lost one) *)
  let x = Term.fresh_var ~hint:"x" () and y = Term.fresh_var ~hint:"y" () in
  let pair = Atomset.of_list [ atom "e" [ x; y ]; atom "e" [ y; x ] ] in
  let swap = Subst.add x y (Subst.add y x Subst.empty) in
  let idx = Homo.Instance.apply_subst swap (Homo.Instance.of_atomset pair) in
  Alcotest.(check bool) "both atoms survive" true
    (Atomset.equal (Homo.Instance.atomset idx) pair);
  Alcotest.(check bool) "invariants" true (Homo.Instance.invariants_ok idx)

(* ------------------------------------------------------------------ *)
(* (c) hom failure memo *)

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.counters ()) with
  | Some v -> v
  | None -> 0

let with_metrics f =
  Obs.Metrics.reset ();
  Obs.Metrics.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.enabled := false) f

let test_memo_caches_failures () =
  Homo.Hom.memo_clear ();
  let src = Atomset.of_list [ atom "p" [ Term.const "a" ] ] in
  let tgt = Homo.Instance.of_atomset (Atomset.of_list [ atom "q" [ Term.const "a" ] ]) in
  let epoch = Homo.Instance.generation tgt in
  with_metrics (fun () ->
      let r1 = Homo.Hom.find ~memo:([| 99; 1 |], epoch) src tgt in
      Alcotest.(check bool) "first check fails" true (r1 = None);
      Alcotest.(check int) "one miss" 1 (counter_value "hom.memo_misses");
      Alcotest.(check int) "no hit yet" 0 (counter_value "hom.memo_hits");
      let r2 = Homo.Hom.find ~memo:([| 99; 1 |], epoch) src tgt in
      Alcotest.(check bool) "second check fails" true (r2 = None);
      Alcotest.(check int) "second check hits" 1 (counter_value "hom.memo_hits");
      (* growing the target bumps its generation: stale entry must miss *)
      let tgt' = Homo.Instance.add_atoms tgt [ atom "p" [ Term.const "a" ] ] in
      let epoch' = Homo.Instance.generation tgt' in
      Alcotest.(check bool) "epoch advanced" true (epoch' > epoch);
      let r3 = Homo.Hom.find ~memo:([| 99; 1 |], epoch') src tgt' in
      Alcotest.(check bool) "now finds a hom" true (r3 <> None);
      Alcotest.(check int) "stale entry missed" 2
        (counter_value "hom.memo_misses"))

let test_memo_disabled_bypasses () =
  Homo.Hom.memo_clear ();
  let src = Atomset.of_list [ atom "p" [ Term.const "a" ] ] in
  let tgt = Homo.Instance.of_atomset (Atomset.of_list [ atom "q" [ Term.const "a" ] ]) in
  let epoch = Homo.Instance.generation tgt in
  Homo.Hom.memo_enabled := false;
  Fun.protect
    ~finally:(fun () -> Homo.Hom.memo_enabled := true)
    (fun () ->
      with_metrics (fun () ->
          ignore (Homo.Hom.find ~memo:([| 99; 2 |], epoch) src tgt);
          ignore (Homo.Hom.find ~memo:([| 99; 2 |], epoch) src tgt);
          Alcotest.(check int) "no hits when disabled" 0
            (counter_value "hom.memo_hits");
          Alcotest.(check int) "no misses counted either" 0
            (counter_value "hom.memo_misses")))

let test_memo_successes_cached () =
  Homo.Hom.memo_clear ();
  let src = Atomset.of_list [ atom "p" [ Term.const "a" ] ] in
  let tgt = Homo.Instance.of_atomset (Atomset.of_list [ atom "p" [ Term.const "a" ] ]) in
  let epoch = Homo.Instance.generation tgt in
  with_metrics (fun () ->
      let r1 = Homo.Hom.find ~memo:([| 99; 3 |], epoch) src tgt in
      Alcotest.(check bool) "finds a hom" true (r1 <> None);
      let r2 = Homo.Hom.find ~memo:([| 99; 3 |], epoch) src tgt in
      Alcotest.(check bool) "replays the cached witness" true
        (match (r1, r2) with
        | Some s1, Some s2 -> Subst.equal s1 s2
        | _ -> false);
      Alcotest.(check int) "same-epoch success hits" 1
        (counter_value "hom.memo_hits");
      (* witness-returning calls never reuse a stale-epoch success: a new
         epoch means a fresh search (and a second miss) *)
      let tgt' = Homo.Instance.add_atoms tgt [ atom "q" [ Term.const "b" ] ] in
      let epoch' = Homo.Instance.generation tgt' in
      let r3 = Homo.Hom.find ~memo:([| 99; 3 |], epoch') src tgt' in
      Alcotest.(check bool) "searches again at the new epoch" true (r3 <> None);
      Alcotest.(check int) "find misses across epochs" 2
        (counter_value "hom.memo_misses");
      (* [exists] may revalidate the stale witness instead: σ(src) still
         lands inside the grown target, so no search runs *)
      let tgt'' = Homo.Instance.add_atoms tgt' [ atom "q" [ Term.const "c" ] ] in
      let epoch'' = Homo.Instance.generation tgt'' in
      Alcotest.(check bool) "exists via the stale witness" true
        (Homo.Hom.exists ~memo:([| 99; 3 |], epoch'') src tgt'');
      Alcotest.(check int) "stale-witness reuse is a hit" 2
        (counter_value "hom.memo_hits");
      Alcotest.(check int) "and not a miss" 2
        (counter_value "hom.memo_misses"))

(* The fold searches ask every question of one base index through
   exclusion views, keyed under the base's epoch: the key must name the
   excluded terms, since the epoch alone does not.  Two keys for two
   exclusions get two answers; a key reused with another exclusion
   replays the first answer — the caller-side contract of [~memo]. *)
let test_memo_key_determines_exclude () =
  Homo.Hom.memo_clear ();
  let a = Term.const "a" and b = Term.const "b" in
  let z = Term.fresh_var ~hint:"Z" () in
  let src = Atomset.of_list [ atom "p" [ z ] ] in
  let tgt =
    Homo.Instance.of_atomset (Atomset.of_list [ atom "p" [ a ]; atom "p" [ b ] ])
  in
  let epoch = Homo.Instance.generation tgt in
  let compiled = Homo.Hom.compile src in
  let image r = Option.map (fun s -> Subst.apply_term s z) r in
  let find key ex =
    Homo.Hom.find ~memo:([| 99; key |], epoch) ~compiled ~exclude:[ ex ] src tgt
  in
  with_metrics (fun () ->
      let without_a = find 4 a in
      Alcotest.(check (option string)) "minus p(a): z -> b" (Some "b")
        (Option.map (Fmt.str "%a" Term.pp) (image without_a));
      Alcotest.(check bool) "same key, same exclusion: a hit" true
        (find 4 a = without_a);
      Alcotest.(check int) "one hit" 1 (counter_value "hom.memo_hits");
      let without_b = find 5 b in
      Alcotest.(check (option string)) "other key, minus p(b): z -> a" (Some "a")
        (Option.map (Fmt.str "%a" Term.pp) (image without_b));
      Alcotest.(check int) "a miss per key" 2 (counter_value "hom.memo_misses");
      Alcotest.(check bool) "a key reused with another exclusion replays" true
        (find 4 b = without_a);
      Alcotest.(check int) "as a hit" 2 (counter_value "hom.memo_hits"))

(* ------------------------------------------------------------------ *)
(* (d) differential runs: Scoped ≡ Exhaustive, Audit everywhere *)

let equivalent_runs run_a run_b =
  let open Chase.Variants in
  run_a.outcome = run_b.outcome
  && run_a.rounds = run_b.rounds
  && Chase.Derivation.length run_a.derivation
     = Chase.Derivation.length run_b.derivation
  &&
  let fin r = (Chase.Derivation.last r.derivation).Chase.Derivation.instance in
  Atomset.cardinal (fin run_a) = Atomset.cardinal (fin run_b)
  && Homo.Morphism.hom_equivalent (fin run_a) (fin run_b)

let test_scoped_vs_full_runs () =
  let compare_on kb name steps =
    let scoped_run =
      with_scoping Homo.Core.Scoped (fun () ->
          Chase.Variants.core ~budget:(budget steps) kb)
    in
    let full_run =
      with_scoping Homo.Core.Exhaustive (fun () ->
          Chase.Variants.core ~budget:(budget steps) kb)
    in
    Alcotest.(check bool)
      (name ^ ": scoped and full runs equivalent")
      true
      (equivalent_runs scoped_run full_run)
  in
  compare_on (Zoo.Staircase.kb ()) "staircase" 20;
  compare_on (Zoo.Elevator.kb ()) "elevator" 15;
  List.iteri
    (fun i kb -> compare_on kb (Printf.sprintf "randomkb%d" i) 20)
    (Zoo.Randomkb.generate_many ~seed:23 ~count:3 Zoo.Randomkb.default)

let test_audit_core_both_cadences () =
  with_scoping Homo.Core.Audit (fun () ->
      let kb = Zoo.Staircase.kb () in
      ignore (Chase.Variants.core ~budget:(budget 20) kb);
      ignore
        (Chase.Variants.core ~cadence:Chase.Variants.Every_round
           ~budget:(budget 15) kb);
      ignore (Chase.Variants.core ~budget:(budget 15) (Zoo.Elevator.kb ())))

let test_audit_stream_core () =
  with_scoping Homo.Core.Audit (fun () ->
      ignore
        (List.of_seq
           (Seq.take 12 (Chase.Variants.stream ~variant:`Core (Zoo.Staircase.kb ())))))

let test_audit_egds_core () =
  with_scoping Homo.Core.Audit (fun () ->
      let x = Term.fresh_var ~hint:"X" ()
      and y = Term.fresh_var ~hint:"Y" ()
      and z = Term.fresh_var ~hint:"Z" () in
      let fd =
        Egd.make ~name:"fd"
          ~body:[ atom "emp" [ x; y ]; atom "emp" [ x; z ] ]
          y z
      in
      let x2 = Term.fresh_var ~hint:"X" () and w = Term.fresh_var ~hint:"W" () in
      let rule =
        Rule.make ~name:"hire"
          ~body:[ atom "dept" [ x2 ] ]
          ~head:[ atom "emp" [ x2; w ]; atom "dept" [ w ] ]
          ()
      in
      let kb =
        Kb.with_egds [ fd ]
          (Kb.of_lists
             ~facts:
               [
                 atom "dept" [ Term.const "d0" ];
                 atom "emp" [ Term.const "d0"; Term.const "e0" ];
               ]
             ~rules:[ rule ])
      in
      ignore (Chase.Variants.Egds.run ~variant:`Core ~budget:(budget 25) kb))

let test_audit_randomkb_core () =
  with_scoping Homo.Core.Audit (fun () ->
      List.iter
        (fun kb -> ignore (Chase.Variants.core ~budget:(budget 20) kb))
        (Zoo.Randomkb.generate_many ~seed:31 ~count:4 Zoo.Randomkb.default))

let suites =
  [
    ( "scoped_core.folds",
      [
        Alcotest.test_case "pair fold caught (regression)" `Quick
          test_scoped_catches_pair_fold;
        Alcotest.test_case "fresh-null fold caught" `Quick
          test_scoped_catches_fresh_fold;
        Alcotest.test_case "real core certified" `Quick
          test_scoped_certifies_real_core;
        Alcotest.test_case "random deltas audit clean" `Quick
          test_scoped_agrees_with_full_on_random_deltas;
      ] );
    ( "scoped_core.generations",
      [
        Alcotest.test_case "epoch bumps on change only" `Quick
          test_generation_monotone;
        Alcotest.test_case "birth stamps and atoms_since" `Quick
          test_born_and_atoms_since;
        Alcotest.test_case "apply_subst handles swaps" `Quick
          test_apply_subst_swaps_content;
      ] );
    ( "scoped_core.memo",
      [
        Alcotest.test_case "failures cached per epoch" `Quick
          test_memo_caches_failures;
        Alcotest.test_case "disabled memo bypasses" `Quick
          test_memo_disabled_bypasses;
        Alcotest.test_case "successes cached and revalidated" `Quick
          test_memo_successes_cached;
        Alcotest.test_case "memo key determines the exclusion" `Quick
          test_memo_key_determines_exclude;
      ] );
    ( "scoped_core.differential",
      [
        Alcotest.test_case "scoped ≡ full core runs" `Quick
          test_scoped_vs_full_runs;
        Alcotest.test_case "audit: core both cadences" `Quick
          test_audit_core_both_cadences;
        Alcotest.test_case "audit: stream core" `Quick test_audit_stream_core;
        Alcotest.test_case "audit: egds core" `Quick test_audit_egds_core;
        Alcotest.test_case "audit: random KBs" `Quick test_audit_randomkb_core;
      ] );
  ]
