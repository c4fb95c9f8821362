open Syntax

type strategy = By_variable | By_atom

let strategy = ref By_variable

(* Delta-scoped folding (DESIGN.md §9).  [Full] searches every variable
   (resp. non-ground atom); [Delta] restricts the *first* fold search to
   the candidate set derived from the step's delta, which is complete as
   long as the pre-delta instance was a core.  Once one fold fires that
   invariant is consumed and the loop falls back to the full search. *)
type scope = Full | Delta of { fresh : Term.t list; added : Atom.t list }

(* Scoping policy, mirroring [Trigger.discovery]'s trichotomy: [Scoped]
   trusts the caller's [Delta] scopes, [Exhaustive] ignores them and
   always folds fully (the oracle), [Audit] runs both and fails loudly on
   disagreement (cores are compared up to isomorphism — they are only
   unique up to iso once a fold has fired). *)
type scoping = Scoped | Exhaustive | Audit

let scoping = ref Scoped

let m_scoped = Obs.Metrics.counter "core.scoped_searches"

let m_certified = Obs.Metrics.counter "core.scoped_certified"

let m_fallbacks = Obs.Metrics.counter "core.full_fallbacks"

module TSet = Set.Make (Term)

(* Memo keys (DESIGN.md §12): small int arrays over interned codes, one
   kind tag per fold-candidate family so keys of different families can
   never collide.  Tag 0 is [Trigger]'s satisfaction key; within a
   family the remaining elements determine the candidate uniquely
   ([key_pair] prefixes the first atom's arity so the two flattened
   atoms cannot be re-bracketed into each other). *)
let key_var x = [| 1; Flat.code_of_term x |]

let key_atom at =
  let f = Flat.encode at in
  Array.concat [ [| 2; Flat.pred f |]; Flat.args f ]

let key_fresh z = [| 3; Flat.code_of_term z |]

let key_pair b d =
  let fb = Flat.encode b and fd = Flat.encode d in
  Array.concat
    [
      [| 4; Flat.arity fb; Flat.pred fb |];
      Flat.args fb;
      [| Flat.pred fd |];
      Flat.args fd;
    ]

(* The fold search works on one index of the current instance and one
   compiled encoding of its atoms (DESIGN.md §9): every candidate target
   — the instance minus the atoms carrying one variable — is an
   exclusion view of that index, so a candidate costs neither a
   re-encoding of the source nor a copy of the index.  Per-candidate
   searches are memoised under the base instance's generation: within
   one epoch (notably when [Audit] re-runs the full search after the
   scoped one) each candidate is searched at most once.  The key names
   the candidate, which determines the excluded terms. *)
let fold_via_var idx a compiled epoch x =
  Hom.find ~memo:(key_var x, epoch) ~compiled ~exclude:[ x ] a idx

let fold_via_atom idx a compiled epoch at =
  if Atom.is_ground at then None
  else
    Hom.find ~memo:(key_atom at, epoch) ~compiled a
      (Instance.remove_atoms idx [ at ])

(* [Par.find_first_map] is [List.find_map] with jobs = 1; with a pool it
   evaluates the candidates in waves and keeps the lowest-index success,
   so the fold found (and hence the whole retraction chain) is the one
   the sequential search finds.  The source is compiled on the calling
   domain, and only when there is a candidate to search. *)
let find_fold_indexed idx =
  let a = Instance.atomset idx in
  let epoch = Instance.generation idx in
  let search fold = function
    | [] -> None
    | cands ->
        Par.find_first_map ~site:"core.fold" (fold idx a (Hom.compile a) epoch)
          cands
  in
  match !strategy with
  | By_variable -> search fold_via_var (Atomset.vars a)
  | By_atom -> search fold_via_atom (Atomset.to_list a)

let find_fold a = find_fold_indexed (Instance.of_atomset a)

(* The scoped first-fold search after one delta (DESIGN.md §9).  Writing
   the instance as [I = A ∪ D] with [A] a core and [D] the step's delta,
   any proper retraction [r] of [I] falls in exactly one of two cases:

   (a) [r] is the identity on [A] (an idempotent automorphism of a core
       is the identity), so it moves only the delta's fresh nulls — and
       in fact fixes every non-fresh variable of [I];

   (b) [r] moves a variable of [A]; then [r(A) ⊄ A], so some atom [b]
       maps onto a genuinely-new delta atom [d ∈ D ∖ A] with [b ≠ d].
       Atoms are flat, so [r]'s restriction to [vars b] is exactly the
       per-position unifier [h = extend_via_atom ∅ b d]; moreover [r],
       being idempotent, fixes [d]'s variables, and omits every atom
       containing an [h]-moved variable.

   Each case yields a finished search: (a) per alive fresh null [z], a
   search for an endomorphism fixing all non-fresh variables into
   [I ∖ atoms z]; (b) per unifiable pair [(b, d)] whose moved variables
   avoid [vars d], a single [h]-seeded search into [I] minus the atoms
   of all [h]-moved variables.  A [None] over all of them certifies that
   [I] is still a core — the dominant case on long chase prefixes, and
   the reason per-step cost tracks the delta.  [added] must list exactly
   the atoms of [D ∖ A] (new in the instance, not re-derived
   duplicates). *)
let moved_vars h b =
  List.filter
    (fun x ->
      match Subst.find x h with Some t -> not (Term.equal t x) | None -> false)
    (Atom.vars b)

let find_fold_scoped idx ~fresh ~added =
  Resilience.Fault.hit "fold";
  Resilience.poll ();
  let a = Instance.atomset idx in
  let epoch = Instance.generation idx in
  (* Both candidate families are enumerated (cheaply) up front on the
     calling domain, in the order the sequential search visits them; the
     seeded hom searches — the expensive part — then fan out over the
     pool, first-fired-fold resolution going to the lowest seed index
     (= the fold the sequential search fires).  [candidates] in the
     trace event counts the prefiltered seeded searches, whether or not
     an early success makes some of them moot. *)
  (* case (a): a fold eliminating a fresh null, identity elsewhere *)
  let freshset = List.fold_left (fun s z -> TSet.add z s) TSet.empty fresh in
  let alive_fresh =
    List.filter (fun z -> Instance.atoms_with_term idx z <> []) fresh
  in
  let keep_seed =
    (* forced on the calling domain: a shared [lazy] would race *)
    if alive_fresh = [] then Subst.empty
    else
      List.fold_left
        (fun s x -> if TSet.mem x freshset then s else Subst.add x x s)
        Subst.empty (Atomset.vars a)
  in
  let via_fresh compiled z =
    Hom.find ~memo:(key_fresh z, epoch) ~seed:keep_seed ~compiled
      ~exclude:[ z ] a idx
  in
  (* case (b): an old atom maps onto a new delta atom *)
  let pair_candidates =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun b ->
            if Atom.equal b d then None
            else
              match Hom.extend_via_atom Subst.empty b d with
              | None -> None
              | Some h -> (
                  match moved_vars h b with
                  | [] -> None
                  | moved
                    when List.exists
                           (fun x -> List.exists (Term.equal x) (Atom.vars d))
                           moved ->
                      (* an idempotent retraction fixes the variables of
                         its image atom [d]; a pair moving one cannot
                         witness (b) *)
                      None
                  | moved -> Some (b, d, h, moved)))
          (Instance.atoms_with_pred idx (Atom.pred d)))
      added
  in
  let via_pair compiled (b, d, h, moved) =
    Hom.find ~memo:(key_pair b d, epoch) ~seed:h ~compiled ~exclude:moved a idx
  in
  let searches = List.length alive_fresh + List.length pair_candidates in
  let r =
    if searches = 0 then None
    else
      (* one encoding of the instance for every seeded search *)
      let compiled = Hom.compile a in
      match
        Par.find_first_map ~site:"core.scoped" (via_fresh compiled) alive_fresh
      with
      | Some h -> Some h
      | None ->
          Par.find_first_map ~site:"core.scoped" (via_pair compiled)
            pair_candidates
  in
  if !Obs.Metrics.enabled then begin
    Obs.Metrics.incr m_scoped;
    Obs.Metrics.incr (if r = None then m_certified else m_fallbacks)
  end;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Core_scoped_fold
         {
           candidates = searches;
           folded = r <> None;
           size = Instance.cardinal idx;
         });
  r

let rec fold_loop sigma idx =
  Resilience.Fault.hit "fold";
  Resilience.poll ();
  match find_fold_indexed idx with
  | None -> (sigma, Instance.atomset idx)
  | Some h -> fold_loop (Subst.compose h sigma) (Instance.apply_subst h idx)

let fold_to_core scope idx =
  match scope with
  | Delta { fresh; added } when !scoping <> Exhaustive -> (
      let scoped () =
        match find_fold_scoped idx ~fresh ~added with
        | None -> (Subst.empty, Instance.atomset idx)
        | Some h ->
            (* the core invariant is consumed by the first fold; finish
               with the unconditional search *)
            fold_loop (Subst.compose h Subst.empty) (Instance.apply_subst h idx)
      in
      match !scoping with
      | Audit ->
          let _, s_core = scoped () in
          let f_sigma, f_core = fold_loop Subst.empty idx in
          if
            not
              (Atomset.cardinal s_core = Atomset.cardinal f_core
              && Morphism.isomorphic s_core f_core)
          then
            failwith
              (Fmt.str
                 "Core: delta-scoped fold disagrees with the full fold (%d \
                  vs %d atoms)"
                 (Atomset.cardinal s_core) (Atomset.cardinal f_core));
          (f_sigma, f_core)
      | _ -> scoped ())
  | _ -> fold_loop Subst.empty idx

let retraction_to_core_indexed ?(scope = Full) idx =
  let a = Instance.atomset idx in
  let sigma_star, c = fold_to_core scope idx in
  if Subst.is_empty sigma_star then Subst.empty
  else begin
    (* σ* : A → C is a homomorphism onto the core C; its restriction to C
       is an endomorphism of the finite core C, hence an automorphism.
       Pre-composing with the inverse yields a retraction. *)
    let g = Subst.restrict (Atomset.vars c) sigma_star in
    let r =
      if Subst.is_identity_on (Atomset.terms c) g then sigma_star
      else
        let g_inv = Morphism.invert_automorphism c g in
        Subst.compose g_inv sigma_star
    in
    assert (Subst.is_retraction_of a r);
    r
  end

let retraction_to_core ?scope a =
  retraction_to_core_indexed ?scope (Instance.of_atomset a)

let core_with_retraction a =
  let r = retraction_to_core a in
  (Subst.apply r a, r)

let of_atomset a = fst (core_with_retraction a)

let is_core a = match find_fold a with None -> true | Some _ -> false
