open Syntax

let naive_order = ref false

(* Representation switch (DESIGN.md §12): the production solver runs on
   the flat interned codes ([solve_flat]); the boxed tree-walking solver
   is kept as the executable specification — the [abl:hom:repr] bench
   row measures the gap and the property tests diff the two on random
   inputs.  Both implement the same search (same atom selection, same
   candidate order, same backtrack accounting), so flipping the switch
   changes nothing observable but speed. *)
let flat_enabled = ref true

(* Observability (DESIGN.md §8): one counter pair for the backtracking
   search.  A "backtrack" is a candidate target atom that failed to extend
   the current partial homomorphism (or violated injectivity); the count is
   accumulated in a local ref — one increment per dead end — and flushed to
   the registry / trace sink only when observability is live, so the
   disabled path adds nothing to the search itself.  [hom.minor_words]
   accumulates the solver's own minor-heap allocation (a [Gc.minor_words]
   delta per call), making the flat path's allocation-free matching
   measurable rather than asserted. *)
let m_solve_calls = Obs.Metrics.counter "hom.solve_calls"

let m_backtracks = Obs.Metrics.counter "hom.backtracks"

let m_minor_words = Obs.Metrics.counter "hom.minor_words"

(* Resilience (DESIGN.md §11): the search recurses once per source atom,
   so an adversarially deep pattern (e.g. a folded chain) can exhaust the
   system stack from inside a chase step.  An explicit bound raises the
   same [Stack_overflow] the engine boundary already classifies as
   [Resource `Stack_overflow] — but deterministically, long before the
   runtime guard page.  [CORECHASE_HOM_DEPTH] overrides the default. *)
let default_max_depth = 50_000

let max_depth =
  ref
    (match Sys.getenv_opt "CORECHASE_HOM_DEPTH" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ -> default_max_depth)
    | None -> default_max_depth)

module TS = Set.Make (Term)

let extend_pair sigma pat_t tgt_t acc_new =
  match pat_t with
  | Term.Const _ -> if Term.equal pat_t tgt_t then Some (sigma, acc_new) else None
  | Term.Var _ -> (
      match Subst.find pat_t sigma with
      | Some img -> if Term.equal img tgt_t then Some (sigma, acc_new) else None
      | None -> Some (Subst.add pat_t tgt_t sigma, (pat_t, tgt_t) :: acc_new))

let extend_via_atom_full sigma pattern target =
  if
    (not (String.equal (Atom.pred pattern) (Atom.pred target)))
    || Atom.arity pattern <> Atom.arity target
  then None
  else
    let rec go sigma acc_new ps ts =
      match (ps, ts) with
      | [], [] -> Some (sigma, acc_new)
      | p :: ps', t :: ts' -> (
          match extend_pair sigma p t acc_new with
          | None -> None
          | Some (sigma', acc') -> go sigma' acc' ps' ts')
      | _ -> None
    in
    go sigma [] (Atom.args pattern) (Atom.args target)

let extend_via_atom sigma pattern target =
  Option.map fst (extend_via_atom_full sigma pattern target)

(* Boxed reference solver.  [k] is called on every solution; raising from
   [k] aborts the search (used for early exit).  [bt]/[nodes] are owned
   by the wrapper below. *)
let solve_boxed ~bt ~nodes ~seed ~injective ~k (src : Atomset.t)
    (tgt : Instance.t) : unit =
  (* The not-yet-matched source atoms live in the prefix [0, live) of a
     worklist array; each entry keeps its original rank so ties in the
     most-constrained-first selection break exactly as they did when the
     worklist was an ordered list.  Removal is an O(1) swap with the last
     live slot.  Deeper recursion may permute the live prefix (swaps are
     never undone on backtrack), which is harmless: the prefix always holds
     the same *set* of atoms, and selection below is a function of
     (candidate count, original rank), not of array order. *)
  let arr =
    Array.of_list (List.mapi (fun i a -> (i, a)) (Atomset.to_list src))
  in
  (* Under injectivity, track the set of image terms already in use.  The
     initial set contains the seed's images and the source's constants
     (which are their own images). *)
  let init_used =
    if not injective then TS.empty
    else
      List.fold_left
        (fun used v ->
          match Subst.find v seed with
          | Some img -> TS.add img used
          | None -> used)
        (TS.of_list (Atomset.consts src))
        (Atomset.vars src)
  in
  let rec go sigma used live =
    incr nodes;
    (* Deadline polls are decimated: one ambient-token check every 256
       search nodes keeps the no-token path to an atomic read amortised
       over the hot recursion (DESIGN.md §11). *)
    if !nodes land 255 = 0 then Resilience.poll ();
    if live = 0 then k sigma
    else begin
      let best = ref 0 in
      if live > 1 then
        if !naive_order then
          (* fixed textual order: the live atom of smallest original rank *)
          for i = 1 to live - 1 do
            if fst arr.(i) < fst arr.(!best) then best := i
          done
        else begin
          (* most-constrained-first: smallest candidate bucket.  One pass
             per level; each count is read off the cached bucket
             cardinalities.  Ties go to the smallest original rank — the
             same atom the ordered-list version selected first. *)
          let bc = ref (Instance.candidate_count tgt (snd arr.(0)) sigma) in
          for i = 1 to live - 1 do
            let c = Instance.candidate_count tgt (snd arr.(i)) sigma in
            if c < !bc || (c = !bc && fst arr.(i) < fst arr.(!best)) then begin
              best := i;
              bc := c
            end
          done
        end;
      let chosen = arr.(!best) in
      arr.(!best) <- arr.(live - 1);
      arr.(live - 1) <- chosen;
      match_next sigma used (snd chosen) (live - 1)
    end
  and match_next sigma used next live =
    let try_candidate target_atom =
      match extend_via_atom_full sigma next target_atom with
      | None -> incr bt
      | Some (sigma', new_bindings) ->
          if injective then begin
            (* each fresh image must be unused, and fresh images must be
               pairwise distinct (checked by sequential insertion) *)
            let rec check used = function
              | [] -> Some used
              | (_, img) :: rest ->
                  if TS.mem img used then None
                  else check (TS.add img used) rest
            in
            match check used new_bindings with
            | None -> incr bt
            | Some used' -> go sigma' used' live
          end
          else go sigma' used live
    in
    List.iter try_candidate (Instance.candidates tgt next sigma)
  in
  go seed init_used (Array.length arr)

(* Compiled sources: the flat solver's encoding of a source atomset,
   independent of any target, so one fold search encodes the instance
   once and reuses it for every candidate (DESIGN.md §9, §12).  The
   source's variables get dense slots ([c_vars]: slot -> variable) and
   each pattern atom, identified by its rank in [Atomset.to_list src],
   becomes a predicate id plus codes with [lnot slot] for the
   variables.  Immutable, so pool workers share it.  [c_src] is the
   source it encodes: [solve] uses a compiled source only for that very
   atomset. *)
type compiled = {
  c_src : Atomset.t;
  c_vars : Term.t array;
  c_pred : int array;
  c_args : int array array;
  c_consts : int list;  (** codes of the source's constants, repeats allowed *)
}

let compile (src : Atomset.t) : compiled =
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rev_vars = ref [] in
  let nslots = ref 0 in
  let consts = ref [] in
  let enc_term t =
    match t with
    | Term.Const _ ->
        (* interning (not [code_of_term_opt]): a never-seen constant gets
           a real id that no target atom carries, so it fails to match
           exactly as boxed [Term.equal] does *)
        let code = Flat.code_of_term t in
        consts := code :: !consts;
        code
    | Term.Var v -> (
        match Hashtbl.find_opt slot_of v.Term.id with
        | Some s -> lnot s
        | None ->
            let s = !nslots in
            incr nslots;
            Hashtbl.add slot_of v.Term.id s;
            rev_vars := t :: !rev_vars;
            lnot s)
  in
  let atoms = Atomset.to_list src in
  let n = List.length atoms in
  let c_pred = Array.make n 0 and c_args = Array.make n [||] in
  List.iteri
    (fun i a ->
      c_pred.(i) <- Flat.Symtab.intern (Atom.pred a);
      c_args.(i) <- Array.of_list (List.map enc_term (Atom.args a)))
    atoms;
  {
    c_src = src;
    c_vars = Array.of_list (List.rev !rev_vars);
    c_pred;
    c_args;
    c_consts = !consts;
  }

(* The injectivity table of a non-injective search, which is never read
   or written: a placeholder saves an allocation per call. *)
let no_used : (int, unit) Hashtbl.t = Hashtbl.create 1

(* The view of a search without exclusions, which is never read: a
   placeholder like [no_used]. *)
let no_view = Instance.excluding Instance.empty []

(* One index handle per pattern, resolved once per predicate run:
   atomset order sorts by predicate, so equal predicates are adjacent. *)
let per_pred_run cpred make =
  let npats = Array.length cpred in
  if npats = 0 then [||]
  else begin
    let h = Array.make npats (make cpred.(0)) in
    for p = 1 to npats - 1 do
      h.(p) <- (if cpred.(p) = cpred.(p - 1) then h.(p - 1) else make cpred.(p))
    done;
    h
  end

(* Flat solver: the same search over interned codes.  The inner loop
   touches only int arrays: the partial homomorphism is [bind]
   (slot -> code, [Flat.no_code] when unbound), candidate matching
   compares codes positionally, and undo pops a slot trail.  Patterns
   are named by their rank [p] in the compiled source; the live ones
   are the prefix [0, live) of [order], and each pattern's index handle
   is resolved once per call.  No [Subst.t], no [Term.t] and no list is
   built until a full solution is emitted. *)
let solve_flat ~bt ~nodes ~seed ~injective ~k (c : compiled)
    (tgt : Instance.t) (view : Instance.view option) : unit =
  let vars = c.c_vars and cpred = c.c_pred and cargs = c.c_args in
  let n = Array.length vars in
  let npats = Array.length cpred in
  let order = Array.init npats Fun.id in
  let bind = Array.make (max n 1) Flat.no_code in
  let seeded = Array.make (max n 1) false in
  let trail = Array.make (max n 1) 0 in
  let tp = ref 0 in
  for s = 0 to n - 1 do
    match Subst.find vars.(s) seed with
    | Some img ->
        bind.(s) <- Flat.code_of_term img;
        seeded.(s) <- true
    | None -> ()
  done;
  (* Injectivity: the codes already used as images — the source's
     constants (their own images) and the seed's images.  Entries from
     this initialisation are permanent; only trail-recorded additions are
     undone. *)
  let used = if injective then Hashtbl.create 32 else no_used in
  if injective then begin
    List.iter (fun code -> Hashtbl.replace used code ()) c.c_consts;
    for s = 0 to n - 1 do
      if seeded.(s) then Hashtbl.replace used bind.(s) ()
    done
  end;
  (* Decode a full assignment back to a boxed substitution.  Images are
     decoded through the instance's witness terms, so variable hints (and
     hence printed output) are the ones the target atoms carry — bit-
     identical to what the boxed solver binds.  Every bound code comes
     from a target atom, so the witness exists; the [Flat.term_of_code]
     fallback is belt and braces.  Under a view the witness may sit in a
     hidden atom: it is the one [remove_atoms] keeps too, since removal
     never replaces the witness of a code that still occurs. *)
  let emit () =
    let sigma = ref seed in
    for s = 0 to n - 1 do
      if not seeded.(s) then begin
        let img =
          match Instance.term_of_code tgt bind.(s) with
          | Some t -> t
          | None -> Flat.term_of_code bind.(s)
        in
        sigma := Subst.add vars.(s) img !sigma
      end
    done;
    !sigma
  in
  let undo mark =
    while !tp > mark do
      decr tp;
      let s = trail.(!tp) in
      if injective then Hashtbl.remove used bind.(s);
      bind.(s) <- Flat.no_code
    done
  in
  (* positional match, binding fresh slots onto the trail; the
     injectivity check interleaves (a conjunction — same accepted
     candidates as the boxed check-after-match) *)
  let rec match_args fargs ta plen i =
    i >= plen
    ||
    let p = fargs.(i) in
    let t = ta.(i) in
    if p >= 0 then p = t && match_args fargs ta plen (i + 1)
    else
      let b = bind.(lnot p) in
      if b <> Flat.no_code then b = t && match_args fargs ta plen (i + 1)
      else if injective && Hashtbl.mem used t then false
      else begin
        bind.(lnot p) <- t;
        if injective then Hashtbl.replace used t ();
        trail.(!tp) <- lnot p;
        incr tp;
        match_args fargs ta plen (i + 1)
      end
  in
  (* The live pattern of smallest rank (the [naive_order] ablation). *)
  let first_rank live =
    let best = ref 0 in
    for i = 1 to live - 1 do
      if order.(i) < order.(!best) then best := i
    done;
    !best
  in
  (* With exclusions ([hiding]) bucket counts and items come from the
     view's handles [vfidx], and hidden candidates are skipped without
     counting a backtrack; otherwise from the index handles [fidx].  Only
     the array the search uses is built.  Selection is most-constrained-
     first over the cached bucket cardinalities, with [solve_boxed]'s
     bucket choice and tie-breaking (a pattern's rank is [p]).  A
     zero-cardinality count stops the scan: the node is a dead end
     whichever zero-bucket pattern is charged with it, so skipping the
     remaining counts changes nothing observable. *)
  let hiding = match view with Some _ -> true | None -> false in
  let v = match view with Some v -> v | None -> no_view in
  let fidx =
    if hiding then [||]
    else per_pred_run cpred (fun pred -> Instance.findex tgt ~pred)
  in
  let vfidx =
    if hiding then per_pred_run cpred (fun pred -> Instance.view_findex v ~pred)
    else [||]
  in
  let rec go live =
    incr nodes;
    if !nodes land 255 = 0 then Resilience.poll ();
    if live = 0 then k (emit ())
    else begin
      let best = ref 0 in
      if live > 1 then
        if !naive_order then best := first_rank live
        else begin
          let bc = ref max_int in
          let i = ref 0 in
          while !bc > 0 && !i < live do
            let p = order.(!i) in
            let fargs = cargs.(p) in
            let c =
              if hiding then Instance.view_count vfidx.(p) ~fargs ~bind
              else Instance.findex_count fidx.(p) ~fargs ~bind
            in
            if c < !bc || (c = !bc && p < order.(!best)) then begin
              best := !i;
              bc := c
            end;
            incr i
          done
        end;
      let chosen = order.(!best) in
      order.(!best) <- order.(live - 1);
      order.(live - 1) <- chosen;
      let fargs = cargs.(chosen) in
      candidates cpred.(chosen) fargs (live - 1)
        (if hiding then Instance.view_items vfidx.(chosen) ~fargs ~bind
         else Instance.findex_items fidx.(chosen) ~fargs ~bind)
    end
  and candidates fpred fargs live = function
    | [] -> ()
    | (e : Instance.fentry) :: rest ->
        if not (hiding && Instance.view_excludes v e) then begin
          let fa = e.Instance.flat in
          let ta = Flat.args fa in
          let plen = Array.length fargs in
          let mark = !tp in
          if
            Flat.pred fa = fpred
            && Array.length ta = plen
            && match_args fargs ta plen 0
          then begin
            go live;
            undo mark
          end
          else begin
            undo mark;
            incr bt
          end
        end;
        candidates fpred fargs live rest
  in
  go npats

(* Core backtracking engine.  [k] is called on every solution; raising from
   [k] aborts the search (used for early exit).  [exclude] searches [tgt]
   minus the atoms containing those terms: the flat solver through an
   exclusion view, the boxed reference on the [remove_atoms] copy the
   view stands for. *)
let solve ?(seed = Subst.empty) ?(injective = false) ?compiled ?(exclude = [])
    ~(k : Subst.t -> unit) (src : Atomset.t) (tgt : Instance.t) : unit =
  Resilience.Fault.hit "hom";
  (* a compiled source of this very atomset is used as is, and knows its
     size without a walk *)
  let compiled =
    match compiled with Some c when c.c_src == src -> Some c | _ -> None
  in
  let size =
    match compiled with
    | Some c -> Array.length c.c_pred
    | None -> Atomset.cardinal src
  in
  if size > !max_depth then raise Stdlib.Stack_overflow;
  let bt = ref 0 in
  let nodes = ref 0 in
  let view =
    match exclude with
    | [] -> None
    | terms ->
        let v = Instance.excluding tgt terms in
        if Instance.view_excluded v > 0 then Some v else None
  in
  let run () =
    if !flat_enabled then
      let c = match compiled with Some c -> c | None -> compile src in
      solve_flat ~bt ~nodes ~seed ~injective ~k c tgt view
    else
      let tgt =
        match view with
        | None -> tgt
        | Some _ ->
            Instance.remove_atoms tgt
              (List.concat_map (Instance.atoms_with_term tgt) exclude)
      in
      solve_boxed ~bt ~nodes ~seed ~injective ~k src tgt
  in
  if not (Obs.live ()) then run ()
  else begin
    Obs.Metrics.incr m_solve_calls;
    (* [k] may abort the search by raising (see [find]/[exists]); flush the
       backtrack count on every exit path *)
    Fun.protect
      ~finally:(fun () ->
        if !bt > 0 then begin
          Obs.Metrics.add m_backtracks !bt;
          if Obs.Trace.enabled () then
            Obs.Trace.emit
              (Obs.Trace.Hom_backtrack
                 {
                   backtracks = !bt;
                   src_atoms = size;
                   tgt_atoms =
                     (match view with
                     | None -> Instance.cardinal tgt
                     | Some v -> Instance.view_cardinal v);
                 })
        end)
      (fun () -> Obs.Metrics.count_minor_words m_minor_words run)
  end

exception Stop

(* Result memo (DESIGN.md §9, §12).  [find] results are cached under a
   caller-supplied (key, epoch) pair: the key names the check (pattern,
   seed, flags) stably, the epoch is an {!Instance.generation} that pins
   the target content the result was observed against.  A stored entry is
   valid only while its epoch matches the query's — generation advance is
   the invalidation, no explicit flush needed.  Both outcomes are cached:
   epochs are handed out per instance *value*, so an epoch match means
   the search would run against the very same target (same atoms, same
   bucket order) and — the solver being deterministic — return the very
   same witness; replaying a stored success is as sound as replaying a
   stored failure.  (PR-3 cached failures only, which starved the memo
   exactly where it is needed: audit-mode discovery re-asks every
   satisfaction question at an unchanged epoch, and most of those
   succeed.)  Keys are small int arrays over interned codes: hashing one
   is a few machine words, where the PR-3 string keys paid a
   format-and-hash of whole term trees per probe — the reason the memo
   used to lose to the searches it saved.  The table is bounded: at
   [memo_max] entries it is reset wholesale (entries for dead epochs
   dominate by then anyway). *)
let memo_enabled = ref true

let memo_max = 1 lsl 14

(* One table per domain (domain-local storage): pool workers run
   independent searches whose negative results are valid process-wide,
   but sharing one [Hashtbl] across domains is unsound (concurrent
   resize) and a mutex on the hot path costs more than the occasional
   re-derivation of a failure.  Tables are never merged — a worker's
   entry simply stays invisible to the others, which only loses hits
   (DESIGN.md §10 weighs this against the rejected alternatives). *)
(* Created at full capacity: the table is bounded by [memo_max] anyway,
   so pre-sizing means no growth rehash ever happens and [Hashtbl.reset]
   (which restores the creation capacity) keeps the bucket array. *)
let memo_key = Domain.DLS.new_key (fun () -> Hashtbl.create memo_max)

let memo_tbl () : (int array, int * Subst.t option) Hashtbl.t =
  Domain.DLS.get memo_key

let memo_clear () = Hashtbl.reset (memo_tbl ())

(* Batch-task isolation (DESIGN.md §14): every [Par.Batch] task starts
   with this domain's memo table empty, so a task never observes a
   sibling's (or a previous tenant's) cached searches — the memo is
   epoch-keyed and thus correctness-safe across tasks, but hit/miss
   totals would depend on task-to-domain placement. *)
let () = Par.Batch.add_reset_hook memo_clear

let m_memo_hits = Obs.Metrics.counter "hom.memo_hits"

let m_memo_misses = Obs.Metrics.counter "hom.memo_misses"

let find_uncached ?seed ?injective ?compiled ?exclude src tgt =
  let result = ref None in
  (try
     solve ?seed ?injective ?compiled ?exclude
       ~k:(fun s ->
         result := Some s;
         raise Stop)
       src tgt
   with Stop -> ());
  !result

(* Stale-witness revalidation, the cross-epoch path of the memo: a
   cached success [σ] from an older epoch is still a correct answer for
   the {e current} target iff [σ(src) ⊆ tgt] — checked directly, in
   O(|src|) index lookups, no search.  The resulting boolean is exact no
   matter what the epochs did in between, so [exists]-style consumers
   (trigger satisfaction, asked again and again about the same trigger
   as the instance grows) may take it.  [find] consumers may not: a
   revalidated witness need not be the witness a fresh search would
   return, and the fold search's chosen witness steers the chase — so
   witness-returning calls only replay exact-epoch entries, keeping
   their results independent of cache state (jobs=1 ≡ jobs=4 holds for
   outputs, not just for truth values). *)
let witness_ok sigma src tgt =
  Atomset.for_all (fun a -> Instance.mem tgt (Subst.apply_atom sigma a)) src

let find_memo ~allow_stale ?seed ?injective ?memo ?compiled ?exclude src tgt =
  match memo with
  | Some (key, epoch) when !memo_enabled -> (
      let tbl = memo_tbl () in
      let search_and_store () =
        if !Obs.Metrics.enabled then Obs.Metrics.incr m_memo_misses;
        let r = find_uncached ?seed ?injective ?compiled ?exclude src tgt in
        if Hashtbl.length tbl >= memo_max then Hashtbl.reset tbl;
        Hashtbl.replace tbl key (epoch, r);
        r
      in
      match Hashtbl.find_opt tbl key with
      | Some (e, r) when e = epoch ->
          if !Obs.Metrics.enabled then Obs.Metrics.incr m_memo_hits;
          r
      | Some (_, (Some sigma as r))
        when allow_stale && injective <> Some true && witness_ok sigma src tgt
        ->
          if !Obs.Metrics.enabled then Obs.Metrics.incr m_memo_hits;
          (* refresh: the witness was just proven valid at this epoch *)
          Hashtbl.replace tbl key (epoch, r);
          r
      | _ -> search_and_store ())
  | _ -> find_uncached ?seed ?injective ?compiled ?exclude src tgt

let find ?seed ?injective ?memo ?compiled ?exclude src tgt =
  find_memo ~allow_stale:false ?seed ?injective ?memo ?compiled ?exclude src tgt

let exists ?seed ?injective ?memo ?compiled src tgt =
  match find_memo ~allow_stale:true ?seed ?injective ?memo ?compiled src tgt with
  | Some _ -> true
  | None -> false

let all ?seed ?injective ?limit ?compiled src tgt =
  let acc = ref [] in
  let n = ref 0 in
  (try
     solve ?seed ?injective ?compiled
       ~k:(fun s ->
         acc := s :: !acc;
         incr n;
         match limit with Some l when !n >= l -> raise Stop | _ -> ())
       src tgt
   with Stop -> ());
  List.rev !acc

let count ?seed ?injective ?limit src tgt =
  let n = ref 0 in
  (try
     solve ?seed ?injective
       ~k:(fun _ ->
         incr n;
         match limit with Some l when !n >= l -> raise Stop | _ -> ())
       src tgt
   with Stop -> ());
  !n

let iter ?seed ?injective f src tgt = solve ?seed ?injective ~k:f src tgt

let find_into src tgt_atoms = find src (Instance.of_atomset tgt_atoms)

let maps_to src tgt_atoms =
  match find_into src tgt_atoms with Some _ -> true | None -> false
