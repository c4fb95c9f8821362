(** Homomorphism search (Section 2).

    A homomorphism from an atomset [A] to an atomset [B] is a substitution
    [π] with [π(A) ⊆ B].  Constants are fixed; variables may map to any
    term.  Deciding existence is the classical NP-complete CQ-evaluation
    problem; we use backtracking with dynamic most-constrained-atom-first
    ordering over the indexed target (see DESIGN.md §4 and the
    [abl:hom-order] bench). *)

open Syntax

val extend_via_atom : Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** [extend_via_atom σ pattern target] extends [σ] so that the [pattern]
    atom maps onto the [target] atom, or [None] if predicates, arities,
    constants or existing bindings clash.  Exposed for unit testing and for
    single-atom matching in dependency analysis. *)

type compiled
(** A source atomset encoded for the flat solver: variable slots and
    flat patterns, independent of any target.  Immutable, so it may be
    shared across pool workers. *)

val compile : Atomset.t -> compiled
(** [compile src] encodes [src] once (interning its predicates and
    constants).  A fold search, which asks many questions with the same
    source, compiles it once and passes the result to every {!find}. *)

val find :
  ?seed:Subst.t ->
  ?injective:bool ->
  ?memo:int array * int ->
  ?compiled:compiled ->
  ?exclude:Term.t list ->
  Atomset.t ->
  Instance.t ->
  Subst.t option
(** [find src tgt] is a homomorphism from [src] into [tgt] extending
    [seed] (default: empty), restricted to the variables of [src] not bound
    by the seed plus the seed itself.  With [~injective:true] the returned
    substitution is injective on [terms src] (constants included: a variable
    may not map onto a term that is already an image).

    [~compiled:(compile src)] saves re-encoding the source.  It is used
    only when it was compiled from this very [src] value (physical
    equality); otherwise [src] is compiled afresh, so a mismatched one
    costs time but never changes the answer.  The boxed solver ignores
    it.

    [~exclude:ts] searches [tgt] minus the atoms containing a term of
    [ts], through an {!Instance.view} instead of a copy: the result, and
    the [hom.*] counts, are exactly those of
    [find src (Instance.remove_atoms tgt atoms)] for those atoms.

    [~memo:(key, epoch)] enables the result memo: if a previous call with
    the same [key] ran at the same [epoch], its result — [None] or the
    witness substitution — is returned without searching; otherwise the
    search runs and its result is recorded under [(key, epoch)].  A
    key is a small int array: a kind tag followed by interned
    {!Syntax.Flat} codes of whatever identifies the check — cheap to
    build, cheap to hash, compared structurally (callers must not mutate
    a key after passing it).  Correctness contract (caller's
    responsibility): for a fixed [key], all calls at a given [epoch] must
    pose the same question — same [src], [seed], [injective], [exclude]
    and a target constructed the same way from the same instance values.
    Pass [Instance.generation tgt] as the epoch (epochs are per instance
    value, so an epoch match replays a search against the very same
    target and the deterministic solver's very same answer) or, for
    searches against instances derived from a common base, the base's
    generation.  Counted by the [hom.memo_hits] / [hom.memo_misses]
    metrics. *)

val exists :
  ?seed:Subst.t ->
  ?injective:bool ->
  ?memo:int array * int ->
  ?compiled:compiled ->
  Atomset.t ->
  Instance.t ->
  bool
(** [find] as a boolean; [~compiled] as for {!find}. *)

val memo_enabled : bool ref
(** Ablation switch ([abl:hom:memo]): when [false], [~memo] arguments are
    ignored and every {!find}/{!exists} searches.  Default [true]. *)

val memo_clear : unit -> unit
(** Drop every cached failure.  Never required for correctness (epoch
    mismatch already invalidates); useful to isolate benchmark runs. *)

val all :
  ?seed:Subst.t -> ?injective:bool -> ?limit:int -> ?compiled:compiled ->
  Atomset.t -> Instance.t -> Subst.t list
(** All homomorphisms (up to [limit], default unlimited), in search order.
    Each is restricted to the variables of [src] (plus seed bindings).
    [~compiled] as for {!find}: trigger discovery passes each rule body
    compiled once per run. *)

val count :
  ?seed:Subst.t -> ?injective:bool -> ?limit:int -> Atomset.t -> Instance.t ->
  int

val iter :
  ?seed:Subst.t -> ?injective:bool -> (Subst.t -> unit) -> Atomset.t ->
  Instance.t -> unit

val maps_to : Atomset.t -> Atomset.t -> bool
(** [maps_to a b]: [a] maps to [b] (builds a temporary index for [b]).  This
    is semantic entailment [b ⊨ a] for atomsets read as existentially
    closed conjunctions. *)

val find_into : Atomset.t -> Atomset.t -> Subst.t option
(** Like {!maps_to} but returns the witness. *)

val naive_order : bool ref
(** Ablation switch: when set, the solver matches source atoms in fixed
    textual order instead of most-constrained-first.  Default [false]. *)

val flat_enabled : bool ref
(** Representation switch ([abl:hom:repr], DESIGN.md §12): when [true]
    (the default) the solver backtracks over interned {!Syntax.Flat}
    codes — int compares, a slot trail for undo, no intermediate
    [Term.t] or [Subst.t] values; when [false] it runs the boxed
    tree-walking reference implementation.  Both perform the same
    search (same selection, candidate order, backtrack counts,
    solutions), differing only in speed — the property suite diffs
    them on random inputs. *)

val max_depth : int ref
(** Stack-overflow guard (DESIGN.md §11): the search recurses once per
    source atom, so {!find}/{!solve}-family entry points raise
    [Stack_overflow] {e deterministically} when the source has more than
    [!max_depth] atoms, instead of hitting the runtime guard page at an
    unpredictable depth.  The chase engines classify it as
    [Resource `Stack_overflow] and return their last consistent
    instance.  Default 50_000; [CORECHASE_HOM_DEPTH] overrides at
    startup; tests lower it to force the path on small inputs. *)
