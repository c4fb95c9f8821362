(** Substitutions (Section 2).

    A substitution of a set of variables [Y ⊆ Δ_V] is a mapping [σ : Y → Δ_T].
    Application to a term uses the extension [σ⁺] that is the identity
    outside [Y].  We implement the paper's operations verbatim:

    - composition [σ' • σ]  (Y ↦ σ'⁺(σ⁺(Y)), defined on [dom σ ∪ dom σ']);
    - compatibility (two substitutions mapping shared variables identically);
    - the classification of a substitution as an endomorphism / retraction
      of a given atomset (Section 2's notions are properties of the pair
      (σ, A), so they live here as predicates).

    Substitutions are immutable persistent maps keyed by variable rank. *)

type t

val empty : t

val is_empty : t -> bool

val singleton : Term.t -> Term.t -> t
(** [singleton x t] maps variable [x] to [t].
    @raise Invalid_argument if [x] is a constant. *)

val of_list : (Term.t * Term.t) list -> t
(** @raise Invalid_argument if a key is a constant or bound twice to
    different images. *)

val to_list : t -> (Term.t * Term.t) list
(** Bindings sorted by variable rank. *)

val add : Term.t -> Term.t -> t -> t
(** [add x t σ] binds [x ↦ t].  Any previous binding of [x] is replaced. *)

val find : Term.t -> t -> Term.t option
(** The raw binding of a variable, [None] if unbound (or a constant). *)

val mem : Term.t -> t -> bool

val domain : t -> Term.t list
(** The variables the substitution is defined on, sorted by rank. *)

val range : t -> Term.t list
(** Distinct image terms, sorted. *)

val cardinal : t -> int

val apply_term : t -> Term.t -> Term.t
(** [σ⁺(t)]: the binding if [t] is a bound variable, [t] itself otherwise. *)

val apply_atom : t -> Atom.t -> Atom.t
(** The atom itself (physically) when no argument moves. *)

val apply : t -> Atomset.t -> Atomset.t
(** [σ(A) = { σ(at) | at ∈ A }].  Allocates only for the atoms [σ]
    moves: untouched atoms and subtrees are shared with [A], and the
    empty substitution returns [A] itself. *)

val compose : t -> t -> t
(** [compose s' s] is the paper's [σ' • σ]: defined on [dom s ∪ dom s'],
    mapping [Y ↦ s'⁺(s⁺(Y))]. *)

val compatible : t -> t -> bool
(** Two substitutions are compatible if they map shared variables to the
    same terms. *)

val merge : t -> t -> t option
(** Union of two substitutions when compatible, [None] otherwise. *)

val restrict : Term.t list -> t -> t
(** Restriction of the substitution to the given variables. *)

val restrict_to_vars_of : Atomset.t -> t -> t
(** Restriction to the variables of an atomset. *)

val equal : t -> t -> bool

val is_identity_on : Term.t list -> t -> bool
(** [true] iff every listed term is mapped to itself (constants trivially
    are). *)

val is_endomorphism_of : Atomset.t -> t -> bool
(** [σ(A) ⊆ A]. *)

val is_retraction_of : Atomset.t -> t -> bool
(** Section 2: a retraction of [A] is an endomorphism [σ] whose restriction
    to [terms(σ(A))] is the identity. *)

val is_injective_on : Term.t list -> t -> bool
(** No two listed terms share an image under [σ⁺]. *)

val inverse_on : Term.t list -> t -> t option
(** [inverse_on ts σ]: when [σ⁺] is injective on [ts] and maps every listed
    term to a variable, the substitution sending each image back to its
    source.  [None] otherwise.  Used to invert isomorphisms and
    automorphisms. *)

val pp : t Fmt.t

val pp_debug : t Fmt.t
