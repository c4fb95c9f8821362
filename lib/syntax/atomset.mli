(** Finite atomsets / instances (Section 2).

    The paper's atomsets are countable; the computable objects we manipulate
    are their finite members and finite prefixes, represented as ordered
    sets of atoms.  An atomset is identified with the existential closure of
    the conjunction of its atoms, and doubles as a first-order instance
    (variables playing the role of labelled nulls). *)

type t

val empty : t

val is_empty : t -> bool

val singleton : Atom.t -> t

val of_list : Atom.t list -> t

val to_list : t -> Atom.t list
(** Atoms in increasing {!Atom.compare} order. *)

val add : Atom.t -> t -> t

val remove : Atom.t -> t -> t

val mem : Atom.t -> t -> bool

val cardinal : t -> int

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** Physically equal sets are answered without a walk. *)

val equal : t -> t -> bool
(** Physically equal sets are answered without a walk. *)

val compare : t -> t -> int

val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Atom.t -> unit) -> t -> unit

val exists : (Atom.t -> bool) -> t -> bool

val for_all : (Atom.t -> bool) -> t -> bool

val filter : (Atom.t -> bool) -> t -> t

val map : (Atom.t -> Atom.t) -> t -> t
(** The set of images.  Subtrees whose atoms all map to themselves
    (physically) are shared with the argument; when every atom does, the
    argument itself is returned. *)

val terms : t -> Term.t list
(** Distinct terms occurring in the atomset, sorted. *)

val vars : t -> Term.t list
(** Distinct variables, sorted by rank ([vars(A)] in the paper). *)

val consts : t -> Term.t list
(** Distinct constants. *)

val preds : t -> (string * int) list
(** Distinct (predicate, arity) pairs used. *)

val atoms_with_term : Term.t -> t -> Atom.t list
(** All atoms in which the given term occurs. *)

val induced : Term.t list -> t -> t
(** [induced ts a]: the substructure induced by the term set [ts] — all
    atoms whose terms all belong to [ts] (used for columns/steps/prefixes of
    the paper's infinite models). *)

val without_term : Term.t -> t -> t
(** All atoms *not* containing the given term (the target of the
    core-folding search in {!module:Homo.Core}). *)

val pp : t Fmt.t
(** [{a1, a2, ...}] on one flowing line. *)

val pp_verbose : t Fmt.t
(** One atom per line, with variable ranks. *)
