module S = Set.Make (Atom)

type t = S.t

let empty = S.empty

let is_empty = S.is_empty

let singleton = S.singleton

let of_list = S.of_list

let to_list = S.elements

let add = S.add

let remove = S.remove

let mem = S.mem

let cardinal = S.cardinal

let union = S.union

let inter = S.inter

let diff = S.diff

let subset a b = a == b || S.subset a b

let equal a b = a == b || S.equal a b

let compare = S.compare

let fold = S.fold

let iter = S.iter

let exists = S.exists

let for_all = S.for_all

let filter = S.filter

let map = S.map

let terms s =
  S.fold (fun a acc -> List.rev_append (Atom.terms a) acc) s []
  |> List.sort_uniq Term.compare

let vars s = List.filter Term.is_var (terms s)

let consts s = List.filter Term.is_const (terms s)

let preds s =
  S.fold (fun a acc -> (Atom.pred a, Atom.arity a) :: acc) s []
  |> List.sort_uniq Stdlib.compare

let atoms_with_term t s = S.elements (S.filter (Atom.mem_term t) s)

module TS = Set.Make (Term)

let induced ts s =
  let keep = TS.of_list ts in
  S.filter (fun a -> List.for_all (fun t -> TS.mem t keep) (Atom.terms a)) s

let without_term t s = S.filter (fun a -> not (Atom.mem_term t a)) s

let pp ppf s =
  Fmt.pf ppf "{@[%a@]}" Fmt.(list ~sep:comma Atom.pp) (S.elements s)

let pp_verbose ppf s =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list Atom.pp_debug) (S.elements s)
