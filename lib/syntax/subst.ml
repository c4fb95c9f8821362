module M = Map.Make (Int)

(* Keyed by variable rank; the value stores the (variable, image) pair so
   that domains can be recovered with their hints intact. *)
type t = (Term.t * Term.t) M.t

let empty = M.empty

let is_empty = M.is_empty

let key x =
  match x with
  | Term.Var v -> v.Term.id
  | Term.Const c -> invalid_arg ("Subst: constant in domain: " ^ c)

let add x t s = M.add (key x) (x, t) s

let singleton x t = add x t empty

let of_list l =
  List.fold_left
    (fun s (x, t) ->
      (match M.find_opt (key x) s with
      | Some (_, t') when not (Term.equal t t') ->
          invalid_arg "Subst.of_list: conflicting bindings"
      | _ -> ());
      add x t s)
    empty l

let to_list s = List.map snd (M.bindings s)

let find x s =
  match x with
  | Term.Const _ -> None
  | Term.Var v -> Option.map snd (M.find_opt v.Term.id s)

let mem x s = match find x s with Some _ -> true | None -> false

let domain s = List.map fst (to_list s)

let range s =
  List.map snd (to_list s) |> List.sort_uniq Term.compare

let cardinal = M.cardinal

let apply_term s t =
  match t with
  | Term.Const _ -> t
  | Term.Var v -> (
      match M.find_opt v.Term.id s with Some (_, t') -> t' | None -> t)

(* Sharing (DESIGN.md §12, "a step costs its delta"): an atom none of
   whose arguments moves comes back physically unchanged, so [apply] —
   through [Atomset.map], which keeps every subtree whose elements all
   come back [==] — allocates nothing for the part of an atomset [σ]
   does not touch, and returns the very set when [σ] touches nothing. *)
let rec apply_args s args =
  match args with
  | [] -> args
  | t :: rest ->
      let t' = apply_term s t in
      let rest' = apply_args s rest in
      if t' == t && rest' == rest then args else t' :: rest'

let apply_atom s a =
  if M.is_empty s then a
  else
    let args = Atom.args a in
    let args' = apply_args s args in
    if args' == args then a else Atom.make (Atom.pred a) args'

let apply s aset = if M.is_empty s then aset else Atomset.map (apply_atom s) aset

let compose s' s =
  (* σ' • σ : defined on dom σ ∪ dom σ', maps Y to σ'⁺(σ⁺(Y)). *)
  let from_s = M.map (fun (x, t) -> (x, apply_term s' t)) s in
  M.union (fun _ from_s_binding _ -> Some from_s_binding) from_s s'

let compatible s1 s2 =
  M.for_all
    (fun k (_, t1) ->
      match M.find_opt k s2 with
      | None -> true
      | Some (_, t2) -> Term.equal t1 t2)
    s1

let merge s1 s2 =
  if compatible s1 s2 then
    Some (M.union (fun _ b _ -> Some b) s1 s2)
  else None

let restrict vs s =
  let keep = List.filter_map (fun v ->
      match v with Term.Var w -> Some w.Term.id | Term.Const _ -> None) vs
  in
  let keep = List.sort_uniq Int.compare keep in
  M.filter (fun k _ -> List.mem k keep) s

let restrict_to_vars_of aset s = restrict (Atomset.vars aset) s

let equal s1 s2 =
  M.equal (fun (_, t1) (_, t2) -> Term.equal t1 t2) s1 s2

let is_identity_on ts s =
  List.for_all (fun t -> Term.equal (apply_term s t) t) ts

let is_endomorphism_of aset s = Atomset.subset (apply s aset) aset

let is_retraction_of aset s =
  is_endomorphism_of aset s
  && is_identity_on (Atomset.terms (apply s aset)) s

let is_injective_on ts s =
  let images = List.map (apply_term s) ts in
  let distinct = List.sort_uniq Term.compare images in
  List.length distinct = List.length ts

let inverse_on ts s =
  let ts = List.sort_uniq Term.compare ts in
  if not (is_injective_on ts s) then None
  else
    let exception Not_invertible in
    try
      Some
        (List.fold_left
           (fun acc t ->
             let img = apply_term s t in
             match img with
             | Term.Const _ ->
                 if Term.equal img t then acc else raise Not_invertible
             | Term.Var _ -> add img t acc)
           empty ts)
    with Not_invertible -> None

let pp_binding pp_term ppf (x, t) = Fmt.pf ppf "%a↦%a" pp_term x pp_term t

let pp ppf s =
  Fmt.pf ppf "[@[%a@]]" Fmt.(list ~sep:comma (pp_binding Term.pp)) (to_list s)

let pp_debug ppf s =
  Fmt.pf ppf "[@[%a@]]"
    Fmt.(list ~sep:comma (pp_binding Term.pp_debug))
    (to_list s)
