open Syntax

(* Observability (DESIGN.md §8): enumeration work is counted at the two
   primitives every discovery mode funnels through, so [Snapshot], [Delta]
   and [Audit] all report the body homomorphisms they actually enumerated. *)
let m_enumerated = Obs.Metrics.counter "chase.triggers_enumerated"

let m_discoveries = Obs.Metrics.counter "chase.discoveries"

(* Allocation accounting (DESIGN.md §12): discovery is the second hot
   consumer of the flat representation after the hom search itself, so
   its minor-heap footprint is sampled the same way as [hom.minor_words]
   — a [Gc.minor_words] delta around each discovery call, main domain
   only (pool workers' shares are part of their own samples). *)
let m_minor_words = Obs.Metrics.counter "trigger.minor_words"

(* The hom searches discovery runs count in [hom.minor_words] too; this
   counter holds that nested share, so [trigger.minor_words] minus it is
   discovery's own allocation and the two counters can be subtracted
   from a run's total without counting a word twice (the bench's
   per-step rows do). *)
let m_hom_share = Obs.Metrics.counter "trigger.hom_minor_words"

let count_discovery_words f =
  if not !Obs.Metrics.enabled then f ()
  else begin
    let h0 = Obs.Metrics.counter_value "hom.minor_words" in
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.add m_hom_share
          (Obs.Metrics.counter_value "hom.minor_words" - h0))
      (fun () -> Obs.Metrics.count_minor_words m_minor_words f)
  end

(* Mapping keys (DESIGN.md §12): a substitution flattened to interned
   codes, [(rank, code)] pairs in rank order ([Subst.to_list] is sorted),
   prefixed with a kind tag and the rule id where the key names a
   per-rule question.  Injective per (rule, mapping), so the memo and the
   dedup table below partition exactly as the PR-3 formatted-string keys
   did — at a hash cost of a few ints instead of a [Fmt.str] render. *)
let mapping_key ~tag ~rid mapping =
  let bindings = Subst.to_list mapping in
  let key = Array.make (2 + (2 * List.length bindings)) tag in
  key.(1) <- rid;
  List.iteri
    (fun i (x, t) ->
      key.((2 * i) + 2) <- Flat.code_of_term x;
      key.((2 * i) + 3) <- Flat.code_of_term t)
    bindings;
  key

(* Rule plans (DESIGN.md §12, "a step costs its delta"): everything a
   trigger question needs from its rule, computed once per engine run
   instead of once per question — the universal and frontier variables,
   the existential ones, the body compiled for discovery, and
   [body ∪ head] with its compiled form for the satisfaction check.  A
   plan is a plain immutable value built from [Kb.rules] when a run
   starts; triggers found through it carry it, so it lives exactly as
   long as the run's triggers do.  There is deliberately no global
   table keyed by [Rule.id]: one process chases many KBs (a batch, the
   serve daemon's sessions), and such a table would keep every rule
   ever seen alive. *)
type plan = {
  p_rule : Rule.t;
  p_universal : Term.t list;
  p_frontier : Term.t list;
  p_existential : Term.t list;
  p_body : Homo.Hom.compiled;  (** compiled [Rule.body p_rule] *)
  p_bh : Atomset.t;  (** [body ∪ head] *)
  p_bh_c : Homo.Hom.compiled;  (** compiled [p_bh] *)
}

let plan r =
  let bh = Atomset.union (Rule.body r) (Rule.head r) in
  {
    p_rule = r;
    p_universal = Rule.universal_vars r;
    p_frontier = Rule.frontier r;
    p_existential = Rule.existential_vars r;
    p_body = Homo.Hom.compile (Rule.body r);
    p_bh = bh;
    p_bh_c = Homo.Hom.compile bh;
  }

let plans rules = List.map plan rules

type t = { rule : Rule.t; mapping : Subst.t; plan : plan option }

let make rule mapping =
  {
    rule;
    mapping = Subst.restrict (Rule.universal_vars rule) mapping;
    plan = None;
  }

let make_planned p mapping =
  {
    rule = p.p_rule;
    mapping = Subst.restrict p.p_universal mapping;
    plan = Some p;
  }

let universal_vars tr =
  match tr.plan with Some p -> p.p_universal | None -> Rule.universal_vars tr.rule

let rule tr = tr.rule

let mapping tr = tr.mapping

let rename sigma tr =
  if Subst.is_empty sigma then tr
  else
    {
      tr with
      mapping = Subst.restrict (universal_vars tr) (Subst.compose sigma tr.mapping);
    }

let equal tr1 tr2 =
  Rule.equal tr1.rule tr2.rule && Subst.equal tr1.mapping tr2.mapping

let is_trigger_for tr inst =
  Atomset.subset (Subst.apply tr.mapping (Rule.body tr.rule)) inst

let is_trigger_for_in tr indexed =
  Atomset.for_all
    (fun a -> Homo.Instance.mem indexed (Subst.apply_atom tr.mapping a))
    (Rule.body tr.rule)

let satisfied_in tr indexed =
  (* π extends to a homomorphism from B ∪ H into the instance.  Failed
     checks are memoised under the instance's generation: the rule id and
     the flattened mapping pin the question, the epoch pins the target
     content, so re-checking the same trigger against an unchanged
     instance (engine re-check before the round's first firing, audit
     double discovery) costs a table lookup. *)
  let src, compiled =
    match tr.plan with
    | Some p -> (p.p_bh, Some p.p_bh_c)
    | None -> (Atomset.union (Rule.body tr.rule) (Rule.head tr.rule), None)
  in
  let memo =
    ( mapping_key ~tag:0 ~rid:(Rule.id tr.rule) tr.mapping,
      Homo.Instance.generation indexed )
  in
  Homo.Hom.exists ~memo ?compiled ~seed:tr.mapping src indexed

let satisfied tr inst = satisfied_in tr (Homo.Instance.of_atomset inst)

type application = {
  result : Atomset.t;
  pi_safe : Subst.t;
  produced : Atomset.t;
  fresh : Term.t list;
}

let pi_safe_of tr =
  let frontier, existential =
    match tr.plan with
    | Some p -> (p.p_frontier, p.p_existential)
    | None -> (Rule.frontier tr.rule, Rule.existential_vars tr.rule)
  in
  let frontier_part = Subst.restrict frontier tr.mapping in
  let fresh = ref [] in
  let full =
    List.fold_left
      (fun s z ->
        let nv = Term.fresh_var ~hint:(Term.hint z) () in
        fresh := nv :: !fresh;
        Subst.add z nv s)
      frontier_part existential
  in
  (full, List.rev !fresh)

let apply_with tr pi_safe fresh inst =
  if not (is_trigger_for tr inst) then
    invalid_arg "Trigger.apply: not a trigger for the instance";
  let produced = Subst.apply pi_safe (Rule.head tr.rule) in
  { result = Atomset.union inst produced; pi_safe; produced; fresh }

let apply tr inst =
  let pi_safe, fresh = pi_safe_of tr in
  apply_with tr pi_safe fresh inst

let apply_in tr indexed =
  if not (is_trigger_for_in tr indexed) then
    invalid_arg "Trigger.apply_in: not a trigger for the instance";
  let pi_safe, fresh = pi_safe_of tr in
  let produced = Subst.apply pi_safe (Rule.head tr.rule) in
  {
    result = Atomset.union (Homo.Instance.atomset indexed) produced;
    pi_safe;
    produced;
    fresh;
  }

let apply_with_pi_safe tr pi_safe inst =
  let fresh =
    List.filter_map
      (fun z ->
        match Subst.find z pi_safe with
        | Some t when Term.is_var t -> Some t
        | _ -> None)
      (Rule.existential_vars tr.rule)
  in
  apply_with tr pi_safe fresh inst

let triggers_of_plan p indexed =
  let trs =
    List.map (make_planned p)
      (Homo.Hom.all ~compiled:p.p_body (Rule.body p.p_rule) indexed)
  in
  if !Obs.Metrics.enabled then Obs.Metrics.add m_enumerated (List.length trs);
  trs

let triggers_of r indexed = triggers_of_plan (plan r) indexed

(* Semi-naive discovery: every trigger for the current instance that was
   not a trigger at the previous snapshot must map some body atom onto an
   atom of [delta] (the atoms added or rewritten since), so it suffices to
   enumerate the body homomorphisms anchored on a delta atom.  The same
   homomorphism can be reached through several anchors; mappings are
   deduplicated per rule. *)
let triggers_of_delta p indexed ~delta =
  if Atomset.is_empty delta then []
  else
    let body = Rule.body p.p_rule in
    let rid = Rule.id p.p_rule in
    let seen = Hashtbl.create 16 in
    let collect acc h =
      let tr = make_planned p h in
      let key = mapping_key ~tag:0 ~rid tr.mapping in
      if Hashtbl.mem seen key then acc
      else begin
        Hashtbl.replace seen key ();
        tr :: acc
      end
    in
    let trs =
      Atomset.fold
        (fun anchor acc ->
          Atomset.fold
            (fun datom acc ->
              if
                String.equal (Atom.pred anchor) (Atom.pred datom)
                && Atom.arity anchor = Atom.arity datom
              then
                match Homo.Hom.extend_via_atom Subst.empty anchor datom with
                | None -> acc
                | Some seed ->
                    List.fold_left collect acc
                      (Homo.Hom.all ~seed ~compiled:p.p_body body indexed)
              else acc)
            delta acc)
        body []
      |> List.rev
    in
    if !Obs.Metrics.enabled then Obs.Metrics.add m_enumerated (List.length trs);
    trs

(* Discovery fans out over the pool in two order-preserving stages
   (DESIGN.md §10): body-hom enumeration per rule, then the satisfaction
   re-check per candidate trigger.  Merging is positional — the per-rule
   lists are concatenated in rule order and the filter keeps the
   candidates' order — and enumeration never consults the failure memo
   (the checks do, under per-trigger keys), so the trigger list, the
   enumeration counters and the memo totals are identical to the
   sequential nesting for every jobs count. *)
let unsatisfied_of_plans ?delta plans indexed =
  let rule_triggers p =
    match delta with
    | None -> triggers_of_plan p indexed
    | Some delta -> triggers_of_delta p indexed ~delta
  in
  let candidates =
    List.concat (Par.map ~site:"trigger.enumerate" rule_triggers plans)
  in
  let satisfied =
    Par.map ~site:"trigger.satcheck"
      (fun tr -> satisfied_in tr indexed)
      candidates
  in
  List.filter_map
    (fun (tr, sat) -> if sat then None else Some tr)
    (List.combine candidates satisfied)

let unsatisfied_triggers_in ?delta rules indexed =
  unsatisfied_of_plans ?delta (plans rules) indexed

let unsatisfied_triggers rules inst =
  unsatisfied_triggers_in rules (Homo.Instance.of_atomset inst)

type discovery = Delta | Snapshot | Audit

let discovery = ref Delta

let same_set trs1 trs2 =
  List.length trs1 = List.length trs2
  && List.for_all (fun t1 -> List.exists (equal t1) trs2) trs1

let audit_failure ~what snap del =
  failwith
    (Fmt.str
       "Trigger.%s: delta discovery disagrees with the snapshot oracle (%d \
        delta vs %d snapshot triggers)"
       what (List.length del) (List.length snap))

let observe_discovery ~what trs indexed =
  Obs.Metrics.incr m_discoveries;
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      (Obs.Trace.Trigger_found
         {
           engine = what;
           found = List.length trs;
           size = Homo.Instance.cardinal indexed;
         });
  trs

let discover ?delta plans indexed =
  let trs =
    count_discovery_words (fun () ->
        match (!discovery, delta) with
        | Snapshot, _ | _, None -> unsatisfied_of_plans plans indexed
        | Delta, Some delta -> unsatisfied_of_plans ~delta plans indexed
        | Audit, Some delta ->
            let snap = unsatisfied_of_plans plans indexed in
            let del = unsatisfied_of_plans ~delta plans indexed in
            if not (same_set snap del) then
              audit_failure ~what:"discover" snap del;
            snap)
  in
  observe_discovery ~what:"discover" trs indexed

let discover_all ?delta plans indexed =
  let snapshot () =
    List.concat
      (Par.map ~site:"trigger.enumerate"
         (fun p -> triggers_of_plan p indexed)
         plans)
  in
  let trs =
    count_discovery_words (fun () ->
        match (!discovery, delta) with
        | Snapshot, _ | _, None -> snapshot ()
        | Delta, Some delta ->
            List.concat
              (Par.map ~site:"trigger.enumerate"
                 (fun p -> triggers_of_delta p indexed ~delta)
                 plans)
        | Audit, Some delta ->
            let snap = snapshot () in
            let del =
              List.concat_map
                (fun p -> triggers_of_delta p indexed ~delta)
                plans
            in
            (* the delta set must be exactly the snapshot triggers whose
               body image touches the delta *)
            let touches tr =
              not
                (Atomset.is_empty
                   (Atomset.inter delta
                      (Subst.apply tr.mapping (Rule.body tr.rule))))
            in
            let expected = List.filter touches snap in
            if not (same_set expected del) then
              audit_failure ~what:"discover_all" expected del;
            (* monotone engines deduplicate by trigger key themselves, so
               the snapshot order can be returned unchanged *)
            snap)
  in
  observe_discovery ~what:"discover_all" trs indexed

let pp ppf tr =
  Fmt.pf ppf "(%s, %a)"
    (if Rule.name tr.rule = "" then "<rule>" else Rule.name tr.rule)
    Subst.pp tr.mapping
