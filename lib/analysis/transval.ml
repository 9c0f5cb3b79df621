(* TransVal: symbolic translation validation of JIT-transformed kernels.

   Two versions of a kernel are symbolically executed into canonical
   summaries — a return-value term plus one symbolic store chain per
   address space — and compared structurally. The term language is
   hash-consed, and every constructor normalizes: constant folding,
   commutative/associative reordering and the algebraic identities of
   lib/opt/simplify.ml are applied at construction time, so any two
   expressions the optimizer treats as equal intern to the same term.

   Control flow is evaluated in gated-SSA style: each block carries a
   guard term (the disjunction of its incoming edge guards — the active
   mask of the lanes that reach it), phis become guard-keyed Merge
   terms, and memory events record the guard under which they happen,
   so SIMT-divergent regions compare lane-accurate. Private (scratch)
   memory is store-forwarded through the chain, which subsumes and
   thereby validates mem2reg. Loops are cutpoints: statically-bounded
   trip counts unroll on both sides; dynamic loops are summarized into
   canonical fixpoint signatures (inits / steps / continue-condition /
   body events over de-Bruijn state variables) whose structural
   equality replaces cross-side matching.

   Verdicts: [Proven] (summaries intern identically), [Refuted] (a
   structural impossibility — use of an undefined register, a phi
   missing a live incoming edge — or a concrete counterexample found by
   sampling a pure mismatch), [Unproven] (anything the engine cannot
   decide; never treated as failure unless the caller is strict).
   Comparison identities that are invalid on NaN inputs (operator
   flips, reflexive folds) are restricted to operands not known to be
   floats, so Proven is NaN-faithful wherever operand types are known.
   The engine is single-flight: a global lock serializes check_kernel
   and each validation evaluates in a fresh term universe. *)

open Proteus_support
open Proteus_ir

(* ------------------------------------------------------------------ *)
(* Hash-consed terms                                                   *)

type node =
  | Const of Konst.t
  | Param of int * Types.ty (* kernel parameter, by position *)
  | GlobAddr of string (* address of a module-local global *)
  | Query of string (* gpu.tid.x and friends *)
  | FreeVar of int (* loop state var during summarization *)
  | SVar of int * int (* de-Bruijn (binder depth, var index) *)
  | AllocaBase of int * Types.ty (* allocation site serial, elem ty *)
  | Bin of Ops.binop * Types.ty * term list (* n-ary when assoc-comm *)
  | Cmp of Ops.cmpop * term * term
  | Not of term
  | Cast of Ops.castop * Types.ty * term
  | Gep of term * term * Types.ty (* base, index, element type *)
  | MathCall of string * term list
  | Merge of (term * term) list (* (guard, value), guards disjoint *)
  | Load of Types.addrspace * term * term * Types.ty (* space, chain, addr *)
  | EffectRes of term (* value produced by a ChainEffect node *)
  | LoopOut of term * int (* Loop term, canonical state-var index *)
  | Loop of loop_sig
  | Nil of Types.addrspace (* empty store chain *)
  | ChainStore of term * term * term * term * Types.ty (* prev,guard,addr,value *)
  | ChainEffect of term * term * string * term list (* prev,guard,callee,args *)
  | ChainBarrier of term * term (* prev, guard *)
  | ChainLoop of term * term (* prev, Loop term *)

and term = { id : int; node : node }

(* Binder: inside l_steps / l_cond / l_chains, SVar(0, i) is this
   loop's i-th state variable; l_inits live outside the binder. *)
and loop_sig = {
  l_inits : term list;
  l_steps : term list;
  l_cond : term; (* continue condition, over SVar(0, _) *)
  l_chains : term list; (* relative per-space body chains *)
}

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)

let intern_tbl : (string, term) Hashtbl.t = Hashtbl.create 4096
let next_id = ref 0

let konst_key = function
  | Konst.KBool b -> if b then "b1" else "b0"
  | Konst.KInt (v, b) -> Printf.sprintf "i%d:%Ld" b v
  | Konst.KFloat (v, b) -> Printf.sprintf "f%d:%Ld" b (Int64.bits_of_float v)
  | Konst.KNull -> "null"

let node_key n =
  let b = Buffer.create 32 in
  let id t = Buffer.add_string b (string_of_int t.id); Buffer.add_char b ',' in
  let ids ts = List.iter id ts in
  let s x = Buffer.add_string b x; Buffer.add_char b ';' in
  (match n with
  | Const k -> s "K"; s (konst_key k)
  | Param (i, ty) -> s "P"; s (string_of_int i); s (Types.to_string ty)
  | GlobAddr g -> s "G"; s g
  | Query q -> s "Q"; s q
  | FreeVar v -> s "V"; s (string_of_int v)
  | SVar (d, i) -> s "S"; s (string_of_int d); s (string_of_int i)
  | AllocaBase (k, ty) -> s "A"; s (string_of_int k); s (Types.to_string ty)
  | Bin (op, ty, ts) -> s "B"; s (Ops.binop_to_string op); s (Types.to_string ty); ids ts
  | Cmp (op, x, y) -> s "C"; s (Ops.cmpop_to_string op); id x; id y
  | Not x -> s "N"; id x
  | Cast (op, ty, x) -> s "T"; s (Ops.castop_to_string op); s (Types.to_string ty); id x
  | Gep (p, i, ty) -> s "g"; id p; id i; s (Types.to_string ty)
  | MathCall (f, ts) -> s "M"; s f; ids ts
  | Merge es -> s "m"; List.iter (fun (g, v) -> id g; id v) es
  | Load (sp, c, a, ty) ->
      s "L"; s (Types.to_string (Types.TPtr (Types.TVoid, sp))); id c; id a;
      s (Types.to_string ty)
  | EffectRes e -> s "E"; id e
  | LoopOut (l, i) -> s "O"; id l; s (string_of_int i)
  | Loop l ->
      s "l"; ids l.l_inits; s "|"; ids l.l_steps; s "|"; id l.l_cond; s "|";
      ids l.l_chains
  | Nil sp -> s "n"; s (Types.to_string (Types.TPtr (Types.TVoid, sp)))
  | ChainStore (p, g, a, v, ty) ->
      s "cs"; id p; id g; id a; id v; s (Types.to_string ty)
  | ChainEffect (p, g, f, args) -> s "ce"; id p; id g; s f; ids args
  | ChainBarrier (p, g) -> s "cb"; id p; id g
  | ChainLoop (p, l) -> s "cl"; id p; id l);
  Buffer.contents b

let intern n =
  let key = node_key n in
  match Hashtbl.find_opt intern_tbl key with
  | Some t -> t
  | None ->
      let t = { id = !next_id; node = n } in
      incr next_id;
      Hashtbl.add intern_tbl key t;
      t

(* Provenance side tables: source location / block active when a term
   was first created on a side that had dbg.loc markers. Kept outside
   the terms so stripped-debug candidates still intern identically. *)
let loc_tbl : (int, int * int) Hashtbl.t = Hashtbl.create 256
let blk_tbl : (int, string) Hashtbl.t = Hashtbl.create 256

let note_provenance t ~(loc : (int * int) option) ~(block : string) =
  (match loc with
  | Some l -> if not (Hashtbl.mem loc_tbl t.id) then Hashtbl.add loc_tbl t.id l
  | None -> ());
  if not (Hashtbl.mem blk_tbl t.id) then Hashtbl.add blk_tbl t.id block

(* ------------------------------------------------------------------ *)
(* Normalizing constructors                                            *)

let const k = intern (Const k)
let cbool b = const (Konst.kbool b)
(* Functions, not memoized lazies: [check_kernel] resets the term
   universe per validation, and a term cached across a reset would no
   longer be the interned representative of its node. *)
let tt () = cbool true
let ff () = cbool false
let is_const_bool b t = match t.node with Const (Konst.KBool x) -> x = b | _ -> false
let is_true t = is_const_bool true t
let is_false t = is_const_bool false t

let conjuncts g =
  match g.node with
  | Bin (Ops.And, Types.TBool, l) -> l
  | Const (Konst.KBool true) -> []
  | _ -> [ g ]

let disjuncts g =
  match g.node with
  | Bin (Ops.Or, Types.TBool, l) -> l
  | Const (Konst.KBool false) -> []
  | _ -> [ g ]

let sort_terms ts = List.sort_uniq (fun a b -> compare a.id b.id) ts

(* Partial term typing: enough to drive cast folding, zero-filling and
   the float guards below. *)
let rec ty_of_term t =
  match t.node with
  | Const k -> Some (Konst.ty_of k)
  | Param (_, ty) -> Some ty
  | Query _ -> Some (Types.TInt 32)
  | Bin (_, ty, _) -> Some ty
  | Cmp _ | Not _ -> Some Types.TBool
  | Cast (_, ty, _) -> Some ty
  | Gep (p, _, _) -> ty_of_term p
  | Load (_, _, _, ty) -> Some ty
  | AllocaBase (_, ty) -> Some (Types.TPtr (ty, Types.AS_scratch))
  | Merge ((_, v) :: _) -> ty_of_term v
  | _ -> None

(* NaN discipline: IEEE comparisons on NaN inputs falsify both a
   predicate and its operator-flipped negation, and x==x is false, so
   the operator-flip and reflexive-compare identities below are
   restricted to operands not known to be floats. (Operands of unknown
   type — loop state, loads — are treated as orderable; kernels whose
   behavior hinges on NaN propagation through those are a documented
   unproven corner, see DESIGN.md.) *)
let is_float_term t =
  match ty_of_term t with Some (Types.TFloat _) -> true | _ -> false

(* Negation-normal form: Not is pushed through compound booleans (De
   Morgan) and comparisons (operator flip), so negations only ever wrap
   opaque atoms. Without this, an O0-side ¬(a∨b) (from a short-circuit
   else edge) never matches the O3-side ¬a∧¬b that Simplifycfg's
   restructured edges produce. *)
let rec mk_not g =
  match g.node with
  | Const (Konst.KBool b) -> cbool (not b)
  | Not x -> x
  | Cmp (op, a, b) when not (is_float_term a || is_float_term b) ->
      (* ¬(a<b) = a≥b is false for NaN operands: only flip int/bool *)
      let open Ops in
      let op' =
        match op with
        | CEq -> CNe | CNe -> CEq | CLt -> CGe | CGe -> CLt | CLe -> CGt | CGt -> CLe
      in
      intern (Cmp (op', a, b))
  | Bin (Ops.And, Types.TBool, l) -> mk_or (List.map mk_not l)
  | Bin (Ops.Or, Types.TBool, l) -> mk_and (List.map mk_not l)
  | _ -> intern (Not g)

and mk_and gs =
  let parts = List.concat_map conjuncts gs in
  if List.exists is_false parts then ff ()
  else
    let parts = sort_terms (List.filter (fun t -> not (is_true t)) parts) in
    if List.exists (fun t -> List.exists (fun u -> (mk_not t).id = u.id) parts) parts
    then ff ()
    else
      (* Unit propagation: inside an or-conjunct, a disjunct contradicted
         by a sibling conjunct vanishes, and an or-conjunct containing a
         disjunct implied by the siblings is itself implied and vanishes.
         This is what lets the ¬(stored-guard) chains a scratch-load walk
         produces collapse to the bare else-conditions mem2reg's phi edges
         carry. *)
      let changed = ref false in
      let parts' =
        List.filter_map
          (fun p ->
            match p.node with
            | Bin (Ops.Or, Types.TBool, ds) ->
                let others = List.filter (fun q -> q.id <> p.id) parts in
                let known t = List.exists (fun q -> q.id = t.id) others in
                let refuted d =
                  List.exists (fun c -> known (mk_not c)) (conjuncts d)
                in
                if List.exists (fun d -> List.for_all known (conjuncts d)) ds
                then begin changed := true; None end
                else
                  let ds' = List.filter (fun d -> not (refuted d)) ds in
                  (* strip sibling-implied conjuncts inside each disjunct:
                     A ∧ (X ∨ (A∧B)) = A ∧ (X∨B) *)
                  let ds' =
                    List.map
                      (fun d ->
                        let cs = conjuncts d in
                        let cs' = List.filter (fun c -> not (known c)) cs in
                        if List.length cs' <> List.length cs then mk_and cs'
                        else d)
                      ds'
                  in
                  let p' = mk_or ds' in
                  if p'.id <> p.id then begin changed := true; Some p' end
                  else Some p
            | _ -> Some p)
          parts
      in
      if !changed then mk_and parts'
      else
        (* dual factoring: (X∨c) ∧ (X∨¬c) = X — the CNF mirror of
           mk_or's complementary-literal rule *)
        let fact =
          List.find_map
            (fun p1 ->
              match p1.node with
              | Bin (Ops.Or, Types.TBool, _) ->
                  let d1 = disjuncts p1 in
                  List.find_map
                    (fun p2 ->
                      if p2.id <= p1.id then None
                      else
                        match p2.node with
                        | Bin (Ops.Or, Types.TBool, _) ->
                            let d2 = disjuncts p2 in
                            if List.length d1 <> List.length d2 then None
                            else
                              let only1 =
                                List.filter
                                  (fun c ->
                                    not (List.exists (fun c' -> c'.id = c.id) d2))
                                  d1
                              and only2 =
                                List.filter
                                  (fun c ->
                                    not (List.exists (fun c' -> c'.id = c.id) d1))
                                  d2
                              in
                              (match (only1, only2) with
                              | [ a ], [ b ] when (mk_not a).id = b.id ->
                                  Some
                                    ( p1, p2,
                                      mk_or
                                        (List.filter (fun c -> c.id <> a.id) d1)
                                    )
                              | _ -> None)
                        | _ -> None)
                    parts
              | _ -> None)
            parts
        in
        match fact with
        | Some (p1, p2, merged) ->
            mk_and
              (merged
              :: List.filter (fun p -> p.id <> p1.id && p.id <> p2.id) parts)
        | None -> (
            match parts with
            | [] -> tt ()
            | [ g ] -> g
            | l -> intern (Bin (Ops.And, Types.TBool, l)))

(* Disjunction with absorption and complementary-literal factoring:
   X ∨ (X∧c) = X and (A∧c) ∨ (A∧¬c) = A. The factoring rule is what
   collapses "either branch of the diamond" back into the dominating
   guard, keeping guards CFG-shape-insensitive. *)
and mk_or gs =
  let parts = List.concat_map disjuncts gs in
  if List.exists is_true parts then tt ()
  else
    let parts = ref (sort_terms (List.filter (fun t -> not (is_false t)) parts)) in
    let changed = ref true in
    while !changed do
      changed := false;
      let l = !parts in
      (* absorption: drop d2 if conj(d1) subset of conj(d2) *)
      let absorbed =
        List.filter
          (fun d2 ->
            not
              (List.exists
                 (fun d1 ->
                   d1.id <> d2.id
                   && List.for_all
                        (fun c -> List.exists (fun c2 -> c2.id = c.id) (conjuncts d2))
                        (conjuncts d1))
                 l))
          l
      in
      if List.length absorbed <> List.length l then begin
        parts := absorbed;
        changed := true
      end
      else begin
        (* factoring: find a pair differing in exactly one complementary literal *)
        let rec find_pair = function
          | [] -> None
          | d1 :: rest ->
              let c1 = conjuncts d1 in
              let hit =
                List.find_map
                  (fun d2 ->
                    let c2 = conjuncts d2 in
                    if List.length c1 <> List.length c2 then None
                    else
                      let only1 =
                        List.filter
                          (fun c -> not (List.exists (fun c' -> c'.id = c.id) c2))
                          c1
                      and only2 =
                        List.filter
                          (fun c -> not (List.exists (fun c' -> c'.id = c.id) c1))
                          c2
                      in
                      match (only1, only2) with
                      | [ a ], [ b ] when (mk_not a).id = b.id ->
                          let shared =
                            List.filter (fun c -> c.id <> a.id) c1
                          in
                          Some (d1, d2, mk_and shared)
                      | _ -> None)
                  rest
              in
              (match hit with Some _ -> hit | None -> find_pair rest)
        in
        match find_pair l with
        | Some (d1, d2, merged) ->
            parts :=
              sort_terms
                (merged
                :: List.filter (fun d -> d.id <> d1.id && d.id <> d2.id) l);
            changed := true
        | None -> (
            (* resolution-absorption: X ∨ (¬X∧Y) = X ∨ Y, generalized —
               d2 drops a literal y when another disjunct covers
               (d2 \ y) ∧ ¬y *)
            let res =
              List.find_map
                (fun d2 ->
                  let c2 = conjuncts d2 in
                  List.find_map
                    (fun y ->
                      let ny = mk_not y in
                      let rest = List.filter (fun c -> c.id <> y.id) c2 in
                      if
                        List.exists
                          (fun d1 ->
                            d1.id <> d2.id
                            && List.exists (fun c -> c.id = ny.id) (conjuncts d1)
                            && List.for_all
                                 (fun c ->
                                   c.id = ny.id
                                   || List.exists (fun c' -> c'.id = c.id) rest)
                                 (conjuncts d1))
                          l
                      then Some (d2, mk_and rest)
                      else None)
                    c2)
                l
            in
            match res with
            | Some (d2, d2') ->
                parts :=
                  sort_terms
                    (d2' :: List.filter (fun d -> d.id <> d2.id) l);
                changed := true
            | None -> ())
      end
    done;
    match !parts with
    | [] -> ff ()
    | [ g ] -> g
    | l ->
        if List.exists (fun t -> List.exists (fun u -> (mk_not t).id = u.id) l) l
        then tt ()
        else
          (* common-conjunct factoring: (A∧B) ∨ (A∧C) = A ∧ (B∨C), so a
             guard pooled from several same-context CFG edges interns the
             same as the context-outside form a forwarding walk builds *)
          let common =
            List.fold_left
              (fun acc d ->
                List.filter
                  (fun c -> List.exists (fun c' -> c'.id = c.id) (conjuncts d))
                  acc)
              (conjuncts (List.hd l))
              (List.tl l)
          in
          if common <> [] then
            mk_and
              (common
              @ [
                  mk_or
                    (List.map
                       (fun d ->
                         mk_and
                           (List.filter
                              (fun c ->
                                not
                                  (List.exists (fun c' -> c'.id = c.id) common))
                              (conjuncts d)))
                       l);
                ])
          else intern (Bin (Ops.Or, Types.TBool, l))

(* h ∧ g when g's conjuncts are known to extend h's: h ∧ ¬g = h ∧ ¬extra,
   matching the edge-guard shape mem2reg's phis produce. *)
let guard_and h g = mk_and [ h; g ]

let guard_andnot h g =
  let ch = conjuncts h and cg = conjuncts g in
  let subset = List.for_all (fun c -> List.exists (fun c' -> c'.id = c.id) cg) ch in
  if subset then
    let extra = List.filter (fun c -> not (List.exists (fun c' -> c'.id = c.id) ch)) cg in
    mk_and (h :: [ mk_not (mk_and extra) ])
  else mk_and [ h; mk_not g ]

let int_bits = function Types.TInt b -> b | Types.TBool -> 1 | _ -> 0

let neutral op ty =
  let bits = int_bits ty in
  match op with
  | Ops.Add | Ops.Or | Ops.Xor -> Konst.kint ~bits 0L
  | Ops.Mul -> Konst.kint ~bits 1L
  | Ops.And -> Konst.kint ~bits (-1L)
  | _ -> assert false

let exact_recip c bits =
  c <> 0.0
  && (let m, _ = Float.frexp c in Float.abs m = 0.5)
  &&
  let r = if bits = 32 then Util.to_f32 (1.0 /. c) else 1.0 /. c in
  Float.is_finite r && r <> 0.0

let is_assoc_comm_int = function
  | Ops.Add | Ops.Mul | Ops.And | Ops.Or | Ops.Xor -> true
  | _ -> false

let rec mk_bin op ty a b =
  match (op, ty) with
  | (Ops.And | Ops.Or), Types.TBool ->
      if op = Ops.And then mk_and [ a; b ] else mk_or [ a; b ]
  | Ops.Xor, Types.TBool ->
      (* bool xor = inequality; keep as a 2-term sorted Bin *)
      fold_or_build op ty [ a; b ]
  | Ops.Sub, Types.TInt bits ->
      (* canonicalize integer subtraction into n-ary addition *)
      mk_nary Ops.Add ty [ a; mk_nary Ops.Mul ty [ const (Konst.kint ~bits (-1L)); b ] ]
  | Ops.Shl, Types.TInt bits -> (
      match b.node with
      | Const (Konst.KInt (k, _)) when k >= 0L && k < Int64.of_int bits ->
          mk_nary Ops.Mul ty
            [ a; const (Konst.kint ~bits (Int64.shift_left 1L (Int64.to_int k))) ]
      | _ -> fold_or_build op ty [ a; b ])
  | op, Types.TInt _ when is_assoc_comm_int op -> mk_nary op ty [ a; b ]
  | (Ops.LShr | Ops.AShr), Types.TInt _ -> (
      match b.node with
      | Const (Konst.KInt (0L, _)) -> a
      | _ -> fold_or_build op ty [ a; b ])
  | Ops.SDiv, Types.TInt _ -> (
      match b.node with
      | Const (Konst.KInt (1L, _)) -> a
      | _ -> fold_or_build op ty [ a; b ])
  | (Ops.SMin | Ops.SMax), Types.TInt _ ->
      if a.id = b.id then a else fold_or_build ~sort:true op ty [ a; b ]
  | Ops.FAdd, Types.TFloat _ -> (
      match b.node with
      | Const (Konst.KFloat (c, _)) when Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float (-0.0)) -> a
      | _ -> (
          match a.node with
          | Const (Konst.KFloat (c, _))
            when Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float (-0.0)) -> b
          | _ -> fold_or_build ~sort:true op ty [ a; b ]))
  | Ops.FSub, Types.TFloat _ -> (
      match b.node with
      | Const (Konst.KFloat (c, _)) when Int64.equal (Int64.bits_of_float c) 0L -> a
      | _ -> fold_or_build op ty [ a; b ])
  | Ops.FMul, Types.TFloat _ -> (
      match (a.node, b.node) with
      | Const (Konst.KFloat (1.0, _)), _ -> b
      | _, Const (Konst.KFloat (1.0, _)) -> a
      | Const (Konst.KFloat (2.0, _)), _ -> mk_bin Ops.FAdd ty b b
      | _, Const (Konst.KFloat (2.0, _)) -> mk_bin Ops.FAdd ty a a
      | _ -> fold_or_build ~sort:true op ty [ a; b ])
  | Ops.FDiv, Types.TFloat bits -> (
      match b.node with
      | Const (Konst.KFloat (1.0, _)) -> a
      | Const (Konst.KFloat (c, _)) when exact_recip c bits ->
          let r = if bits = 32 then Util.to_f32 (1.0 /. c) else 1.0 /. c in
          mk_bin Ops.FMul ty a (const (Konst.KFloat (r, bits)))
      | _ -> fold_or_build op ty [ a; b ])
  | (Ops.FMin | Ops.FMax), Types.TFloat _ -> fold_or_build ~sort:true op ty [ a; b ]
  | _ -> fold_or_build op ty [ a; b ]

and fold_or_build ?(sort = false) op ty ts =
  match ts with
  | [ { node = Const ka; _ }; { node = Const kb; _ } ] -> (
      match Konst.binop op ka kb with
      | k -> const k
      | exception _ -> build2 ~sort op ty ts)
  | _ -> build2 ~sort op ty ts

and build2 ~sort op ty ts =
  let ts = if sort then List.sort (fun a b -> compare a.id b.id) ts else ts in
  intern (Bin (op, ty, ts))

(* Flattened, constant-folded, sorted n-ary form for the associative-
   commutative integer ops; mirrors (and slightly exceeds) what the
   combination of Simplify + Gvn can conclude. *)
and mk_nary op ty ts =
  let flat =
    List.concat_map
      (fun t -> match t.node with Bin (o, ty', l) when o = op && Types.equal ty ty' -> l | _ -> [ t ])
      ts
  in
  let consts, rest =
    List.partition (fun t -> match t.node with Const (Konst.KInt _) -> true | _ -> false) flat
  in
  let kfold =
    List.fold_left
      (fun acc t ->
        match t.node with Const k -> Konst.binop op acc k | _ -> acc)
      (neutral op ty) consts
  in
  (* absorbing elements *)
  let absorbed =
    match (op, kfold) with
    | Ops.Mul, Konst.KInt (0L, _) -> true
    | Ops.And, Konst.KInt (0L, _) -> true
    | _ -> false
  in
  if absorbed then const kfold
  else
    let rest =
      match op with
      | Ops.And | Ops.Or -> sort_terms rest
      | Ops.Xor ->
          (* pairs cancel *)
          let sorted = List.sort (fun a b -> compare a.id b.id) rest in
          let rec cancel = function
            | a :: b :: tl when a.id = b.id -> cancel tl
            | a :: tl -> a :: cancel tl
            | [] -> []
          in
          cancel sorted
      | _ -> List.sort (fun a b -> compare a.id b.id) rest
    in
    let keep_const = not (Konst.equal kfold (neutral op ty)) in
    let parts = rest @ (if keep_const then [ const kfold ] else []) in
    match parts with
    | [] -> const (neutral op ty)
    | [ t ] -> t
    | l -> intern (Bin (op, ty, l))

and mk_cmp op a b =
  match (a.node, b.node) with
  | Const ka, Const kb -> (
      match Konst.cmpop op ka kb with k -> const k | exception _ -> intern (Cmp (op, a, b)))
  (* x==x is false (and x<x vacuous) when x is NaN: reflexive folds
     only apply to operands not known to be floats *)
  | _ when a.id = b.id && not (is_float_term a) -> (
      match op with
      | Ops.CEq | Ops.CLe | Ops.CGe -> cbool true
      | Ops.CNe | Ops.CLt | Ops.CGt -> cbool false)
  | _ -> intern (Cmp (op, a, b))

let mk_cast op ty a =
  match a.node with
  | Const k -> (
      match Konst.cast op k ty with
      | k' when Types.equal (Konst.ty_of k') ty -> const k'
      | _ -> intern (Cast (op, ty, a))
      | exception _ -> intern (Cast (op, ty, a)))
  | _ -> (
      match (op, ty_of_term a) with
      | Ops.Bitcast, Some ta when Types.equal ta ty -> a
      | _ -> intern (Cast (op, ty, a)))

let mk_gep base idx ety =
  match idx.node with
  | Const (Konst.KInt (0L, _)) -> base
  | _ -> (
      match base.node with
      | Gep (b2, i2, ety2) when Types.equal ety ety2 ->
          intern (Gep (b2, mk_bin Ops.Add (Types.TInt 64)
                         (mk_cast Ops.Sext (Types.TInt 64) i2)
                         (mk_cast Ops.Sext (Types.TInt 64) idx), ety))
      | _ -> intern (Gep (base, idx, ety)))

let mk_math f args =
  let consts =
    List.filter_map (fun t -> match t.node with Const k -> Some k | _ -> None) args
  in
  if List.length consts = List.length args then
    match Interp.eval_math f consts with
    | k -> const k
    | exception _ -> intern (MathCall (f, args))
  else intern (MathCall (f, args))

(* Guard-keyed value merge (phi / select). Entries under a false guard
   vanish; nested merges flatten; identical values pool their guards.
   Boolean merges lower into the guard algebra itself — ∨(gᵢ∧vᵢ) — so a
   short-circuit phi compares equal to the and/or chain an optimizer
   may restructure it into.

   Each arm's value is additionally rewritten under the assumption that
   its guard holds ([assume]): nested-merge guards drop conjuncts the
   context implies and disjuncts it refutes. A value forwarded out of a
   store guarded by the branch condition thereby interns identically to
   the context-free phi mem2reg builds at the same join point. Only the
   pure spine is rewritten (memory and loop nodes are left alone), so
   the rewrite is semantics-preserving whenever the arm is selected. *)
let assume_memo : (string, term) Hashtbl.t = Hashtbl.create 256

let rec mk_merge entries =
  let rec flat (g, v) =
    if is_false g then []
    else
      let v = assume (conjuncts g) v in
      match v.node with
      | Merge inner -> List.concat_map (fun (h, u) -> flat (mk_and [ g; h ], u)) inner
      | _ -> [ (g, v) ]
  in
  let entries = List.concat_map flat entries in
  (* pool guards per distinct value *)
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (g, v) ->
      match Hashtbl.find_opt tbl v.id with
      | Some gs -> Hashtbl.replace tbl v.id (g :: gs)
      | None ->
          Hashtbl.add tbl v.id [ g ];
          order := v :: !order)
    entries;
  let pooled =
    List.rev_map (fun v -> (mk_or (List.rev (Hashtbl.find tbl v.id)), v)) !order
  in
  let pooled = List.filter (fun (g, _) -> not (is_false g)) pooled in
  let all_bool =
    pooled <> []
    && List.for_all
         (fun (_, v) -> match ty_of_term v with Some Types.TBool -> true | _ -> false)
         pooled
  in
  if all_bool then mk_or (List.map (fun (g, v) -> mk_and [ g; v ]) pooled)
  else
    match pooled with
    | [] -> intern (Merge [])
    | [ (_, v) ] -> v
    | l ->
        let l = List.sort (fun (g1, _) (g2, _) -> compare g1.id g2.id) l in
        intern (Merge l)

and assume s v =
  match s with
  | [] -> v
  | _ -> (
      let key =
        String.concat "," (List.map (fun t -> string_of_int t.id) s)
        ^ ";" ^ string_of_int v.id
      in
      match Hashtbl.find_opt assume_memo key with
      | Some r -> r
      | None ->
          let r =
            match v.node with
            | Merge es ->
                mk_merge
                  (List.map
                     (fun (h, u) ->
                       let h' = given s h in
                       (h', assume (sort_terms (s @ conjuncts h')) u))
                     es)
            | Bin (op, ty, ts) -> (
                let ts' = List.map (assume s) ts in
                match ts' with
                | [ a; b ] -> mk_bin op ty a b
                | _ -> mk_nary op ty ts')
            | Cmp (op, a, b) -> mk_cmp op (assume s a) (assume s b)
            | Not a -> mk_not (assume s a)
            | Cast (op, ty, a) -> mk_cast op ty (assume s a)
            | Gep (p, i, ty) -> mk_gep (assume s p) (assume s i) ty
            | MathCall (fn, ts) -> mk_math fn (List.map (assume s) ts)
            | _ -> v
          in
          Hashtbl.add assume_memo key r;
          r)

(* [given s h]: h simplified under the conjuncts in s known to hold —
   g∧h ≡ g∧(given (conjuncts g) h). *)
and given s h =
  let known t = List.exists (fun q -> q.id = t.id) s in
  let refuted t = known (mk_not t) in
  let simp c =
    if known c then None
    else if refuted c then Some (ff ())
    else
      match c.node with
      | Bin (Ops.Or, Types.TBool, ds) ->
          if List.exists (fun d -> List.for_all known (conjuncts d)) ds then None
          else
            Some
              (mk_or
                 (ds
                 |> List.filter (fun d -> not (List.exists refuted (conjuncts d)))
                 |> List.map (fun d ->
                        mk_and
                          (List.filter (fun c -> not (known c)) (conjuncts d)))))
      | _ -> Some c
  in
  mk_and (List.filter_map simp (conjuncts h))

let mk_select c a b = mk_merge [ (c, a); (mk_not c, b) ]

(* ------------------------------------------------------------------ *)
(* Free variables and substitution                                     *)

let free_vars t =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      match t.node with
      | FreeVar v -> acc := v :: !acc
      | Const _ | Param _ | GlobAddr _ | Query _ | SVar _ | AllocaBase _ | Nil _ -> ()
      | Bin (_, _, ts) | MathCall (_, ts) -> List.iter go ts
      | Cmp (_, a, b) -> go a; go b
      | Not a | EffectRes a -> go a
      | Cast (_, _, a) -> go a
      | Gep (p, i, _) -> go p; go i
      | Merge es -> List.iter (fun (g, v) -> go g; go v) es
      | Load (_, c, a, _) -> go c; go a
      | LoopOut (l, _) -> go l
      | Loop l ->
          List.iter go l.l_inits; List.iter go l.l_steps; go l.l_cond;
          List.iter go l.l_chains
      | ChainStore (p, g, a, v, _) -> go p; go g; go a; go v
      | ChainEffect (p, g, _, args) -> go p; go g; List.iter go args
      | ChainBarrier (p, g) -> go p; go g
      | ChainLoop (p, l) -> go p; go l
    end
  in
  go t;
  List.sort_uniq compare !acc

(* Substitute free loop-state variables. [binder v depth] renders the
   replacement at the given de-Bruijn depth (used when closing a loop
   summary); [plain] substitutes whole terms (used for signature
   unrolling, where replacements contain no SVars so capture cannot
   occur). Rebuilding goes through the smart constructors so the result
   is renormalized under the new identities. *)
let subst_free ~(f : int -> int -> term option) t0 =
  let memo : (int * int, term) Hashtbl.t = Hashtbl.create 64 in
  let rec go depth t =
    match Hashtbl.find_opt memo (depth, t.id) with
    | Some r -> r
    | None ->
        let r =
          match t.node with
          | FreeVar v -> ( match f v depth with Some r -> r | None -> t)
          | Const _ | Param _ | GlobAddr _ | Query _ | SVar _ | AllocaBase _ | Nil _ -> t
          | Bin (op, ty, ts) -> (
              let ts' = List.map (go depth) ts in
              match ts' with
              | [ a; b ] -> mk_bin op ty a b
              | _ -> mk_nary op ty ts')
          | Cmp (op, a, b) -> mk_cmp op (go depth a) (go depth b)
          | Not a -> mk_not (go depth a)
          | Cast (op, ty, a) -> mk_cast op ty (go depth a)
          | Gep (p, i, ty) -> mk_gep (go depth p) (go depth i) ty
          | MathCall (fn, ts) -> mk_math fn (List.map (go depth) ts)
          | Merge es -> mk_merge (List.map (fun (g, v) -> (go depth g, go depth v)) es)
          | Load (sp, c, a, ty) -> intern (Load (sp, go depth c, go depth a, ty))
          | EffectRes e -> intern (EffectRes (go depth e))
          | LoopOut (l, i) -> intern (LoopOut (go depth l, i))
          | Loop l ->
              intern
                (Loop
                   {
                     l_inits = List.map (go depth) l.l_inits;
                     l_steps = List.map (go (depth + 1)) l.l_steps;
                     l_cond = go (depth + 1) l.l_cond;
                     l_chains = List.map (go (depth + 1)) l.l_chains;
                   })
          | ChainStore (p, g, a, v, ty) ->
              intern (ChainStore (go depth p, go depth g, go depth a, go depth v, ty))
          | ChainEffect (p, g, fn, args) ->
              intern (ChainEffect (go depth p, go depth g, fn, List.map (go depth) args))
          | ChainBarrier (p, g) -> intern (ChainBarrier (go depth p, go depth g))
          | ChainLoop (p, l) -> intern (ChainLoop (go depth p, go depth l))
        in
        Hashtbl.add memo (depth, t.id) r;
        r
  in
  go 0 t0

let subst_map (m : (int * term) list) t =
  subst_free ~f:(fun v _ -> List.assoc_opt v m) t

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

type verdict = Proven | Unproven of string | Refuted of Finding.t

exception Refute of Finding.t
exception Give_up of string

type options = {
  unroll_cap : int; (* max symbolic iterations before summarizing *)
  inline_depth : int; (* max nested device-call inlining *)
  fuel : int; (* instruction-evaluation budget per side *)
  samples : int; (* concrete environments tried on a pure mismatch *)
}

let default_options = { unroll_cap = 64; inline_depth = 8; fuel = 400_000; samples = 24 }

type subst = {
  sub_params : (int * Konst.t) list; (* 0-based param position -> value *)
  sub_globals : (string * int64) list; (* extern global -> device address *)
}

let no_subst = { sub_params = []; sub_globals = [] }

(* ------------------------------------------------------------------ *)
(* Symbolic memory: one store chain per address space                  *)

type mem = { mg : term; ms : term; mp : term }

let chain_of mem = function
  | Types.AS_global -> mem.mg
  | Types.AS_shared -> mem.ms
  | Types.AS_scratch -> mem.mp

let set_chain mem sp c =
  match sp with
  | Types.AS_global -> { mem with mg = c }
  | Types.AS_shared -> { mem with ms = c }
  | Types.AS_scratch -> { mem with mp = c }

let prev_of c =
  match c.node with
  | ChainStore (p, _, _, _, _) | ChainEffect (p, _, _, _) | ChainBarrier (p, _)
  | ChainLoop (p, _) ->
      Some p
  | _ -> None

(* Base allocation + byte offset of an address term, when static. *)
let rec addr_info t =
  match t.node with
  | Gep (p, i, ety) -> (
      let base, off = addr_info p in
      match (i.node, off) with
      | Const (Konst.KInt (k, _)), Some o ->
          (base, Some (Int64.add o (Int64.mul k (Int64.of_int (Types.size_of ety)))))
      | _ -> (base, None))
  | Cast (Ops.Bitcast, _, x) -> addr_info x
  | _ -> (t, Some 0L)

(* The frontend types every pointer AS_global (allocas included); what
   actually distinguishes private storage is its base value. *)
let space_of_addr declared addr =
  match (addr_info addr : term * _) with
  | { node = AllocaBase _; _ }, _ -> Types.AS_scratch
  | _ -> declared

let definitely_disjoint a sa b sb =
  let ba, oa = addr_info a and bb, ob = addr_info b in
  let ranges_disjoint oa ob =
    match (oa, ob) with
    | Some x, Some y ->
        Int64.compare (Int64.add x (Int64.of_int sa)) y <= 0
        || Int64.compare (Int64.add y (Int64.of_int sb)) x <= 0
    | _ -> false
  in
  if ba.id = bb.id then ranges_disjoint oa ob
  else
    match (ba.node, bb.node) with
    | AllocaBase _, AllocaBase _ -> true (* distinct allocation sites *)
    | _ -> false

(* g already true under observation guard h? Syntactic implication on
   conjunct sets is all the evaluator needs: guards are built by the
   same constructors on both sides. *)
let implies h g =
  is_true g || g.id = h.id
  || List.for_all
       (fun c -> List.exists (fun c' -> c'.id = c.id) (conjuncts h))
       (conjuncts g)

(* Drop scratch-chain events that cannot alias [addr]; opaque scratch
   loads are keyed on this filtered chain so private traffic removed by
   mem2reg on one side cannot desynchronize the other. *)
let filter_scratch chain addr lsz =
  let rec filt c =
    match c.node with
    | ChainStore (prev, g, a, v, vty) ->
        let p = filt prev in
        if definitely_disjoint a (Types.size_of vty) addr lsz then p
        else intern (ChainStore (p, g, a, v, vty))
    | ChainEffect (prev, g, f, args) -> intern (ChainEffect (filt prev, g, f, args))
    | ChainLoop (prev, l) -> intern (ChainLoop (filt prev, l))
    | ChainBarrier (prev, _) -> filt prev
    | _ -> c
  in
  filt chain

(* Store-forwarding walk for private memory under observation guard
   [h]. Forwarded conditional stores produce the same guard-keyed
   Merge shape mem2reg's phis produce; a walk reaching the start of
   the chain mirrors mem2reg's zero default for load-before-store. *)
let scratch_load ~h chain addr ty =
  let lsz = Types.size_of ty in
  let opaque () = intern (Load (Types.AS_scratch, filter_scratch chain addr lsz, addr, ty)) in
  let rec walk c =
    match c.node with
    | Nil _ -> const (Konst.zero ty)
    | ChainStore (prev, g, a, v, vty) ->
        if a.id = addr.id && Types.equal vty ty then
          if implies h g then v
          else mk_merge [ (guard_and h g, v); (guard_andnot h g, walk prev) ]
        else if definitely_disjoint a (Types.size_of vty) addr lsz then walk prev
        else opaque ()
    | ChainBarrier (prev, _) -> walk prev
    | _ -> opaque ()
  in
  walk chain

(* Merge chains at a control-flow join: locate the deepest shared tail,
   then reapply each branch's suffix in a canonical order (sound: the
   suffix events carry mutually disjoint guards). *)
let merge_chains (all : (term * term) list) : term =
  let entries = List.filter (fun (g, _) -> not (is_false g)) all in
  match entries with
  | [] -> snd (List.hd all) (* join is unreachable; any chain will do *)
  | (_, c0) :: rest when List.for_all (fun (_, c) -> c.id = c0.id) rest -> c0
  | _ ->
      let chains =
        List.sort_uniq (fun a b -> compare a.id b.id) (List.map snd entries)
      in
      let ancestors c =
        let s = Hashtbl.create 16 in
        let rec go c =
          Hashtbl.replace s c.id ();
          match prev_of c with Some p -> go p | None -> ()
        in
        go c;
        s
      in
      let lca2 a b =
        let s = ancestors a in
        let rec walk c =
          if Hashtbl.mem s c.id then c
          else match prev_of c with Some p -> walk p | None -> c
        in
        walk b
      in
      let common =
        match chains with c :: tl -> List.fold_left lca2 c tl | [] -> assert false
      in
      let suffix c =
        (* nodes above the common tail, oldest-first *)
        let rec go c acc = if c.id = common.id then acc else go (Option.get (prev_of c)) (c :: acc) in
        go c []
      in
      let suffixes =
        chains
        |> List.map (fun c -> (List.map (fun n -> n.id) (suffix c), suffix c))
        |> List.filter (fun (_, s) -> s <> [])
        |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
      in
      let reapply acc nodes =
        List.fold_left
          (fun acc n ->
            match n.node with
            | ChainStore (_, g, a, v, ty) -> intern (ChainStore (acc, g, a, v, ty))
            | ChainEffect (_, g, f, args) -> intern (ChainEffect (acc, g, f, args))
            | ChainBarrier (_, g) -> intern (ChainBarrier (acc, g))
            | ChainLoop (_, l) -> intern (ChainLoop (acc, l))
            | _ -> acc)
          acc nodes
      in
      List.fold_left (fun acc (_, s) -> reapply acc s) common suffixes

let merge_mems (entries : (term * mem) list) : mem =
  match entries with
  | [] -> Util.failf "Transval.merge_mems: no incoming edges"
  | [ (_, m) ] -> m
  | _ ->
      {
        mg = merge_chains (List.map (fun (g, m) -> (g, m.mg)) entries);
        ms = merge_chains (List.map (fun (g, m) -> (g, m.ms)) entries);
        mp = merge_chains (List.map (fun (g, m) -> (g, m.mp)) entries);
      }

(* ------------------------------------------------------------------ *)
(* The symbolic evaluator                                              *)

type ctx = {
  cm : Ir.modul;
  sub : subst;
  opts : options;
  mutable fuel : int;
  mutable serial : int; (* non-promotable alloca sites: stable across mem2reg *)
  mutable vserial : int; (* promotable sites: mem2reg erases them, ids negative *)
}

type frame = {
  ff : Ir.func;
  regs : term option array;
  mutable floc : (int * int) option;
  mutable fblk : string;
}

exception Bail (* abandon bounded unrolling, fall back to summary *)

let fv_counter = ref 0

let fresh_fv () =
  incr fv_counter;
  intern (FreeVar !fv_counter)

let refute_finding frame msg =
  Finding.mk ?loc:frame.floc ~kind:Finding.Transval_refuted ~severity:Finding.Error
    ~func:frame.ff.Ir.fname ~block:frame.fblk msg

let tick ctx =
  ctx.fuel <- ctx.fuel - 1;
  if ctx.fuel < 0 then raise (Give_up "evaluation budget exhausted")

let glob_term ctx g =
  match List.assoc_opt g ctx.sub.sub_globals with
  | Some addr ->
      (* mirror Specialize.link_globals_typed: a bitcast of the device
         address, typed as a pointer to the global's element type *)
      let gv = Ir.find_global ctx.cm g in
      let elem = match gv.Ir.gty with Types.TArr (e, _) -> e | t -> t in
      mk_cast Ops.Bitcast (Types.TPtr (elem, gv.Ir.gspace))
        (const (Konst.kint ~bits:64 addr))
  | None -> intern (GlobAddr g)

let ptr_space ctx frame op =
  match Ir.operand_ty ctx.cm frame.ff op with
  | Types.TPtr (_, sp) -> sp
  | t -> raise (Give_up ("store/load through non-pointer type " ^ Types.to_string t))

let rec eval_func ctx ~depth (f : Ir.func) ~(args : term list) ~guard0 ~mem0 :
    term option * mem =
  let frame =
    { ff = f; regs = Array.make (Ir.nregs f) None; floc = None; fblk = "entry" }
  in
  List.iteri
    (fun i (_, r) -> frame.regs.(r) <- Some (List.nth args i))
    f.Ir.params;
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let li = Loopinfo.compute cfg dom in
  let promotable =
    lazy
      (List.filter_map
         (fun (d, ty) -> Some (d, ty))
         (Proteus_opt.Mem2reg.promotable_allocas f))
  in
  let rets : (term * term option * mem) list ref = ref [] in
  let ev = function
    | Ir.Reg r -> (
        match frame.regs.(r) with
        | Some t -> t
        | None ->
            raise
              (Refute (refute_finding frame (Printf.sprintf "use of undefined register %%r%d" r))))
    | Ir.Imm k -> const k
    | Ir.Glob g -> glob_term ctx g
  in
  let exec_instr gb mem instr =
    tick ctx;
    let set d t = frame.regs.(d) <- Some t in
    match instr with
    | Ir.IBin (d, op, a, b) ->
        set d (mk_bin op (Ir.reg_ty f d) (ev a) (ev b));
        mem
    | Ir.ICmp (d, op, a, b) ->
        set d (mk_cmp op (ev a) (ev b));
        mem
    | Ir.ISelect (d, c, x, y) ->
        set d (mk_select (ev c) (ev x) (ev y));
        mem
    | Ir.ICast (d, op, a) ->
        set d (mk_cast op (Ir.reg_ty f d) (ev a));
        mem
    | Ir.IGep (d, p, i) ->
        let elem =
          match Ir.operand_ty ctx.cm f p with
          | Types.TPtr (e, _) -> e
          | t -> raise (Give_up ("gep through non-pointer " ^ Types.to_string t))
        in
        set d (mk_gep (ev p) (ev i) elem);
        mem
    | Ir.ILoad (d, p) ->
        let addr = ev p in
        let sp = space_of_addr (ptr_space ctx frame p) addr in
        let ty = Ir.reg_ty f d in
        let v =
          match sp with
          | Types.AS_scratch -> scratch_load ~h:gb mem.mp addr ty
          | sp -> intern (Load (sp, chain_of mem sp, addr, ty))
        in
        set d v;
        mem
    | Ir.IStore (vop, pop) ->
        if is_false gb then mem
        else begin
          let addr = ev pop in
          let sp = space_of_addr (ptr_space ctx frame pop) addr in
          let vty = Ir.operand_ty ctx.cm f vop in
          let node = intern (ChainStore (chain_of mem sp, gb, addr, ev vop, vty)) in
          note_provenance node ~loc:frame.floc ~block:frame.fblk;
          set_chain mem sp node
        end
    | Ir.IAlloca (d, ty, _count) ->
        (* Promotable allocas get negative serials: mem2reg deletes
           them on the optimized side, so only the surviving (array /
           address-escaping) sites may count toward the stable numbering
           both sides must agree on. *)
        let sn =
          if List.mem_assoc d (Lazy.force promotable) then begin
            ctx.vserial <- ctx.vserial - 1;
            ctx.vserial
          end
          else begin
            ctx.serial <- ctx.serial + 1;
            ctx.serial
          end
        in
        set d (intern (AllocaBase (sn, ty)));
        mem
    | Ir.IPhi _ -> Util.failf "Transval: phi outside block entry"
    | Ir.ICall (dst, callee, cargs) -> (
        if callee = Ir.Intrinsics.dbg_loc then begin
          (match cargs with
          | [ Ir.Imm a; Ir.Imm b ] ->
              frame.floc <- Some (Int64.to_int (Konst.as_int a), Int64.to_int (Konst.as_int b))
          | _ -> ());
          mem
        end
        else if Ir.Intrinsics.is_gpu_query callee then begin
          (match dst with Some d -> set d (intern (Query callee)) | None -> ());
          mem
        end
        else if Ir.Intrinsics.is_math callee then begin
          (match dst with
          | Some d -> set d (mk_math callee (List.map ev cargs))
          | None -> ());
          mem
        end
        else if callee = Ir.Intrinsics.barrier then
          if is_false gb then mem
          else begin
            let bg = intern (ChainBarrier (mem.mg, gb)) in
            let bs = intern (ChainBarrier (mem.ms, gb)) in
            note_provenance bg ~loc:frame.floc ~block:frame.fblk;
            { mem with mg = bg; ms = bs }
          end
        else if Ir.Intrinsics.is_atomic callee then begin
          let sp =
            match cargs with
            | p :: _ -> space_of_addr (ptr_space ctx frame p) (ev p)
            | [] -> raise (Give_up "atomic arity")
          in
          if is_false gb then begin
            (match dst with Some d -> set d (intern (Merge [])) | None -> ());
            mem
          end
          else begin
            let node =
              intern (ChainEffect (chain_of mem sp, gb, callee, List.map ev cargs))
            in
            note_provenance node ~loc:frame.floc ~block:frame.fblk;
            (match dst with Some d -> set d (intern (EffectRes node)) | None -> ());
            set_chain mem sp node
          end
        end
        else
          match Ir.find_func_opt ctx.cm callee with
          | Some g when not g.Ir.is_decl ->
              if depth >= ctx.opts.inline_depth then
                raise (Give_up ("inline depth exceeded at " ^ callee));
              let ret, mem' =
                eval_func ctx ~depth:(depth + 1) g ~args:(List.map ev cargs)
                  ~guard0:gb ~mem0:mem
              in
              (match (dst, ret) with
              | Some d, Some v -> set d v
              | Some _, None -> raise (Give_up ("void call result used: " ^ callee))
              | None, _ -> ());
              mem'
          | _ ->
              (* opaque external call: clobbers global memory *)
              let node =
                intern (ChainEffect (mem.mg, gb, callee, List.map ev cargs))
              in
              note_provenance node ~loc:frame.floc ~block:frame.fblk;
              (match dst with Some d -> set d (intern (EffectRes node)) | None -> ());
              { mem with mg = node })
  in
  (* Evaluate an acyclic region (loops collapse through handle_loop) in
     RPO. [entry_edges] seed the region entry; returns edges that leave
     the region. Return sites accumulate in [rets]. *)
  let rec region_eval ~(region : Util.Sset.t) ~entry_label
      ~(entry_edges : (string * term * mem) list) :
      ((string * string) * term * mem) list =
    let edges : (string * string, term * mem) Hashtbl.t = Hashtbl.create 16 in
    let consumed : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let exits = ref [] in
    let emit b l g mem =
      if Util.Sset.mem l region then Hashtbl.replace edges (b, l) (g, mem)
      else exits := ((b, l), g, mem) :: !exits
    in
    let order =
      List.filter (fun b -> Util.Sset.mem b region) (List.map (Cfg.label cfg) cfg.rpo)
    in
    List.iter
      (fun b ->
        if not (Hashtbl.mem consumed b) then begin
          let incoming =
            (if b = entry_label then entry_edges else [])
            @ List.filter_map
                (fun p ->
                  match Hashtbl.find_opt edges (p, b) with
                  | Some (g, mem) -> Some (p, g, mem)
                  | None -> None)
                (* in label order, as the guards and memories merge *)
                (List.sort compare
                   (List.map (Cfg.label cfg) cfg.pred.(Cfg.index cfg b)))
          in
          if incoming <> [] then begin
            let loop_here =
              List.find_opt
                (fun (l : Loopinfo.loop) ->
                  l.Loopinfo.header = b
                  && Util.Sset.for_all (fun x -> Util.Sset.mem x region) l.Loopinfo.body)
                li.Loopinfo.loops
            in
            match loop_here with
            | Some l ->
                let exit_label, g, mem = handle_loop ~incoming l in
                Util.Sset.iter (fun x -> Hashtbl.replace consumed x ()) l.Loopinfo.body;
                emit b exit_label g mem
            | None ->
                let blk = Ir.find_block f b in
                frame.fblk <- b;
                let gb = mk_or (List.map (fun (_, g, _) -> g) incoming) in
                (* phis read per-edge values *)
                List.iter
                  (function
                    | Ir.IPhi (d, inc) ->
                        let entries =
                          List.filter_map
                            (fun (p, g, _) ->
                              match List.assoc_opt p inc with
                              | Some op -> Some (g, ev op)
                              | None ->
                                  if is_false g then None
                                  else
                                    raise
                                      (Refute
                                         (refute_finding frame
                                            (Printf.sprintf
                                               "phi %%r%d missing incoming edge from block %s"
                                               d p))))
                            incoming
                        in
                        frame.regs.(d) <- Some (mk_merge entries)
                    | _ -> ())
                  blk.Ir.insts;
                let mem = merge_mems (List.map (fun (_, g, m) -> (g, m)) incoming) in
                let mem =
                  List.fold_left
                    (fun mem i ->
                      match i with Ir.IPhi _ -> mem | i -> exec_instr gb mem i)
                    mem blk.Ir.insts
                in
                (match blk.Ir.term with
                | Ir.TBr l -> emit b l gb mem
                | Ir.TCondBr (c, t, e) ->
                    if t = e then emit b t gb mem
                    else begin
                      let ct = ev c in
                      emit b t (mk_and [ gb; ct ]) mem;
                      emit b e (mk_and [ gb; mk_not ct ]) mem
                    end
                | Ir.TRet v -> rets := (gb, Option.map ev v, mem) :: !rets
                | Ir.TUnreachable -> ())
          end
        end)
      order;
    !exits
  (* Natural-loop cutpoint: bounded unrolling when every exit decision
     folds to a constant, canonical summarization otherwise. *)
  and handle_loop ~(incoming : (string * term * mem) list) (l : Loopinfo.loop) :
      string * term * mem =
    let header = l.Loopinfo.header in
    let hb = Ir.find_block f header in
    let phis =
      List.filter_map
        (function Ir.IPhi (d, inc) -> Some (d, inc) | _ -> None)
        hb.Ir.insts
    in
    let body_target, exit_label, cond_op, cond_positive =
      match hb.Ir.term with
      | Ir.TCondBr (c, t, e) -> (
          match
            (Util.Sset.mem t l.Loopinfo.body, Util.Sset.mem e l.Loopinfo.body)
          with
          | true, false -> (t, e, c, true)
          | false, true -> (e, t, c, false)
          | _ -> raise (Give_up ("unsupported loop shape at " ^ header)))
      | _ -> raise (Give_up ("loop header without exit test at " ^ header))
    in
    (* all exits must leave from the header *)
    Util.Sset.iter
      (fun b ->
        if b <> header then
          List.iter
            (fun s ->
              if not (Util.Sset.mem s l.Loopinfo.body) then
                raise (Give_up ("loop exit outside header at " ^ b)))
            (List.map (Cfg.label cfg) cfg.succ.(Cfg.index cfg b)))
      l.Loopinfo.body;
    let g0 = mk_or (List.map (fun (_, g, _) -> g) incoming) in
    let entry_mem = merge_mems (List.map (fun (_, g, m) -> (g, m)) incoming) in
    let body_region = Util.Sset.remove header l.Loopinfo.body in
    let phi_entry_value (_, inc) =
      mk_merge
        (List.filter_map
           (fun (p, g, _) ->
             match List.assoc_opt p inc with
             | Some op -> Some (g, ev op)
             | None ->
                 if is_false g then None
                 else
                   raise
                     (Refute
                        (refute_finding frame
                           ("loop phi missing incoming edge from block " ^ p))))
           incoming)
    in
    let eval_header_insts gb mem =
      frame.fblk <- header;
      List.fold_left
        (fun mem i -> match i with Ir.IPhi _ -> mem | i -> exec_instr gb mem i)
        mem hb.Ir.insts
    in
    let back_edges_of exits =
      List.map
        (fun ((latch, target), g, mem) ->
          if target <> header then
            raise (Give_up ("loop exit outside header at " ^ latch));
          (latch, g, mem))
        exits
    in
    let phi_step_value backs (d, inc) =
      mk_merge
        (List.filter_map
           (fun (latch, g, _) ->
             match List.assoc_opt latch inc with
             | Some op -> Some (g, ev op)
             | None ->
                 if is_false g then None
                 else
                   raise
                     (Refute
                        (refute_finding frame
                           (Printf.sprintf "phi %%r%d missing incoming edge from block %s"
                              d latch))))
           backs)
    in
    let snapshot = Array.copy frame.regs in
    let attempt_unroll () =
      let phi_vals = ref (List.map phi_entry_value phis) in
      let mem = ref entry_mem in
      let iter = ref 0 in
      let result = ref None in
      while !result = None do
        List.iter2 (fun (d, _) v -> frame.regs.(d) <- Some v) phis !phi_vals;
        let mem1 = eval_header_insts g0 !mem in
        let ct = ev cond_op in
        let continue_ =
          match ct.node with
          | Const (Konst.KBool b) -> if cond_positive then b else not b
          | _ -> raise Bail
        in
        if not continue_ then result := Some (exit_label, g0, mem1)
        else begin
          incr iter;
          if !iter > ctx.opts.unroll_cap then raise Bail;
          if Util.Sset.is_empty body_region then
            (* self-loop on the header: phis step from the header itself *)
            begin
              phi_vals := List.map (phi_step_value [ (header, g0, mem1) ]) phis;
              mem := mem1
            end
          else begin
            let exits =
              region_eval ~region:body_region ~entry_label:body_target
                ~entry_edges:[ (header, g0, mem1) ]
            in
            let backs = back_edges_of exits in
            if backs = [] then raise Bail;
            phi_vals := List.map (phi_step_value backs) phis;
            mem := merge_mems (List.map (fun (_, g, m) -> (g, m)) backs)
          end
        end
      done;
      Option.get !result
    in
    try attempt_unroll ()
    with Bail ->
      Array.blit snapshot 0 frame.regs 0 (Array.length snapshot);
      summarize_loop ~incoming ~l ~header ~hb ~phis ~body_target ~exit_label
        ~cond_op ~cond_positive ~g0 ~entry_mem ~body_region ~phi_entry_value
        ~eval_header_insts ~back_edges_of ~phi_step_value ~promotable
  and summarize_loop ~incoming:_ ~l ~header ~hb:_ ~phis ~body_target ~exit_label
      ~cond_op ~cond_positive ~g0 ~entry_mem ~body_region ~phi_entry_value
      ~eval_header_insts ~back_edges_of ~phi_step_value ~promotable =
    (* State variables: header phis, then promotable scratch slots that
       the body stores to. Slot state mirrors what mem2reg would have
       promoted, so an unoptimized side and an SSA side summarize
       identically. *)
    let slot_regs =
      let prom = Lazy.force promotable in
      let stored = Hashtbl.create 8 in
      Util.Sset.iter
        (fun b ->
          let blk = Ir.find_block f b in
          List.iter
            (function
              | Ir.IStore (_, Ir.Reg a) when List.mem_assoc a prom ->
                  Hashtbl.replace stored a ()
              | _ -> ())
            blk.Ir.insts)
        l.Loopinfo.body;
      List.filter (fun (a, _) -> Hashtbl.mem stored a) prom
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let slots =
      (* Allocas first materialized inside the body are iteration-local
         (their state cannot flow around the back edge); only slots
         allocated before the loop carry state. *)
      List.filter_map
        (fun (a, ty) ->
          match frame.regs.(a) with
          | Some ({ node = AllocaBase _; _ } as addr) -> Some (a, ty, addr)
          | _ -> None)
        slot_regs
    in
    let nphis = List.length phis in
    let nvars = nphis + List.length slots in
    let fvs = Array.init nvars (fun _ -> fresh_fv ()) in
    let fv_ids =
      Array.map (fun t -> match t.node with FreeVar v -> v | _ -> assert false) fvs
    in
    let inits =
      Array.of_list
        (List.map phi_entry_value phis
        @ List.map (fun (_, ty, addr) -> scratch_load ~h:g0 entry_mem.mp addr ty) slots)
    in
    (* relative body evaluation over the state placeholders *)
    List.iteri (fun i (d, _) -> frame.regs.(d) <- Some fvs.(i)) phis;
    let overlay =
      List.fold_left
        (fun acc (i, (_, ty, addr)) ->
          intern (ChainStore (acc, tt (), addr, fvs.(nphis + i), ty)))
        entry_mem.mp
        (List.mapi (fun i s -> (i, s)) slots)
    in
    let mem_rel =
      { mg = intern (Nil Types.AS_global); ms = intern (Nil Types.AS_shared); mp = overlay }
    in
    (* The body is evaluated once under the loop's entry guard: an
       iteration only runs for lanes that reached the header, and
       keeping g0 lets pre-loop conditional stores forward cleanly. *)
    let memh = eval_header_insts g0 mem_rel in
    let ct = ev cond_op in
    let cond = if cond_positive then ct else mk_not ct in
    let backs =
      if Util.Sset.is_empty body_region then [ (header, g0, memh) ]
      else
        back_edges_of
          (region_eval ~region:body_region ~entry_label:body_target
             ~entry_edges:[ (header, g0, memh) ])
    in
    if backs = [] then raise (Give_up ("loop without back edge at " ^ header));
    let steps =
      Array.of_list
        (List.map (phi_step_value backs) phis
        @ List.map
            (fun (_, ty, addr) ->
              mk_merge
                (List.map (fun (_, g, m) -> (g, scratch_load ~h:g m.mp addr ty)) backs))
            slots)
    in
    let mem_exit = merge_mems (List.map (fun (_, g, m) -> (g, m)) backs) in
    (* relative scratch events: body stores minus slot state and minus
       stores to promotable (mem2reg-erasable) sites — those are
       iteration-local or covered by slot summaries on both sides *)
    let volatile_base a =
      match addr_info a with
      | { node = AllocaBase (sn, _); _ }, _ -> sn < 0
      | _ -> false
    in
    let p_rel =
      let rec strip c =
        if c.id = overlay.id then intern (Nil Types.AS_scratch)
        else
          match c.node with
          | ChainStore (prev, g, a, v, ty) ->
              let p = strip prev in
              if volatile_base a then p
              else intern (ChainStore (p, g, a, v, ty))
          | ChainEffect (prev, g, fc, args) -> intern (ChainEffect (strip prev, g, fc, args))
          | ChainBarrier (prev, _) -> strip prev
          | ChainLoop (prev, lp) -> intern (ChainLoop (strip prev, lp))
          | _ -> intern (Nil Types.AS_scratch)
      in
      strip mem_exit.mp
    in
    let chains_rel = [ mem_exit.mg; mem_exit.ms; p_rel ] in
    (* dependency closure and canonical ordering *)
    let own_vars t =
      List.filter_map
        (fun v -> Array.to_list fv_ids |> List.mapi (fun i x -> (i, x))
                  |> List.find_opt (fun (_, x) -> x = v) |> Option.map fst)
        (free_vars t)
    in
    let closure seed =
      let inset = Array.make nvars false in
      List.iter (fun i -> inset.(i) <- true) seed;
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to nvars - 1 do
          if inset.(i) then
            List.iter
              (fun j -> if not inset.(j) then (inset.(j) <- true; changed := true))
              (own_vars steps.(i))
        done
      done;
      List.filter (fun i -> inset.(i)) (List.init nvars (fun i -> i))
    in
    let cond_set = closure (own_vars cond) in
    (* three-step signatures give each variable a canonical identity *)
    let map0 = Array.to_list (Array.mapi (fun i v -> (fv_ids.(i), v)) inits) in
    let v1 = Array.map (fun s -> subst_map map0 s) steps in
    let map1 = Array.to_list (Array.mapi (fun i v -> (fv_ids.(i), v)) v1) in
    let v2 = Array.map (fun s -> subst_map map1 s) steps in
    let sig_of i = (inits.(i).id, v1.(i).id, v2.(i).id) in
    let order_subset s =
      let sorted = List.sort (fun a b -> compare (sig_of a) (sig_of b)) s in
      let rec tied = function
        | a :: b :: _ when sig_of a = sig_of b -> true
        | _ :: tl -> tied tl
        | [] -> false
      in
      if tied sorted then
        raise (Give_up ("tied loop-state signatures at " ^ header));
      sorted
    in
    let project_memo = Hashtbl.create 8 in
    let project subset ~chains =
      let subset = List.sort_uniq compare (subset @ cond_set) in
      let key = (subset, chains <> []) in
      match Hashtbl.find_opt project_memo key with
      | Some t -> t
      | None ->
          let ordered = order_subset subset in
          let posn = List.mapi (fun pos i -> (i, pos)) ordered in
          let close t =
            subst_free
              ~f:(fun v depth ->
                Array.to_list fv_ids
                |> List.mapi (fun i x -> (i, x))
                |> List.find_opt (fun (_, x) -> x = v)
                |> Option.map (fun (i, _) ->
                       match List.assoc_opt i posn with
                       | Some pos -> intern (SVar (depth, pos))
                       | None ->
                           raise
                             (Give_up ("loop state escapes its closure at " ^ header))))
              t
          in
          let t =
            intern
              (Loop
                 {
                   l_inits = List.map (fun i -> inits.(i)) ordered;
                   l_steps = List.map (fun i -> close steps.(i)) ordered;
                   l_cond = close cond;
                   l_chains = List.map close chains;
                 })
          in
          Hashtbl.add project_memo key t;
          t
    in
    let position_in subset i =
      let ordered = order_subset (List.sort_uniq compare (subset @ cond_set)) in
      let rec find pos = function
        | j :: _ when j = i -> pos
        | _ :: tl -> find (pos + 1) tl
        | [] -> raise (Give_up "loop output missing from projection")
      in
      find 0 ordered
    in
    let out_term i =
      let subset = closure [ i ] in
      intern (LoopOut (project subset ~chains:[], position_in subset i))
    in
    (* bind loop outputs *)
    List.iteri (fun i (d, _) -> frame.regs.(d) <- Some (out_term i)) phis;
    let has_events = List.exists (fun c -> match c.node with Nil _ -> false | _ -> true) chains_rel in
    let event_loop =
      if has_events then
        Some (project (closure (List.concat_map own_vars chains_rel)) ~chains:chains_rel)
      else None
    in
    let append_loop chain rel =
      match (event_loop, rel.node) with
      | Some lp, (ChainStore _ | ChainEffect _ | ChainBarrier _ | ChainLoop _) ->
          let node = intern (ChainLoop (chain, lp)) in
          note_provenance node ~loc:frame.floc ~block:header;
          node
      | _ -> chain
    in
    let mem' =
      {
        mg = append_loop entry_mem.mg mem_exit.mg;
        ms = append_loop entry_mem.ms mem_exit.ms;
        mp = append_loop entry_mem.mp p_rel;
      }
    in
    let mem' =
      List.fold_left
        (fun m (j, (_, ty, addr)) ->
          let node =
            intern (ChainStore (m.mp, g0, addr, out_term (nphis + j), ty))
          in
          { m with mp = node })
        mem'
        (List.mapi (fun j s -> (j, s)) slots)
    in
    (exit_label, g0, mem')
  in
  let region = Util.Sset.of_list (List.map (Cfg.label cfg) cfg.rpo) in
  let entry_label = (Ir.entry f).Ir.label in
  let _exits =
    region_eval ~region ~entry_label ~entry_edges:[ ("<entry>", guard0, mem0) ]
  in
  match !rets with
  | [] -> raise (Give_up ("no return path in " ^ f.Ir.fname))
  | rs ->
      let mem = merge_mems (List.map (fun (g, _, m) -> (g, m)) rs) in
      let ret =
        if Types.equal f.Ir.ret Types.TVoid then None
        else
          Some
            (mk_merge
               (List.filter_map
                  (fun (g, v, _) -> match v with Some v -> Some (g, v) | None -> None)
                  rs))
      in
      (ret, mem)

(* ------------------------------------------------------------------ *)
(* Kernel summaries                                                    *)

type summary = { sum_ret : term option; sum_g : term; sum_s : term }

let summarize ~opts ~sub m sym : summary =
  let f = Ir.find_func m sym in
  if f.Ir.is_decl then raise (Give_up (sym ^ " is a declaration"));
  let ctx = { cm = m; sub; opts; fuel = opts.fuel; serial = 0; vserial = 0 } in
  let args =
    List.mapi
      (fun i (_, r) ->
        match List.assoc_opt i sub.sub_params with
        | Some k -> (
            match Ir.reg_ty f r with
            (* mirror Specialize.fold_arguments: pointer spec values
               arrive as a bitcast of the raw device address *)
            | Types.TPtr _ as pty -> mk_cast Ops.Bitcast pty (const k)
            | _ -> const k)
        | None -> intern (Param (i, Ir.reg_ty f r)))
      f.Ir.params
  in
  let mem0 =
    {
      mg = intern (Nil Types.AS_global);
      ms = intern (Nil Types.AS_shared);
      mp = intern (Nil Types.AS_scratch);
    }
  in
  let ret, mem = eval_func ctx ~depth:0 f ~args ~guard0:(tt ()) ~mem0 in
  { sum_ret = ret; sum_g = mem.mg; sum_s = mem.ms }

(* ------------------------------------------------------------------ *)
(* Concrete sampling: refute a pure mismatch with a counterexample      *)

exception No_eval

let is_pure t =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some r -> r
    | None ->
        let r =
          match t.node with
          | Const _ | Param _ | GlobAddr _ | Query _ -> true
          | Bin (_, _, ts) | MathCall (_, ts) -> List.for_all go ts
          | Cmp (_, a, b) -> go a && go b
          | Not a | Cast (_, _, a) -> go a
          | Gep (p, i, _) -> go p && go i
          | Merge es -> List.for_all (fun (g, v) -> go g && go v) es
          | FreeVar _ | SVar _ | AllocaBase _ | Load _ | EffectRes _ | LoopOut _
          | Loop _ | Nil _ | ChainStore _ | ChainEffect _ | ChainBarrier _
          | ChainLoop _ ->
              false
        in
        Hashtbl.add memo t.id r;
        r
  in
  go t

type cenv = {
  e_param : int -> Types.ty -> Konst.t;
  e_query : string -> Konst.t;
  e_glob : string -> Konst.t;
}

(* [special] extends evaluation to nodes ceval alone cannot handle
   (the memory-modeled counterexample sampler below): it receives the
   memoized evaluator for subterms and returns [Some k] to override. *)
let ceval ?(special = fun _ _ -> None) env t0 =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some k -> k
    | None ->
        let k =
          match special go t with
          | Some k -> k
          | None -> (
              match t.node with
          | Const k -> k
          | Param (i, ty) -> env.e_param i ty
          | GlobAddr g -> env.e_glob g
          | Query q -> env.e_query q
          | Bin (op, _, ts) -> (
              match ts with
              | hd :: tl -> List.fold_left (fun acc x -> Konst.binop op acc (go x)) (go hd) tl
              | [] -> raise No_eval)
          | Cmp (op, a, b) -> Konst.cmpop op (go a) (go b)
          | Not a -> (
              match go a with Konst.KBool b -> Konst.kbool (not b) | _ -> raise No_eval)
          | Cast (op, ty, a) -> Konst.cast op (go a) ty
          | Gep (p, i, ety) -> (
              match go p with
              | Konst.KInt (pv, _) ->
                  Konst.kint ~bits:64
                    (Int64.add pv
                       (Int64.mul (Konst.as_int (go i))
                          (Int64.of_int (Types.size_of ety))))
              | _ -> raise No_eval)
          | MathCall (f, ts) -> Interp.eval_math f (List.map go ts)
          | Merge es -> (
              match
                List.find_opt
                  (fun (g, _) -> match go g with Konst.KBool b -> b | _ -> false)
                  es
              with
              | Some (_, v) -> go v
              | None -> raise No_eval)
          | _ -> raise No_eval)
        in
        Hashtbl.add memo t.id k;
        k
  in
  go t0

(* splitmix64: deterministic, seed-indexed pseudo-random environments *)
let splitmix s =
  let z = Int64.add s 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash_str s =
  String.fold_left
    (fun h c -> Int64.add (Int64.mul h 131L) (Int64.of_int (Char.code c)))
    7L s

let sample_value raw ty =
  match ty with
  | Types.TBool -> Konst.kbool (Int64.logand raw 1L = 0L)
  | Types.TInt b ->
      (* bias toward small magnitudes so off-by-one differences show *)
      if Int64.logand raw 7L = 0L then Konst.kint ~bits:b (Int64.rem raw 7L)
      else Konst.kint ~bits:b raw
  | Types.TFloat b ->
      let v = Int64.to_float (Int64.rem raw 65536L) /. 256.0 in
      Konst.KFloat ((if b = 32 then Util.to_f32 v else v), b)
  | Types.TPtr _ ->
      Konst.kint ~bits:64 (Int64.add 4096L (Int64.logand raw 0xFFF0L))
  | _ -> raise No_eval

let sample_env seed =
  let draw salt = splitmix (Int64.add (Int64.mul (Int64.of_int seed) 1000003L) salt) in
  {
    e_param = (fun i ty -> sample_value (draw (Int64.of_int ((2 * i) + 1))) ty);
    e_query =
      (fun q ->
        Konst.kint ~bits:32
          (Int64.rem (Int64.logand (draw (hash_str q)) Int64.max_int) 128L));
    e_glob =
      (fun g ->
        Konst.kint ~bits:64
          (Int64.add 65536L (Int64.logand (draw (hash_str g)) 0xFFFF0L)));
  }

(* Returns a counterexample (sample index, reference value, candidate
   value) when the two pure terms disagree on some sampled environment. *)
let counterexample ~samples tref tcand =
  if not (is_pure tref && is_pure tcand) then None
  else begin
    let found = ref None in
    (try
       for s = 1 to samples do
         let env = sample_env s in
         match
           try Some (ceval env tref, ceval env tcand) with No_eval -> None
         with
         | Some (a, b) when not (Konst.equal a b) ->
             found := Some (s, a, b);
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    !found
  end

(* ------------------------------------------------------------------ *)
(* Term rendering (diagnostics and tests)                              *)

let rec term_to_string ?(depth = 8) t =
  let go x = term_to_string ~depth:(depth - 1) x in
  let list xs = String.concat " " (List.map go xs) in
  if depth <= 0 then Printf.sprintf "#%d" t.id
  else
    match t.node with
    | Const k -> Konst.to_string k
    | Param (i, ty) -> Printf.sprintf "arg%d:%s" i (Types.to_string ty)
    | GlobAddr g -> "@" ^ g
    | Query q -> q
    | FreeVar v -> Printf.sprintf "fv%d" v
    | SVar (d, i) -> Printf.sprintf "sv%d.%d" d i
    | AllocaBase (k, ty) -> Printf.sprintf "alloca%d:%s" k (Types.to_string ty)
    | Bin (op, _, ts) -> Printf.sprintf "(%s %s)" (Ops.binop_to_string op) (list ts)
    | Cmp (op, a, b) -> Printf.sprintf "(%s %s %s)" (Ops.cmpop_to_string op) (go a) (go b)
    | Not a -> Printf.sprintf "(not %s)" (go a)
    | Cast (op, ty, a) ->
        Printf.sprintf "(%s:%s %s)" (Ops.castop_to_string op) (Types.to_string ty) (go a)
    | Gep (p, i, ty) ->
        Printf.sprintf "(gep:%s %s %s)" (Types.to_string ty) (go p) (go i)
    | MathCall (f, ts) -> Printf.sprintf "(%s %s)" f (list ts)
    | Merge es ->
        Printf.sprintf "(merge %s)"
          (String.concat " "
             (List.map (fun (g, v) -> Printf.sprintf "[%s -> %s]" (go g) (go v)) es))
    | Load (_, c, a, ty) ->
        Printf.sprintf "(load:%s %s @%s)" (Types.to_string ty) (go a) (go c)
    | EffectRes e -> Printf.sprintf "(effect-res %s)" (go e)
    | LoopOut (l, i) -> Printf.sprintf "(loop-out %d %s)" i (go l)
    | Loop l ->
        Printf.sprintf "(loop inits[%s] steps[%s] cond %s chains[%s])"
          (list l.l_inits) (list l.l_steps) (go l.l_cond) (list l.l_chains)
    | Nil _ -> "nil"
    | ChainStore (p, g, a, v, ty) ->
        Printf.sprintf "(store:%s %s <- %s if %s @%s)" (Types.to_string ty) (go a)
          (go v) (go g) (go p)
    | ChainEffect (p, g, f, args) ->
        Printf.sprintf "(effect %s %s if %s @%s)" f (list args) (go g) (go p)
    | ChainBarrier (p, g) -> Printf.sprintf "(barrier if %s @%s)" (go g) (go p)
    | ChainLoop (p, l) -> Printf.sprintf "(chain-loop %s @%s)" (go l) (go p)

(* ------------------------------------------------------------------ *)
(* Summary comparison                                                  *)

let prov_of ids =
  let loc = List.find_map (fun i -> Hashtbl.find_opt loc_tbl i) ids in
  let blk =
    match List.find_map (fun i -> Hashtbl.find_opt blk_tbl i) ids with
    | Some b -> b
    | None -> "<summary>"
  in
  (loc, blk)

let chain_nodes c =
  let rec go c acc =
    match prev_of c with Some p -> go p (c :: acc) | None -> acc
  in
  go c []

let describe_node t =
  match t.node with
  | ChainStore (_, _, _, _, ty) -> "store of " ^ Types.to_string ty
  | ChainEffect (_, _, f, _) -> "effect call " ^ f
  | ChainBarrier _ -> "barrier"
  | ChainLoop _ -> "loop-carried events"
  | Nil _ -> "empty chain"
  | _ -> "value"

let refuted ~sym ~ids msg =
  let loc, blk = prov_of ids in
  Refuted
    (Finding.mk ?loc ~kind:Finding.Transval_refuted ~severity:Finding.Error
       ~func:sym ~block:blk msg)

(* Memory-modeled counterexample for impure values.  When every load
   in both terms reads global memory through the *initial* [Nil] chain
   state, that memory is a universally-quantified input: model it as a
   sampled address -> value function (consistent within one sample, so
   equal addresses always read equal values) and evaluate both sides
   under it.  A disagreement is then a genuine counterexample - there
   exists an input memory and environment separating the two kernels.
   Loads through any non-Nil chain disable the refinement: downstream
   of a ChainStore prefix the sampled function could contradict the
   recorded store history (a forwarded load versus the very value a
   common store wrote), and loads from distinct chain states or
   non-global spaces could sample mutually inconsistent memories -
   either way manufacturing an infeasible "counterexample" and an
   unsound refutation. *)
let counterexample_mem ~samples tref tcand =
  let cid = ref None in
  let seen = Hashtbl.create 64 in
  let rec mod_loads t =
    match Hashtbl.find_opt seen t.id with
    | Some r -> r
    | None ->
        let r =
          match t.node with
          | Const _ | Param _ | GlobAddr _ | Query _ -> true
          | Bin (_, _, ts) | MathCall (_, ts) -> List.for_all mod_loads ts
          | Cmp (_, a, b) -> mod_loads a && mod_loads b
          | Not a | Cast (_, _, a) -> mod_loads a
          | Gep (p, i, _) -> mod_loads p && mod_loads i
          | Merge es -> List.for_all (fun (g, v) -> mod_loads g && mod_loads v) es
          | Load (Types.AS_global, ({ node = Nil _; _ } as c), a, _) -> (
              match !cid with
              | None ->
                  cid := Some c.id;
                  mod_loads a
              | Some i -> i = c.id && mod_loads a)
          | _ -> false
        in
        Hashtbl.add seen t.id r;
        r
  in
  if not (mod_loads tref && mod_loads tcand) then None
  else
    match !cid with
    | None -> None (* no loads at all: the pure sampler already ran *)
    | Some chain_id ->
        let found = ref None in
        (try
           for s = 1 to samples do
             let env = sample_env s in
             let special go t =
               match t.node with
               | Load (Types.AS_global, c, a, ty) when c.id = chain_id -> (
                   match go a with
                   | Konst.KInt (av, _) ->
                       Some
                         (sample_value
                            (splitmix
                               (Int64.logxor
                                  (Int64.mul 0x2545F4914F6CDD1DL av)
                                  (Int64.of_int (s * 65599))))
                            ty)
                   | _ -> None)
               | _ -> None
             in
             match
               try
                 Some (ceval ~special env tref, ceval ~special env tcand)
               with No_eval -> None
             with
             | Some (a, b) when not (Konst.equal a b) ->
                 found := Some (s, a, b);
                 raise Exit
             | _ -> ()
           done
         with Exit -> ());
        !found

let value_mismatch ~opts ~sym ~ids ~what tref tcand =
  match counterexample ~samples:opts.samples tref tcand with
  | Some (s, a, b) ->
      refuted ~sym ~ids
        (Printf.sprintf "%s differs: sample #%d gives %s (reference) vs %s (candidate)"
           what s (Konst.to_string a) (Konst.to_string b))
  | None ->
      if is_pure tref && is_pure tcand then
        Unproven
          (Printf.sprintf "%s differs structurally; no counterexample in %d samples"
             what opts.samples)
      else
        match counterexample_mem ~samples:opts.samples tref tcand with
        | Some (s, a, b) ->
            refuted ~sym ~ids
              (Printf.sprintf
                 "%s differs under a sampled memory model: sample #%d gives %s \
                  (reference) vs %s (candidate)"
                 what s (Konst.to_string a) (Konst.to_string b))
        | None -> Unproven (what ^ " differs and involves memory or loop state")

let diff_chain ~opts ~sym ~space cref ccand =
  (* strip the common oldest prefix, then compare event-by-event *)
  let rec strip lr lc =
    match (lr, lc) with
    | r :: lr', c :: lc' when r.id = c.id -> strip lr' lc'
    | _ -> (lr, lc)
  in
  let lr, lc = strip (chain_nodes cref) (chain_nodes ccand) in
  match (lr, lc) with
  | [], [] -> Proven
  | r :: _, [] ->
      Unproven
        (Printf.sprintf "candidate drops a %s event (%s)" space (describe_node r))
  | [], c :: _ ->
      Unproven
        (Printf.sprintf "candidate adds a %s event (%s)" space (describe_node c))
  | r :: _, c :: _ -> (
      match (r.node, c.node) with
      | ChainStore (_, gr, ar, vr, tyr), ChainStore (_, gc, ac, vc, tyc)
        when ar.id = ac.id && gr.id = gc.id && Types.equal tyr tyc ->
          value_mismatch ~opts ~sym ~ids:[ c.id; r.id ]
            ~what:("stored " ^ space ^ " value") vr vc
      | ChainStore (_, gr, ar, _, _), ChainStore (_, gc, ac, _, _) when ar.id = ac.id
        ->
          if gr.id <> gc.id then
            value_mismatch ~opts ~sym ~ids:[ c.id; r.id ]
              ~what:("guard of " ^ space ^ " store") gr gc
          else Unproven ("mismatched " ^ space ^ " store")
      | _ ->
          Unproven
            (Printf.sprintf "%s event mismatch: %s (reference) vs %s (candidate)"
               space (describe_node r) (describe_node c)))

let compare_summaries ~opts ~sym sref scand =
  let ret_eq =
    match (sref.sum_ret, scand.sum_ret) with
    | None, None -> true
    | Some a, Some b -> a.id = b.id
    | _ -> false
  in
  if ret_eq && sref.sum_g.id = scand.sum_g.id && sref.sum_s.id = scand.sum_s.id then
    Proven
  else if sref.sum_g.id <> scand.sum_g.id then
    diff_chain ~opts ~sym ~space:"global" sref.sum_g scand.sum_g
  else if sref.sum_s.id <> scand.sum_s.id then
    diff_chain ~opts ~sym ~space:"shared" sref.sum_s scand.sum_s
  else
    match (sref.sum_ret, scand.sum_ret) with
    | Some a, Some b ->
        value_mismatch ~opts ~sym ~ids:[ b.id; a.id ] ~what:"return value" a b
    | _ -> Unproven "return arity mismatch"

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

exception Ref_failed of string

(* The term universe (intern/provenance/assume tables, free-variable
   counter) is process-global mutable state, so validations are
   single-flight: one lock serializes every [check_kernel] against the
   concurrent callers a JIT service has (background tier compiles on
   pool domains, the multi-tenant serve loop fanning sessions across
   domains). Each validation starts from a fresh universe — the tables
   would otherwise retain every validated kernel's terms for the life
   of the process, and [note_provenance]'s first-writer-wins policy
   would let one kernel's file:line bleed into another's refutation.
   [next_id] is deliberately NOT reset: ids stay monotonic so a term a
   caller retained across validations (tests) can never share an id
   with a structurally different fresh term. *)
let engine_lock = Mutex.create ()

let reset_universe () =
  Hashtbl.reset intern_tbl;
  Hashtbl.reset loc_tbl;
  Hashtbl.reset blk_tbl;
  Hashtbl.reset assume_memo;
  fv_counter := 0

(* Validate [candidate]'s kernel [sym] against [reference]'s. [subst]
   carries specialization bindings applied to the reference side (the
   candidate is expected to have them folded in already). The reference
   is evaluated first so its dbg.loc markers win the provenance tables
   — O3 strips debug markers from the candidate. *)
let check_kernel ?(opts = default_options) ?(subst = no_subst) ~reference
    ~candidate sym : verdict =
  Mutex.protect engine_lock @@ fun () ->
  reset_universe ();
  try
    let sref =
      try summarize ~opts ~sub:subst reference sym
      with Refute f ->
        raise (Ref_failed ("reference evaluation failed: " ^ f.Finding.message))
    in
    let scand = summarize ~opts ~sub:no_subst candidate sym in
    compare_summaries ~opts ~sym sref scand
  with
  | Refute f -> Refuted f
  | Ref_failed r | Give_up r -> Unproven r
  | Failure msg -> Unproven ("evaluation error: " ^ msg)
  | Stack_overflow -> Unproven "evaluation recursion limit"

(* Entry point for verifying candidate peephole rewrites (the planned
   superoptimizer calls this with a single-kernel module pair). *)
let check_rewrite = check_kernel

let kernels_of m =
  List.filter_map
    (fun f ->
      if f.Ir.kind = Ir.Kernel && not f.Ir.is_decl then Some f.Ir.fname else None)
    m.Ir.funcs

let check_module_pair ?(opts = default_options) ?(subst = no_subst) ~reference
    ~candidate () : (string * verdict) list =
  kernels_of reference
  |> List.filter (fun sym ->
         match Ir.find_func_opt candidate sym with
         | Some f -> not f.Ir.is_decl
         | None -> false)
  |> List.map (fun sym ->
         (sym, check_kernel ~opts ~subst ~reference ~candidate sym))

let verdict_to_string = function
  | Proven -> "proven"
  | Unproven r -> "unproven: " ^ r
  | Refuted f -> "refuted: " ^ f.Finding.message

(* Finding view of a verdict, for the CLI/SARIF surfaces. *)
let finding_of_verdict ~sym = function
  | Proven -> None
  | Refuted f -> Some f
  | Unproven r ->
      Some
        (Finding.mk ~kind:Finding.Transval_unproven ~severity:Finding.Info
           ~func:sym ~block:"<summary>" ("equivalence unproven: " ^ r))

(* ------------------------------------------------------------------ *)
(* Test-facing internals: raw (unnormalized) construction, the
   normalizer as a standalone function, and concrete evaluation, so
   qcheck can state `norm (norm t) = norm t` and `eval t = eval (norm
   t)` without going through a whole kernel. Unlike [check_kernel],
   these touch the shared term universe without taking [engine_lock]:
   single-threaded test use only. *)
module Internal = struct
  let raw node = intern node
  let norm t = subst_free ~f:(fun _ _ -> None) t

  type nonrec cenv = cenv = {
    e_param : int -> Types.ty -> Konst.t;
    e_query : string -> Konst.t;
    e_glob : string -> Konst.t;
  }

  let eval = ceval
  let sample_env = sample_env
  let is_pure = is_pure
  let counterexample_mem = counterexample_mem
  let summarize ?(opts = default_options) ?(sub = no_subst) m sym =
    summarize ~opts ~sub m sym
  let chain_nodes = chain_nodes
end
