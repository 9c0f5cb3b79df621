(* Local constant folding, algebraic simplification and strength
   reduction (LLVM's instcombine, in miniature). Folded definitions are
   recorded in a substitution map and rewritten in one sweep. *)

open Proteus_support
open Proteus_ir

let imm_of = function Ir.Imm k -> Some k | Ir.Reg _ | Ir.Glob _ -> None

let is_int_zero = function Ir.Imm (Konst.KInt (0L, _)) -> true | _ -> false
let is_int_one = function Ir.Imm (Konst.KInt (1L, _)) -> true | _ -> false
let is_fp v = function Ir.Imm (Konst.KFloat (x, _)) -> x = v | _ -> false

(* Bit-level float test: [is_fp 0.0] matches -0.0 too (OCaml float
   equality), which is too loose for identities that are only sound for
   one sign of zero. *)
let is_fp_bits v = function
  | Ir.Imm (Konst.KFloat (x, _)) -> Int64.bits_of_float x = Int64.bits_of_float v
  | _ -> false

(* 1/c is exact iff c is a power of two (and the reciprocal neither
   overflows nor underflows at the operand's width). *)
let exact_recip c bits =
  c <> 0.0
  && (let m, _ = Float.frexp c in Float.abs m = 0.5)
  &&
  let r = if bits = 32 then Util.to_f32 (1.0 /. c) else 1.0 /. c in
  Float.is_finite r && r <> 0.0

let same_operand a b =
  match (a, b) with
  | Ir.Reg x, Ir.Reg y -> x = y
  | Ir.Imm x, Ir.Imm y -> Konst.equal x y
  | Ir.Glob x, Ir.Glob y -> x = y
  | _ -> false

(* Result of simplifying one instruction. *)
type action =
  | Keep
  | Replace of Ir.instr (* rewrite in place *)
  | Subst of Ir.operand (* definition equals this operand; delete instr *)

let simplify_instr (f : Ir.func) (i : Ir.instr) : action =
  match i with
  | Ir.IBin (d, op, a, b) -> (
      match (imm_of a, imm_of b) with
      | Some ka, Some kb -> Subst (Ir.Imm (Konst.binop op ka kb))
      | _ -> (
          let open Ops in
          match (op, a, b) with
          (* canonicalize constants to the right for commutative ops *)
          | _, Ir.Imm _, _ when Ops.is_commutative op && imm_of b = None ->
              Replace (Ir.IBin (d, op, b, a))
          | (Add | Sub), x, z when is_int_zero z -> Subst x
          | Mul, _, z when is_int_zero z -> Subst z
          | Mul, x, o when is_int_one o -> Subst x
          | (SDiv | SRem), _, z when is_int_zero z ->
              (* division by zero yields 0 in our semantics *)
              Subst (Ir.Imm (Konst.kint ~bits:(match Ir.reg_ty f d with Types.TInt b -> b | _ -> 32) 0L))
          | SDiv, x, o when is_int_one o -> Subst x
          | Mul, x, Ir.Imm (Konst.KInt (k, bits)) -> (
              match Util.pow2_log2 k with
              | Some sh -> Replace (Ir.IBin (d, Shl, x, Ir.Imm (Konst.kint ~bits (Int64.of_int sh))))
              | None -> Keep)
          | (Shl | LShr | AShr), x, z when is_int_zero z -> Subst x
          | And, _, z when is_int_zero z -> Subst z
          | Or, x, z when is_int_zero z -> Subst x
          | Xor, x, z when is_int_zero z -> Subst x
          | And, x, y when same_operand x y -> Subst x
          | Or, x, y when same_operand x y -> Subst x
          | Sub, x, y when same_operand x y && Types.is_int (Ir.reg_ty f d) ->
              Subst (Ir.Imm (Konst.kint ~bits:(match Ir.reg_ty f d with Types.TInt b -> b | _ -> 32) 0L))
          | Xor, x, y when same_operand x y && Types.is_int (Ir.reg_ty f d) ->
              Subst (Ir.Imm (Konst.kint ~bits:(match Ir.reg_ty f d with Types.TInt b -> b | _ -> 32) 0L))
          (* FP identities are applied only when bit-exact for every
             input (including NaN, infinities and signed zeros): the
             JIT's contract - checked by the differential fuzzer - is
             that O3 and specialization never change results.
             Dropped as unsound: x*0 -> 0 (NaN/Inf), x+0 -> x (-0.0),
             and the general reciprocal rewrite (inexact rounding). *)
          | FAdd, x, z when is_fp_bits (-0.0) z -> Subst x (* x + -0.0 = x *)
          | FSub, x, z when is_fp_bits 0.0 z -> Subst x (* x - +0.0 = x *)
          | FMul, x, o when is_fp 1.0 o -> Subst x
          | FDiv, x, o when is_fp 1.0 o -> Subst x
          | FMul, x, Ir.Imm (Konst.KFloat (2.0, _)) ->
              Replace (Ir.IBin (d, FAdd, x, x))
          (* division by a power-of-two constant becomes a multiply;
             the reciprocal is exact, so results are unchanged *)
          | FDiv, x, Ir.Imm (Konst.KFloat (c, bits)) when exact_recip c bits ->
              Replace
                (Ir.IBin
                   ( d,
                     FMul,
                     x,
                     Ir.Imm
                       (Konst.KFloat
                          ( (if bits = 32 then Util.to_f32 (1.0 /. c) else 1.0 /. c),
                            bits )) ))
          | _ -> Keep))
  | Ir.ICmp (_, op, a, b) -> (
      match (imm_of a, imm_of b) with
      | Some ka, Some kb -> Subst (Ir.Imm (Konst.cmpop op ka kb))
      | _ ->
          if same_operand a b then
            match op with
            | Ops.CEq | Ops.CLe | Ops.CGe -> Subst (Ir.Imm (Konst.kbool true))
            | Ops.CNe | Ops.CLt | Ops.CGt -> Subst (Ir.Imm (Konst.kbool false))
          else Keep)
  | Ir.ISelect (_, c, x, y) -> (
      match imm_of c with
      | Some k -> Subst (if Konst.as_bool k then x else y)
      | None -> if same_operand x y then Subst x else Keep)
  | Ir.ICast (d, op, a) -> (
      match imm_of a with
      | Some k -> (
          match Konst.cast op k (Ir.reg_ty f d) with
          | k' ->
              (* pointer bitcasts must keep their static type: folding
                 them to a plain integer breaks load/store typing *)
              if Types.equal (Konst.ty_of k') (Ir.reg_ty f d) then Subst (Ir.Imm k')
              else Keep
          | exception _ -> Keep)
      | None -> (
          (* bitcast is the identity only when it does not retype the
             value (pointer element types drive GEP scaling) *)
          match (op, a) with
          | Ops.Bitcast, Ir.Reg r when Types.equal (Ir.reg_ty f r) (Ir.reg_ty f d) ->
              Subst a
          | _ -> Keep))
  | Ir.IGep (_, p, idx) when is_int_zero idx -> Subst p
  | Ir.ICall (Some _, callee, args) when Ir.Intrinsics.is_math callee -> (
      let imms = List.map imm_of args in
      if List.for_all Option.is_some imms then
        let vals = List.map Option.get imms in
        match Interp.eval_math callee vals with
        | k -> Subst (Ir.Imm k)
        | exception _ -> Keep
      else Keep)
  | Ir.IPhi (_, incoming) -> (
      (* all-same phi *)
      match incoming with
      | (_, v) :: rest when List.for_all (fun (_, v') -> same_operand v v') rest -> Subst v
      | _ -> Keep)
  | _ -> Keep

let run (_m : Ir.modul) (f : Ir.func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let subst : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        b.insts <-
          List.filter_map
            (fun i ->
              match simplify_instr f i with
              | Keep -> Some i
              | Replace i' ->
                  changed := true;
                  continue_ := true;
                  Some i'
              | Subst v -> (
                  match Ir.def_of i with
                  | Some d when v <> Ir.Reg d ->
                      Hashtbl.replace subst d v;
                      changed := true;
                      continue_ := true;
                      None
                  | _ -> Some i))
            b.insts)
      f.Ir.blocks;
    if Hashtbl.length subst > 0 then begin
      let rec resolve o =
        match o with
        | Ir.Reg r -> (
            match Hashtbl.find_opt subst r with Some v -> resolve v | None -> o)
        | _ -> o
      in
      List.iter
        (fun (b : Ir.block) ->
          b.insts <- List.map (Ir.map_operands resolve) b.insts;
          b.term <- Ir.map_term_operands resolve b.term)
        f.Ir.blocks
    end
  done;
  !changed

let pass = { Pass.name = "instcombine"; run = (fun _ -> run) }
