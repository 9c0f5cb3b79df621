(* Global value numbering / dominator-scoped CSE over pure instructions. *)

open Proteus_support
open Proteus_ir

(* Operand keys equate exactly what the printed forms "r<n>",
   "k<value>:<type>" and "@<name>" would. Integers go by value and
   width. Floats of every width but 32 print with %.17g as "double",
   which tells apart exactly the distinct non-NaN doubles, so those go
   by their bits. The remaining immediates go by their printed text. *)
type okey = R of int | I of int64 * int | F of int64 | K of string | G of string

let operand_key = function
  | Ir.Reg r -> R r
  | Ir.Imm (Konst.KInt (v, bits)) -> I (v, bits)
  | Ir.Imm (Konst.KFloat (v, bits)) when bits <> 32 && not (Float.is_nan v) ->
      F (Int64.bits_of_float v)
  | Ir.Imm k -> K (Konst.to_string k ^ ":" ^ Types.to_string (Konst.ty_of k))
  | Ir.Glob g -> G g

(* A type up to what Types.to_string tells apart: TBool and TInt 1 both
   print as i1, and every float width but 32 prints as double. *)
let rec ty_key = function
  | Types.TInt 1 -> Types.TBool
  | Types.TFloat b when b <> 32 -> Types.TFloat 64
  | Types.TPtr (t, s) -> Types.TPtr (ty_key t, s)
  | Types.TArr (t, n) -> Types.TArr (ty_key t, n)
  | t -> t

type key =
  | Bin of Ops.binop * Types.ty * okey * okey
  | Cmp of Ops.cmpop * okey * okey
  | Sel of okey * okey * okey
  | Cast of Ops.castop * Types.ty * okey
  | Gep of Types.ty * okey * okey
  | Call of string * okey list

let okey_equal a b =
  match (a, b) with
  | R x, R y -> Int.equal x y
  | I (v, w), I (v', w') -> Int64.equal v v' && Int.equal w w'
  | F x, F y -> Int64.equal x y
  | K x, K y | G x, G y -> String.equal x y
  | (R _ | I _ | F _ | K _ | G _), _ -> false

let okey_hash = function
  | R r -> r
  | I (v, w) -> (Int64.to_int v * 31) + w
  | F x -> Int64.to_int x
  | K s | G s -> Hashtbl.hash s

let key_equal a b =
  match (a, b) with
  | Bin (o, t, x, y), Bin (o', t', x', y') ->
      o = o' && Types.equal t t' && okey_equal x x' && okey_equal y y'
  | Cmp (o, x, y), Cmp (o', x', y') -> o = o' && okey_equal x x' && okey_equal y y'
  | Sel (c, x, y), Sel (c', x', y') -> okey_equal c c' && okey_equal x x' && okey_equal y y'
  | Cast (o, t, x), Cast (o', t', x') -> o = o' && Types.equal t t' && okey_equal x x'
  | Gep (t, x, y), Gep (t', x', y') -> Types.equal t t' && okey_equal x x' && okey_equal y y'
  | Call (c, xs), Call (c', xs') -> String.equal c c' && List.equal okey_equal xs xs'
  | (Bin _ | Cmp _ | Sel _ | Cast _ | Gep _ | Call _), _ -> false

(* The hash reads the operands and the constructor only: keys that
   differ in operator or type alone share a bucket, where [key_equal]
   tells them apart. *)
let key_hash k =
  let mix h o = (h * 65599) + okey_hash o in
  match k with
  | Bin (_, _, x, y) -> mix (mix 1 x) y
  | Cmp (_, x, y) -> mix (mix 2 x) y
  | Sel (c, x, y) -> mix (mix (mix 3 c) x) y
  | Cast (_, _, x) -> mix 4 x
  | Gep (_, x, y) -> mix (mix 5 x) y
  | Call (_, xs) -> List.fold_left mix 6 xs

(* Keys hashed and compared by the functions above rather than by the
   polymorphic ones, which walk the variant generically. *)
module Table = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

(* The key of [i] once [resolve] has renamed its operands. *)
let instr_key (f : Ir.func) resolve (i : Ir.instr) : key option =
  let operand_key o = operand_key (resolve o) in
  match i with
  | Ir.IBin (d, op, a, b) ->
      let a = operand_key a and b = operand_key b in
      let a, b = if Ops.is_commutative op && compare b a < 0 then (b, a) else (a, b) in
      Some (Bin (op, ty_key (Ir.reg_ty f d), a, b))
  | Ir.ICmp (_, op, a, b) -> Some (Cmp (op, operand_key a, operand_key b))
  | Ir.ISelect (_, c, a, b) -> Some (Sel (operand_key c, operand_key a, operand_key b))
  | Ir.ICast (d, op, a) -> Some (Cast (op, ty_key (Ir.reg_ty f d), operand_key a))
  | Ir.IGep (d, p, idx) -> Some (Gep (ty_key (Ir.reg_ty f d), operand_key p, operand_key idx))
  | Ir.ICall (Some _, callee, args) when Ir.Intrinsics.is_pure callee ->
      Some (Call (callee, List.map operand_key args))
  | _ -> None

let run (_m : Ir.modul) (f : Ir.func) : bool =
  let cfg = Cfg.prune f in
  if f.Ir.blocks = [] then false
  else begin
    let dom = Dom.compute cfg in
    let changed = ref false in
    (* [repl.(r)]: the operand that replaces register r, if any *)
    let repl = Array.make (Ir.nregs f) None in
    let rec resolve o =
      match o with
      | Ir.Reg r -> ( match repl.(r) with Some v -> resolve v | None -> o)
      | _ -> o
    in
    (* Scoped table: each dominator-tree node pushes its definitions and
       pops them when its subtree is done. *)
    let table : Ir.operand Table.t = Table.create 16 in
    let rec walk bi =
      let b = cfg.blocks.(bi) in
      let added = ref [] in
      b.Ir.insts <-
        Util.filter_shared
          (fun i ->
            match (instr_key f resolve i, Ir.def_of i) with
            | Some key, Some d -> (
                match Table.find_opt table key with
                | Some v ->
                    repl.(d) <- Some v;
                    changed := true;
                    false
                | None ->
                    Table.add table key (Ir.Reg d);
                    added := key :: !added;
                    true)
            | _ -> true)
          b.Ir.insts;
      List.iter walk (Dom.children dom bi);
      List.iter (Table.remove table) !added
    in
    walk 0;
    (* The walk keys instructions through [resolve] but leaves them as
       they were: rewrite every operand once, here. *)
    if !changed then
      List.iter
        (fun (b : Ir.block) ->
          b.Ir.insts <- List.map (Ir.map_operands resolve) b.Ir.insts;
          b.Ir.term <- Ir.map_term_operands resolve b.Ir.term)
        f.Ir.blocks;
    !changed
  end

let pass = { Pass.name = "gvn"; run = (fun _ -> run) }
