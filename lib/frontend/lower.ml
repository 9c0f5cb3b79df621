(* Semantic analysis and lowering of Kernel-C to IR, performing the
   split compilation of Figure 1: one call lowers the device side
   (kernels, device functions, device globals, jit annotations) and
   another the host side (host functions, kernel launch stubs, a
   registration constructor mirroring __cudaRegisterVar/Function). *)

open Proteus_support
open Proteus_ir
open Ast

type vendor = Cuda | Hip

let vendor_to_string = function Cuda -> "cuda" | Hip -> "hip"

(* Vendor-neutral source API names normalised to the target vendor,
   mirroring what hipify does for real codes. *)
let vendor_api vendor name =
  let strip n =
    let for_prefix p =
      if String.length n > String.length p && String.sub n 0 (String.length p) = p then
        Some (String.sub n (String.length p) (String.length n - String.length p))
      else None
    in
    match for_prefix "cuda" with Some r -> Some r | None -> for_prefix "hip"
  in
  match strip name with
  | Some rest ->
      Some ((match vendor with Cuda -> "cuda" | Hip -> "hip") ^ rest)
  | None -> None

let api_base name =
  (* "cudaMalloc" / "hipMalloc" -> Some "Malloc" *)
  let pre p =
    if String.length name > String.length p && String.sub name 0 (String.length p) = p
    then Some (String.sub name (String.length p) (String.length name - String.length p))
    else None
  in
  match pre "cuda" with Some r -> Some r | None -> pre "hip"

(* ------------------------------------------------------------------ *)
(* C-type to IR-type mapping                                           *)

let rec ir_ty = function
  | Cvoid -> Types.TVoid
  | Cbool -> Types.TBool
  | Cint -> Types.i32
  | Clong -> Types.i64
  | Cfloat -> Types.f32
  | Cdouble -> Types.f64
  | Cptr t -> Types.TPtr (ir_ty_elem t, Types.AS_global)
  | Carr (t, n) -> Types.TArr (ir_ty t, n)

and ir_ty_elem = function Cvoid -> Types.TInt 8 | t -> ir_ty t

let rec decay = function Carr (t, _) -> Cptr t | Cptr t -> Cptr (decay t) | t -> t

let is_arith = function
  | Cbool | Cint | Clong | Cfloat | Cdouble -> true
  | Cvoid | Cptr _ | Carr _ -> false

let is_integer = function Cbool | Cint | Clong -> true | _ -> false
let is_floating = function Cfloat | Cdouble -> true | _ -> false
let is_pointer = function Cptr _ -> true | _ -> false

let rank = function
  | Cbool -> 0
  | Cint -> 1
  | Clong -> 2
  | Cfloat -> 3
  | Cdouble -> 4
  | _ -> -1

let promote a b = if rank a >= rank b then a else b

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)

type var = { vty : cty; vptr : Ir.operand (* address of the slot *) }

type fsig = { sret : cty; sparams : cty list; skind : funkind }

type genv = {
  vendor : vendor;
  side : funkind; (* Fglobal => device side, Fhost => host side *)
  debug : bool; (* emit dbg.loc source markers for the analyses *)
  mutable funcs : fsig Util.Smap.t;
  mutable globals : (cty * funkind) Util.Smap.t;
  mutable kernels : fundef Util.Smap.t; (* by name; for launch checking *)
  modul : Ir.modul;
  mutable strings : (string * string) list; (* literal -> global name *)
  mutable nstr : int;
}

type loopctx = { break_to : string; continue_to : string }

type fenv = {
  g : genv;
  func : Ir.func;
  b : Builder.t;
  mutable vars : var Util.Smap.t list; (* scope stack *)
  mutable loops : loopctx list;
  fret : cty;
}

let lookup_var fe name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Util.Smap.find_opt name scope with Some v -> Some v | None -> go rest)
  in
  go fe.vars

let declare_var fe pos name v =
  match fe.vars with
  | scope :: rest ->
      if Util.Smap.mem name scope then error pos "redeclaration of %s" name;
      fe.vars <- Util.Smap.add name v scope :: rest
  | [] -> error pos "no scope"

let push_scope fe = fe.vars <- Util.Smap.empty :: fe.vars
let pop_scope fe = fe.vars <- List.tl fe.vars

(* Interned string literal global. *)
let string_global g s =
  match List.assoc_opt s g.strings with
  | Some n -> n
  | None ->
      let n = Printf.sprintf ".str.%d" g.nstr in
      g.nstr <- g.nstr + 1;
      g.strings <- (s, n) :: g.strings;
      g.modul.Ir.globals <-
        g.modul.Ir.globals
        @ [
            {
              Ir.gname = n;
              gty = Types.TArr (Types.TInt 8, String.length s + 1);
              gspace = Types.AS_global;
              ginit = Ir.InitString s;
              gconst = true;
              gextern = false;
            };
          ];
      n

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)

let coerce fe pos (op, ty) target =
  if ty = target then op
  else
    match (ty, target) with
    | _, Cvoid -> op
    | Cbool, (Cint | Clong) -> Builder.cast fe.b Ops.Zext op (ir_ty target)
    | Cint, Clong -> Builder.cast fe.b Ops.Sext op (ir_ty target)
    | Clong, Cint -> Builder.cast fe.b Ops.Trunc op (ir_ty target)
    | (Cint | Clong), Cbool ->
        Builder.cmp fe.b Ops.CNe op (Ir.Imm (Konst.kint ~bits:(if ty = Cint then 32 else 64) 0L))
    | (Cbool | Cint | Clong), (Cfloat | Cdouble) ->
        let iop =
          if ty = Cbool then Builder.cast fe.b Ops.Zext op Types.i32 else op
        in
        Builder.cast fe.b Ops.SiToFp iop (ir_ty target)
    | (Cfloat | Cdouble), (Cint | Clong) -> Builder.cast fe.b Ops.FpToSi op (ir_ty target)
    | (Cfloat | Cdouble), Cbool ->
        Builder.cmp fe.b Ops.CNe op (Ir.Imm (Konst.KFloat (0.0, if ty = Cfloat then 32 else 64)))
    | Cfloat, Cdouble -> Builder.cast fe.b Ops.FpExt op (ir_ty target)
    | Cdouble, Cfloat -> Builder.cast fe.b Ops.FpTrunc op (ir_ty target)
    | Cptr _, Cptr _ -> Builder.cast fe.b Ops.Bitcast op (ir_ty target)
    | Cptr _, Cbool -> Builder.cmp fe.b Ops.CNe op (Ir.Imm (Konst.kint ~bits:64 0L))
    | _ -> error pos "cannot convert %s to %s" (cty_to_string ty) (cty_to_string target)

let to_bool fe pos (op, ty) =
  match ty with
  | Cbool -> op
  | Cint | Clong | Cfloat | Cdouble | Cptr _ -> coerce fe pos (op, ty) Cbool
  | _ -> error pos "%s is not a condition type" (cty_to_string ty)

(* ------------------------------------------------------------------ *)
(* Builtin device functions                                            *)

let member_builtin obj m =
  let axis = match m with "x" -> Some "x" | "y" -> Some "y" | "z" -> Some "z" | _ -> None in
  match (obj, axis) with
  | "threadIdx", Some a -> Some ("gpu.tid." ^ a)
  | "blockIdx", Some a -> Some ("gpu.ctaid." ^ a)
  | "blockDim", Some a -> Some ("gpu.ntid." ^ a)
  | "gridDim", Some a -> Some ("gpu.nctaid." ^ a)
  | _ -> None

(* Math builtins: name -> (intrinsic base, arity, f32?) *)
let math_builtin name =
  let tbl =
    [ ("sqrtf", ("math.sqrt", 1, Cfloat)); ("sqrt", ("math.sqrt", 1, Cdouble));
      ("rsqrtf", ("math.rsqrt", 1, Cfloat)); ("rsqrt", ("math.rsqrt", 1, Cdouble));
      ("expf", ("math.exp", 1, Cfloat)); ("exp", ("math.exp", 1, Cdouble));
      ("logf", ("math.log", 1, Cfloat)); ("log", ("math.log", 1, Cdouble));
      ("sinf", ("math.sin", 1, Cfloat)); ("sin", ("math.sin", 1, Cdouble));
      ("cosf", ("math.cos", 1, Cfloat)); ("cos", ("math.cos", 1, Cdouble));
      ("fabsf", ("math.fabs", 1, Cfloat)); ("fabs", ("math.fabs", 1, Cdouble));
      ("floorf", ("math.floor", 1, Cfloat)); ("floor", ("math.floor", 1, Cdouble));
      ("ceilf", ("math.ceil", 1, Cfloat)); ("ceil", ("math.ceil", 1, Cdouble));
      ("tanhf", ("math.tanh", 1, Cfloat)); ("tanh", ("math.tanh", 1, Cdouble));
      ("powf", ("math.pow", 2, Cfloat)); ("pow", ("math.pow", 2, Cdouble));
      ("atan2f", ("math.atan2", 2, Cfloat)); ("atan2", ("math.atan2", 2, Cdouble));
      ("fmaf", ("math.fma", 3, Cfloat)); ("fma", ("math.fma", 3, Cdouble)) ]
  in
  List.assoc_opt name tbl

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)

let rec lower_expr fe (e : expr) : Ir.operand * cty =
  match e.desc with
  | Eint (v, false) -> (Ir.Imm (Konst.kint ~bits:32 v), Cint)
  | Eint (v, true) -> (Ir.Imm (Konst.kint ~bits:64 v), Clong)
  | Efloat (v, false) -> (Ir.Imm (Konst.kf32 v), Cfloat)
  | Efloat (v, true) -> (Ir.Imm (Konst.kf64 v), Cdouble)
  | Ebool v -> (Ir.Imm (Konst.kbool v), Cbool)
  | Estr s -> (Ir.Glob (string_global fe.g s), Cptr Cint)
  | Eid _ | Eindex _ | Ederef _ -> (
      (* rvalue use of an lvalue *)
      match lower_lvalue fe e with
      | ptr, Carr (t, _) ->
          (* array decays to pointer to first element *)
          (coerce fe e.epos (ptr, Cptr t) (Cptr t), Cptr t)
      | ptr, ty -> (Builder.load fe.b (ir_ty ty) ptr, ty))
  | Emember ({ desc = Eid obj; _ }, m) -> (
      match member_builtin obj m with
      | Some intr ->
          if fe.g.side = Fhost then
            error e.epos "%s.%s is only available in device code" obj m;
          (Builder.call fe.b Types.i32 intr [], Cint)
      | None -> error e.epos "unknown member %s.%s" obj m)
  | Emember (_, m) -> error e.epos "unsupported member access .%s" m
  | Eun (Neg, x) -> (
      let xo, xt = lower_expr fe x in
      match xt with
      | Cint | Clong ->
          ( Builder.bin fe.b Ops.Sub (ir_ty xt)
              (Ir.Imm (Konst.kint ~bits:(if xt = Cint then 32 else 64) 0L))
              xo,
            xt )
      | Cfloat | Cdouble ->
          ( Builder.bin fe.b Ops.FSub (ir_ty xt)
              (Ir.Imm (Konst.KFloat (0.0, if xt = Cfloat then 32 else 64)))
              xo,
            xt )
      | Cbool ->
          let io = coerce fe e.epos (xo, Cbool) Cint in
          (Builder.bin fe.b Ops.Sub Types.i32 (Ir.Imm (Konst.ki32 0)) io, Cint)
      | _ -> error e.epos "cannot negate %s" (cty_to_string xt))
  | Eun (Not, x) ->
      let c = to_bool fe e.epos (lower_expr fe x) in
      (Builder.bin fe.b Ops.Xor Types.TBool c (Ir.Imm (Konst.kbool true)), Cbool)
  | Eun (BitNot, x) ->
      let xo, xt = lower_expr fe x in
      if not (is_integer xt) then error e.epos "~ requires an integer";
      let xt = promote xt Cint in
      let xo = coerce fe e.epos (xo, xt) xt in
      ( Builder.bin fe.b Ops.Xor (ir_ty xt) xo
          (Ir.Imm (Konst.kint ~bits:(if xt = Cint then 32 else 64) (-1L))),
        xt )
  | Ebin (("&&" | "||") as op, l, r) -> lower_shortcircuit fe e.epos op l r
  | Ebin (op, l, r) -> lower_binop fe e.epos op (lower_expr fe l) (lower_expr fe r)
  | Eassign ("=", lhs, rhs) ->
      let ptr, lty = lower_lvalue fe lhs in
      let rv = lower_expr fe rhs in
      let v = coerce fe e.epos rv lty in
      Builder.store fe.b v ptr;
      (v, lty)
  | Eassign (op, lhs, rhs) ->
      (* compound assignment: a op= b *)
      let base_op = String.sub op 0 (String.length op - 1) in
      let ptr, lty = lower_lvalue fe lhs in
      let cur = Builder.load fe.b (ir_ty lty) ptr in
      let rv = lower_expr fe rhs in
      let res, rty = lower_binop fe e.epos base_op (cur, lty) rv in
      let v = coerce fe e.epos (res, rty) lty in
      Builder.store fe.b v ptr;
      (v, lty)
  | Eincdec (is_pre, is_incr, lhs) ->
      let ptr, lty = lower_lvalue fe lhs in
      let cur = Builder.load fe.b (ir_ty lty) ptr in
      let one =
        match lty with
        | Cint -> Ir.Imm (Konst.ki32 1)
        | Clong -> Ir.Imm (Konst.ki64 1)
        | Cfloat -> Ir.Imm (Konst.kf32 1.0)
        | Cdouble -> Ir.Imm (Konst.kf64 1.0)
        | Cptr _ -> Ir.Imm (Konst.ki64 1)
        | _ -> error e.epos "cannot increment %s" (cty_to_string lty)
      in
      let next =
        match lty with
        | Cptr t ->
            let elem = ir_ty_elem t in
            let idx = if is_incr then one else Ir.Imm (Konst.ki64 (-1)) in
            Builder.gep fe.b (Types.TPtr (elem, Types.AS_global)) cur idx
        | Cfloat | Cdouble ->
            Builder.bin fe.b (if is_incr then Ops.FAdd else Ops.FSub) (ir_ty lty) cur one
        | _ -> Builder.bin fe.b (if is_incr then Ops.Add else Ops.Sub) (ir_ty lty) cur one
      in
      Builder.store fe.b next ptr;
      ((if is_pre then next else cur), lty)
  | Ecall (name, args) -> lower_call fe e.epos name args
  | Econd (c, t, f) ->
      let cb = to_bool fe e.epos (lower_expr fe c) in
      let then_bb = Builder.new_block fe.b "cond.then" in
      let else_bb = Builder.new_block fe.b "cond.else" in
      let merge_bb = Builder.new_block fe.b "cond.end" in
      Builder.cond_br fe.b cb then_bb.Ir.label else_bb.Ir.label;
      Builder.position_at fe.b then_bb;
      let tv, tt = lower_expr fe t in
      let t_end = (Builder.current_block fe.b).Ir.label in
      Builder.position_at fe.b else_bb;
      let fv, ft = lower_expr fe f in
      let f_end = (Builder.current_block fe.b).Ir.label in
      let rty = if is_arith tt && is_arith ft then promote tt ft else tt in
      (* coercions must happen in the corresponding branch *)
      Builder.position_at fe.b (Ir.find_block fe.func t_end);
      let tv = coerce fe e.epos (tv, tt) rty in
      Builder.br fe.b merge_bb.Ir.label;
      let t_end = (Builder.current_block fe.b).Ir.label in
      Builder.position_at fe.b (Ir.find_block fe.func f_end);
      let fv = coerce fe e.epos (fv, ft) rty in
      Builder.br fe.b merge_bb.Ir.label;
      let f_end = (Builder.current_block fe.b).Ir.label in
      Builder.position_at fe.b merge_bb;
      (Builder.phi fe.b (ir_ty rty) [ (t_end, tv); (f_end, fv) ], rty)
  | Ecast (ty, x) ->
      let xv = lower_expr fe x in
      (coerce fe e.epos xv (decay ty), decay ty)
  | Eaddr x ->
      let ptr, lty = lower_lvalue fe x in
      let t = match lty with Carr (t, _) -> t | t -> t in
      (ptr, Cptr t)
  | Elaunch l ->
      if fe.g.side <> Fhost then error e.epos "kernel launch in device code";
      lower_launch fe e.epos l

and lower_shortcircuit fe pos op l r =
  let lv = to_bool fe pos (lower_expr fe l) in
  let l_end = (Builder.current_block fe.b).Ir.label in
  let rhs_bb = Builder.new_block fe.b "sc.rhs" in
  let merge_bb = Builder.new_block fe.b "sc.end" in
  (if op = "&&" then Builder.cond_br fe.b lv rhs_bb.Ir.label merge_bb.Ir.label
   else Builder.cond_br fe.b lv merge_bb.Ir.label rhs_bb.Ir.label);
  Builder.position_at fe.b rhs_bb;
  let rv = to_bool fe pos (lower_expr fe r) in
  let r_end = (Builder.current_block fe.b).Ir.label in
  Builder.br fe.b merge_bb.Ir.label;
  Builder.position_at fe.b merge_bb;
  let short_val = Ir.Imm (Konst.kbool (op = "||")) in
  (Builder.phi fe.b Types.TBool [ (l_end, short_val); (r_end, rv) ], Cbool)

and lower_binop fe pos op (lo, lt) (ro, rt) =
  let lt = decay lt and rt = decay rt in
  match op with
  | "+" when is_pointer lt && is_integer rt ->
      let elem = match lt with Cptr t -> ir_ty_elem t | _ -> assert false in
      let idx = coerce fe pos (ro, rt) Clong in
      (Builder.gep fe.b (Types.TPtr (elem, Types.AS_global)) lo idx, lt)
  | "+" when is_integer lt && is_pointer rt ->
      let elem = match rt with Cptr t -> ir_ty_elem t | _ -> assert false in
      let idx = coerce fe pos (lo, lt) Clong in
      (Builder.gep fe.b (Types.TPtr (elem, Types.AS_global)) ro idx, rt)
  | "-" when is_pointer lt && is_integer rt ->
      let elem = match lt with Cptr t -> ir_ty_elem t | _ -> assert false in
      let idx = coerce fe pos (ro, rt) Clong in
      let neg = Builder.bin fe.b Ops.Sub Types.i64 (Ir.Imm (Konst.ki64 0)) idx in
      (Builder.gep fe.b (Types.TPtr (elem, Types.AS_global)) lo neg, lt)
  | "==" | "!=" | "<" | "<=" | ">" | ">=" ->
      let cop =
        match op with
        | "==" -> Ops.CEq
        | "!=" -> Ops.CNe
        | "<" -> Ops.CLt
        | "<=" -> Ops.CLe
        | ">" -> Ops.CGt
        | _ -> Ops.CGe
      in
      if is_pointer lt && is_pointer rt then (Builder.cmp fe.b cop lo ro, Cbool)
      else begin
        let t = promote (promote lt rt) Cint in
        let lo = coerce fe pos (lo, lt) t and ro = coerce fe pos (ro, rt) t in
        (Builder.cmp fe.b cop lo ro, Cbool)
      end
  | "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<<" | ">>" ->
      if not (is_arith lt && is_arith rt) then
        error pos "invalid operands to %s: %s, %s" op (cty_to_string lt) (cty_to_string rt);
      let t =
        match op with
        | "%" | "&" | "|" | "^" | "<<" | ">>" ->
            if not (is_integer lt && is_integer rt) then
              error pos "%s requires integer operands" op;
            promote (promote lt rt) Cint
        | _ -> promote (promote lt rt) Cint
      in
      let lo = coerce fe pos (lo, lt) t and ro = coerce fe pos (ro, rt) t in
      let irop =
        match (op, is_floating t) with
        | "+", false -> Ops.Add
        | "-", false -> Ops.Sub
        | "*", false -> Ops.Mul
        | "/", false -> Ops.SDiv
        | "%", false -> Ops.SRem
        | "+", true -> Ops.FAdd
        | "-", true -> Ops.FSub
        | "*", true -> Ops.FMul
        | "/", true -> Ops.FDiv
        | "%", true -> Ops.FRem
        | "&", _ -> Ops.And
        | "|", _ -> Ops.Or
        | "^", _ -> Ops.Xor
        | "<<", _ -> Ops.Shl
        | ">>", _ -> Ops.AShr
        | _ -> error pos "unsupported operator %s" op
      in
      (Builder.bin fe.b irop (ir_ty t) lo ro, t)
  | _ -> error pos "unsupported operator %s" op

and lower_lvalue fe (e : expr) : Ir.operand * cty =
  match e.desc with
  | Eid name -> (
      match lookup_var fe name with
      | Some v -> (v.vptr, v.vty)
      | None -> (
          match Util.Smap.find_opt name fe.g.globals with
          | Some (ty, gkind) ->
              (* Device globals are visible to device code; host globals
                 to host code. *)
              let dev_side = fe.g.side <> Fhost in
              let gv_dev = gkind = Fdevice in
              if dev_side <> gv_dev then
                error e.epos "%s %s is not accessible from %s code"
                  (if gv_dev then "device global" else "host global")
                  name
                  (if dev_side then "device" else "host");
              (Ir.Glob name, ty)
          | None -> error e.epos "unknown variable %s" name))
  | Eindex (base, idx) ->
      let bo, bt = lower_expr fe base in
      let io, it = lower_expr fe idx in
      if not (is_integer it) then error e.epos "array index must be an integer";
      let elem =
        match decay bt with
        | Cptr t -> t
        | t -> error e.epos "cannot index %s" (cty_to_string t)
      in
      let idx64 = coerce fe e.epos (io, it) Clong in
      (Builder.gep fe.b (Types.TPtr (ir_ty_elem elem, Types.AS_global)) bo idx64, elem)
  | Ederef x -> (
      let xo, xt = lower_expr fe x in
      match decay xt with
      | Cptr t -> (xo, t)
      | t -> error e.epos "cannot dereference %s" (cty_to_string t))
  | _ -> error e.epos "expression is not an lvalue"

and lower_call fe pos name args : Ir.operand * cty =
  let g = fe.g in
  (* 1. math builtins *)
  match math_builtin name with
  | Some (intr, arity, base) ->
      if List.length args <> arity then error pos "%s expects %d arguments" name arity;
      let vals = List.map (fun a -> coerce fe pos (lower_expr fe a) base) args in
      (Builder.call fe.b (ir_ty base) intr vals, base)
  | None -> (
      match name with
      | "min" | "max" ->
          (* polymorphic min/max *)
          let vals = List.map (lower_expr fe) args in
          (match vals with
          | [ (ao, at); (bo, bt) ] ->
              let t = promote (promote at bt) Cint in
              let ao = coerce fe pos (ao, at) t and bo = coerce fe pos (bo, bt) t in
              let op =
                match (name, is_floating t) with
                | "min", false -> Ops.SMin
                | "max", false -> Ops.SMax
                | "min", true -> Ops.FMin
                | _ -> Ops.FMax
              in
              (Builder.bin fe.b op (ir_ty t) ao bo, t)
          | _ -> error pos "%s expects 2 arguments" name)
      | "fminf" | "fmaxf" | "fmin" | "fmax" ->
          let base = if name.[String.length name - 1] = 'f' then Cfloat else Cdouble in
          let vals = List.map (fun a -> coerce fe pos (lower_expr fe a) base) args in
          (match vals with
          | [ a; b ] ->
              let op = if name = "fminf" || name = "fmin" then Ops.FMin else Ops.FMax in
              (Builder.bin fe.b op (ir_ty base) a b, base)
          | _ -> error pos "%s expects 2 arguments" name)
      | "__syncthreads" ->
          if g.side = Fhost then error pos "__syncthreads in host code";
          (Builder.call fe.b Types.TVoid Ir.Intrinsics.barrier [], Cvoid)
      | "atomicAdd" -> (
          if g.side = Fhost then error pos "atomicAdd in host code";
          match List.map (lower_expr fe) args with
          | [ (po, pt); rv ] -> (
              match decay pt with
              | Cptr Cfloat ->
                  let v = coerce fe pos rv Cfloat in
                  (Builder.call fe.b Types.f32 Ir.Intrinsics.atomic_add_f32 [ po; v ], Cfloat)
              | Cptr Cdouble ->
                  let v = coerce fe pos rv Cdouble in
                  (Builder.call fe.b Types.f64 Ir.Intrinsics.atomic_add_f64 [ po; v ], Cdouble)
              | Cptr Cint ->
                  let v = coerce fe pos rv Cint in
                  (Builder.call fe.b Types.i32 Ir.Intrinsics.atomic_add_i32 [ po; v ], Cint)
              | t -> error pos "atomicAdd on %s" (cty_to_string t))
          | _ -> error pos "atomicAdd expects 2 arguments")
      | _ -> (
          (* 2. vendor runtime API (host only) *)
          match (g.side, api_base name) with
          | Fhost, Some base -> lower_vendor_call fe pos name base args
          | _, _ -> (
              match name with
              | "printf" when g.side = Fhost ->
                  let vals =
                    List.map
                      (fun a ->
                        let o, t = lower_expr fe a in
                        (* default argument promotion: float -> double *)
                        if t = Cfloat then coerce fe pos ((o : Ir.operand), t) Cdouble else o)
                      args
                  in
                  (Builder.call fe.b Types.i32 "printf" vals, Cint)
              | "malloc" when g.side = Fhost ->
                  let v =
                    match args with
                    | [ a ] -> coerce fe pos (lower_expr fe a) Clong
                    | _ -> error pos "malloc expects 1 argument"
                  in
                  (Builder.call fe.b (ir_ty (Cptr Cvoid)) "malloc" [ v ], Cptr Cvoid)
              | "free" when g.side = Fhost ->
                  let v =
                    match args with
                    | [ a ] -> fst (lower_expr fe a)
                    | _ -> error pos "free expects 1 argument"
                  in
                  (Builder.call fe.b Types.TVoid "free" [ v ], Cvoid)
              | "exit" when g.side = Fhost ->
                  let v =
                    match args with
                    | [ a ] -> coerce fe pos (lower_expr fe a) Cint
                    | _ -> error pos "exit expects 1 argument"
                  in
                  (Builder.call fe.b Types.TVoid "exit" [ v ], Cvoid)
              | _ -> (
                  (* 3. user functions *)
                  match Util.Smap.find_opt name g.funcs with
                  | Some s ->
                      (* device side may call device functions; host side host functions *)
                      let callable =
                        match (g.side, s.skind) with
                        | Fhost, Fhost -> true
                        | Fhost, _ -> false
                        | _, Fdevice -> true
                        | _, _ -> false
                      in
                      if not callable then
                        error pos "cannot call %s from %s code" name
                          (if g.side = Fhost then "host" else "device");
                      if List.length args <> List.length s.sparams then
                        error pos "%s expects %d arguments" name (List.length s.sparams);
                      let vals =
                        List.map2
                          (fun a pty -> coerce fe pos (lower_expr fe a) pty)
                          args s.sparams
                      in
                      (Builder.call fe.b (ir_ty s.sret) name vals, s.sret)
                  | None -> error pos "call to undeclared function %s" name))))

(* [name] is the call as the user spelled it, [base] the vendor-neutral
   API it names *)
and lower_vendor_call fe pos name base args : Ir.operand * cty =
  let g = fe.g in
  let v base = (match g.vendor with Cuda -> "cuda" | Hip -> "hip") ^ base in
  let arg i = List.nth args i in
  let expect n = if List.length args <> n then error pos "%s expects %d arguments" name n in
  match base with
  | "Malloc" ->
      if List.length args <> 1 then
        error pos "%s takes one argument, a byte count, and returns the pointer: p = %s(bytes)"
          name name;
      let sz = coerce fe pos (lower_expr fe (arg 0)) Clong in
      (Builder.call fe.b (ir_ty (Cptr Cvoid)) (v "Malloc") [ sz ], Cptr Cvoid)
  | "Free" ->
      expect 1;
      let p = fst (lower_expr fe (arg 0)) in
      (Builder.call fe.b Types.TVoid (v "Free") [ p ], Cvoid)
  | "MemcpyHtoD" | "MemcpyDtoH" | "MemcpyDtoD" ->
      expect 3;
      let d = fst (lower_expr fe (arg 0)) in
      let s = fst (lower_expr fe (arg 1)) in
      let n = coerce fe pos (lower_expr fe (arg 2)) Clong in
      (Builder.call fe.b Types.TVoid (v ("Memcpy" ^ String.sub base 6 4)) [ d; s; n ], Cvoid)
  | "DeviceSynchronize" ->
      expect 0;
      (Builder.call fe.b Types.TVoid (v "DeviceSynchronize") [], Cvoid)
  | _ -> error pos "unsupported runtime API %s" name

and lower_launch fe pos (l : launch) : Ir.operand * cty =
  let g = fe.g in
  let kdef =
    match Util.Smap.find_opt l.lkernel g.kernels with
    | Some k -> k
    | None -> error pos "launch of unknown kernel %s" l.lkernel
  in
  let grid = coerce fe pos (lower_expr fe l.lgrid) Cint in
  let block = coerce fe pos (lower_expr fe l.lblock) Cint in
  let shmem =
    match l.lshmem with
    | Some e -> coerce fe pos (lower_expr fe e) Cint
    | None -> Ir.Imm (Konst.ki32 0)
  in
  if List.length l.largs <> List.length kdef.fparams then
    error pos "kernel %s expects %d arguments" l.lkernel (List.length kdef.fparams);
  let vals =
    List.map2
      (fun a (pty, _) -> coerce fe pos (lower_expr fe a) (decay pty))
      l.largs kdef.fparams
  in
  let stub = "__stub_" ^ l.lkernel in
  (Builder.call fe.b Types.TVoid stub ([ grid; block; shmem ] @ vals), Cvoid)

(* ------------------------------------------------------------------ *)
(* Statement lowering                                                  *)

(* Source-location marker: a [dbg.loc(line, col)] pseudo-call preceding
   the code lowered for each leaf statement. The analyses attribute
   findings to the closest preceding marker in the same block; the
   optimizer strips markers before any pass runs. *)
let emit_loc fe (pos : pos) =
  if fe.g.debug then
    Builder.add_instr fe.b
      (Ir.ICall
         ( None,
           Ir.Intrinsics.dbg_loc,
           [ Ir.Imm (Konst.ki32 pos.line); Ir.Imm (Konst.ki32 pos.col) ] ))

let rec lower_stmt fe (s : stmt) : unit =
  (match s.sdesc with Sblock _ | Sseq _ -> () | _ -> emit_loc fe s.spos);
  match s.sdesc with
  | Sblock ss ->
      push_scope fe;
      List.iter (lower_stmt fe) ss;
      pop_scope fe
  | Sseq ss -> List.iter (lower_stmt fe) ss
  | Sexpr e -> ignore (lower_expr fe e)
  | Sdecl (ty, name, init) -> (
      match ty with
      | Carr (elem, n) ->
          if init <> None then error s.spos "array initializers are not supported";
          let ptr = Builder.alloca fe.b (ir_ty elem) n in
          declare_var fe s.spos name { vty = Carr (elem, n); vptr = ptr }
      | _ ->
          let ty = decay ty in
          let ptr = Builder.alloca fe.b (ir_ty ty) 1 in
          declare_var fe s.spos name { vty = ty; vptr = ptr };
          (match init with
          | Some e ->
              let v = coerce fe s.spos (lower_expr fe e) ty in
              Builder.store fe.b v ptr
          | None -> ()))
  | Sif (c, t, els) ->
      let cb = to_bool fe s.spos (lower_expr fe c) in
      let then_bb = Builder.new_block fe.b "if.then" in
      let else_bb = Builder.new_block fe.b "if.else" in
      let end_bb = Builder.new_block fe.b "if.end" in
      Builder.cond_br fe.b cb then_bb.Ir.label else_bb.Ir.label;
      Builder.position_at fe.b then_bb;
      push_scope fe;
      lower_stmt fe t;
      pop_scope fe;
      Builder.br fe.b end_bb.Ir.label;
      Builder.position_at fe.b else_bb;
      (match els with
      | Some e ->
          push_scope fe;
          lower_stmt fe e;
          pop_scope fe
      | None -> ());
      Builder.br fe.b end_bb.Ir.label;
      Builder.position_at fe.b end_bb
  | Swhile (c, body) ->
      let cond_bb = Builder.new_block fe.b "while.cond" in
      let body_bb = Builder.new_block fe.b "while.body" in
      let end_bb = Builder.new_block fe.b "while.end" in
      Builder.br fe.b cond_bb.Ir.label;
      Builder.position_at fe.b cond_bb;
      let cb = to_bool fe s.spos (lower_expr fe c) in
      Builder.cond_br fe.b cb body_bb.Ir.label end_bb.Ir.label;
      Builder.position_at fe.b body_bb;
      fe.loops <- { break_to = end_bb.Ir.label; continue_to = cond_bb.Ir.label } :: fe.loops;
      push_scope fe;
      lower_stmt fe body;
      pop_scope fe;
      fe.loops <- List.tl fe.loops;
      Builder.br fe.b cond_bb.Ir.label;
      Builder.position_at fe.b end_bb
  | Sfor (init, cond, step, body) ->
      push_scope fe;
      (match init with Some i -> lower_stmt fe i | None -> ());
      let cond_bb = Builder.new_block fe.b "for.cond" in
      let body_bb = Builder.new_block fe.b "for.body" in
      let step_bb = Builder.new_block fe.b "for.step" in
      let end_bb = Builder.new_block fe.b "for.end" in
      Builder.br fe.b cond_bb.Ir.label;
      Builder.position_at fe.b cond_bb;
      (match cond with
      | Some c ->
          let cb = to_bool fe s.spos (lower_expr fe c) in
          Builder.cond_br fe.b cb body_bb.Ir.label end_bb.Ir.label
      | None -> Builder.br fe.b body_bb.Ir.label);
      Builder.position_at fe.b body_bb;
      fe.loops <- { break_to = end_bb.Ir.label; continue_to = step_bb.Ir.label } :: fe.loops;
      push_scope fe;
      lower_stmt fe body;
      pop_scope fe;
      fe.loops <- List.tl fe.loops;
      Builder.br fe.b step_bb.Ir.label;
      Builder.position_at fe.b step_bb;
      (match step with Some e -> ignore (lower_expr fe e) | None -> ());
      Builder.br fe.b cond_bb.Ir.label;
      Builder.position_at fe.b end_bb;
      pop_scope fe
  | Sreturn v -> (
      match (v, fe.fret) with
      | None, Cvoid -> Builder.ret fe.b None
      | None, _ -> error s.spos "non-void function must return a value"
      | Some _, Cvoid -> error s.spos "void function cannot return a value"
      | Some e, rt ->
          let rv = coerce fe s.spos (lower_expr fe e) rt in
          Builder.ret fe.b (Some rv))
  | Sbreak -> (
      match fe.loops with
      | { break_to; _ } :: _ -> Builder.br fe.b break_to
      | [] -> error s.spos "break outside loop")
  | Scontinue -> (
      match fe.loops with
      | { continue_to; _ } :: _ -> Builder.br fe.b continue_to
      | [] -> error s.spos "continue outside loop")

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)

let const_eval_init (e : expr) : Konst.t =
  let rec go e =
    match e.desc with
    | Eint (v, false) -> Konst.kint ~bits:32 v
    | Eint (v, true) -> Konst.kint ~bits:64 v
    | Efloat (v, false) -> Konst.kf32 v
    | Efloat (v, true) -> Konst.kf64 v
    | Ebool b -> Konst.kbool b
    | Eun (Neg, x) -> (
        match go x with
        | Konst.KInt (v, bits) -> Konst.kint ~bits (Int64.neg v)
        | Konst.KFloat (v, bits) -> Konst.KFloat (-.v, bits)
        | k -> k)
    | Ecast (ty, x) -> (
        let k = go x in
        match (ty, k) with
        | Cfloat, Konst.KInt (v, _) -> Konst.kf32 (Int64.to_float v)
        | Cdouble, Konst.KInt (v, _) -> Konst.kf64 (Int64.to_float v)
        | Cint, Konst.KFloat (v, _) -> Konst.kint ~bits:32 (Int64.of_float v)
        | Clong, Konst.KFloat (v, _) -> Konst.kint ~bits:64 (Int64.of_float v)
        | _ -> k)
    | _ -> error e.epos "global initializer must be a constant expression"
  in
  go e

let lower_fundef (g : genv) (fd : fundef) ~(irname : string) ~(kind : Ir.fkind)
    ~(extra_params : (string * Types.ty) list) (gen_body : fenv -> unit) : Ir.func =
  let params =
    extra_params
    @ List.map (fun (ty, n) -> (n, ir_ty (decay ty))) fd.fparams
  in
  let f = Ir.create_func ~kind irname params (ir_ty fd.fret) in
  List.iter
    (fun a ->
      match a with
      | LaunchBounds (t, b) -> f.Ir.attrs.launch_bounds <- Some (t, b)
      | Annotate _ -> ())
    fd.fattrs;
  let b = Builder.create f in
  let fe = { g; func = f; b; vars = [ Util.Smap.empty ]; loops = []; fret = fd.fret } in
  (* Parameters are spilled to stack slots so they are assignable;
     mem2reg promotes them back to registers. *)
  let nextra = List.length extra_params in
  List.iteri
    (fun i (_, reg) ->
      if i >= nextra then begin
        let cty, cname = List.nth fd.fparams (i - nextra) in
        let cty = decay cty in
        let ptr = Builder.alloca fe.b (ir_ty cty) 1 in
        Builder.store fe.b (Ir.Reg reg) ptr;
        declare_var fe fd.fpos cname { vty = cty; vptr = ptr }
      end)
    f.Ir.params;
  gen_body fe;
  (* Implicit return for void functions and for main. *)
  if not (Builder.terminated fe.b) then begin
    if fd.fret = Cvoid then Builder.ret fe.b None
    else if fd.fcname = "main" then Builder.ret fe.b (Some (Ir.Imm (Konst.ki32 0)))
    else Builder.unreachable fe.b
  end;
  ignore (Cfg.remove_unreachable f);
  f

let collect_sigs (prog : program) : fsig Util.Smap.t * fundef Util.Smap.t =
  List.fold_left
    (fun (sigs, kernels) d ->
      match d with
      | Dfun fd ->
          let s =
            { sret = fd.fret; sparams = List.map (fun (t, _) -> decay t) fd.fparams;
              skind = fd.fkind }
          in
          let kernels =
            if fd.fkind = Fglobal then Util.Smap.add fd.fcname fd kernels else kernels
          in
          (Util.Smap.add fd.fcname s sigs, kernels)
      | Dglob _ -> (sigs, kernels))
    (Util.Smap.empty, Util.Smap.empty) prog

let collect_globals (prog : program) : (cty * funkind) Util.Smap.t =
  List.fold_left
    (fun m d ->
      match d with
      | Dglob gd ->
          Util.Smap.add gd.gcname
            ((match gd.gcty with Carr _ -> gd.gcty | t -> decay t), gd.gkind)
            m
      | Dfun _ -> m)
    Util.Smap.empty prog

let annotations_of fd =
  List.filter_map
    (function Annotate (k, args) -> Some (k, args) | LaunchBounds _ -> None)
    fd.fattrs

(* Device-side lowering: kernels, device functions, device globals,
   jit annotations. *)
let lower_device ?(debug = false) ~(mid : string) ~(name : string) (prog : program) :
    Ir.modul =
  let modul =
    { Ir.mid; mname = name ^ ".dev"; mtarget = Ir.TDevice; globals = []; funcs = [];
      annotations = []; ctors = []; mgen = 0 }
  in
  let sigs, kernels = collect_sigs prog in
  let g =
    { vendor = Cuda; side = Fglobal; debug; funcs = sigs; globals = collect_globals prog;
      kernels; modul; strings = []; nstr = 0 }
  in
  List.iter
    (fun d ->
      match d with
      | Dglob gd when gd.gkind = Fdevice ->
          let init =
            match gd.gcinit with
            | None -> Ir.InitZero
            | Some e -> Ir.InitConsts [ const_eval_init e ]
          in
          let space = if gd.gshared then Types.AS_shared else Types.AS_global in
          modul.Ir.globals <-
            modul.Ir.globals
            @ [
                { Ir.gname = gd.gcname; gty = ir_ty gd.gcty; gspace = space;
                  ginit = init; gconst = false; gextern = false };
              ]
      | Dglob _ -> ()
      | Dfun fd when fd.fkind = Fglobal || fd.fkind = Fdevice -> (
          match fd.fbody with
          | None -> ()
          | Some body ->
              let kind = if fd.fkind = Fglobal then Ir.Kernel else Ir.Device in
              let f =
                lower_fundef g fd ~irname:fd.fcname ~kind ~extra_params:[] (fun fe ->
                    lower_stmt fe body)
              in
              modul.Ir.funcs <- modul.Ir.funcs @ [ f ];
              List.iter
                (fun (k, args) ->
                  modul.Ir.annotations <-
                    modul.Ir.annotations @ [ { Ir.afunc = fd.fcname; akey = k; aargs = args } ])
                (annotations_of fd))
      | Dfun _ -> ())
    prog;
  modul

(* Host-side lowering: host functions, a stub per kernel calling
   cudaLaunchKernel/hipLaunchKernel, and a module constructor invoking
   the vendor registration API for stubs and device globals. *)
let lower_host ?(debug = false) ~(vendor : vendor) ~(mid : string) ~(name : string)
    (prog : program) : Ir.modul =
  let modul =
    { Ir.mid; mname = name ^ ".host"; mtarget = Ir.THost; globals = []; funcs = [];
      annotations = []; ctors = []; mgen = 0 }
  in
  let sigs, kernels = collect_sigs prog in
  let g =
    { vendor; side = Fhost; debug; funcs = sigs; globals = collect_globals prog; kernels;
      modul; strings = []; nstr = 0 }
  in
  let vname n = (match vendor with Cuda -> "cuda" | Hip -> "hip") ^ n in
  (* Extern declarations for the vendor runtime API. *)
  let decl name params ret =
    Ir.create_func ~kind:Ir.Host ~is_decl:true name params ret
  in
  let pv = Types.TPtr (Types.TInt 8, Types.AS_global) in
  modul.Ir.funcs <-
    [
      decl (vname "Malloc") [ ("bytes", Types.i64) ] pv;
      decl (vname "Free") [ ("p", pv) ] Types.TVoid;
      decl (vname "MemcpyHtoD") [ ("d", pv); ("s", pv); ("n", Types.i64) ] Types.TVoid;
      decl (vname "MemcpyDtoH") [ ("d", pv); ("s", pv); ("n", Types.i64) ] Types.TVoid;
      decl (vname "MemcpyDtoD") [ ("d", pv); ("s", pv); ("n", Types.i64) ] Types.TVoid;
      decl (vname "DeviceSynchronize") [] Types.TVoid;
      decl (vname "LaunchKernel") [] Types.TVoid;
      decl ("__" ^ vendor_to_string vendor ^ "RegisterFunction") [] Types.TVoid;
      decl ("__" ^ vendor_to_string vendor ^ "RegisterVar") [] Types.TVoid;
      decl "printf" [] Types.i32;
      decl "malloc" [ ("bytes", Types.i64) ] pv;
      decl "free" [ ("p", pv) ] Types.TVoid;
      decl "exit" [ ("code", Types.i32) ] Types.TVoid;
    ];
  (* Host globals. *)
  List.iter
    (fun d ->
      match d with
      | Dglob gd when gd.gkind <> Fdevice ->
          let init =
            match gd.gcinit with
            | None -> Ir.InitZero
            | Some e -> Ir.InitConsts [ const_eval_init e ]
          in
          modul.Ir.globals <-
            modul.Ir.globals
            @ [
                { Ir.gname = gd.gcname; gty = ir_ty gd.gcty; gspace = Types.AS_global;
                  ginit = init; gconst = false; gextern = false };
              ]
      | _ -> ())
    prog;
  (* Stubs: one host function per kernel; annotations transfer to the
     stub, which is what the Proteus plugin inspects on the host path. *)
  let kernel_list =
    List.filter_map
      (fun d ->
        match d with Dfun fd when fd.fkind = Fglobal -> Some fd | _ -> None)
      prog
  in
  List.iter
    (fun (fd : fundef) ->
      let stub_name = "__stub_" ^ fd.fcname in
      let params =
        [ ("grid", Types.i32); ("block", Types.i32); ("shmem", Types.i32) ]
        @ List.map (fun (t, n) -> (n, ir_ty (decay t))) fd.fparams
      in
      let f = Ir.create_func ~kind:Ir.Host stub_name params Types.TVoid in
      let b = Builder.create f in
      let args =
        Ir.Glob stub_name
        :: List.map (fun (_, r) -> Ir.Reg r) f.Ir.params
      in
      (* cudaLaunchKernel(stub, grid, block, shmem, args...) *)
      Builder.add_instr b (Ir.ICall (None, vname "LaunchKernel", args));
      Builder.ret b None;
      modul.Ir.funcs <- modul.Ir.funcs @ [ f ];
      List.iter
        (fun (k, args) ->
          modul.Ir.annotations <-
            modul.Ir.annotations @ [ { Ir.afunc = stub_name; akey = k; aargs = args } ])
        (annotations_of fd))
    kernel_list;
  (* Host functions. *)
  List.iter
    (fun d ->
      match d with
      | Dfun fd when fd.fkind = Fhost -> (
          match fd.fbody with
          | None -> ()
          | Some body ->
              let f =
                lower_fundef g fd ~irname:fd.fcname ~kind:Ir.Host ~extra_params:[]
                  (fun fe -> lower_stmt fe body)
              in
              modul.Ir.funcs <- modul.Ir.funcs @ [ f ])
      | _ -> ())
    prog;
  (* Registration constructor. *)
  let ctor_name = "__module_ctor" in
  let ctor = Ir.create_func ~kind:Ir.Host ctor_name [] Types.TVoid in
  let b = Builder.create ctor in
  List.iter
    (fun (fd : fundef) ->
      let sname = string_global g fd.fcname in
      Builder.add_instr b
        (Ir.ICall
           ( None,
             "__" ^ vendor_to_string vendor ^ "RegisterFunction",
             [ Ir.Glob ("__stub_" ^ fd.fcname); Ir.Glob sname ] )))
    kernel_list;
  List.iter
    (fun d ->
      match d with
      | Dglob gd when gd.gkind = Fdevice ->
          let sname = string_global g gd.gcname in
          Builder.add_instr b
            (Ir.ICall
               (None, "__" ^ vendor_to_string vendor ^ "RegisterVar", [ Ir.Glob sname ]))
      | _ -> ())
    prog;
  Builder.ret b None;
  modul.Ir.funcs <- modul.Ir.funcs @ [ ctor ];
  modul.Ir.ctors <- [ ctor_name ];
  modul
