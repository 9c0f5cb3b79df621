(* The IR proper: a typed, SSA-after-mem2reg, LLVM-like intermediate
   representation. Registers are dense integers with types recorded in a
   per-function table; blocks are labelled and hold a phi-leading
   instruction list plus one terminator. *)

open Proteus_support

type reg = int

type operand =
  | Reg of reg
  | Imm of Konst.t
  | Glob of string (* address of a module global *)

type instr =
  | IBin of reg * Ops.binop * operand * operand
  | ICmp of reg * Ops.cmpop * operand * operand
  | ISelect of reg * operand * operand * operand
  | ICast of reg * Ops.castop * operand (* destination type is regty of dest *)
  | ILoad of reg * operand
  | IStore of operand * operand (* value, pointer *)
  | IGep of reg * operand * operand (* base pointer, element index *)
  | ICall of reg option * string * operand list
  | IPhi of reg * (string * operand) list
  | IAlloca of reg * Types.ty * int (* element type, count *)

type term =
  | TBr of string
  | TCondBr of operand * string * string
  | TRet of operand option
  | TUnreachable

type block = {
  mutable label : string;
  mutable insts : instr list;
  mutable term : term;
}

type fkind = Kernel | Device | Host

type attrs = {
  mutable launch_bounds : (int * int) option; (* max threads/block, min blocks/CU *)
}

type func = {
  fname : string;
  params : (string * reg) list;
  ret : Types.ty;
  kind : fkind;
  is_decl : bool;
  mutable blocks : block list; (* entry block first *)
  regtys : Types.ty Util.Vec.t;
  attrs : attrs;
}

type ginit = InitZero | InitConsts of Konst.t list | InitString of string

type gvar = {
  gname : string;
  gty : Types.ty;
  gspace : Types.addrspace;
  ginit : ginit;
  gconst : bool;
  gextern : bool;
}

(* Mirrors llvm.global.annotations: ties a function symbol to the
   "jit" key and the 1-based argument indices to specialize. *)
type annotation = { afunc : string; akey : string; aargs : int list }

type target = THost | TDevice

type modul = {
  mid : string; (* unique module identifier bound to source code *)
  mname : string;
  mtarget : target;
  mutable globals : gvar list;
  mutable funcs : func list;
  mutable annotations : annotation list;
  mutable ctors : string list; (* global constructors, run at program load *)
  mutable mgen : int; (* in-place mutation generation, see [touch_module] *)
}

(* Every in-place IR mutator (the pass manager, the specializer, fault
   injectors) must bump the module's generation so caches keyed on
   module identity (Analysis.Normalize) observe the mutation. *)
let touch_module (m : modul) = m.mgen <- m.mgen + 1

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                *)

let create_func ?(kind = Device) ?(is_decl = false) name params ret =
  let regtys = Util.Vec.create Types.TVoid in
  let params =
    List.map
      (fun (n, ty) ->
        Util.Vec.push regtys ty;
        (n, Util.Vec.length regtys - 1))
      params
  in
  {
    fname = name;
    params;
    ret;
    kind;
    is_decl;
    blocks = [];
    regtys;
    attrs = { launch_bounds = None };
  }

let fresh_reg f ty =
  Util.Vec.push f.regtys ty;
  Util.Vec.length f.regtys - 1

let nregs f = Util.Vec.length f.regtys
let reg_ty f r = Util.Vec.get f.regtys r

let add_block f label =
  let b = { label; insts = []; term = TUnreachable } in
  f.blocks <- f.blocks @ [ b ];
  b

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> Util.failf "Ir.entry: function %s has no blocks" f.fname

let find_block f label =
  try List.find (fun b -> b.label = label) f.blocks
  with Not_found -> Util.failf "Ir.find_block: no block %s in %s" label f.fname

let find_func m name =
  try List.find (fun f -> f.fname = name) m.funcs
  with Not_found -> Util.failf "Ir.find_func: no function %s in module %s" name m.mname

let find_func_opt m name = List.find_opt (fun f -> f.fname = name) m.funcs

let find_global m name =
  try List.find (fun g -> g.gname = name) m.globals
  with Not_found -> Util.failf "Ir.find_global: no global %s in module %s" name m.mname

let find_global_opt m name = List.find_opt (fun g -> g.gname = name) m.globals

(* ------------------------------------------------------------------ *)
(* Generic traversal                                                   *)

let def_of = function
  | IBin (d, _, _, _)
  | ICmp (d, _, _, _)
  | ISelect (d, _, _, _)
  | ICast (d, _, _)
  | ILoad (d, _)
  | IGep (d, _, _)
  | IPhi (d, _)
  | IAlloca (d, _, _) ->
      Some d
  | ICall (d, _, _) -> d
  | IStore _ -> None

let operands_of = function
  | IBin (_, _, a, b) | ICmp (_, _, a, b) | IGep (_, a, b) | IStore (a, b) -> [ a; b ]
  | ISelect (_, a, b, c) -> [ a; b; c ]
  | ICast (_, _, a) | ILoad (_, a) -> [ a ]
  | ICall (_, _, args) -> args
  | IPhi (_, incoming) -> List.map snd incoming
  | IAlloca _ -> []

(* [List.iter fn (operands_of i)] without building the list. *)
let iter_operands fn = function
  | IBin (_, _, a, b) | ICmp (_, _, a, b) | IGep (_, a, b) | IStore (a, b) ->
      fn a;
      fn b
  | ISelect (_, a, b, c) ->
      fn a;
      fn b;
      fn c
  | ICast (_, _, a) | ILoad (_, a) -> fn a
  | ICall (_, _, args) -> List.iter fn args
  | IPhi (_, incoming) -> List.iter (fun (_, v) -> fn v) incoming
  | IAlloca _ -> ()

let term_operands = function
  | TCondBr (c, _, _) -> [ c ]
  | TRet (Some v) -> [ v ]
  | TBr _ | TRet None | TUnreachable -> []

let map_operands fn = function
  | IBin (d, op, a, b) -> IBin (d, op, fn a, fn b)
  | ICmp (d, op, a, b) -> ICmp (d, op, fn a, fn b)
  | ISelect (d, a, b, c) -> ISelect (d, fn a, fn b, fn c)
  | ICast (d, op, a) -> ICast (d, op, fn a)
  | ILoad (d, a) -> ILoad (d, fn a)
  | IStore (v, p) -> IStore (fn v, fn p)
  | IGep (d, p, i) -> IGep (d, fn p, fn i)
  | ICall (d, callee, args) -> ICall (d, callee, List.map fn args)
  | IPhi (d, incoming) -> IPhi (d, List.map (fun (l, v) -> (l, fn v)) incoming)
  | IAlloca _ as i -> i

let map_term_operands fn = function
  | TCondBr (c, t, e) -> TCondBr (fn c, t, e)
  | TRet (Some v) -> TRet (Some (fn v))
  | (TBr _ | TRet None | TUnreachable) as t -> t

let successors = function
  | TBr l -> [ l ]
  | TCondBr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | TRet _ | TUnreachable -> []

let iter_instrs f fn = List.iter (fun b -> List.iter fn b.insts) f.blocks

(* Replace every use of register [r] with operand [v] across the function. *)
let replace_uses f r v =
  let fn o = match o with Reg r' when r' = r -> v | _ -> o in
  List.iter
    (fun b ->
      b.insts <- List.map (map_operands fn) b.insts;
      b.term <- map_term_operands fn b.term)
    f.blocks

(* Count of uses of each register, over instructions and terminators. *)
let use_counts f =
  let counts = Array.make (nregs f) 0 in
  let count o = match o with Reg r -> counts.(r) <- counts.(r) + 1 | _ -> () in
  List.iter
    (fun b ->
      List.iter (iter_operands count) b.insts;
      List.iter count (term_operands b.term))
    f.blocks;
  counts

(* Retarget phi entries when a predecessor block is renamed. *)
let retarget_phis f ~from_label ~to_label =
  List.iter
    (fun b ->
      b.insts <-
        List.map
          (function
            | IPhi (d, incoming) ->
                IPhi
                  ( d,
                    List.map
                      (fun (l, v) -> ((if l = from_label then to_label else l), v))
                      incoming )
            | i -> i)
          b.insts)
    f.blocks

let retarget_term t ~from_label ~to_label =
  let r l = if l = from_label then to_label else l in
  match t with
  | TBr l -> TBr (r l)
  | TCondBr (c, a, b) -> TCondBr (c, r a, r b)
  | (TRet _ | TUnreachable) as t -> t

(* ------------------------------------------------------------------ *)
(* Deep copies: the JIT specializes clones, never the AOT module.      *)

let clone_block b = { label = b.label; insts = b.insts; term = b.term }

let clone_func f =
  {
    f with
    blocks = List.map clone_block f.blocks;
    regtys = Util.Vec.copy f.regtys;
    attrs = { launch_bounds = f.attrs.launch_bounds };
  }

let clone_module m =
  {
    m with
    globals = m.globals;
    funcs = List.map clone_func m.funcs;
    annotations = m.annotations;
    ctors = m.ctors;
  }

(* ------------------------------------------------------------------ *)
(* Intrinsic names understood by backends and interpreters.            *)

module Intrinsics = struct
  let tid_x = "gpu.tid.x"
  let tid_y = "gpu.tid.y"
  let tid_z = "gpu.tid.z"
  let ctaid_x = "gpu.ctaid.x"
  let ctaid_y = "gpu.ctaid.y"
  let ctaid_z = "gpu.ctaid.z"
  let ntid_x = "gpu.ntid.x"
  let ntid_y = "gpu.ntid.y"
  let ntid_z = "gpu.ntid.z"
  let nctaid_x = "gpu.nctaid.x"
  let nctaid_y = "gpu.nctaid.y"
  let nctaid_z = "gpu.nctaid.z"
  let barrier = "gpu.barrier"

  (* Source-location marker: [call void @dbg.loc(line, col)]. Emitted by
     the frontend under [~debug:true], consumed by the static analyses
     for finding provenance, stripped at the head of the optimization
     pipeline, and a no-op everywhere else. *)
  let dbg_loc = "dbg.loc"
  let atomic_add_f32 = "gpu.atomic.add.f32"
  let atomic_add_f64 = "gpu.atomic.add.f64"
  let atomic_add_i32 = "gpu.atomic.add.i32"

  let math_unary =
    [ "math.sqrt"; "math.rsqrt"; "math.exp"; "math.log"; "math.sin"; "math.cos";
      "math.fabs"; "math.floor"; "math.ceil"; "math.tanh" ]

  let math_binary = [ "math.pow"; "math.atan2" ]
  let math_ternary = [ "math.fma" ]

  let gpu_queries =
    [ tid_x; tid_y; tid_z; ctaid_x; ctaid_y; ctaid_z; ntid_x; ntid_y; ntid_z;
      nctaid_x; nctaid_y; nctaid_z ]

  let atomics = [ atomic_add_f32; atomic_add_f64; atomic_add_i32 ]

  type kind = Query | Math of int (* arity *) | Atomic | Barrier | Dbg_loc

  (* Every intrinsic name and its kind, built once from the lists above.
     Passes classify every call they meet, so this is a hash lookup,
     not a walk over the lists. Read-only after module initialization,
     so domains share it. *)
  let kinds : kind Util.Stbl.t =
    let t = Util.Stbl.create 32 in
    let add kind = List.iter (fun n -> Util.Stbl.replace t n kind) in
    add Query gpu_queries;
    add (Math 1) math_unary;
    add (Math 2) math_binary;
    add (Math 3) math_ternary;
    add Atomic atomics;
    add Barrier [ barrier ];
    add Dbg_loc [ dbg_loc ];
    t

  let classify n = Util.Stbl.find_opt kinds n
  let is_gpu_query n = match classify n with Some Query -> true | _ -> false
  let is_math n = match classify n with Some (Math _) -> true | _ -> false
  let is_atomic n = match classify n with Some Atomic -> true | _ -> false
  let is_intrinsic n = Option.is_some (classify n)

  (* No effect and no memory read: a call with an unused result can go,
     and two calls with equal arguments are one value. *)
  let is_pure n = match classify n with Some (Math _ | Query) -> true | _ -> false

  let eval_math_unary n x =
    match n with
    | "math.sqrt" -> sqrt x
    | "math.rsqrt" -> 1.0 /. sqrt x
    | "math.exp" -> exp x
    | "math.log" -> log x
    | "math.sin" -> sin x
    | "math.cos" -> cos x
    | "math.fabs" -> Float.abs x
    | "math.floor" -> Float.floor x
    | "math.ceil" -> Float.ceil x
    | "math.tanh" -> tanh x
    | _ -> Util.failf "eval_math_unary: %s" n

  let eval_math_binary n x y =
    match n with
    | "math.pow" -> Float.pow x y
    | "math.atan2" -> Float.atan2 x y
    | _ -> Util.failf "eval_math_binary: %s" n
end

(* Operand type, given the containing function and module. *)
let operand_ty m f = function
  | Reg r -> reg_ty f r
  | Imm k -> Konst.ty_of k
  | Glob g -> (
      match find_global_opt m g with
      | Some gv ->
          Types.TPtr ((match gv.gty with Types.TArr (e, _) -> e | t -> t), gv.gspace)
      | None -> (
          match find_func_opt m g with
          | Some _ -> Types.TPtr (Types.TVoid, Types.AS_global)
          | None -> Util.failf "operand_ty: unknown global @%s" g))
