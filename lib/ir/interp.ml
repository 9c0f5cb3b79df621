(* Reference interpreter for IR modules. Memory and externs are
   abstracted so the same engine executes host modules (with vendor-API
   externs) and serves as the oracle for backend differential tests.
   Pointers are represented as 64-bit integer constants. *)

open Proteus_support

type env = {
  load : Types.ty -> int64 -> Konst.t;
  store : Types.ty -> int64 -> Konst.t -> unit;
  (* Non-intrinsic calls to functions not defined in the module. *)
  extern : string -> Konst.t list -> Konst.t option;
  global_addr : string -> int64;
  alloca : Types.ty -> int -> int64;
  (* gpu.* queries (thread/block ids); None outside device context. *)
  gpu_query : string -> Konst.t option;
  atomic : string -> int64 -> Konst.t -> Konst.t; (* op, address, operand *)
  mutable fuel : int; (* instruction budget; raises Out_of_fuel at 0 *)
}

exception Out_of_fuel

let default_fuel = 200_000_000

let make_env ~load ~store ~extern ~global_addr ~alloca
    ?(gpu_query = fun _ -> None)
    ?(atomic = fun n _ _ -> Util.failf "Interp: atomic %s outside device context" n)
    ?(fuel = default_fuel) () =
  { load; store; extern; global_addr; alloca; gpu_query; atomic; fuel }

let eval_math name args =
  match (args, Ir.Intrinsics.classify name) with
  | [ Konst.KFloat (x, bits) ], Some (Ir.Intrinsics.Math 1) ->
      Konst.KFloat (Konst.round_fbits bits (Ir.Intrinsics.eval_math_unary name x), bits)
  | [ Konst.KFloat (x, bits); Konst.KFloat (y, _) ], Some (Ir.Intrinsics.Math 2) ->
      Konst.KFloat (Konst.round_fbits bits (Ir.Intrinsics.eval_math_binary name x y), bits)
  | [ Konst.KFloat (x, bits); Konst.KFloat (y, _); Konst.KFloat (z, _) ],
    Some (Ir.Intrinsics.Math 3) ->
      Konst.KFloat (Konst.round_fbits bits ((x *. y) +. z), bits)
  | _ -> Util.failf "Interp: bad math intrinsic call %s/%d" name (List.length args)

let rec call_function env (m : Ir.modul) (f : Ir.func) (args : Konst.t list) :
    Konst.t option =
  if f.is_decl then Util.failf "Interp: calling declaration %s" f.fname;
  let regs = Array.make (Ir.nregs f) Konst.KNull in
  (if List.length args <> List.length f.params then
     Util.failf "Interp: arity mismatch calling %s: %d vs %d" f.fname (List.length args)
       (List.length f.params));
  List.iter2 (fun (_, r) v -> regs.(r) <- v) f.params args;
  let eval = function
    | Ir.Reg r -> regs.(r)
    | Ir.Imm k -> k
    | Ir.Glob g -> Konst.KInt (env.global_addr g, 64)
  in
  let exec_call dst callee cargs =
    let vals = List.map eval cargs in
    let result =
      match Ir.Intrinsics.classify callee with
      | Some (Ir.Intrinsics.Math _) -> Some (eval_math callee vals)
      | Some Ir.Intrinsics.Query -> (
          match env.gpu_query callee with
          | Some v -> Some v
          | None -> Util.failf "Interp: %s outside device context" callee)
      | Some Ir.Intrinsics.Atomic -> (
          match vals with
          | [ p; v ] -> Some (env.atomic callee (Konst.as_int p) v)
          | _ -> Util.failf "Interp: atomic arity")
      | Some (Ir.Intrinsics.Barrier | Ir.Intrinsics.Dbg_loc) -> None
      | None -> (
          match Ir.find_func_opt m callee with
          | Some g when not g.is_decl -> call_function env m g vals
          | _ -> env.extern callee vals)
    in
    match (dst, result) with
    | Some d, Some v -> regs.(d) <- v
    | Some d, None -> Util.failf "Interp: call @%s produced no value for r%d" callee d
    | None, _ -> ()
  in
  let rec run_block (b : Ir.block) (prev : string) : Konst.t option =
    (* Phis evaluate in parallel against the predecessor environment. *)
    let phis, rest =
      let rec split acc = function
        | (Ir.IPhi _ as p) :: tl -> split (p :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      split [] b.insts
    in
    let phi_vals =
      List.map
        (fun i ->
          match i with
          | Ir.IPhi (d, incoming) -> (
              match List.assoc_opt prev incoming with
              | Some v -> (d, eval v)
              | None ->
                  Util.failf "Interp: phi r%d in %s has no entry for predecessor %s" d
                    b.label prev)
          | _ -> assert false)
        phis
    in
    List.iter (fun (d, v) -> regs.(d) <- v) phi_vals;
    env.fuel <- env.fuel - List.length phi_vals;
    List.iter
      (fun i ->
        env.fuel <- env.fuel - 1;
        if env.fuel <= 0 then raise Out_of_fuel;
        match i with
        | Ir.IPhi _ -> assert false
        | Ir.IBin (d, op, x, y) -> regs.(d) <- Konst.binop op (eval x) (eval y)
        | Ir.ICmp (d, op, x, y) -> regs.(d) <- Konst.cmpop op (eval x) (eval y)
        | Ir.ISelect (d, c, x, y) ->
            regs.(d) <- (if Konst.as_bool (eval c) then eval x else eval y)
        | Ir.ICast (d, op, x) -> regs.(d) <- Konst.cast op (eval x) (Ir.reg_ty f d)
        | Ir.ILoad (d, p) -> regs.(d) <- env.load (Ir.reg_ty f d) (Konst.as_int (eval p))
        | Ir.IStore (v, p) ->
            let ty = Ir.operand_ty m f v in
            env.store ty (Konst.as_int (eval p)) (eval v)
        | Ir.IGep (d, p, idx) ->
            let elem =
              match Ir.operand_ty m f p with
              | Types.TPtr (t, _) -> t
              | _ -> Util.failf "Interp: gep base not pointer"
            in
            let base = Konst.as_int (eval p) in
            let i = Konst.as_int (eval idx) in
            regs.(d) <-
              Konst.KInt
                (Int64.add base (Int64.mul i (Int64.of_int (Types.size_of elem))), 64)
        | Ir.ICall (dst, callee, cargs) -> exec_call dst callee cargs
        | Ir.IAlloca (d, ty, n) -> regs.(d) <- Konst.KInt (env.alloca ty n, 64))
      rest;
    match b.term with
    | Ir.TBr l -> run_block (Ir.find_block f l) b.label
    | Ir.TCondBr (c, t, e) ->
        let l = if Konst.as_bool (eval c) then t else e in
        run_block (Ir.find_block f l) b.label
    | Ir.TRet v -> Option.map eval v
    | Ir.TUnreachable -> Util.failf "Interp: reached unreachable in %s/%s" f.fname b.label
  in
  run_block (Ir.entry f) "<entry>"

let run env m fname args = call_function env m (Ir.find_func m fname) args
