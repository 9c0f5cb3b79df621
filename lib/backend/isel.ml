(* Instruction selection: optimized SSA IR -> machine IR with virtual
   registers. Phis are deconstructed into parallel copies on (split)
   predecessor edges; GEPs lower to integer address arithmetic; allocas
   become frame offsets in per-thread scratch. *)

open Proteus_support
open Proteus_ir

(* Split critical edges so phi copies can be placed on edges safely. *)
let split_critical_edges (f : Ir.func) : unit =
  let cfg = Cfg.build f in
  let counter = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let succs = Ir.successors b.Ir.term in
      if List.length succs > 1 then
        List.iter
          (fun s ->
            if List.length cfg.Cfg.pred.(Cfg.index cfg s) > 1 then begin
              (* new block on the edge b -> s *)
              incr counter;
              let label = Printf.sprintf "%s.crit%d" b.Ir.label !counter in
              let nb = { Ir.label; insts = []; term = Ir.TBr s } in
              f.Ir.blocks <- f.Ir.blocks @ [ nb ];
              b.Ir.term <- Ir.retarget_term b.Ir.term ~from_label:s ~to_label:label;
              (* phis in s that came from b now come from the new block;
                 only this edge's entries move. *)
              let sb = Ir.find_block f s in
              sb.Ir.insts <-
                List.map
                  (function
                    | Ir.IPhi (d, inc) ->
                        Ir.IPhi
                          (d, List.map (fun (l, v) -> ((if l = b.Ir.label then label else l), v)) inc)
                    | i -> i)
                  sb.Ir.insts
            end)
          succs)
    f.Ir.blocks

type ctx = {
  func : Ir.func;
  uni : Uniformity.t;
  reg_map : Mach.reg option array; (* by IR register *)
  scratch_regs : bool array; (* IR regs holding scratch-derived pointers *)
  mutable next_v : int;
  mutable next_s : int;
  mutable frame : int;
  modul : Ir.modul;
}

let fresh_reg ctx cls =
  match cls with
  | Mach.CV ->
      let r = { Mach.rid = ctx.next_v; rcls = Mach.CV } in
      ctx.next_v <- ctx.next_v + 1;
      r
  | Mach.CS ->
      let r = { Mach.rid = ctx.next_s; rcls = Mach.CS } in
      ctx.next_s <- ctx.next_s + 1;
      r

let reg_for ctx (r : int) : Mach.reg =
  match ctx.reg_map.(r) with
  | Some mr -> mr
  | None ->
      let cls = if Uniformity.is_divergent ctx.uni r then Mach.CV else Mach.CS in
      let mr = fresh_reg ctx cls in
      ctx.reg_map.(r) <- Some mr;
      mr

let src_of ctx = function
  | Ir.Reg r -> Mach.Rs (reg_for ctx r)
  | Ir.Imm k -> Mach.Ki k
  | Ir.Glob g -> Mach.Gs g

let is_scratch_ptr ctx = function
  | Ir.Reg r -> ctx.scratch_regs.(r)
  | _ -> false

let elem_size ctx (ptr : Ir.operand) =
  match Ir.operand_ty ctx.modul ctx.func ptr with
  | Types.TPtr (t, _) -> Types.size_of t
  | t -> Util.failf "Isel: gep base is %s" (Types.to_string t)

let lower_func (m : Ir.modul) (f : Ir.func) : Mach.mfunc =
  let f = Ir.clone_func f in
  split_critical_edges f;
  let uni = Uniformity.compute f in
  let ctx =
    {
      func = f;
      uni;
      reg_map = Array.make (Ir.nregs f) None;
      scratch_regs = Array.make (Ir.nregs f) false;
      next_v = 0;
      next_s = 0;
      frame = 0;
      modul = m;
    }
  in
  (* Mark scratch provenance: alloca results and geps/casts on them. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Ir.iter_instrs f (fun i ->
        let mark d =
          if not ctx.scratch_regs.(d) then begin
            ctx.scratch_regs.(d) <- true;
            changed := true
          end
        in
        match i with
        | Ir.IAlloca (d, _, _) -> mark d
        | Ir.IGep (d, p, _) when is_scratch_ptr ctx p -> mark d
        | Ir.ICast (d, _, p) when is_scratch_ptr ctx p -> mark d
        | _ -> ())
  done;
  (* Parameter registers, in order. *)
  let params = List.map (fun (_, r) -> reg_for ctx r) f.Ir.params in
  let arg_tys = List.map (fun (_, r) -> Ir.reg_ty f r) f.Ir.params in
  (* Pre-assign frame offsets for allocas. *)
  let frame_off : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Ir.iter_instrs f (fun i ->
      match i with
      | Ir.IAlloca (d, ty, n) ->
          let sz = Util.round_up (Types.size_of ty * n) 8 in
          Hashtbl.replace frame_off d ctx.frame;
          ctx.frame <- ctx.frame + sz
      | _ -> ());
  let lower_instr (acc : Mach.minstr list) (i : Ir.instr) : Mach.minstr list =
    let emit op dst srcs = { Mach.op; dst; srcs } :: acc in
    match i with
    | Ir.IBin (d, op, a, b) ->
        let ty = Ir.reg_ty f d in
        emit (Mach.Obin (op, ty)) (Some (reg_for ctx d)) [ src_of ctx a; src_of ctx b ]
    | Ir.ICmp (d, op, a, b) ->
        let ty = Ir.operand_ty m f a in
        emit (Mach.Ocmp (op, ty)) (Some (reg_for ctx d)) [ src_of ctx a; src_of ctx b ]
    | Ir.ISelect (d, c, a, b) ->
        emit (Mach.Osel (Ir.reg_ty f d)) (Some (reg_for ctx d))
          [ src_of ctx c; src_of ctx a; src_of ctx b ]
    | Ir.ICast (d, op, a) ->
        emit
          (Mach.Ocast (op, Ir.reg_ty f d, Ir.operand_ty m f a))
          (Some (reg_for ctx d)) [ src_of ctx a ]
    | Ir.ILoad (d, p) ->
        let space = if is_scratch_ptr ctx p then Mach.SScratch else Mach.SGlobal in
        emit (Mach.Old (space, Ir.reg_ty f d)) (Some (reg_for ctx d)) [ src_of ctx p ]
    | Ir.IStore (v, p) ->
        let space = if is_scratch_ptr ctx p then Mach.SScratch else Mach.SGlobal in
        emit
          (Mach.Ost (space, Ir.operand_ty m f v))
          None
          [ src_of ctx v; src_of ctx p ]
    | Ir.IGep (d, p, idx) -> (
        let size = elem_size ctx p in
        let dst = reg_for ctx d in
        match idx with
        | Ir.Imm k ->
            let off = Int64.mul (Konst.as_int k) (Int64.of_int size) in
            if Int64.equal off 0L then
              emit (Mach.Omov (Types.TInt 64)) (Some dst) [ src_of ctx p ]
            else
              emit (Mach.Obin (Ops.Add, Types.TInt 64)) (Some dst)
                [ src_of ctx p; Mach.Ki (Konst.kint ~bits:64 off) ]
        | _ ->
            let idx_cls =
              match idx with
              | Ir.Reg r -> (reg_for ctx r).Mach.rcls
              | _ -> Mach.CS
            in
            if size = 1 then
              emit (Mach.Obin (Ops.Add, Types.TInt 64)) (Some dst)
                [ src_of ctx p; src_of ctx idx ]
            else begin
              let tmp = fresh_reg ctx idx_cls in
              let mul =
                {
                  Mach.op = Mach.Obin (Ops.Mul, Types.TInt 64);
                  dst = Some tmp;
                  srcs = [ src_of ctx idx; Mach.Ki (Konst.kint ~bits:64 (Int64.of_int size)) ];
                }
              in
              let add =
                {
                  Mach.op = Mach.Obin (Ops.Add, Types.TInt 64);
                  dst = Some dst;
                  srcs = [ src_of ctx p; Mach.Rs tmp ];
                }
              in
              add :: mul :: acc
            end)
    | Ir.ICall (dst, name, args) -> (
        match (Ir.Intrinsics.classify name, dst, args) with
        | Some Ir.Intrinsics.Query, _, [] ->
            emit (Mach.Oquery name) (Option.map (reg_for ctx) dst) []
        | Some (Ir.Intrinsics.Math _), Some d, _ ->
            emit
              (Mach.Omath (name, Ir.reg_ty f d))
              (Some (reg_for ctx d))
              (List.map (src_of ctx) args)
        | Some Ir.Intrinsics.Atomic, _, [ p; v ] ->
            emit (Mach.Oatomic name)
              (Option.map (reg_for ctx) dst)
              [ src_of ctx p; src_of ctx v ]
        | Some Ir.Intrinsics.Barrier, None, _ -> emit Mach.Obarrier None []
        | _ -> Util.failf "Isel: residual call to @%s in %s (inlining failed?)" name f.Ir.fname)
    | Ir.IPhi (d, _) ->
        (* dst register materialised; copies are emitted in predecessors *)
        ignore (reg_for ctx d);
        acc
    | Ir.IAlloca (d, _, _) ->
        let off = Hashtbl.find frame_off d in
        emit Mach.Oframe (Some (reg_for ctx d)) [ Mach.Ki (Konst.kint ~bits:64 (Int64.of_int off)) ]
  in
  (* Phi copies on the edges out of [pred_label] into its successors
     [succs], sequentialised to respect simultaneous-assignment
     semantics. *)
  let phi_copies_for (pred_label : string) (succs : string list) : Mach.minstr list =
    let copies = ref [] in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.IPhi (d, inc) -> (
                match List.assoc_opt pred_label inc with
                | Some v ->
                    copies := (reg_for ctx d, src_of ctx v, Ir.reg_ty f d) :: !copies
                | None -> ())
            | _ -> ())
          b.Ir.insts)
      (List.filter (fun (b : Ir.block) -> List.mem b.Ir.label succs) f.Ir.blocks);
    (* order copies: emit ones whose destination is not read by pending
       copies first; break cycles with a temporary. Every round retires
       at least one pending copy, so the loop ends. *)
    let result = ref [] in
    let pending = ref !copies in
    let emit_copy (d, s, ty) =
      result := { Mach.op = Mach.Omov ty; dst = Some d; srcs = [ s ] } :: !result
    in
    let reads_reg r (_, s, _) = match s with Mach.Rs r' -> r' = r | _ -> false in
    while !pending <> [] do
      match
        List.partition
          (fun (d, _, _) -> not (List.exists (reads_reg d) !pending))
          !pending
      with
      | [], (d, s, ty) :: rest ->
          (* cycle: save the value about to be clobbered, redirect its
             readers to the temporary, then perform the copy *)
          let tmp = fresh_reg ctx d.Mach.rcls in
          result := { Mach.op = Mach.Omov ty; dst = Some tmp; srcs = [ Mach.Rs d ] } :: !result;
          emit_copy (d, s, ty);
          pending :=
            List.map
              (fun (d', s', ty') ->
                match s' with
                | Mach.Rs r when r = d -> (d', Mach.Rs tmp, ty')
                | _ -> (d', s', ty'))
              rest
      | ready, rest ->
          List.iter emit_copy ready;
          pending := rest
    done;
    List.rev !result
  in
  (* a function without phis has no copies to place *)
  let has_phis =
    List.exists
      (fun (b : Ir.block) -> List.exists (function Ir.IPhi _ -> true | _ -> false) b.Ir.insts)
      f.Ir.blocks
  in
  (* Kernel arguments are loaded from the kernarg segment at entry. *)
  let arg_loads =
    List.mapi (fun i r -> { Mach.op = Mach.Oarg i; dst = Some r; srcs = [] }) params
  in
  let entry_label =
    match f.Ir.blocks with b :: _ -> b.Ir.label | [] -> "entry"
  in
  let blocks =
    List.map
      (fun (b : Ir.block) ->
        let code = List.rev (List.fold_left lower_instr [] b.Ir.insts) in
        let code = if b.Ir.label = entry_label then arg_loads @ code else code in
        let code =
          if has_phis then code @ phi_copies_for b.Ir.label (Ir.successors b.Ir.term) else code
        in
        let term =
          match b.Ir.term with
          | Ir.TBr l -> Mach.Tbr l
          | Ir.TCondBr (c, t, e) -> Mach.Tcbr (src_of ctx c, t, e)
          | Ir.TRet _ -> Mach.Tret
          | Ir.TUnreachable -> Mach.Tret
        in
        { Mach.mlab = b.Ir.label; code; term })
      f.Ir.blocks
  in
  {
    Mach.sym = f.Ir.fname;
    blocks;
    params;
    arg_tys;
    vregs = ctx.next_v;
    sregs = ctx.next_s;
    frame = ctx.frame;
    spill_slots = 0;
    launch_bounds = f.Ir.attrs.launch_bounds;
    max_pressure_v = 0;
    max_pressure_s = 0;
  }
