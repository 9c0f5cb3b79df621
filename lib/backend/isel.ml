(* Instruction selection: optimized SSA IR -> machine IR with virtual
   registers. Phis are deconstructed into parallel copies on (split)
   predecessor edges; GEPs lower to integer address arithmetic; allocas
   become frame offsets in per-thread scratch. *)

open Proteus_support
open Proteus_ir

(* Split critical edges so phi copies can be placed on edges safely.
   The new blocks go after the others, in the order of their edges.
   Returns the blocks of the result and their successors, by position,
   as [Cfg.graph] would. *)
let split_critical_edges (f : Ir.func) : Ir.block array * int list array =
  let blocks, _, succ = Cfg.graph f in
  let n = Array.length blocks in
  let npred = Array.make n 0 in
  Array.iter (List.iter (fun s -> npred.(s) <- npred.(s) + 1)) succ;
  (* the new blocks, last first, with their one successor *)
  let added = ref [] and count = ref 0 in
  for bi = 0 to n - 1 do
    let b = blocks.(bi) in
    match succ.(bi) with
    | _ :: _ :: _ as succs ->
        List.iter
          (fun si ->
            if npred.(si) > 1 then begin
              (* new block on the edge b -> s *)
              let s = blocks.(si).Ir.label in
              incr count;
              let label = b.Ir.label ^ ".crit" ^ string_of_int !count in
              added := ({ Ir.label; insts = []; term = Ir.TBr s }, si) :: !added;
              b.Ir.term <- Ir.retarget_term b.Ir.term ~from_label:s ~to_label:label;
              let k = n + !count - 1 in
              succ.(bi) <- List.map (fun j -> if j = si then k else j) succ.(bi);
              (* phis in s that came from b now come from the new
                 block; only this edge's entries move. *)
              let sb = blocks.(si) in
              sb.Ir.insts <-
                List.map
                  (function
                    | Ir.IPhi (d, inc) ->
                        Ir.IPhi
                          ( d,
                            List.map
                              (fun (l, v) -> ((if String.equal l b.Ir.label then label else l), v))
                              inc )
                    | i -> i)
                  sb.Ir.insts
            end)
          succs
    | _ -> ()
  done;
  match List.rev !added with
  | [] -> (blocks, succ)
  | added ->
      let added = Array.of_list added in
      let nbs = Array.map fst added in
      f.Ir.blocks <- f.Ir.blocks @ Array.to_list nbs;
      (Array.append blocks nbs, Array.append succ (Array.map (fun (_, si) -> [ si ]) added))

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
  let blocks, succ = split_critical_edges f in
  let uni = Uniformity.of_graph f blocks succ in
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
  let mark d =
    if not ctx.scratch_regs.(d) then begin
      ctx.scratch_regs.(d) <- true;
      changed := true
    end
  in
  while !changed do
    changed := false;
    Ir.iter_instrs f (fun i ->
        match i with
        | Ir.IAlloca (d, _, _) -> mark d
        | Ir.IGep (d, p, _) when is_scratch_ptr ctx p -> mark d
        | Ir.ICast (d, _, p) when is_scratch_ptr ctx p -> mark d
        | _ -> ())
  done;
  (* Parameter registers, in order. *)
  let params = List.map (fun (_, r) -> reg_for ctx r) f.Ir.params in
  let arg_tys = List.map (fun (_, r) -> Ir.reg_ty f r) f.Ir.params in
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
    | Ir.IAlloca (d, ty, n) ->
        (* frame offsets in instruction order *)
        let off = ctx.frame in
        ctx.frame <- off + Util.round_up (Types.size_of ty * n) 8;
        emit Mach.Oframe (Some (reg_for ctx d)) [ Mach.Ki (Konst.kint ~bits:64 (Int64.of_int off)) ]
  in
  (* the blocks with phis, by position *)
  let has_phis =
    Array.map
      (fun (b : Ir.block) -> List.exists (function Ir.IPhi _ -> true | _ -> false) b.Ir.insts)
      blocks
  in
  (* Phi copies on the edges out of block [k] into its successors,
     sequentialised to respect simultaneous-assignment semantics. *)
  let phi_copies_for (k : int) : Mach.minstr list =
    let pred_label = blocks.(k).Ir.label in
    let copies = ref [] in
    List.iter
      (fun s ->
        List.iter
          (fun i ->
            match i with
            | Ir.IPhi (d, inc) -> (
                match List.find_opt (fun (l, _) -> String.equal l pred_label) inc with
                | Some (_, v) ->
                    copies := (reg_for ctx d, src_of ctx v, Ir.reg_ty f d) :: !copies
                | None -> ())
            | _ -> ())
          blocks.(s).Ir.insts)
      (* the successors with phis, in block order *)
      (List.sort Int.compare (List.filter (Array.get has_phis) succ.(k)));
    (* order copies: emit ones whose destination is not read by pending
       copies first; break cycles with a temporary. Every round retires
       at least one pending copy, so the loop ends. *)
    let result = ref [] in
    let pending = ref !copies in
    let emit_copy (d, s, ty) =
      result := { Mach.op = Mach.Omov ty; dst = Some d; srcs = [ s ] } :: !result
    in
    let same (r : Mach.reg) (r' : Mach.reg) = r.Mach.rid = r'.Mach.rid && r.Mach.rcls = r'.Mach.rcls in
    let reads_reg r (_, s, _) = match s with Mach.Rs r' -> same r' r | _ -> false in
    while match !pending with [] -> false | _ :: _ -> true do
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
                | Mach.Rs r when same r d -> (d', Mach.Rs tmp, ty')
                | _ -> (d', s', ty'))
              rest
      | ready, rest ->
          List.iter emit_copy ready;
          pending := rest
    done;
    List.rev !result
  in
  (* Kernel arguments are loaded from the kernarg segment at entry. *)
  let arg_loads =
    List.mapi (fun i r -> { Mach.op = Mach.Oarg i; dst = Some r; srcs = [] }) params
  in
  let any_phis = Array.exists Fun.id has_phis in
  let mblocks =
    List.mapi
      (fun k (b : Ir.block) ->
        let code = List.rev (List.fold_left lower_instr [] b.Ir.insts) in
        let code = if k = 0 then arg_loads @ code else code in
        let code =
          (* a function without phis has no copies to place *)
          if any_phis then code @ phi_copies_for k else code
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
    blocks = mblocks;
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
