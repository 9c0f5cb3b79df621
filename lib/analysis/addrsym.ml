(* Address symbolization, shared by KernelSan, SpecAdvisor's address
   scoring and PerfLint. Bundles the per-function machinery every
   memory-behaviour analysis wants: dbg.loc provenance tables, the
   memoized affine symbolizer over thread-geometry atoms, pointer
   provenance resolution (root + accumulated byte offset), dominating
   branch guards and guard-narrowed interval evaluation.

   One [create] per function; the closures share memo tables, so
   repeated queries are cheap. The function is never mutated. *)

open Proteus_support
open Proteus_ir

(* ------------------------------------------------------------------ *)
(* Pointer provenance                                                  *)

type root =
  | Rglobal of Ir.gvar
  | Rparam of Ir.reg
  | Ralloca of Ir.reg * Types.ty * int (* per-thread: never races *)
  | Runknown

type ptr_info = {
  root : root;
  byte_off : Affine.t option; (* total byte offset from the root *)
  geps : int; (* gep-chain depth *)
  last_idx : Affine.t option; (* element index of the outermost gep *)
}

let root_name = function
  | Rglobal g -> "@" ^ g.Ir.gname
  | Rparam r -> Printf.sprintf "parameter r%d" r
  | Ralloca (r, _, _) -> Printf.sprintf "local array r%d" r
  | Runknown -> "<unknown>"

let same_root a b =
  match (a, b) with
  | Rglobal g1, Rglobal g2 -> g1.Ir.gname = g2.Ir.gname
  | Rparam r1, Rparam r2 -> r1 = r2
  | Ralloca (r1, _, _), Ralloca (r2, _, _) -> r1 = r2
  | _ -> false

(* Element count and size of a statically-sized buffer. *)
let static_size = function
  | Rglobal { Ir.gty = Types.TArr (e, count); _ } ->
      Some (count, max 1 (Types.size_of e))
  | Ralloca (_, ty, count) -> Some (count, max 1 (Types.size_of ty))
  | _ -> None

(* ------------------------------------------------------------------ *)

type t = {
  m : Ir.modul;
  f : Ir.func;
  uni : Uniformity.t;
  defs : Ir.instr option array;
  cfg : Cfg.t;
  dom : Dom.t;
  live : Util.Sset.t;
  max_threads : int option; (* declared launch bounds, if any *)
  tcap : int; (* lanes-per-block cap: launch bounds or the hw max *)
  loc_at : string -> int -> (int * int) option;
  uniform_op : Ir.operand -> bool;
  aff : Ir.operand -> Affine.t option;
  resolve : Ir.operand -> ptr_info;
  guards_of_block : string -> (Affine.t * Ops.cmpop * int) list;
  tid_pin : string -> (int * int) option;
  interval_of : block:string -> Affine.t -> Affine.itv;
}

(* [phi_linear] additionally symbolizes loop-carried linear
   recurrences: a phi [d = phi(init, d + step)] with a warp-uniform
   step becomes [aff(init) + Sym d], where the Sym atom stands for the
   accumulated (lane-invariant) step total. This preserves the lane
   stride of the init through grid-stride loops. It is intentionally
   off for KernelSan: bounds reasoning must not treat the accumulated
   offset as a bounded symbol, and lane-divergent trip counts make the
   decomposition unsound for value questions (a documented PerfLint
   corner: only the *stride*, not the value, is trusted). *)
let create ?(phi_linear = false) (m : Ir.modul) (f : Ir.func) : t =
  (* -------------------- dbg.loc provenance -------------------- *)
  let locs : (string, (int * int) option array) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (b : Ir.block) ->
      let arr = Array.make (max 1 (List.length b.Ir.insts)) None in
      let cur = ref None in
      List.iteri
        (fun k i ->
          (match i with
          | Ir.ICall (None, c, [ Ir.Imm l; Ir.Imm col ])
            when c = Ir.Intrinsics.dbg_loc ->
              cur :=
                Some
                  ( Int64.to_int (Konst.as_int l),
                    Int64.to_int (Konst.as_int col) )
          | _ -> ());
          if k < Array.length arr then arr.(k) <- !cur)
        b.Ir.insts;
      Hashtbl.replace locs b.Ir.label arr)
    f.Ir.blocks;
  let loc_at block k =
    match Hashtbl.find_opt locs block with
    | Some arr when k >= 0 && k < Array.length arr -> arr.(k)
    | _ -> None
  in
  (* -------------------- dataflow foundations -------------------- *)
  let u = Uniformity.compute f in
  let uniform_op = function
    | Ir.Reg r -> not (Uniformity.is_divergent u r)
    | Ir.Imm _ | Ir.Glob _ -> true
  in
  let defs : Ir.instr option array = Array.make (Ir.nregs f) None in
  Ir.iter_instrs f (fun i ->
      match Ir.def_of i with Some d -> defs.(d) <- Some i | None -> ());
  let params = List.map snd f.Ir.params in
  (* -------------------- affine symbolization -------------------- *)
  let memo : Affine.t option option array = Array.make (Ir.nregs f) None in
  let query_atom q =
    let mk ctor (x, y, z) =
      if q = x then Some (ctor 0)
      else if q = y then Some (ctor 1)
      else if q = z then Some (ctor 2)
      else None
    in
    let ( <|> ) a b = match a with Some _ -> a | None -> b in
    mk (fun a -> Affine.Tid a) Ir.Intrinsics.(tid_x, tid_y, tid_z)
    <|> mk (fun a -> Affine.Bid a) Ir.Intrinsics.(ctaid_x, ctaid_y, ctaid_z)
    <|> mk (fun a -> Affine.Ntid a) Ir.Intrinsics.(ntid_x, ntid_y, ntid_z)
    <|> mk (fun a -> Affine.Nctaid a)
          Ir.Intrinsics.(nctaid_x, nctaid_y, nctaid_z)
  in
  let rec aff (o : Ir.operand) : Affine.t option =
    match o with
    | Ir.Imm (Konst.KInt (v, _)) -> Some (Affine.const (Int64.to_int v))
    | Ir.Imm (Konst.KBool b) -> Some (Affine.const (if b then 1 else 0))
    | Ir.Imm _ | Ir.Glob _ -> None
    | Ir.Reg r -> aff_reg r
  and aff_reg r =
    match memo.(r) with
    | Some cached -> cached
    | None ->
        (* The fallback keeps uniform-but-opaque registers usable as
           symbolic atoms; divergent opaque registers are non-affine.
           Seeding the memo with it first makes cycles (phis reached
           through themselves) terminate. *)
        let fallback =
          if uniform_op (Ir.Reg r) then Some (Affine.of_atom (Affine.Sym r))
          else None
        in
        memo.(r) <- Some fallback;
        let or_fb = function Some _ as x -> x | None -> fallback in
        let result =
          match defs.(r) with
          | Some (Ir.ICall (Some _, q, [])) when Ir.Intrinsics.is_gpu_query q
            -> (
              match query_atom q with
              | Some a -> Some (Affine.of_atom a)
              | None -> fallback)
          | Some (Ir.IBin (_, Ops.Add, a, b)) -> (
              match (aff a, aff b) with
              | Some x, Some y -> Some (Affine.add x y)
              | _ -> fallback)
          | Some (Ir.IBin (_, Ops.Sub, a, b)) -> (
              match (aff a, aff b) with
              | Some x, Some y -> Some (Affine.sub x y)
              | _ -> fallback)
          | Some (Ir.IBin (_, Ops.Mul, a, b)) -> (
              match (aff a, aff b) with
              | Some x, Some y -> or_fb (Affine.mul x y)
              | _ -> fallback)
          | Some (Ir.IBin (_, Ops.Shl, a, Ir.Imm k)) ->
              let s = Int64.to_int (Konst.as_int k) in
              if s >= 0 && s < 31 then
                or_fb
                  (Option.map (fun x -> Affine.mul_const x (1 lsl s)) (aff a))
              else fallback
          | Some (Ir.ICast (_, (Ops.Sext | Ops.Zext | Ops.Trunc), a)) ->
              or_fb (aff a)
          | Some (Ir.IPhi (_, inc)) when phi_linear -> (
              let is_self_step = function
                | Ir.Reg r2 -> (
                    match defs.(r2) with
                    | Some (Ir.IBin (_, Ops.Add, Ir.Reg x, u))
                    | Some (Ir.IBin (_, Ops.Add, u, Ir.Reg x))
                    | Some (Ir.IBin (_, Ops.Sub, Ir.Reg x, u)) ->
                        x = r && uniform_op u
                    | _ -> false)
                | _ -> false
              in
              match inc with
              | [ (_, a); (_, b) ] -> (
                  let init =
                    if is_self_step b && not (is_self_step a) then Some a
                    else if is_self_step a && not (is_self_step b) then Some b
                    else None
                  in
                  match Option.map aff init with
                  | Some (Some ia) ->
                      Some (Affine.add ia (Affine.of_atom (Affine.Sym r)))
                  | _ -> fallback)
              | _ -> fallback)
          | _ -> fallback
        in
        memo.(r) <- Some result;
        result
  in
  (* -------------------- pointer resolution -------------------- *)
  let no_ptr root = { root; byte_off = None; geps = 0; last_idx = None } in
  let rec resolve (o : Ir.operand) : ptr_info =
    match o with
    | Ir.Glob g -> (
        match Ir.find_global_opt m g with
        | Some gv ->
            { root = Rglobal gv; byte_off = Some (Affine.const 0); geps = 0;
              last_idx = None }
        | None -> no_ptr Runknown)
    | Ir.Imm _ -> no_ptr Runknown
    | Ir.Reg r -> (
        if List.mem r params then
          { root = Rparam r; byte_off = Some (Affine.const 0); geps = 0;
            last_idx = None }
        else
          match defs.(r) with
          | Some (Ir.IGep (d, base, idx)) ->
              let esz =
                match Ir.reg_ty f d with
                | Types.TPtr (e, _) -> max 1 (Types.size_of e)
                | _ -> 1
              in
              let base_info = resolve base in
              let idx_aff = aff idx in
              let byte_off =
                match
                  ( base_info.byte_off,
                    Option.map (fun a -> Affine.mul_const a esz) idx_aff )
                with
                | Some a, Some b -> Some (Affine.add a b)
                | _ -> None
              in
              { root = base_info.root; byte_off; geps = base_info.geps + 1;
                last_idx = idx_aff }
          | Some (Ir.ICast (_, Ops.Bitcast, x)) -> resolve x
          | Some (Ir.IAlloca (_, ty, count)) ->
              { root = Ralloca (r, ty, count);
                byte_off = Some (Affine.const 0); geps = 0; last_idx = None }
          | _ -> no_ptr Runknown)
  in
  (* -------------------- guards (dominating branch conditions) ----- *)
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let live = Util.Sset.of_list (List.map (Cfg.label cfg) cfg.rpo) in
  let block_guards : (string, (Affine.t * Ops.cmpop * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let negate_op = function
    | Ops.CEq -> Ops.CNe
    | Ops.CNe -> Ops.CEq
    | Ops.CLt -> Ops.CGe
    | Ops.CLe -> Ops.CGt
    | Ops.CGt -> Ops.CLe
    | Ops.CGe -> Ops.CLt
  in
  let flip_op = function
    | Ops.CLt -> Ops.CGt
    | Ops.CLe -> Ops.CGe
    | Ops.CGt -> Ops.CLt
    | Ops.CGe -> Ops.CLe
    | (Ops.CEq | Ops.CNe) as op -> op
  in
  let guard_of_cond c taken =
    match c with
    | Ir.Reg r -> (
        match defs.(r) with
        | Some (Ir.ICmp (_, op, x, y)) -> (
            let norm form op k =
              if taken then (form, op, k) else (form, negate_op op, k)
            in
            match (aff x, aff y) with
            | Some fx, Some fy when Affine.is_const fy ->
                Some (norm fx op (Option.get (Affine.to_const fy)))
            | Some fx, Some fy when Affine.is_const fx ->
                Some (norm fy (flip_op op) (Option.get (Affine.to_const fx)))
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  (* Conditions that hold on every execution of [label]: walk the idom
     chain; a branch at dominator [p] contributes when one arm's target
     dominates [label] and is entered only from [p]. *)
  let guards_of_block label =
    match Hashtbl.find_opt block_guards label with
    | Some g -> g
    | None ->
        let acc = ref [] in
        let rec walk b l =
          let p = dom.Dom.idom.(l) in
          if p >= 0 && p <> l then begin
            (match cfg.blocks.(p).Ir.term with
            | Ir.TCondBr (c, tl, el) when tl <> el ->
                let edge_holds target =
                  let t = Cfg.index cfg target in
                  Dom.dominates dom t b && cfg.pred.(t) = [ p ]
                in
                let taken =
                  if edge_holds tl then Some true
                  else if edge_holds el then Some false
                  else None
                in
                (match Option.map (guard_of_cond c) taken with
                | Some (Some g) -> acc := g :: !acc
                | _ -> ())
            | _ -> ());
            walk b p
          end
        in
        Option.iter (fun b -> walk b b) (Cfg.index_opt cfg label);
        Hashtbl.replace block_guards label !acc;
        !acc
  in
  (* A lane pin: a dominating [tid.a == k] guard, meaning at most one
     lane per block executes the guarded code. *)
  let tid_pin label =
    List.find_map
      (fun ((form : Affine.t), op, k) ->
        match (op, form.Affine.terms, form.Affine.const) with
        | Ops.CEq, [ ([ Affine.Tid a ], 1) ], 0 -> Some (a, k)
        | _ -> None)
      (guards_of_block label)
  in
  (* -------------------- interval environment -------------------- *)
  let max_threads = Option.map fst f.Ir.attrs.Ir.launch_bounds in
  (* Lanes-per-block cap for lane-distance feasibility: launch bounds
     when declared, else the hardware maximum. *)
  let tcap = match max_threads with Some t -> t | None -> 1024 in
  let atom_env : Affine.atom -> Affine.itv = function
    | Affine.Tid _ ->
        Affine.range (Some 0) (Option.map (fun t -> t - 1) max_threads)
    | Affine.Ntid _ -> Affine.range (Some 1) max_threads
    | Affine.Bid _ -> Affine.range (Some 0) None
    | Affine.Nctaid _ -> Affine.range (Some 1) None
    | Affine.Sym _ -> Affine.top
  in
  let interval_of ~block (form : Affine.t) : Affine.itv =
    let itv = Affine.eval atom_env form in
    (* Narrow with dominating guards on the same form modulo a constant
       shift: form = g + d and g OP k imply form OP (k + d). *)
    List.fold_left
      (fun itv (g, op, k) ->
        match Affine.to_const (Affine.sub form g) with
        | Some d -> Affine.clamp itv op (k + d)
        | None -> itv)
      itv (guards_of_block block)
  in
  {
    m; f; uni = u; defs; cfg; dom; live; max_threads; tcap;
    loc_at; uniform_op; aff; resolve; guards_of_block; tid_pin; interval_of;
  }
