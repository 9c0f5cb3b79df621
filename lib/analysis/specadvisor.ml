(* SpecAdvisor: interprocedural specialization-profitability analysis.

   Proteus specializes kernels on the runtime values of annotated
   arguments; the paper leaves *which* arguments to the user, and
   specializing a low-impact argument only inflates compile time and
   cache cardinality. This pass answers the question statically: for
   every kernel parameter (and for the launch-bound dimension) it
   computes the *runtime-constant impact* — what would fold, prune or
   unroll if the JIT pinned that value — and scores it with a cost
   model whose counters mirror what SCCP and the unroller actually do
   (Pass.stats carries the measured twins for calibration).

   Machinery, per kernel of a Normalize.clone'd module:

   - a flow-sensitive *const-closure*: the set of SSA registers that
     become JIT-time constants when one argument is pinned, propagated
     through arithmetic, casts, selects, phis, math intrinsics and —
     interprocedurally — through calls to defined device functions via
     memoized (callee, const-arg-mask) summaries. The closure is
     computed once with no seeds (the baseline: what folds anyway) and
     once per argument; the *delta* is the argument's marginal impact,
     so already-constant expressions are never double-credited.
   - Affine symbolization (Affine, shared with KernelSan) of loop
     bounds and GEP indices over Tid/Bid/Ntid/Sym atoms: a loop whose
     exit bound's affine form becomes closure-constant is creditable
     as fully unrollable; a thread-dependent address whose uniform
     component contains the argument folds into an immediate offset.
   - Uniformity's divergence lattice: divergent values can never enter
     the closure (their seeds are per-lane), and the count of live
     divergent registers estimates the register-pressure relief of
     launch-bound specialization (index 0, the pseudo-argument).

   Each argument gets a ranked `arg_impact` with `Finding`-style
   provenance (kind Spec_impact, severity Info, dbg.loc positions when
   the module was lowered with ~debug:true). Pointer arguments are
   scored but never recommended: pinning a buffer address explodes key
   cardinality for no fold the model can see. *)

open Proteus_support
open Proteus_ir

(* ---- static cost model -------------------------------------------- *)

(* Weights are in "instructions saved" units: a fold removes one
   instruction; an immediate-substitution use saves a register
   operand; a pruned branch removes a control edge plus its dead arm;
   an unrollable loop removes its control overhead and exposes its
   body (scaled down — unrolling helps, copies still execute). *)
let w_fold = 1.0
let w_use = 0.25
let w_branch = 4.0
let w_loop = 2.0
let w_loop_inst = 0.1
let w_addr = 0.5

(* Arguments scoring below this are dropped from the specialization
   key under PROTEUS_SPEC_POLICY=advise. The default keeps any
   argument with a measurable impact (a single folded use scores
   w_use); raising it makes the policy more selective. *)
let default_threshold = 0.25

type counts = {
  mutable c_folds : int; (* instructions whose result becomes constant *)
  mutable c_uses : int; (* remaining uses that become immediate operands *)
  mutable c_branches : int; (* conditional branches whose condition folds *)
  mutable c_loops : int; (* loops whose trip count becomes static *)
  mutable c_loop_insts : int; (* instructions inside those loops *)
  mutable c_addrs : int; (* address computations gaining a constant part *)
  mutable c_addr_w : float; (* the same sites, weighted by coalescing class *)
}

let zero_counts () =
  { c_folds = 0; c_uses = 0; c_branches = 0; c_loops = 0; c_loop_insts = 0;
    c_addrs = 0; c_addr_w = 0.0 }

let add_counts a b =
  a.c_folds <- a.c_folds + b.c_folds;
  a.c_uses <- a.c_uses + b.c_uses;
  a.c_branches <- a.c_branches + b.c_branches;
  a.c_loops <- a.c_loops + b.c_loops;
  a.c_loop_insts <- a.c_loop_insts + b.c_loop_insts;
  a.c_addrs <- a.c_addrs + b.c_addrs;
  a.c_addr_w <- a.c_addr_w +. b.c_addr_w

let diff_counts a b =
  {
    c_folds = a.c_folds - b.c_folds;
    c_uses = a.c_uses - b.c_uses;
    c_branches = a.c_branches - b.c_branches;
    c_loops = a.c_loops - b.c_loops;
    c_loop_insts = a.c_loop_insts - b.c_loop_insts;
    c_addrs = a.c_addrs - b.c_addrs;
    c_addr_w = a.c_addr_w -. b.c_addr_w;
  }

type arg_impact = {
  index : int; (* 1-based parameter index; 0 = launch-bound dimension *)
  pname : string;
  ty : Types.ty;
  is_ptr : bool;
  folds : int;
  uses : int;
  branches : int;
  loops : int;
  loop_insts : int;
  addrs : int;
  score : float;
  recommended : bool;
  provenance : Finding.t list;
}

type kernel_impact = {
  kernel : string;
  nparams : int;
  threshold : float;
  ranked : arg_impact list; (* score-descending; includes the launch pseudo-arg *)
  advise_s : float; (* wall time spent advising this kernel *)
}

(* ------------------------------------------------------------------ *)
(* Interprocedural const-closure                                       *)

type summary = { ret_const : bool; sc : counts }

type ctx = {
  m : Ir.modul;
  summaries : (string, summary) Hashtbl.t; (* "callee:mask" -> summary *)
  in_progress : (string, unit) Hashtbl.t; (* recursion guard *)
}

let mask_key callee mask =
  callee ^ ":" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") mask)

let callee_func ctx name =
  if Ir.Intrinsics.is_intrinsic name then None
  else
    match Ir.find_func_opt ctx.m name with
    | Some g when (not g.Ir.is_decl) && g.Ir.blocks <> [] -> Some g
    | _ -> None

let ntid_query q =
  q = Ir.Intrinsics.ntid_x || q = Ir.Intrinsics.ntid_y || q = Ir.Intrinsics.ntid_z

(* Registers of [f] that are JIT-time constants given the seeded
   parameters (and, for the launch pseudo-argument, constant blockDim
   queries). Fixpoint over the SSA graph; calls into defined device
   functions consult memoized summaries. *)
let rec closure ctx (f : Ir.func) ~(seeds : int list) ~(ntid_const : bool) : bool array =
  let const_ = Array.make (Ir.nregs f) false in
  List.iter (fun r -> const_.(r) <- true) seeds;
  let op_const = function
    | Ir.Imm _ -> true
    | Ir.Glob _ -> false (* addresses are runtime values *)
    | Ir.Reg r -> const_.(r)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    let set d =
      if not const_.(d) then begin
        const_.(d) <- true;
        changed := true
      end
    in
    List.iter
      (fun (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.IBin (d, _, x, y) | Ir.ICmp (d, _, x, y) ->
                if op_const x && op_const y then set d
            | Ir.ISelect (d, c, x, y) ->
                if op_const c && op_const x && op_const y then set d
            | Ir.ICast (d, _, x) -> if op_const x then set d
            | Ir.IPhi (d, inc) ->
                if inc <> [] && List.for_all (fun (_, v) -> op_const v) inc then set d
            | Ir.ICall (Some d, callee, args) when Ir.Intrinsics.is_math callee ->
                if List.for_all op_const args then set d
            | Ir.ICall (Some d, q, _) when Ir.Intrinsics.is_gpu_query q ->
                if ntid_const && ntid_query q then set d
            | Ir.ICall (Some d, callee, args) -> (
                match callee_func ctx callee with
                | Some g ->
                    let s = summarize ctx g (List.map op_const args) in
                    if s.ret_const then set d
                | None -> ())
            | Ir.ILoad _ | Ir.IGep _ | Ir.IAlloca _ | Ir.IStore _
            | Ir.ICall (None, _, _) ->
                ())
          b.Ir.insts)
      f.Ir.blocks
  done;
  const_

(* Summary of a defined device function under a const-mask of its
   parameters: whether the return value becomes constant, plus the
   *marginal* internal fold counts relative to the no-constant
   baseline. Memoized; recursion is cut off conservatively. *)
and summarize ctx (g : Ir.func) (mask : bool list) : summary =
  let key = mask_key g.Ir.fname mask in
  match Hashtbl.find_opt ctx.summaries key with
  | Some s -> s
  | None ->
      if Hashtbl.mem ctx.in_progress g.Ir.fname then
        { ret_const = false; sc = zero_counts () }
      else begin
        Hashtbl.replace ctx.in_progress g.Ir.fname ();
        let seeds =
          List.filteri (fun i _ -> List.nth_opt mask i = Some true) g.Ir.params
          |> List.map snd
        in
        let base = closure ctx g ~seeds:[] ~ntid_const:false in
        let full = closure ctx g ~seeds ~ntid_const:false in
        let sc = count_sites ctx g ~base ~full ~loops:None ~on_site:(fun _ _ _ -> ()) in
        let ret_const =
          List.for_all
            (fun (b : Ir.block) ->
              match b.Ir.term with
              | Ir.TRet (Some o) -> (
                  match o with
                  | Ir.Imm _ -> true
                  | Ir.Glob _ -> false
                  | Ir.Reg r -> full.(r))
              | _ -> true)
            g.Ir.blocks
          && List.exists
               (fun (b : Ir.block) ->
                 match b.Ir.term with Ir.TRet (Some _) -> true | _ -> false)
               g.Ir.blocks
        in
        Hashtbl.remove ctx.in_progress g.Ir.fname;
        let s = { ret_const; sc } in
        Hashtbl.replace ctx.summaries key s;
        s
      end

(* Count the marginal impact sites of [full] over [base] in [f].
   [on_site kind block inst_idx] fires for provenance collection;
   loops are only analyzed when [loops] carries the function's loop
   forest (skipped inside callee summaries). *)
and count_sites ?(addr_factor = fun (_ : Ir.reg) -> 1.0) ctx (f : Ir.func)
    ~(base : bool array) ~(full : bool array)
    ~(loops : (Cfg.t * Loopinfo.t) option)
    ~(on_site : [ `Fold | `Use | `Branch | `Loop of int | `Addr ] -> string -> int -> unit)
    : counts =
  let c = zero_counts () in
  let delta r = full.(r) && not base.(r) in
  let delta_op = function Ir.Reg r -> delta r | Ir.Imm _ | Ir.Glob _ -> false in
  (* memoized affine symbolization over Tid/Bid/Ntid/Nctaid/Sym atoms:
     pure integer arithmetic is followed; anything opaque becomes its
     own Sym leaf, so "all atoms constant" questions reduce to closure
     membership of the leaves *)
  let aff_memo : (int, Affine.t option) Hashtbl.t = Hashtbl.create 32 in
  let def_site : (int, string * int * Ir.instr) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun k i ->
          match Ir.def_of i with
          | Some d -> Hashtbl.replace def_site d (b.Ir.label, k, i)
          | None -> ())
        b.Ir.insts)
    f.Ir.blocks;
  let imm_int = function
    | Konst.KInt (v, _) -> Some (Int64.to_int v)
    | Konst.KBool bv -> Some (if bv then 1 else 0)
    | _ -> None
  in
  let rec aff_reg r =
    match Hashtbl.find_opt aff_memo r with
    | Some a -> a
    | None ->
        Hashtbl.replace aff_memo r (Some (Affine.of_atom (Affine.Sym r)));
        let a =
          match Hashtbl.find_opt def_site r with
          | None -> Some (Affine.of_atom (Affine.Sym r)) (* parameter *)
          | Some (_, _, i) -> (
              match i with
              | Ir.IBin (_, Ops.Add, x, y) -> (
                  match (aff_op x, aff_op y) with
                  | Some a, Some b -> Some (Affine.add a b)
                  | _ -> None)
              | Ir.IBin (_, Ops.Sub, x, y) -> (
                  match (aff_op x, aff_op y) with
                  | Some a, Some b -> Some (Affine.sub a b)
                  | _ -> None)
              | Ir.IBin (_, Ops.Mul, x, y) -> (
                  match (aff_op x, aff_op y) with
                  | Some a, Some b -> Affine.mul a b
                  | _ -> None)
              | Ir.IBin (_, Ops.Shl, x, Ir.Imm k) -> (
                  match (aff_op x, imm_int k) with
                  | Some a, Some s when s >= 0 && s < 31 ->
                      Some (Affine.mul_const a (1 lsl s))
                  | _ -> None)
              | Ir.ICast (_, _, x) -> aff_op x
              | Ir.ICall (Some _, q, _) when Ir.Intrinsics.is_gpu_query q ->
                  let atom =
                    if q = Ir.Intrinsics.tid_x then Some (Affine.Tid 0)
                    else if q = Ir.Intrinsics.tid_y then Some (Affine.Tid 1)
                    else if q = Ir.Intrinsics.tid_z then Some (Affine.Tid 2)
                    else if q = Ir.Intrinsics.ctaid_x then Some (Affine.Bid 0)
                    else if q = Ir.Intrinsics.ctaid_y then Some (Affine.Bid 1)
                    else if q = Ir.Intrinsics.ctaid_z then Some (Affine.Bid 2)
                    else if q = Ir.Intrinsics.ntid_x then Some (Affine.Ntid 0)
                    else if q = Ir.Intrinsics.ntid_y then Some (Affine.Ntid 1)
                    else if q = Ir.Intrinsics.ntid_z then Some (Affine.Ntid 2)
                    else if q = Ir.Intrinsics.nctaid_x then Some (Affine.Nctaid 0)
                    else if q = Ir.Intrinsics.nctaid_y then Some (Affine.Nctaid 1)
                    else if q = Ir.Intrinsics.nctaid_z then Some (Affine.Nctaid 2)
                    else None
                  in
                  Option.map Affine.of_atom atom
              | _ -> Some (Affine.of_atom (Affine.Sym r)))
        in
        let a = match a with None -> Some (Affine.of_atom (Affine.Sym r)) | a -> a in
        Hashtbl.replace aff_memo r a;
        a
  and aff_op = function
    | Ir.Imm k -> Option.map Affine.const (imm_int k)
    | Ir.Reg r -> aff_reg r
    | Ir.Glob _ -> None
  in
  let atoms_of (a : Affine.t) =
    List.concat_map (fun (atoms, _) -> atoms) a.Affine.terms
  in
  (* does the affine form's value become known once delta regs are
     pinned? all leaves must be closure-constant, at least one newly *)
  let aff_newly_const ~(ntid_full : bool) a =
    let atoms = atoms_of a in
    let const_in arr ntid = function
      | Affine.Sym r -> arr.(r)
      | Affine.Ntid _ -> ntid
      | _ -> false
    in
    atoms <> []
    && List.for_all (const_in full ntid_full) atoms
    && not (List.for_all (const_in base false) atoms)
  in
  let aff_has_delta a =
    List.exists (function Affine.Sym r -> delta r | _ -> false) (atoms_of a)
  in
  (* ---- instruction sweep ---- *)
  List.iter
    (fun (b : Ir.block) ->
      List.iteri
        (fun k i ->
          match i with
          | Ir.ICall (None, n, _) when n = Ir.Intrinsics.dbg_loc -> ()
          | _ -> (
              (match Ir.def_of i with
              | Some d when delta d ->
                  c.c_folds <- c.c_folds + 1;
                  on_site `Fold b.Ir.label k
              | _ ->
                  if List.exists delta_op (Ir.operands_of i) then begin
                    c.c_uses <- c.c_uses + 1;
                    on_site `Use b.Ir.label k
                  end);
              (* address computations: a GEP whose index gains a
                 constant (uniform) component folds part of the
                 addressing into an immediate offset *)
              (match i with
              | Ir.IGep (d, _, idx) -> (
                  match aff_op idx with
                  | Some a when aff_has_delta a ->
                      c.c_addrs <- c.c_addrs + 1;
                      (* coalescing-aware: a fold feeding a strided or
                         scattered access is worth more than one the
                         hardware coalesces anyway (PerfLint classes) *)
                      c.c_addr_w <- c.c_addr_w +. addr_factor d;
                      on_site `Addr b.Ir.label k
                  | _ -> ())
              | _ -> ());
              (* interprocedural: marginal impact inside callees *)
              match i with
              | Ir.ICall (_, callee, args) -> (
                  match callee_func ctx callee with
                  | Some g ->
                      let mb =
                        List.map
                          (function
                            | Ir.Imm _ -> true
                            | Ir.Glob _ -> false
                            | Ir.Reg r -> base.(r))
                          args
                      in
                      let mf =
                        List.map
                          (function
                            | Ir.Imm _ -> true
                            | Ir.Glob _ -> false
                            | Ir.Reg r -> full.(r))
                          args
                      in
                      if mb <> mf then
                        add_counts c
                          (diff_counts (summarize ctx g mf).sc (summarize ctx g mb).sc)
                  | None -> ())
              | _ -> ()))
        b.Ir.insts;
      match b.Ir.term with
      | Ir.TCondBr (cond, _, _) when delta_op cond ->
          c.c_branches <- c.c_branches + 1;
          on_site `Branch b.Ir.label (-1)
      | _ -> ())
    f.Ir.blocks;
  (* ---- loops made unrollable ---- *)
  (match loops with
  | None -> ()
  | Some (_cfg, li) ->
      List.iter
        (fun (l : Loopinfo.loop) ->
          let hb = Ir.find_block f l.Loopinfo.header in
          let header_phis =
            List.filter_map
              (function Ir.IPhi (d, _) -> Some d | _ -> None)
              hb.Ir.insts
          in
          match hb.Ir.term with
          | Ir.TCondBr (Ir.Reg cr, _, _) -> (
              match Hashtbl.find_opt def_site cr with
              | Some (_, _, Ir.ICmp (_, _, x, y)) ->
                  let is_iv = function
                    | Ir.Reg r -> List.mem r header_phis
                    | _ -> false
                  in
                  let bound =
                    if is_iv x then Some y else if is_iv y then Some x else None
                  in
                  let newly =
                    match bound with
                    | Some bo -> (
                        delta_op bo
                        ||
                        match aff_op bo with
                        | Some a -> aff_newly_const ~ntid_full:false a
                        | None -> false)
                    | None -> false
                  in
                  if newly then begin
                    let body_insts =
                      Util.Sset.fold
                        (fun lbl acc ->
                          acc + List.length (Ir.find_block f lbl).Ir.insts)
                        l.Loopinfo.body 0
                    in
                    c.c_loops <- c.c_loops + 1;
                    c.c_loop_insts <- c.c_loop_insts + body_insts;
                    on_site (`Loop body_insts) l.Loopinfo.header (-1)
                  end
              | _ -> ())
          | _ -> ())
        li.Loopinfo.loops);
  c

(* ------------------------------------------------------------------ *)
(* Scoring and per-kernel driver                                       *)

let score_counts ?(bonus = 0.0) (c : counts) : float =
  (w_fold *. float_of_int c.c_folds)
  +. (w_use *. float_of_int c.c_uses)
  +. (w_branch *. float_of_int c.c_branches)
  +. (w_loop *. float_of_int c.c_loops)
  +. (w_loop_inst *. float_of_int c.c_loop_insts)
  +. (w_addr *. c.c_addr_w)
  +. bonus

let launch_pseudo_name = "<launch-bounds>"

(* dbg.loc positions, per block instruction index (same convention as
   KernelSan: a marker covers everything up to the next marker) *)
let loc_table (f : Ir.func) =
  let locs : (string, (int * int) option array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : Ir.block) ->
      let arr = Array.make (max 1 (List.length b.Ir.insts)) None in
      let cur = ref None in
      List.iteri
        (fun k i ->
          (match i with
          | Ir.ICall (None, cn, [ Ir.Imm l; Ir.Imm col ])
            when cn = Ir.Intrinsics.dbg_loc ->
              cur := Some (Int64.to_int (Konst.as_int l), Int64.to_int (Konst.as_int col))
          | _ -> ());
          if k < Array.length arr then arr.(k) <- !cur)
        b.Ir.insts;
      Hashtbl.replace locs b.Ir.label arr)
    f.Ir.blocks;
  fun block k ->
    match Hashtbl.find_opt locs block with
    | Some arr when k >= 0 && k < Array.length arr -> arr.(k)
    | Some arr when Array.length arr > 0 -> arr.(Array.length arr - 1)
    | _ -> None

let max_provenance = 4

let advise_func ?(threshold = default_threshold) (m : Ir.modul) (f : Ir.func) :
    kernel_impact =
  let t0 = Sys.time () in
  let ctx = { m; summaries = Hashtbl.create 16; in_progress = Hashtbl.create 4 } in
  let cfg = Cfg.build f in
  let dom = Dom.compute cfg in
  let li = Loopinfo.compute cfg dom in
  let u = Uniformity.compute f in
  let loc_at = loc_table f in
  let addr_factor = Perflint.gep_factors m f in
  let base = closure ctx f ~seeds:[] ~ntid_const:false in
  let impact_of ~index ~pname ~ty ~is_ptr ~ntid_const seeds ~bonus ~bonus_note =
    let full = closure ctx f ~seeds ~ntid_const in
    let prov = ref [] and nprov = ref 0 in
    let describe kind =
      match kind with
      | `Fold -> "result becomes a JIT-time constant"
      | `Use -> "use becomes an immediate operand"
      | `Branch -> "branch condition folds; one arm is pruned"
      | `Loop n ->
          Printf.sprintf "loop trip count becomes static (%d-instruction body unrollable)" n
      | `Addr -> "address computation gains a constant component"
    in
    let on_site kind block k =
      if !nprov < max_provenance then begin
        incr nprov;
        prov :=
          Finding.mk
            ?loc:(loc_at block k)
            ~kind:Finding.Spec_impact ~severity:Finding.Info ~func:f.Ir.fname ~block
            (Printf.sprintf "argument %d (%s): %s" index pname (describe kind))
          :: !prov
      end
    in
    let c = count_sites ~addr_factor ctx f ~base ~full ~loops:(Some (cfg, li)) ~on_site in
    (match bonus_note with
    | Some msg when bonus > 0.0 ->
        prov :=
          Finding.mk ~kind:Finding.Spec_impact ~severity:Finding.Info ~func:f.Ir.fname
            ~block:(match f.Ir.blocks with b :: _ -> b.Ir.label | [] -> "")
            msg
          :: !prov
    | _ -> ());
    let score = score_counts ~bonus c in
    {
      index;
      pname;
      ty;
      is_ptr;
      folds = c.c_folds;
      uses = c.c_uses;
      branches = c.c_branches;
      loops = c.c_loops;
      loop_insts = c.c_loop_insts;
      addrs = c.c_addrs;
      score;
      recommended = (not is_ptr) && score >= threshold;
      provenance = List.rev !prov;
    }
  in
  let args =
    List.mapi
      (fun i (pname, r) ->
        let ty = Ir.reg_ty f r in
        impact_of ~index:(i + 1) ~pname ~ty ~is_ptr:(Types.is_ptr ty)
          ~ntid_const:false [ r ] ~bonus:0.0 ~bonus_note:None)
      f.Ir.params
  in
  (* launch-bound pseudo-argument: pinning blockDim folds every ntid
     query and lets the backend budget registers for the real block
     size; the relief scales with live divergent (per-lane) values *)
  let divergent_regs =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 u.Uniformity.divergent
  in
  let lb_bonus =
    if f.Ir.attrs.Ir.launch_bounds = None then
      Float.min 2.0 (float_of_int divergent_regs /. 32.0)
    else 0.0
  in
  let launch =
    impact_of ~index:0 ~pname:launch_pseudo_name ~ty:(Types.TInt 32) ~is_ptr:false
      ~ntid_const:true [] ~bonus:lb_bonus
      ~bonus_note:
        (Some
           (Printf.sprintf
              "launch bounds: pinning blockDim widens the register budget (%d divergent values live)"
              divergent_regs))
  in
  let ranked =
    List.sort
      (fun a b ->
        match compare b.score a.score with 0 -> compare a.index b.index | n -> n)
      (args @ [ launch ])
  in
  {
    kernel = f.Ir.fname;
    nparams = List.length f.Ir.params;
    threshold;
    ranked;
    advise_s = Sys.time () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Module drivers (same normalization discipline as Kernelsan)         *)

(* [m] must already be a Normalize.clone'd module. *)
let advise_normalized ?threshold ?kernels (m : Ir.modul) : kernel_impact list =
  let wanted (f : Ir.func) =
    (not f.Ir.is_decl)
    && f.Ir.blocks <> []
    && f.Ir.kind = Ir.Kernel
    && match kernels with None -> true | Some ks -> List.mem f.Ir.fname ks
  in
  m.Ir.funcs |> List.filter wanted |> List.map (advise_func ?threshold m)

let advise_module ?threshold ?kernels (m : Ir.modul) : kernel_impact list =
  advise_normalized ?threshold ?kernels (Normalize.clone m)

(* One function by name regardless of fkind: the JIT operates on
   extracted single-kernel modules whose kinds the bitcode round-trip
   may not preserve. *)
let advise_kernel ?threshold (m : Ir.modul) (sym : string) : kernel_impact option =
  let m = Normalize.clone m in
  match Ir.find_func_opt m sym with
  | Some f when (not f.Ir.is_decl) && f.Ir.blocks <> [] ->
      Some (advise_func ?threshold m f)
  | _ -> None

(* Specialization-worthy argument indices (1-based, ascending); the
   input to annotation rewriting and the advise JIT policy. *)
let recommended_args (k : kernel_impact) : int list =
  List.filter_map
    (fun a -> if a.index > 0 && a.recommended then Some a.index else None)
    k.ranked
  |> List.sort compare

let launch_recommended (k : kernel_impact) : bool =
  List.exists (fun a -> a.index = 0 && a.recommended) k.ranked

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

(* Stable, advise_s-free rendering: equal signatures mean equal
   reports (the fuzz determinism oracle compares these). *)
let signature (k : kernel_impact) : string =
  let arg a =
    Printf.sprintf "%d:%s:%d/%d/%d/%d/%d/%d:%.3f:%b" a.index a.pname a.folds a.uses
      a.branches a.loops a.loop_insts a.addrs a.score a.recommended
  in
  Printf.sprintf "%s(%d)@%.3f[%s]" k.kernel k.nparams k.threshold
    (String.concat ";" (List.map arg k.ranked))

let to_string ?(file = "<source>") (k : kernel_impact) : string =
  let b = Buffer.create 256 in
  let rec_ = recommended_args k in
  Buffer.add_string b
    (Printf.sprintf "%s: kernel %s: specialize [%s]%s (threshold %g)\n" file k.kernel
       (String.concat ", " (List.map string_of_int rec_))
       (if launch_recommended k then " + launch-bounds" else "")
       k.threshold);
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf
           "  %-16s #%-3d %-10s score %6.2f  folds=%d uses=%d branches=%d loops=%d(%d) addrs=%d%s\n"
           a.pname a.index (Types.to_string a.ty) a.score a.folds a.uses a.branches
           a.loops a.loop_insts a.addrs
           (if a.recommended then "  [specialize]"
            else if a.is_ptr then "  [pointer: never keyed]"
            else "  [below threshold]")))
    k.ranked;
  List.iter
    (fun a ->
      List.iter
        (fun fd -> Buffer.add_string b ("    " ^ Finding.to_string ~file fd ^ "\n"))
        a.provenance)
    k.ranked;
  Buffer.contents b

let json_of_arg (a : arg_impact) : Json.t =
  Json.(
    Obj
      [
        ("index", int a.index);
        ("name", Str a.pname);
        ("type", Str (Types.to_string a.ty));
        ("ptr", Bool a.is_ptr);
        ("folds", int a.folds);
        ("uses", int a.uses);
        ("branches", int a.branches);
        ("loops", int a.loops);
        ("loop_insts", int a.loop_insts);
        ("addrs", int a.addrs);
        ("score", Num a.score);
        ("recommended", Bool a.recommended);
      ])

let json_of_kernel ~(program : string) (k : kernel_impact) : Json.t =
  Json.(
    Obj
      [
        ("program", Str program);
        ("kernel", Str k.kernel);
        ("nparams", int k.nparams);
        ("threshold", Num k.threshold);
        ("advise_ms", Num (k.advise_s *. 1e3));
        ("recommended", Arr (List.map int (recommended_args k)));
        ("launch_bounds", Bool (launch_recommended k));
        ("args", Arr (List.map json_of_arg k.ranked));
      ])

(* JSON array over (program, reports) pairs, the report
   `proteus advise --format machine` prints. *)
let json_of_programs (progs : (string * kernel_impact list) list) : Json.t =
  Json.Arr
    (List.concat_map (fun (p, ks) -> List.map (json_of_kernel ~program:p) ks) progs)

(* ------------------------------------------------------------------ *)
(* Calibration hook: measure what the optimizer actually folded.       *)

(* Run the O3 pipeline on [m] (typically a specialized clone) and
   return its stats, whose SCCP/unroll counts are the measured twin of
   the static prediction. *)
let measure_o3 (m : Ir.modul) : Proteus_opt.Pass.stats = Proteus_opt.Pipeline.optimize_o3 m
