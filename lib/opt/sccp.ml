(* Sparse conditional constant propagation (Wegman-Zadeck): a combined
   reachability + constant lattice fixpoint. This is the pass that turns
   Proteus's runtime-constant folding of kernel arguments into dead
   branch elimination and known trip counts. *)

open Proteus_ir

type lat = Top | Const of Konst.t | Bottom

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Const x, Const y -> if Konst.equal x y then Const x else Bottom

(* [meet] only ever lowers a value, so a change is a drop in height *)
let height = function Top -> 2 | Const _ -> 1 | Bottom -> 0

let operand_lat lat = function
  | Ir.Imm k -> Const k
  | Ir.Glob _ -> Bottom (* addresses are runtime values *)
  | Ir.Reg r -> lat.(r)

(* [fn] over two operands' values: a constant when both are, Bottom
   when folding raises. *)
let fold2 lat fn x y =
  match (operand_lat lat x, operand_lat lat y) with
  | Const kx, Const ky -> ( match fn kx ky with k -> Const k | exception _ -> Bottom)
  | Bottom, _ | _, Bottom -> Bottom
  | _ -> Top

(* The value [i] defines under [lat]; Top while nothing is known. A phi
   meets the inputs whose predecessor label [exec_from] accepts, i.e.
   those arriving over an executable edge. *)
let eval_instr (f : Ir.func) lat exec_from (i : Ir.instr) : lat =
  match i with
  | Ir.IBin (_, op, x, y) -> fold2 lat (Konst.binop op) x y
  | Ir.ICmp (_, op, x, y) -> fold2 lat (Konst.cmpop op) x y
  | Ir.ISelect (_, c, x, y) -> (
      match operand_lat lat c with
      | Const k -> operand_lat lat (if Konst.as_bool k then x else y)
      | Bottom -> meet (operand_lat lat x) (operand_lat lat y)
      | Top -> Top)
  | Ir.ICast (d, op, x) -> (
      match operand_lat lat x with
      | Const k -> (
          match Konst.cast op k (Ir.reg_ty f d) with
          | k' ->
              (* do not fold type-changing (pointer) bitcasts *)
              if Types.equal (Konst.ty_of k') (Ir.reg_ty f d) then Const k' else Bottom
          | exception _ -> Bottom)
      | v -> v)
  | Ir.ILoad _ | Ir.IGep _ | Ir.IAlloca _ -> Bottom
  | Ir.ICall (Some _, callee, args) when Ir.Intrinsics.is_math callee -> (
      let lats = List.map (operand_lat lat) args in
      if List.exists (( = ) Bottom) lats then Bottom
      else if List.for_all (function Const _ -> true | _ -> false) lats then
        let vals = List.map (function Const k -> k | _ -> assert false) lats in
        match Interp.eval_math callee vals with k -> Const k | exception _ -> Bottom
      else Top)
  | Ir.ICall (Some _, _, _) -> Bottom
  | Ir.ICall (None, _, _) | Ir.IStore _ -> Top
  | Ir.IPhi (_, incoming) ->
      List.fold_left
        (fun acc (l, o) -> if exec_from l then meet acc (operand_lat lat o) else acc)
        Top incoming

(* The successor labels a terminator can take under [lat]. *)
let feasible_succs lat = function
  | Ir.TBr l -> [ l ]
  | Ir.TCondBr (c, t, e) -> (
      match operand_lat lat c with
      | Const k -> [ (if Konst.as_bool k then t else e) ]
      | Bottom -> [ t; e ]
      | Top -> [])
  | Ir.TRet _ | Ir.TUnreachable -> []

(* The fixpoint, solved one instruction at a time: the lattice value of
   every register, and which of [f.blocks] (by position) are executable.
   Blocks are Cfg indices; block b's k-th successor edge has id 2b + k; each
   instruction and terminator has an id, and [users.(r)] lists the ids
   reading r. A lowered register re-queues only its readers in executable
   blocks that are not queued yet; a new edge into an executable block
   re-evaluates only its phis. A register is lowered at most twice and an
   edge marked once: the work is linear in operands plus edges x phis. *)
let solve (f : Ir.func) : lat array * bool array =
  let cfg = Cfg.build f in
  let blocks = cfg.blocks in
  let nb = Array.length blocks in
  (* the id of edge p -> s, or -1 when s is no successor of p *)
  let edge_id p s =
    let rec go k = function
      | [] -> -1
      | x :: rest -> if x = s then (2 * p) + k else go (k + 1) rest
    in
    go 0 cfg.succ.(p)
  in
  (* block b's instructions have ids first_id.(b) .. first_id.(b + 1) - 2,
     its terminator first_id.(b + 1) - 1; [code.(id)] is None for it *)
  let first_id = Array.make (nb + 1) 0 in
  Array.iteri
    (fun b (blk : Ir.block) -> first_id.(b + 1) <- first_id.(b) + List.length blk.Ir.insts + 1)
    blocks;
  let n = first_id.(nb) in
  let code = Array.make n None and owner = Array.make n 0 and phis = Array.make nb [] in
  let users = Array.make (Ir.nregs f) [] in
  (* the id of the instruction whose operands are being read *)
  let reader = ref 0 in
  let add_user = function
    | Ir.Reg r -> (
        let id = !reader in
        match users.(r) with u :: _ when u = id -> () | us -> users.(r) <- id :: us)
    | _ -> ()
  in
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iteri
        (fun k i ->
          let id = first_id.(b) + k in
          code.(id) <- Some i;
          owner.(id) <- b;
          (match i with Ir.IPhi _ -> phis.(b) <- id :: phis.(b) | _ -> ());
          reader := id;
          Ir.iter_operands add_user i)
        blk.Ir.insts;
      owner.(first_id.(b + 1) - 1) <- b;
      reader := first_id.(b + 1) - 1;
      List.iter add_user (Ir.term_operands blk.Ir.term))
    blocks;
  let lat = Array.make (Ir.nregs f) Top in
  List.iter (fun (_, r) -> lat.(r) <- Bottom) f.Ir.params; (* parameters are runtime values *)
  let edge_exec = Array.make (2 * nb) false and block_exec = Array.make nb false in
  let queued = Array.make n false and flow_work = ref [] and ssa_work = ref [] in
  let rec requeue = function
    | [] -> ()
    | id :: rest ->
        if block_exec.(owner.(id)) && not queued.(id) then begin
          queued.(id) <- true;
          ssa_work := id :: !ssa_work
        end;
        requeue rest
  in
  let lower r v =
    let nv = meet lat.(r) v in
    if height nv < height lat.(r) then begin
      lat.(r) <- nv;
      requeue users.(r)
    end
  in
  (* [exec_from.(b) l]: is the edge from the block labelled l into b
     executable? One closure per block, made once. *)
  let exec_from =
    Array.init nb (fun b l ->
        match Cfg.index_opt cfg l with
        | Some p ->
            let e = edge_id p b in
            e >= 0 && edge_exec.(e)
        | None -> false)
  in
  let mark_edge b s =
    let e = edge_id b s in
    if not edge_exec.(e) then begin
      edge_exec.(e) <- true;
      flow_work := s :: !flow_work
    end
  in
  let eval id =
    let b = owner.(id) in
    match code.(id) with
    | Some i -> (
        match Ir.def_of i with
        | Some d -> lower d (eval_instr f lat exec_from.(b) i)
        | None -> ())
    | None -> (
        match blocks.(b).Ir.term with
        | Ir.TBr l -> mark_edge b (Cfg.index cfg l)
        | term -> List.iter (fun l -> mark_edge b (Cfg.index cfg l)) (feasible_succs lat term))
  in
  if nb > 0 then flow_work := [ 0 ];
  let rec loop () =
    match (!flow_work, !ssa_work) with
    | b :: rest, _ ->
        flow_work := rest;
        if block_exec.(b) then List.iter eval phis.(b)
        else begin
          block_exec.(b) <- true;
          (* the sweep is about to evaluate every id of b: marked
             queued, a reader below a lowered register is not queued
             a second time *)
          Array.fill queued first_id.(b) (first_id.(b + 1) - first_id.(b)) true;
          for id = first_id.(b) to first_id.(b + 1) - 1 do
            queued.(id) <- false;
            eval id
          done
        end;
        loop ()
    | [], id :: rest ->
        ssa_work := rest;
        queued.(id) <- false;
        eval id;
        loop ()
    | [], [] -> (lat, block_exec)
  in
  loop ()

let is_const = function Const _ -> true | Top | Bottom -> false

let run (stats : Pass.stats) (_m : Ir.modul) (f : Ir.func) : bool =
  let lat, exec = solve f in
  (* Apply results: substitute constants, fold proven branches. With no
     constant register there is nothing to substitute or delete. *)
  let rewrites = Array.exists is_const lat in
  let changed = ref false in
  (* one-sided branches, counted only if the run changes something:
     a clean run adds nothing to [stats] (Pass.t), and one whose
     condition is already an immediate changes nothing *)
  let branches = ref 0 in
  let rewrite = function
    | Ir.Reg r as o -> ( match lat.(r) with Const k -> changed := true; Ir.Imm k | _ -> o)
    | o -> o
  in
  List.iteri
    (fun b (blk : Ir.block) ->
      if exec.(b) then begin
        (* account proven branches before fold_const_branches rewrites them *)
        (match blk.Ir.term with
        | Ir.TCondBr _ -> (
            match feasible_succs lat blk.Ir.term with [ _ ] -> incr branches | _ -> ())
        | _ -> ());
        if rewrites then begin
          blk.Ir.insts <-
            List.filter
              (fun i ->
                match Ir.def_of i with
                | Some d when is_const lat.(d) ->
                    changed := true;
                    stats.Pass.sccp_folds <- stats.Pass.sccp_folds + 1;
                    false
                | _ -> true)
              blk.Ir.insts;
          blk.Ir.insts <- List.map (Ir.map_operands rewrite) blk.Ir.insts;
          blk.Ir.term <- Ir.map_term_operands rewrite blk.Ir.term
        end
      end)
    f.Ir.blocks;
  if !changed then begin
    stats.Pass.sccp_branches <- stats.Pass.sccp_branches + !branches;
    ignore (Simplifycfg.fold_const_branches f);
    ignore (Cfg.remove_unreachable f)
  end;
  !changed

let pass = { Pass.name = "sccp"; run }
