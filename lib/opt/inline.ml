(* Function inlining. Device functions are always inlined into their
   callers (GPU toolchains do the same: there is no call stack worth
   speaking of on the device). Recursion is left alone. *)

open Proteus_support
open Proteus_ir

(* Clone callee body into caller at a call site. Returns the label of
   the entry clone and the operand holding the return value. *)
let splice_body (caller : Ir.func) (callee : Ir.func) (args : Ir.operand list)
    (cont_label : string) : string * Ir.operand option =
  let reg_map = Array.make (Ir.nregs callee) (-1) in
  let map_reg r =
    if reg_map.(r) = -1 then reg_map.(r) <- Ir.fresh_reg caller (Ir.reg_ty callee r);
    reg_map.(r)
  in
  (* Bind parameters: fresh regs would do, but mapping straight to the
     argument operands avoids copies. *)
  let param_ops = Hashtbl.create 8 in
  List.iter2 (fun (_, pr) a -> Hashtbl.replace param_ops pr a) callee.Ir.params args;
  let map_op = function
    | Ir.Reg r -> (
        match Hashtbl.find_opt param_ops r with Some a -> a | None -> Ir.Reg (map_reg r))
    | o -> o
  in
  let uid = Ir.nregs caller in
  let map_label l = Printf.sprintf "%s.inl%d.%s" callee.Ir.fname uid l in
  let ret_sites = ref [] in
  let clones =
    List.map
      (fun (b : Ir.block) ->
        let insts =
          List.map
            (fun i ->
              let i =
                match i with
                | Ir.IPhi (d, inc) ->
                    Ir.IPhi (map_reg d, List.map (fun (l, v) -> (map_label l, map_op v)) inc)
                | _ -> (
                    let i = Ir.map_operands map_op i in
                    match Ir.def_of i with
                    | Some d -> (
                        let nd = map_reg d in
                        match i with
                        | Ir.IBin (_, op, a, b2) -> Ir.IBin (nd, op, a, b2)
                        | Ir.ICmp (_, op, a, b2) -> Ir.ICmp (nd, op, a, b2)
                        | Ir.ISelect (_, c, a, b2) -> Ir.ISelect (nd, c, a, b2)
                        | Ir.ICast (_, op, a) -> Ir.ICast (nd, op, a)
                        | Ir.ILoad (_, p) -> Ir.ILoad (nd, p)
                        | Ir.IGep (_, p, idx) -> Ir.IGep (nd, p, idx)
                        | Ir.ICall (_, callee, cargs) -> Ir.ICall (Some nd, callee, cargs)
                        | Ir.IAlloca (_, ty, n) -> Ir.IAlloca (nd, ty, n)
                        | Ir.IPhi _ | Ir.IStore _ -> i)
                    | None -> i)
              in
              i)
            b.Ir.insts
        in
        let label = map_label b.Ir.label in
        let term =
          match b.Ir.term with
          | Ir.TBr l -> Ir.TBr (map_label l)
          | Ir.TCondBr (c, t, e) -> Ir.TCondBr (map_op c, map_label t, map_label e)
          | Ir.TRet v ->
              ret_sites := (label, Option.map map_op v) :: !ret_sites;
              Ir.TBr cont_label
          | Ir.TUnreachable -> Ir.TUnreachable
        in
        { Ir.label; insts; term })
      callee.Ir.blocks
  in
  caller.Ir.blocks <- caller.Ir.blocks @ clones;
  let entry_label = map_label (List.hd callee.Ir.blocks).Ir.label in
  let ret_op =
    if Types.equal callee.Ir.ret Types.TVoid then None
    else
      match !ret_sites with
      | [] -> None
      | [ (_, v) ] -> v
      | sites ->
          let d = Ir.fresh_reg caller callee.Ir.ret in
          let cont = Ir.find_block caller cont_label in
          let incoming =
            List.map
              (fun (l, v) -> (l, Option.value v ~default:(Ir.Imm (Konst.zero callee.Ir.ret))))
              sites
          in
          cont.Ir.insts <- Ir.IPhi (d, incoming) :: cont.Ir.insts;
          Some (Ir.Reg d)
  in
  (entry_label, ret_op)

(* Reachability in the call graph, to refuse recursive inlining. *)
let calls_reach (m : Ir.modul) (from_ : string) (target : string) : bool =
  let seen = ref Util.Sset.empty in
  let rec go name =
    if Util.Sset.mem name !seen then false
    else begin
      seen := Util.Sset.add name !seen;
      match Ir.find_func_opt m name with
      | Some f when not f.Ir.is_decl ->
          let callees = ref [] in
          Ir.iter_instrs f (fun i ->
              match i with Ir.ICall (_, c, _) -> callees := c :: !callees | _ -> ());
          List.exists (fun c -> c = target || go c) !callees
      | _ -> false
    end
  in
  go from_

let inline_one_call (m : Ir.modul) (f : Ir.func) : bool =
  (* Find the first call to a defined, non-recursive device function. *)
  let site = ref None in
  List.iter
    (fun (b : Ir.block) ->
      if !site = None then
        List.iteri
          (fun idx i ->
            if !site = None then
              match i with
              | Ir.ICall (d, callee, args) when not (Ir.Intrinsics.is_intrinsic callee) -> (
                  match Ir.find_func_opt m callee with
                  | Some g when (not g.Ir.is_decl) && g.Ir.kind = Ir.Device
                                && g.Ir.fname <> f.Ir.fname
                                && not (calls_reach m g.Ir.fname g.Ir.fname) ->
                      site := Some (b, idx, d, g, args)
                  | _ -> ())
              | _ -> ())
          b.Ir.insts)
    f.Ir.blocks;
  match !site with
  | None -> false
  | Some (b, idx, dst, callee, args) ->
      (* Split the block at the call. *)
      let before = List.filteri (fun i _ -> i < idx) b.Ir.insts in
      let after = List.filteri (fun i _ -> i > idx) b.Ir.insts in
      let cont_label = b.Ir.label ^ ".cont" ^ string_of_int (Ir.nregs f) in
      let cont = { Ir.label = cont_label; insts = after; term = b.Ir.term } in
      f.Ir.blocks <- f.Ir.blocks @ [ cont ];
      (* Successor phis referring to b now come from cont (the block
         that carries b's old terminator). *)
      Ir.retarget_phis f ~from_label:b.Ir.label ~to_label:cont_label;
      let entry_label, ret_op = splice_body f callee args cont_label in
      b.Ir.insts <- before;
      b.Ir.term <- Ir.TBr entry_label;
      (match (dst, ret_op) with
      | Some d, Some v -> Ir.replace_uses f d v
      | Some d, None -> Ir.replace_uses f d (Ir.Imm (Konst.zero (Ir.reg_ty f d)))
      | None, _ -> ());
      true

let run (m : Ir.modul) (f : Ir.func) : bool =
  let changed = ref false in
  let guard = ref 0 in
  while inline_one_call m f && !guard < 200 do
    incr guard;
    changed := true
  done;
  !changed

let pass = { Pass.name = "inline"; run = (fun _ -> run) }
