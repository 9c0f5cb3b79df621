(* IR verifier: structural and type invariants. Raises [Invalid] with a
   list of diagnostics so tests can assert on specific failures. *)

open Proteus_support

exception Invalid of string list

let verify_func (m : Ir.modul) (f : Ir.func) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := (f.fname ^ ": " ^ s) :: !errs) fmt in
  if (not f.is_decl) && f.blocks = [] then err "defined function has no blocks";
  (* The graph indexes each label once, so a repeated label leaves fewer
     entries than blocks. *)
  let cfg = Cfg.build f in
  let labels_unique = Util.Stbl.length cfg.index = Array.length cfg.blocks in
  if not labels_unique then err "duplicate block labels";
  let check_label where l =
    if not (Util.Stbl.mem cfg.index l) then err "%s: unknown block %%%s" where l
  in
  let defined = Array.make (Ir.nregs f) false in
  List.iter (fun (_, r) -> defined.(r) <- true) f.params;
  (* First pass: collect definitions, detect redefinitions. *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun i ->
          match Ir.def_of i with
          | Some d ->
              if d < 0 || d >= Ir.nregs f then err "def of out-of-range register r%d" d
              else if defined.(d) then err "register r%d defined twice" d
              else defined.(d) <- true
          | None -> ())
        b.insts)
    f.blocks;
  let check_operand where o =
    match o with
    | Ir.Reg r ->
        if r < 0 || r >= Ir.nregs f then err "%s: out-of-range register r%d" where r
        else if not defined.(r) then err "%s: use of undefined register r%d" where r
    | Ir.Glob g ->
        if Ir.find_global_opt m g = None && Ir.find_func_opt m g = None then
          err "%s: unknown global @%s" where g
    | Ir.Imm _ -> ()
  in
  let expect_ty where want got =
    if not (Types.equal want got) then
      err "%s: expected %s, got %s" where (Types.to_string want) (Types.to_string got)
  in
  let oty o = Ir.operand_ty m f o in
  List.iter
    (fun (b : Ir.block) ->
      let seen_nonphi = ref false in
      List.iter
        (fun i ->
          (match i with
          | Ir.IPhi _ -> if !seen_nonphi then err "%s: phi after non-phi" b.label
          | _ -> seen_nonphi := true);
          Ir.iter_operands (check_operand b.label) i;
          match i with
          | Ir.IBin (d, op, x, y) ->
              let dt = Ir.reg_ty f d in
              if Ops.is_float_binop op && not (Types.is_float dt) then
                err "%s: float binop on %s" b.label (Types.to_string dt);
              if (not (Ops.is_float_binop op)) && not (Types.is_int dt) then
                err "%s: int binop on %s" b.label (Types.to_string dt);
              expect_ty b.label dt (oty x);
              expect_ty b.label dt (oty y)
          | Ir.ICmp (d, _, x, y) ->
              expect_ty b.label Types.TBool (Ir.reg_ty f d);
              expect_ty b.label (oty x) (oty y)
          | Ir.ISelect (d, c, x, y) ->
              expect_ty b.label Types.TBool (oty c);
              expect_ty b.label (Ir.reg_ty f d) (oty x);
              expect_ty b.label (Ir.reg_ty f d) (oty y)
          | Ir.ICast (_, _, _) -> ()
          | Ir.ILoad (d, p) -> (
              match oty p with
              | Types.TPtr (t, _) -> expect_ty b.label (Ir.reg_ty f d) t
              | t -> err "%s: load from non-pointer %s" b.label (Types.to_string t))
          | Ir.IStore (v, p) -> (
              match oty p with
              | Types.TPtr (t, _) -> expect_ty b.label t (oty v)
              | t -> err "%s: store to non-pointer %s" b.label (Types.to_string t))
          | Ir.IGep (d, p, idx) ->
              if not (Types.is_ptr (oty p)) then err "%s: gep on non-pointer" b.label;
              if not (Types.is_int (oty idx)) then err "%s: gep index not integer" b.label;
              if not (Types.is_ptr (Ir.reg_ty f d)) then
                err "%s: gep result not pointer" b.label
          | Ir.ICall (_, callee, _) ->
              if
                (not (Ir.Intrinsics.is_intrinsic callee))
                && Ir.find_func_opt m callee = None
              then err "%s: call to unknown function @%s" b.label callee
          | Ir.IPhi (d, incoming) ->
              if incoming = [] then err "%s: empty phi" b.label;
              List.iter
                (fun (l, v) ->
                  check_label (b.label ^ " phi") l;
                  match v with
                  | Ir.Reg r when r < Ir.nregs f ->
                      expect_ty b.label (Ir.reg_ty f d) (Ir.reg_ty f r)
                  | Ir.Imm k -> expect_ty b.label (Ir.reg_ty f d) (Konst.ty_of k)
                  | _ -> ())
                incoming
          | Ir.IAlloca (_, _, n) -> if n <= 0 then err "%s: alloca of %d" b.label n)
        b.insts;
      (match b.term with
      | Ir.TBr l -> check_label b.label l
      | Ir.TCondBr (c, t, e) ->
          check_operand b.label c;
          expect_ty b.label Types.TBool (oty c);
          check_label b.label t;
          check_label b.label e
      | Ir.TRet None ->
          if not (Types.equal f.ret Types.TVoid) then err "%s: ret void from non-void" b.label
      | Ir.TRet (Some v) ->
          check_operand b.label v;
          expect_ty b.label f.ret (oty v)
      | Ir.TUnreachable -> ()))
    f.blocks;
  (* SSA structure over the reachable CFG: phi incoming edges must match
     the actual predecessors one-for-one, and every use must be
     dominated by its definition. These are exactly the invariants a
     buggy specializer or optimizer breaks first, so the JIT verify
     gate leans on them. Skipped when labels are broken (no sane CFG)
     and for unreachable blocks (dominance is undefined there). *)
  if (not f.is_decl) && f.blocks <> [] && labels_unique then begin
    let dom = Dom.compute cfg in
    let nregs = Ir.nregs f in
    (* First definition site of each register: block [def_block.(r)]
       (-1 for none), instruction [def_idx.(r)]; parameters are defined
       "before" the entry block. *)
    let def_block = Array.make nregs (-1) and def_idx = Array.make nregs 0 in
    List.iter
      (fun (_, r) ->
        if r >= 0 && r < nregs && def_block.(r) < 0 then begin
          def_block.(r) <- 0;
          def_idx.(r) <- -1
        end)
      f.params;
    Array.iteri
      (fun bi (b : Ir.block) ->
        List.iteri
          (fun k i ->
            match Ir.def_of i with
            | Some d when d >= 0 && d < nregs && def_block.(d) < 0 ->
                def_block.(d) <- bi;
                def_idx.(d) <- k
            | _ -> ())
          b.insts)
      cfg.blocks;
    (* undefined and out-of-range registers are reported above *)
    let dominates_use ~use_block ~use_idx r =
      r < 0 || r >= nregs
      ||
      let db = def_block.(r) in
      db < 0 || if db = use_block then def_idx.(r) < use_idx else Dom.dominates dom db use_block
    in
    let check_dominance b k where operands =
      List.iter
        (fun o ->
          match o with
          | Ir.Reg r when not (dominates_use ~use_block:b ~use_idx:k r) ->
              err "%s: use of r%d is not dominated by its definition" where r
          | _ -> ())
        operands
    in
    (* [pred_mark.(p) = bi]: p is a reachable predecessor of block bi;
       [inc_mark.(p) = stamp]: the phi being checked has an incoming
       value from p *)
    let nb = Array.length cfg.blocks in
    let pred_mark = Array.make nb (-1) and inc_mark = Array.make nb (-1) in
    let stamp = ref 0 in
    Array.iteri
      (fun bi (b : Ir.block) ->
        if cfg.reachable.(bi) then begin
          let preds = List.filter (Array.get cfg.reachable) cfg.pred.(bi) in
          List.iter (fun p -> pred_mark.(p) <- bi) preds;
          let is_pred l =
            match Cfg.index_opt cfg l with Some p -> pred_mark.(p) = bi | None -> false
          in
          List.iteri
            (fun k i ->
              match i with
              | Ir.IPhi (_, incoming) ->
                  incr stamp;
                  let dup = ref false and unknown = ref [] in
                  List.iter
                    (fun (l, _) ->
                      let seen =
                        match Cfg.index_opt cfg l with
                        | Some p ->
                            let seen = inc_mark.(p) = !stamp in
                            inc_mark.(p) <- !stamp;
                            seen
                        | None ->
                            let seen = List.mem l !unknown in
                            unknown := l :: !unknown;
                            seen
                      in
                      if seen then dup := true)
                    incoming;
                  if !dup then err "%s: phi has duplicate incoming labels" b.label;
                  (* reported in label order *)
                  if List.exists (fun (l, _) -> not (is_pred l)) incoming then
                    List.iter
                      (fun l ->
                        if not (is_pred l) then
                          err "%s: phi incoming from non-predecessor %%%s" b.label l)
                      (List.sort_uniq String.compare (List.map fst incoming));
                  let missing p = inc_mark.(p) <> !stamp in
                  if List.exists missing preds then
                    List.iter
                      (fun l ->
                        if missing (Cfg.index cfg l) then
                          err "%s: phi is missing an incoming value for predecessor %%%s"
                            b.label l)
                      (List.sort String.compare (List.map (Cfg.label cfg) preds));
                  (* A phi value must be available at the end of its
                     incoming edge, not at the phi itself. *)
                  List.iter
                    (fun (l, v) ->
                      match v with
                      | Ir.Reg r
                        when is_pred l
                             && not
                                  (dominates_use ~use_block:(Cfg.index cfg l)
                                     ~use_idx:max_int r) ->
                          err
                            "%s: phi value r%d does not dominate incoming edge \
                             from %%%s"
                            b.label r l
                      | _ -> ())
                    incoming
              | _ -> check_dominance bi k b.label (Ir.operands_of i))
            b.insts;
          check_dominance bi (List.length b.insts) b.label (Ir.term_operands b.term)
        end)
      cfg.blocks
  end;
  !errs

let verify_module (m : Ir.modul) =
  let errs = List.concat_map (fun f -> verify_func m f) m.funcs in
  let errs =
    errs
    @ List.filter_map
        (fun (a : Ir.annotation) ->
          if Ir.find_func_opt m a.afunc = None then
            Some (Printf.sprintf "annotation references unknown function @%s" a.afunc)
          else None)
        m.annotations
  in
  if errs <> [] then raise (Invalid (List.rev errs))

let check m =
  match verify_module m with
  | () -> Ok ()
  | exception Invalid errs -> Error errs
