(* SSA construction: promotes single-slot allocas whose address never
   escapes into SSA registers, inserting phis at iterated dominance
   frontiers and renaming along the dominator tree (the classic
   Cytron et al. construction). *)

open Proteus_support
open Proteus_ir

(* A promotable alloca: one element, and every use is a direct load or
   the pointer operand of a store. *)
let promotable_allocas (f : Ir.func) : (int * Types.ty) list =
  let candidates = ref [] in
  Ir.iter_instrs f (fun i ->
      match i with
      | Ir.IAlloca (d, ty, 1) -> candidates := (d, ty) :: !candidates
      | _ -> ());
  match !candidates with
  | [] -> []
  | candidates ->
      let disqualified = ref Util.Iset.empty in
      let dq r = disqualified := Util.Iset.add r !disqualified in
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun i ->
              match i with
              | Ir.ILoad (_, Ir.Reg _) -> ()
              | Ir.IStore (v, Ir.Reg _) -> (
                  (* storing the alloca's own address escapes it *)
                  match v with Ir.Reg r -> dq r | _ -> ())
              | _ -> Ir.iter_operands (function Ir.Reg r -> dq r | _ -> ()) i)
            b.Ir.insts;
          List.iter (function Ir.Reg r -> dq r | _ -> ()) (Ir.term_operands b.Ir.term))
        f.Ir.blocks;
      List.filter (fun (d, _) -> not (Util.Iset.mem d !disqualified)) candidates

let run (_m : Ir.modul) (f : Ir.func) : bool =
  let cfg = Cfg.prune f in
  let allocas = promotable_allocas f in
  if allocas = [] then false
  else begin
    let dom = Dom.compute cfg in
    let alloca_set =
      List.fold_left (fun s (d, _) -> Util.Iset.add d s) Util.Iset.empty allocas
    in
    let ty_of = List.fold_left (fun m (d, t) -> Util.Imap.add d t m) Util.Imap.empty allocas in
    (* Blocks containing a store to each alloca. *)
    let def_blocks : (int, int list) Hashtbl.t = Hashtbl.create 8 in
    Array.iteri
      (fun bi (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.IStore (_, Ir.Reg a) when Util.Iset.mem a alloca_set -> (
                match Hashtbl.find_opt def_blocks a with
                | Some (x :: _) when x = bi -> ()
                | cur -> Hashtbl.replace def_blocks a (bi :: Option.value cur ~default:[]))
            | _ -> ())
          b.Ir.insts)
      cfg.blocks;
    (* Iterated dominance frontier phi placement. The worklist starts in
       label order, as the frontiers are listed: the order of placement
       numbers the phis' registers. *)
    let phi_alloca : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let by_label x y = compare (Cfg.label cfg x) (Cfg.label cfg y) in
    (* [placed.(b) = a] once block b has alloca a's phi *)
    let placed = Array.make (Array.length cfg.blocks) (-1) in
    List.iter
      (fun (a, ty) ->
        let work =
          ref (List.sort by_label (Option.value (Hashtbl.find_opt def_blocks a) ~default:[]))
        in
        while !work <> [] do
          let b = List.hd !work in
          work := List.tl !work;
          List.iter
            (fun df ->
              if placed.(df) <> a then begin
                placed.(df) <- a;
                let d = Ir.fresh_reg f ty in
                Hashtbl.replace phi_alloca d a;
                let blk = cfg.blocks.(df) in
                blk.Ir.insts <- Ir.IPhi (d, []) :: blk.Ir.insts;
                work := df :: !work
              end)
            (Dom.frontier dom b)
        done)
      allocas;
    (* Renaming walk over the dominator tree. *)
    let repl : (int, Ir.operand) Hashtbl.t = Hashtbl.create 16 in
    let rec resolve o =
      match o with
      | Ir.Reg r -> (
          match Hashtbl.find_opt repl r with Some v -> resolve v | None -> o)
      | _ -> o
    in
    let default_val a = Ir.Imm (Konst.zero (Util.Imap.find a ty_of)) in
    let rec rename bi (cur : Ir.operand Util.Imap.t) =
      let b = cfg.blocks.(bi) in
      let cur = ref cur in
      (* Inserted phis define the current value on entry. *)
      List.iter
        (fun i ->
          match i with
          | Ir.IPhi (d, _) -> (
              match Hashtbl.find_opt phi_alloca d with
              | Some a -> cur := Util.Imap.add a (Ir.Reg d) !cur
              | None -> ())
          | _ -> ())
        b.Ir.insts;
      b.Ir.insts <-
        List.filter
          (fun i ->
            match i with
            | Ir.ILoad (d, Ir.Reg a) when Util.Iset.mem a alloca_set ->
                let v =
                  match Util.Imap.find_opt a !cur with
                  | Some v -> resolve v
                  | None -> default_val a
                in
                Hashtbl.replace repl d v;
                false
            | Ir.IStore (v, Ir.Reg a) when Util.Iset.mem a alloca_set ->
                cur := Util.Imap.add a (resolve v) !cur;
                false
            | Ir.IAlloca (d, _, _) when Util.Iset.mem d alloca_set -> false
            | _ -> true)
          b.Ir.insts;
      (* Fill our slice of each successor's phis. *)
      List.iter
        (fun s ->
          let sb = cfg.blocks.(s) in
          sb.Ir.insts <-
            List.map
              (fun i ->
                match i with
                | Ir.IPhi (d, inc) -> (
                    match Hashtbl.find_opt phi_alloca d with
                    | Some a ->
                        let v =
                          match Util.Imap.find_opt a !cur with
                          | Some v -> resolve v
                          | None -> default_val a
                        in
                        Ir.IPhi (d, inc @ [ (b.Ir.label, v) ])
                    | None -> i)
                | i -> i)
              sb.Ir.insts)
        cfg.succ.(bi);
      List.iter (fun c -> rename c !cur) (Dom.children dom bi)
    in
    rename 0 Util.Imap.empty;
    (* Rewrite remaining uses of deleted loads. *)
    List.iter
      (fun (b : Ir.block) ->
        b.Ir.insts <- List.map (Ir.map_operands resolve) b.Ir.insts;
        b.Ir.term <- Ir.map_term_operands resolve b.Ir.term)
      f.Ir.blocks;
    true
  end

let pass = { Pass.name = "mem2reg"; run = (fun _ -> run) }
