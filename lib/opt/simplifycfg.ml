(* CFG cleanup: dead block removal, constant branch folding, empty block
   threading, linear block merging and trivial phi elimination. *)

open Proteus_ir

let fold_const_branches (f : Ir.func) =
  let changed = ref false in
  List.iter
    (fun (b : Ir.block) ->
      match b.Ir.term with
      | Ir.TCondBr (Ir.Imm k, t, e) ->
          let target = if Konst.as_bool k then t else e in
          let dead = if Konst.as_bool k then e else t in
          (* The dead edge's phi entries from this block must go. *)
          if dead <> target then begin
            let db = Ir.find_block f dead in
            db.Ir.insts <-
              List.map
                (function
                  | Ir.IPhi (d, inc) ->
                      Ir.IPhi (d, List.filter (fun (l, _) -> l <> b.Ir.label) inc)
                  | i -> i)
                db.Ir.insts
          end;
          b.Ir.term <- Ir.TBr target;
          changed := true
      | Ir.TCondBr (c, t, e) when t = e ->
          ignore c;
          b.Ir.term <- Ir.TBr t;
          changed := true
      | _ -> ())
    f.Ir.blocks;
  !changed

(* An empty block that just branches on is bypassed, provided the final
   target's phis can be kept consistent. [cfg] is the graph of [f] as
   it stands. *)
let thread_empty_blocks (f : Ir.func) (cfg : Cfg.t) =
  (* One rewiring per inner step, against a freshly built CFG: a stale
     predecessor/successor view across several edits can otherwise
     introduce duplicate phi predecessors. *)
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let cfg = if !changed then Cfg.build f else cfg in
    let has_phis (b : Ir.block) = List.exists (function Ir.IPhi _ -> true | _ -> false) b.Ir.insts in
    (* (block, its target) for the first block that can be bypassed *)
    let candidate =
      Seq.find_map
        (fun i ->
          let b = cfg.blocks.(i) in
          match (b.Ir.insts, b.Ir.term, cfg.succ.(i)) with
          | [], Ir.TBr _, [ t ] when t <> i && i <> 0 ->
              let branches_to_target p = List.mem t cfg.succ.(p) in
              let ok =
                if has_phis cfg.blocks.(t) then
                  match cfg.pred.(i) with [ p ] -> not (branches_to_target p) | _ -> false
                else not (List.exists branches_to_target cfg.pred.(i))
              in
              if ok then Some (i, t) else None
          | _ -> None)
        (Seq.init (Array.length cfg.blocks) Fun.id)
    in
    match candidate with
    | None -> ()
    | Some (i, t) ->
        let b = cfg.blocks.(i) and target = Cfg.label cfg t in
        let retarget p =
          let pb = cfg.blocks.(p) in
          pb.Ir.term <- Ir.retarget_term pb.Ir.term ~from_label:b.Ir.label ~to_label:target
        in
        if not (has_phis cfg.blocks.(t)) then List.iter retarget cfg.pred.(i)
        else begin
          let p = List.hd cfg.pred.(i) in
          retarget p;
          Ir.retarget_phis f ~from_label:b.Ir.label ~to_label:(Cfg.label cfg p)
        end;
        f.Ir.blocks <-
          List.filter (fun (x : Ir.block) -> x.Ir.label <> b.Ir.label) f.Ir.blocks;
        changed := true;
        continue_ := true
  done;
  if !changed then ignore (Cfg.remove_unreachable f);
  !changed

(* Merge b -> s when s is b's unique successor and b is s's unique
   predecessor. [cfg] is the graph of [f] as it stands. *)
let merge_linear (f : Ir.func) (cfg : Cfg.t) =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let cfg = if !changed then Cfg.build f else cfg in
    let mergeable =
      Seq.find_map
        (fun i ->
          match (cfg.blocks.(i).Ir.term, cfg.succ.(i)) with
          | Ir.TBr _, [ s ] when s <> i && cfg.pred.(s) = [ i ] && cfg.reachable.(i) ->
              Some (cfg.blocks.(i), cfg.blocks.(s))
          | _ -> None)
        (Seq.init (Array.length cfg.blocks) Fun.id)
    in
    match mergeable with
    | Some (b, sb) ->
        let s = sb.Ir.label in
        (* Phis in s have a single incoming (from b): replace uses.
           [replace_uses] rebuilds instruction lists rather than
           mutating in place, so resolve one phi at a time and re-read
           [sb.insts] each round - a list captured up front would splice
           stale, unsubstituted instructions into [b] (uses of the phi
           inside s itself would survive as undefined registers). *)
        let rec resolve () =
          match
            List.find_map
              (function Ir.IPhi (d, inc) -> Some (d, inc) | _ -> None)
              sb.Ir.insts
          with
          | None -> ()
          | Some (d, inc) ->
              let v =
                match inc with
                | [ (_, v) ] -> Some v
                | _ -> List.assoc_opt b.Ir.label inc
              in
              sb.Ir.insts <-
                List.filter
                  (function Ir.IPhi (d', _) -> d' <> d | _ -> true)
                  sb.Ir.insts;
              (match v with
              | Some v when v <> Ir.Reg d -> Ir.replace_uses f d v
              | _ -> ());
              resolve ()
        in
        resolve ();
        b.Ir.insts <- b.Ir.insts @ sb.Ir.insts;
        b.Ir.term <- sb.Ir.term;
        f.Ir.blocks <- List.filter (fun (x : Ir.block) -> x.Ir.label <> s) f.Ir.blocks;
        (* Successors of s referenced b's merged label in phis. *)
        Ir.retarget_phis f ~from_label:s ~to_label:b.Ir.label;
        changed := true;
        continue_ := true
    | None -> ()
  done;
  !changed

let remove_trivial_phis (f : Ir.func) =
  (* Remove the phi from the block *before* substituting: replace_uses
     rebuilds every instruction list, so a filter over a list captured
     beforehand would write the unsubstituted instructions back. *)
  let changed = ref false in
  List.iter
    (fun (b : Ir.block) ->
      let rec go () =
        match
          List.find_map
            (function
              | Ir.IPhi (d, [ (_, v) ]) when v <> Ir.Reg d -> Some (d, v)
              | _ -> None)
            b.Ir.insts
        with
        | None -> ()
        | Some (d, v) ->
            b.Ir.insts <-
              List.filter
                (function Ir.IPhi (d', _) -> d' <> d | _ -> true)
                b.Ir.insts;
            Ir.replace_uses f d v;
            changed := true;
            go ()
      in
      go ())
    f.Ir.blocks;
  !changed

(* A run that changes nothing builds one graph: the one [Cfg.prune]
   returns serves both rewrites until one of them edits the function. *)
let run (_m : Ir.modul) (f : Ir.func) : bool =
  let c1 = fold_const_branches f in
  let nblocks = List.length f.Ir.blocks in
  let cfg = Cfg.prune f in
  let c2 = Array.length cfg.blocks <> nblocks in
  let c3 = thread_empty_blocks f cfg in
  let c4 = merge_linear f (if c3 then Cfg.build f else cfg) in
  let c5 = remove_trivial_phis f in
  c1 || c2 || c3 || c4 || c5

let pass = { Pass.name = "simplifycfg"; run = (fun _ -> run) }
