(* Loop-invariant code motion: hoists pure, loop-invariant instructions
   into a preheader. Our instruction set cannot trap (integer division
   by zero is defined), so speculation is safe. *)

open Proteus_support
open Proteus_ir

let is_hoistable_shape = function
  | Ir.IBin _ | Ir.ICmp _ | Ir.ISelect _ | Ir.ICast _ | Ir.IGep _ -> true
  | Ir.ICall (Some _, callee, _) -> Ir.Intrinsics.is_pure callee
  | _ -> false

(* The unique predecessor of the header outside the loop, if any. *)
let preheader_of (cfg : Cfg.t) (l : Loopinfo.loop) =
  match
    List.filter
      (fun p -> not (Util.Sset.mem (Cfg.label cfg p) l.Loopinfo.body))
      cfg.pred.(Cfg.index cfg l.Loopinfo.header)
  with
  | [ p ] -> Some p
  | _ -> None

let run (_m : Ir.modul) (f : Ir.func) : bool =
  let cfg = Cfg.prune f in
  if f.Ir.blocks = [] || not (Cfg.has_cycle cfg) then false
  else begin
    let dom = Dom.compute cfg in
    let li = Loopinfo.compute cfg dom in
    let changed = ref false in
    List.iter
      (fun (l : Loopinfo.loop) ->
        match preheader_of cfg l with
        | None -> ()
        | Some p ->
            let ph = cfg.blocks.(p) in
            (* Only use the preheader if its sole successor is the
               header (otherwise hoisting would execute speculatively on
               other paths - harmless here but noisy). *)
            if cfg.succ.(p) = [ Cfg.index cfg l.Loopinfo.header ] then begin
              (* Registers defined inside the loop. *)
              let defined_in_loop = ref Util.Iset.empty in
              Util.Sset.iter
                (fun lbl ->
                  let b = Ir.find_block f lbl in
                  List.iter
                    (fun i ->
                      match Ir.def_of i with
                      | Some d -> defined_in_loop := Util.Iset.add d !defined_in_loop
                      | None -> ())
                    b.Ir.insts)
                l.Loopinfo.body;
              let invariant_op = function
                | Ir.Reg r -> not (Util.Iset.mem r !defined_in_loop)
                | Ir.Imm _ | Ir.Glob _ -> true
              in
              (* Iterate: hoisting one instruction may make another
                 invariant. *)
              let continue_ = ref true in
              while !continue_ do
                continue_ := false;
                Util.Sset.iter
                  (fun lbl ->
                    let b = Ir.find_block f lbl in
                    let hoisted, kept =
                      List.partition
                        (fun i ->
                          is_hoistable_shape i
                          && List.for_all invariant_op (Ir.operands_of i))
                        b.Ir.insts
                    in
                    if hoisted <> [] then begin
                      b.Ir.insts <- kept;
                      ph.Ir.insts <- ph.Ir.insts @ hoisted;
                      List.iter
                        (fun i ->
                          match Ir.def_of i with
                          | Some d ->
                              defined_in_loop := Util.Iset.remove d !defined_in_loop
                          | None -> ())
                        hoisted;
                      changed := true;
                      continue_ := true
                    end)
                  l.Loopinfo.body
              done
            end)
      (Loopinfo.innermost_first li);
    !changed
  end

let pass = { Pass.name = "licm"; run = (fun _ -> run) }
