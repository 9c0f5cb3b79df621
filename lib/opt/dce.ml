(* Dead code elimination: removes instructions whose results are unused
   and which have no side effects. Iterates locally until stable. *)

open Proteus_support
open Proteus_ir

(* Atomics, barriers and calls to defined or external functions may
   all have effects. *)
let has_side_effect = function
  | Ir.IStore _ -> true
  | Ir.ICall (_, callee, _) -> not (Ir.Intrinsics.is_pure callee)
  | Ir.IBin _ | Ir.ICmp _ | Ir.ISelect _ | Ir.ICast _ | Ir.ILoad _ | Ir.IGep _
  | Ir.IPhi _ | Ir.IAlloca _ ->
      false

let run (_m : Ir.modul) (f : Ir.func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let uses = Ir.use_counts f in
    let removed = ref false in
    List.iter
      (fun (b : Ir.block) ->
        let keep i =
          match Ir.def_of i with
          | Some d when uses.(d) = 0 && not (has_side_effect i) -> false
          | _ -> true
        in
        let kept = Util.filter_shared keep b.insts in
        if kept != b.insts then begin
          b.insts <- kept;
          removed := true
        end)
      f.Ir.blocks;
    if !removed then changed := true;
    continue_ := !removed
  done;
  !changed

let pass = { Pass.name = "dce"; run = (fun _ -> run) }
