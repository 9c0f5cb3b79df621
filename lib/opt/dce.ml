(* Dead code elimination: removes instructions whose results are unused
   and which have no side effects. Iterates locally until stable. *)

open Proteus_ir

let is_pure_call callee =
  Ir.Intrinsics.is_math callee || Ir.Intrinsics.is_gpu_query callee

let has_side_effect (m : Ir.modul) = function
  | Ir.IStore _ -> true
  | Ir.ICall (_, callee, _) ->
      if is_pure_call callee then false
      else if Ir.Intrinsics.is_atomic callee || callee = Ir.Intrinsics.barrier then true
      else (
        (* Calls to defined or external functions may have effects. *)
        match Ir.find_func_opt m callee with Some _ -> true | None -> true)
  | Ir.IBin _ | Ir.ICmp _ | Ir.ISelect _ | Ir.ICast _ | Ir.ILoad _ | Ir.IGep _
  | Ir.IPhi _ | Ir.IAlloca _ ->
      false

let run (m : Ir.modul) (f : Ir.func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let uses = Ir.use_counts f in
    let removed = ref false in
    List.iter
      (fun (b : Ir.block) ->
        let keep i =
          match Ir.def_of i with
          | Some d when uses.(d) = 0 && not (has_side_effect m i) -> false
          | _ -> true
        in
        let before = List.length b.insts in
        b.insts <- List.filter keep b.insts;
        if List.length b.insts <> before then removed := true)
      f.Ir.blocks;
    if !removed then changed := true;
    continue_ := !removed
  done;
  !changed

let pass = { Pass.name = "dce"; run = (fun _ -> run) }
