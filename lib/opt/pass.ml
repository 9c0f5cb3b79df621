(* Pass manager. Passes are function-level transformations returning
   whether they changed anything; the manager iterates pipelines to a
   fixpoint and accounts "work units" (instructions visited), which the
   JIT runtime's compile-time cost model consumes. *)

open Proteus_ir

type stats = {
  mutable work : int; (* instructions visited across all pass runs *)
  mutable runs : (string * int) list; (* pass name -> run count *)
  (* What SCCP and the unroller did, which SpecAdvisor's static
     predictions are calibrated against. Each run counts into its own
     record, so concurrent runs on several domains stay apart. *)
  mutable sccp_folds : int; (* instructions SCCP replaced by constants *)
  mutable sccp_branches : int; (* conditional branches SCCP proved one-sided *)
  mutable unroll_loops : int; (* loops fully unrolled *)
  mutable unroll_copies : int; (* loop-body instruction copies emitted *)
}

type t = { name : string; run : stats -> Ir.modul -> Ir.func -> bool }

let mk_stats () =
  { work = 0; runs = []; sccp_folds = 0; sccp_branches = 0; unroll_loops = 0; unroll_copies = 0 }

let func_size (f : Ir.func) =
  List.fold_left (fun acc (b : Ir.block) -> acc + List.length b.insts + 1) 0 f.blocks

let module_size (m : Ir.modul) =
  List.fold_left (fun acc f -> acc + func_size f) 0 m.funcs

let bump stats name work =
  stats.work <- stats.work + work;
  stats.runs <-
    (match List.assoc_opt name stats.runs with
    | Some n -> (name, n + 1) :: List.remove_assoc name stats.runs
    | None -> (name, 1) :: stats.runs)

(* Run one pass over all defined functions of a module. *)
let run_pass stats (p : t) (m : Ir.modul) : bool =
  let changed =
    List.fold_left
      (fun changed f ->
        if f.Ir.is_decl || f.Ir.blocks = [] then changed
        else begin
          bump stats p.name (func_size f);
          let c = p.run stats m f in
          c || changed
        end)
      false m.funcs
  in
  if changed then Ir.touch_module m;
  changed

(* Run a pipeline; repeat the iterative tail until fixpoint. *)
let run_pipeline ?(max_iters = 4) stats (pipeline : t list) (m : Ir.modul) : unit =
  let rec iterate n =
    let changed = List.fold_left (fun acc p -> run_pass stats p m || acc) false pipeline in
    if changed && n < max_iters then iterate (n + 1)
  in
  iterate 1
