(* Pass manager. Passes are function-level transformations returning
   whether they changed anything; the manager iterates pipelines to a
   fixpoint and accounts "work units" (instructions visited), which the
   JIT runtime's compile-time cost model consumes. *)

open Proteus_ir

(* How often one pass ran: once per defined function per sweep. *)
type run_count = { pass : string; mutable count : int }

type stats = {
  mutable work : int; (* instructions visited across all pass runs *)
  mutable runs : run_count list; (* one cell per pass name *)
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

(* The counter cell of pass [name], added on its first run. *)
let run_cell stats name =
  let rec find = function
    | r :: _ when String.equal r.pass name -> r
    | _ :: rest -> find rest
    | [] ->
        let r = { pass = name; count = 0 } in
        stats.runs <- r :: stats.runs;
        r
  in
  find stats.runs

(* Pass name -> run count, for the passes that ran at least once. *)
let run_counts stats =
  List.filter_map (fun r -> if r.count > 0 then Some (r.pass, r.count) else None) stats.runs

(* Run one pass over all defined functions of a module. *)
let run_pass stats (p : t) (m : Ir.modul) : bool =
  let cell = run_cell stats p.name in
  let changed =
    List.fold_left
      (fun changed (f : Ir.func) ->
        match f.blocks with
        | [] -> changed
        | _ when f.is_decl -> changed
        | _ ->
            stats.work <- stats.work + func_size f;
            cell.count <- cell.count + 1;
            let c = p.run stats m f in
            c || changed)
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
