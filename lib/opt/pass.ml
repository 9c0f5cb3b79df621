(* Pass manager. Passes are function-level transformations returning
   whether they changed anything; the manager iterates pipelines to a
   fixpoint and accounts "work units" (instructions visited), which the
   JIT runtime's compile-time cost model consumes.

   Inside one [run_pipeline] call the manager skips a (pass, function)
   run that is sure to return [false]: the pass ran clean on that very
   function (physical identity) and no run has changed anything since.
   That rests on the two contracts at [t]. A skipped run is charged
   exactly like a real one, its size into [work] and one count into
   its pass's cell, so the simulated compile charge and the run counts
   do not depend on the memo. [recheck] is the memo's checking twin,
   reached from tests and the fuzz oracle through [?on_skip]. *)

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

(* Two contracts every pass keeps, on which the manager's memo rests:
   - a run that returns [false] leaves the function unchanged and adds
     nothing to [stats];
   - a run reads nothing but the module (no global state, no [stats]),
     so on an unchanged module it returns what it returned before. *)
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

(* The clean-run memo of one pipeline run. [edits] counts the
   function-level runs that changed something; [clean] maps a pass
   name to the functions it last ran clean on, each with [edits] at
   that run. A run is skipped when that value is still current. *)
type memo = {
  mutable edits : int;
  clean : (string, (Ir.func * int) list) Hashtbl.t;
  on_skip : t -> Ir.modul -> Ir.func -> unit;
}

let new_memo ?(on_skip = fun _ _ _ -> ()) () = { edits = 0; clean = Hashtbl.create 16; on_skip }

(* One sweep of [p] over all defined functions of [m]. The edit
   counter moves after each run that changes something, not once per
   sweep: a later function of the same sweep may read the one just
   changed (inline reads its callees). *)
let sweep memo stats (p : t) (m : Ir.modul) : bool =
  let cell = run_cell stats p.name in
  let clean = Option.value (Hashtbl.find_opt memo.clean p.name) ~default:[] in
  let clean, changed =
    List.fold_left
      (fun ((clean, changed) as acc) (f : Ir.func) ->
        match f.blocks with
        | [] -> acc
        | _ when f.is_decl -> acc
        | _ ->
            stats.work <- stats.work + func_size f;
            cell.count <- cell.count + 1;
            if List.assq_opt f clean = Some memo.edits then begin
              memo.on_skip p m f;
              acc
            end
            else if p.run stats m f then begin
              memo.edits <- memo.edits + 1;
              (clean, true)
            end
            else ((f, memo.edits) :: List.remove_assq f clean, changed))
      (clean, false) m.funcs
  in
  Hashtbl.replace memo.clean p.name clean;
  if changed then Ir.touch_module m;
  changed

(* Run one pass over all defined functions of a module. *)
let run_pass stats (p : t) (m : Ir.modul) : bool = sweep (new_memo ()) stats p m

(* Sweeps of a pipeline before it stops short of a fixpoint. *)
let max_sweeps = 4

(* Run a pipeline; repeat it until a sweep changes nothing. [on_skip]
   hears of every run the memo skips, with the pass, the module and
   the function the run would have seen. *)
let run_pipeline ?on_skip stats (pipeline : t list) (m : Ir.modul) : unit =
  let memo = new_memo ?on_skip () in
  let rec iterate n =
    let changed = List.fold_left (fun acc p -> sweep memo stats p m || acc) false pipeline in
    if changed && n < max_sweeps then iterate (n + 1)
  in
  iterate 1

(* The memo's checking twin: run [p] on [f] in a clone of [m] and
   report how the run breaks the contracts a skip relies on, if it
   does: it returns [true], changes the printed function, or moves a
   stats counter. *)
let recheck (p : t) (m : Ir.modul) (f : Ir.func) : string option =
  let m' = Ir.clone_module m in
  let f' = List.nth m'.funcs (Option.get (List.find_index (fun g -> g == f) m.funcs)) in
  let before = Irpp.func_to_string f' in
  let st = mk_stats () in
  let changed = p.run st m' f' in
  let problems =
    List.filter_map
      (fun (bad, what) -> if bad then Some what else None)
      [
        (changed, "returned true");
        (Irpp.func_to_string f' <> before, "changed the function");
        (st <> mk_stats (), "moved a stats counter");
      ]
  in
  if problems = [] then None
  else Some (Printf.sprintf "%s on %s: %s" p.name f.fname (String.concat ", " problems))
