(* Optimization pipelines. [o3] mirrors the aggressive default pipeline
   the paper's JIT runtime invokes after specialization. *)

open Proteus_ir

let o1 : Pass.t list = [ Simplifycfg.pass; Mem2reg.pass; Simplify.pass; Dce.pass ]

let o3 : Pass.t list =
  [
    Simplifycfg.pass;
    Mem2reg.pass;
    Inline.pass;
    Simplify.pass;
    Sccp.pass;
    Simplifycfg.pass;
    Gvn.pass;
    Licm.pass;
    Unroll.pass;
    Simplify.pass;
    Sccp.pass;
    Gvn.pass;
    Dce.pass;
    Simplifycfg.pass;
  ]

(* dbg.loc source markers are analysis metadata, not semantics: drop
   them before any pass runs so debug and release compilations optimize
   identically. *)
let strip_debug (m : Ir.modul) : unit =
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          b.Ir.insts <-
            List.filter
              (function
                | Ir.ICall (None, callee, _) -> callee <> Ir.Intrinsics.dbg_loc
                | _ -> true)
              b.Ir.insts)
        f.Ir.blocks)
    m.Ir.funcs

(* Run a pipeline over a module; returns accumulated work units (an
   input to the JIT compile-time cost model). [on_skip] is
   [Pass.run_pipeline]'s. *)
let run ?(passes = o3) ?on_skip (m : Ir.modul) : Pass.stats =
  let stats = Pass.mk_stats () in
  strip_debug m;
  Cfg.reusing (fun () ->
      Pass.run_pipeline ?on_skip stats passes m;
      Verify.verify_module m);
  stats

let optimize_o3 m = run ~passes:o3 m
let optimize_o1 m = run ~passes:o1 m
