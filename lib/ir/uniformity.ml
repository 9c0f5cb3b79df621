(* Divergence analysis: classifies each IR register as wave-uniform
   (scalar, SALU/SGPR) or per-lane (vector, VALU/VGPR). The backend
   selects instructions from it; KernelSan, PerfLint and SpecAdvisor
   also read the *divergent region*: the set of blocks control-dependent
   on a thread-divergent branch, which is exactly where a barrier must
   not appear.

   Seeds: threadIdx queries, atomic results, per-thread stack
   addresses, unknown call results, loads from divergent addresses.
   Propagation: through data dependences, and through control
   dependence (phis at joins below a divergent branch are divergent
   even when all their inputs are uniform). *)

open Proteus_support

type t = {
  divergent : bool array; (* per register *)
  divergent_branch_blocks : Util.Sset.t; (* blocks ending in a divergent branch *)
  divergent_region : Util.Sset.t; (* blocks control-dependent on one *)
}

let is_divergent t r = t.divergent.(r)
let in_divergent_region t label = Util.Sset.mem label t.divergent_region

(* Blocks control-dependent on a branch at [b]: walk each successor up
   the postdominator chain until ipdom(b). *)
let control_dependents (ipdom : int array) (succs : int list) (b : int) : int list =
  let stop = ipdom.(b) in
  let deps = ref [] in
  let rec walk n =
    if n <> stop && n >= 0 && not (List.mem n !deps) then begin
      deps := n :: !deps;
      walk ipdom.(n)
    end
  in
  List.iter walk succs;
  !deps

let compute (f : Ir.func) : t =
  let divergent = Array.make (Ir.nregs f) false in
  let cfg = Cfg.build f in
  let blocks = cfg.blocks and succs = Array.get cfg.succ and label = Cfg.label cfg in
  let ipdom = Dom.ipostdoms (Array.length blocks) succs in
  let div_op = function Ir.Reg r -> divergent.(r) | Ir.Imm _ | Ir.Glob _ -> false in
  let div_blocks = ref Util.Sset.empty in
  let region = ref Util.Sset.empty in
  let tainted_blocks = ref Util.Sset.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    let set d =
      if not divergent.(d) then begin
        divergent.(d) <- true;
        changed := true
      end
    in
    Array.iteri
      (fun bi (b : Ir.block) ->
        List.iter
          (fun i ->
            match i with
            | Ir.ICall (Some d, callee, args) -> (
                match Ir.Intrinsics.classify callee with
                | Some Ir.Intrinsics.Query ->
                    (* thread ids are per-lane; block ids and dims are uniform *)
                    if
                      callee = Ir.Intrinsics.tid_x || callee = Ir.Intrinsics.tid_y
                      || callee = Ir.Intrinsics.tid_z
                    then set d
                | Some (Ir.Intrinsics.Math _) -> if List.exists div_op args then set d
                (* atomics, and unknown calls: conservative *)
                | _ -> set d)
            | Ir.IAlloca (d, _, _) -> set d (* per-thread stack address *)
            | Ir.ILoad (d, p) -> if div_op p then set d
            | Ir.IBin (d, _, a, b') -> if div_op a || div_op b' then set d
            | Ir.ICmp (d, _, a, b') -> if div_op a || div_op b' then set d
            | Ir.ISelect (d, c, a, b') ->
                if div_op c || div_op a || div_op b' then set d
            | Ir.ICast (d, _, a) -> if div_op a then set d
            | Ir.IGep (d, p, idx) -> if div_op p || div_op idx then set d
            | Ir.IPhi (d, inc) ->
                if List.exists (fun (_, v) -> div_op v) inc then set d;
                if Util.Sset.mem b.Ir.label !tainted_blocks then set d
            | Ir.IStore _ | Ir.ICall (None, _, _) -> ())
          b.Ir.insts;
        (* divergent branches taint their control-dependence region *)
        match b.Ir.term with
        | Ir.TCondBr (c, _, _) when div_op c ->
            if not (Util.Sset.mem b.Ir.label !div_blocks) then begin
              div_blocks := Util.Sset.add b.Ir.label !div_blocks;
              let deps = control_dependents ipdom (succs bi) bi in
              List.iter (fun d -> region := Util.Sset.add (label d) !region) deps;
              (* joins reachable from the divergent region get divergent phis *)
              List.iter
                (fun d ->
                  List.iter
                    (fun j -> tainted_blocks := Util.Sset.add (label j) !tainted_blocks)
                    (d :: succs d))
                deps;
              changed := true
            end
        | _ -> ())
      blocks
  done;
  {
    divergent;
    divergent_branch_blocks = !div_blocks;
    divergent_region = !region;
  }
