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

(* Block flags of [of_graph]. *)
let branch = 1
let in_region = 2
let tainted = 4

(* The analysis of [f] over its graph: [blocks] are [f]'s blocks and
   [succ] their successors, by position (as in a [Cfg]). *)
let of_graph (f : Ir.func) (blocks : Ir.block array) (succ : int list array) : t =
  let n = Array.length blocks in
  let succs = Array.get succ in
  let ipdom = Dom.ipostdoms n succs in
  let divergent = Array.make (Ir.nregs f) false in
  (* [settled.(r)]: r is divergent, or the result of a block-uniform
     query, and no later sweep can change it *)
  let settled = Array.make (Ir.nregs f) false in
  let div_op = function Ir.Reg r -> divergent.(r) | Ir.Imm _ | Ir.Glob _ -> false in
  (* by block, these flags: ends in a divergent branch, lies in a
     divergent region, gets divergent phis *)
  let flags = Array.make n 0 in
  let has b flag = flags.(b) land flag <> 0 and mark b flag = flags.(b) <- flags.(b) lor flag in
  let changed = ref true in
  while !changed do
    changed := false;
    let set d =
      divergent.(d) <- true;
      settled.(d) <- true;
      changed := true
    in
    for bi = 0 to n - 1 do
      List.iter
        (fun i ->
          match i with
          | Ir.ICall (Some d, callee, args) when not settled.(d) -> (
              match Ir.Intrinsics.classify callee with
              | Some Ir.Intrinsics.Query ->
                  (* thread ids are per-lane; block ids and dims are uniform *)
                  if
                    callee = Ir.Intrinsics.tid_x || callee = Ir.Intrinsics.tid_y
                    || callee = Ir.Intrinsics.tid_z
                  then set d
                  else settled.(d) <- true
              | Some (Ir.Intrinsics.Math _) -> if List.exists div_op args then set d
              (* atomics, and unknown calls: conservative *)
              | _ -> set d)
          | Ir.IAlloca (d, _, _) when not settled.(d) -> set d (* per-thread stack address *)
          | Ir.ILoad (d, p) when not settled.(d) -> if div_op p then set d
          | (Ir.IBin (d, _, a, b') | Ir.ICmp (d, _, a, b')) when not settled.(d) ->
              if div_op a || div_op b' then set d
          | Ir.ISelect (d, c, a, b') when not settled.(d) ->
              if div_op c || div_op a || div_op b' then set d
          | Ir.ICast (d, _, a) when not settled.(d) -> if div_op a then set d
          | Ir.IGep (d, p, idx) when not settled.(d) -> if div_op p || div_op idx then set d
          | Ir.IPhi (d, inc) when not settled.(d) ->
              if has bi tainted || List.exists (fun (_, v) -> div_op v) inc then set d
          | _ -> ())
        blocks.(bi).Ir.insts;
      (* divergent branches taint their control-dependence region *)
      match blocks.(bi).Ir.term with
      | Ir.TCondBr (c, _, _) when (not (has bi branch)) && div_op c ->
          mark bi branch;
          let deps = control_dependents ipdom (succs bi) bi in
          List.iter (fun d -> mark d in_region) deps;
          (* joins reachable from the divergent region get divergent phis *)
          List.iter (fun d -> List.iter (fun j -> mark j tainted) (d :: succs d)) deps;
          changed := true
      | _ -> ()
    done
  done;
  let labels flag =
    let s = ref Util.Sset.empty in
    for b = 0 to n - 1 do
      if has b flag then s := Util.Sset.add blocks.(b).Ir.label !s
    done;
    !s
  in
  { divergent; divergent_branch_blocks = labels branch; divergent_region = labels in_region }

let compute (f : Ir.func) : t =
  let cfg = Cfg.build f in
  of_graph f cfg.blocks cfg.succ
