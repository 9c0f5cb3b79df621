(* Imperative IR construction: keeps an insertion point and allocates
   fresh registers, mirroring llvm::IRBuilder.

   Appending to an immutable list costs its length, so the current
   block's new instructions wait, newest first, in [pending] and are
   spliced into [block.insts] once per visit: when the insertion point
   moves ([position_at]), when the block is terminated ([set_term]) and
   when a caller asks for it ([current_block]). A function read after
   the builder's last call (which ends on a terminator or a move) thus
   holds every instruction. *)

type t = {
  func : Ir.func;
  mutable block : Ir.block;
  mutable pending : Ir.instr list; (* the block's unspliced instructions, newest first *)
  mutable terminated : bool; (* the current block's terminator is set *)
  finished : (string, unit) Hashtbl.t; (* labels whose terminator is set *)
  labels : (string, int) Hashtbl.t;
      (* the labels of [func] at [create] and from [new_block] -> the
         least suffix [new_block] may still find free for that base *)
}

let create func =
  let block =
    match func.Ir.blocks with b :: _ -> b | [] -> Ir.add_block func "entry"
  in
  let labels = Hashtbl.create 16 in
  List.iter (fun (blk : Ir.block) -> Hashtbl.replace labels blk.label 1) func.Ir.blocks;
  { func; block; pending = []; terminated = false; finished = Hashtbl.create 16; labels }

let flush b =
  if b.pending <> [] then begin
    b.block.insts <- b.block.insts @ List.rev b.pending;
    b.pending <- []
  end

let position_at b block =
  flush b;
  b.block <- block;
  b.terminated <- Hashtbl.mem b.finished block.label

let current_block b =
  flush b;
  b.block

(* Labels are uniquified so the frontend can reuse friendly names: the
   first of [label], [label.1], [label.2], ... not yet in the function.
   Labels are only ever added, so the suffixes below the one last handed
   out for a base stay taken and the search resumes there. *)
let new_block b label =
  let unique =
    match Hashtbl.find_opt b.labels label with
    | None -> label
    | Some i ->
        let rec go i =
          let cand = Printf.sprintf "%s.%d" label i in
          if Hashtbl.mem b.labels cand then go (i + 1)
          else begin
            Hashtbl.replace b.labels label (i + 1);
            cand
          end
        in
        go i
  in
  Hashtbl.replace b.labels unique 1;
  Ir.add_block b.func unique

let terminated b = b.terminated

(* Instructions after a terminator (e.g. code following a return) are
   dead by construction and silently dropped. *)
let add_instr b i = if not b.terminated then b.pending <- i :: b.pending

let set_term b t =
  if not b.terminated then begin
    flush b;
    b.block.term <- t;
    b.terminated <- true;
    Hashtbl.replace b.finished b.block.label ()
  end

let fresh b ty = Ir.fresh_reg b.func ty

let bin b op ty x y =
  let d = fresh b ty in
  add_instr b (Ir.IBin (d, op, x, y));
  Ir.Reg d

let cmp b op x y =
  let d = fresh b Types.TBool in
  add_instr b (Ir.ICmp (d, op, x, y));
  Ir.Reg d

let select b ty c x y =
  let d = fresh b ty in
  add_instr b (Ir.ISelect (d, c, x, y));
  Ir.Reg d

let cast b op x ty =
  let d = fresh b ty in
  add_instr b (Ir.ICast (d, op, x));
  Ir.Reg d

let load b ty p =
  let d = fresh b ty in
  add_instr b (Ir.ILoad (d, p));
  Ir.Reg d

let store b v p = add_instr b (Ir.IStore (v, p))

let gep b ty p i =
  let d = fresh b ty in
  add_instr b (Ir.IGep (d, p, i));
  Ir.Reg d

let call b ty callee args =
  if Types.equal ty Types.TVoid then begin
    add_instr b (Ir.ICall (None, callee, args));
    Ir.Imm (Konst.ki32 0)
  end
  else begin
    let d = fresh b ty in
    add_instr b (Ir.ICall (Some d, callee, args));
    Ir.Reg d
  end

(* Allocas yield generic (global-space) pointers; backends classify
   scratch accesses by provenance, not by address space. *)
let alloca b ty n =
  let d = fresh b (Types.TPtr (ty, Types.AS_global)) in
  add_instr b (Ir.IAlloca (d, ty, n));
  Ir.Reg d

let phi b ty incoming =
  let d = fresh b ty in
  (* Phis must lead the block; the pending instructions follow them. *)
  b.block.insts <- Ir.IPhi (d, incoming) :: b.block.insts;
  Ir.Reg d

let br b l = set_term b (Ir.TBr l)
let cond_br b c t e = set_term b (Ir.TCondBr (c, t, e))
let ret b v = set_term b (Ir.TRet v)
let unreachable b = set_term b Ir.TUnreachable
