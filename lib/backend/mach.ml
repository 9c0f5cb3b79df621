(* Machine IR: the target-level representation both backends lower to
   and the GPU simulator executes. Registers are classed scalar (per
   wave, SGPR-like) or vector (per lane, VGPR-like); before register
   allocation ids are virtual, after they are physical. *)

open Proteus_support
open Proteus_ir
module W = Util.Bytesio.W
module R = Util.Bytesio.R

type cls = CS | CV

type reg = { rid : int; rcls : cls }

type space = SGlobal | SScratch

type msrc = Rs of reg | Ki of Konst.t | Gs of string (* global symbol address *)

type mop =
  | Obin of Ops.binop * Types.ty
  | Ocmp of Ops.cmpop * Types.ty
  | Osel of Types.ty
  | Ocast of Ops.castop * Types.ty * Types.ty (* dst ty, src ty *)
  | Omov of Types.ty
  | Old of space * Types.ty
  | Ost of space * Types.ty (* srcs = [value; addr] *)
  | Oquery of string (* gpu.tid.x and friends *)
  | Omath of string * Types.ty
  | Oatomic of string (* srcs = [addr; operand] *)
  | Obarrier
  | Oframe (* dst = per-thread scratch base + imm offset; srcs = [Ki offset] *)
  | Ospill_st of int (* slot; srcs = [value] *)
  | Ospill_ld of int (* slot *)
  | Oarg of int (* kernarg load: dst = launch argument [i] *)

type minstr = { op : mop; dst : reg option; srcs : msrc list }

type mterm = Tbr of string | Tcbr of msrc * string * string | Tret

type mblock = { mlab : string; mutable code : minstr list; mutable term : mterm }

type mfunc = {
  sym : string;
  mutable blocks : mblock list;
  mutable params : reg list; (* registers holding kernel arguments on entry *)
  mutable arg_tys : Types.ty list;
  mutable vregs : int; (* vector register count (virtual, then physical) *)
  mutable sregs : int; (* scalar register count *)
  mutable frame : int; (* bytes of per-thread scratch for allocas *)
  mutable spill_slots : int; (* 8-byte spill slots appended to the frame *)
  mutable launch_bounds : (int * int) option;
  mutable max_pressure_v : int; (* diagnostics from register allocation *)
  mutable max_pressure_s : int;
}

type vendor_obj = VGcn | VSass

(* A linked/loadable device object ("fatbinary" contents). *)
type obj = {
  okind : vendor_obj;
  mutable kernels : mfunc list;
  mutable oglobals : Ir.gvar list; (* allocated in device memory at load *)
  mutable sections : (string * string) list; (* extra named sections *)
}

let find_kernel (o : obj) sym =
  try List.find (fun k -> k.sym = sym) o.kernels
  with Not_found -> Util.failf "Mach.find_kernel: no kernel %s" sym

let find_kernel_opt (o : obj) sym = List.find_opt (fun k -> k.sym = sym) o.kernels

let find_mblock (f : mfunc) lab =
  try List.find (fun b -> b.mlab = lab) f.blocks
  with Not_found -> Util.failf "Mach.find_mblock: no block %s in %s" lab f.sym

let instr_count (f : mfunc) =
  List.fold_left (fun acc b -> acc + List.length b.code + 1) 0 f.blocks

let successors = function
  | Tbr l -> [ l ]
  | Tcbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Tret -> []

(* Successors of [blocks.(i)] as indices into [blocks], the shape
   Dom.ipostdoms takes. *)
let succ_indices (blocks : mblock array) : int -> int list =
  let index = Hashtbl.create (2 * Array.length blocks) in
  Array.iteri (fun i b -> Hashtbl.replace index b.mlab i) blocks;
  fun i -> List.map (Hashtbl.find index) (successors blocks.(i).term)

let is_mem_op = function Old _ | Ost _ | Oatomic _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Binary encoding (device objects are cached persistently on disk).   *)

let encode_reg w r =
  W.u8 w (match r.rcls with CS -> 0 | CV -> 1);
  W.int w r.rid

let decode_reg r =
  let rcls = match R.u8 r with 0 -> CS | _ -> CV in
  let rid = R.int r in
  { rid; rcls }

let encode_src w = function
  | Rs r ->
      W.u8 w 0;
      encode_reg w r
  | Ki k ->
      W.u8 w 1;
      Konst.encode w k
  | Gs s ->
      W.u8 w 2;
      W.str w s

let decode_src r =
  match R.u8 r with
  | 0 -> Rs (decode_reg r)
  | 1 -> Ki (Konst.decode r)
  | _ -> Gs (R.str r)

let encode_space w = function SGlobal -> W.u8 w 0 | SScratch -> W.u8 w 1
let decode_space r = match R.u8 r with 0 -> SGlobal | _ -> SScratch

let encode_op w = function
  | Obin (op, ty) ->
      W.u8 w 0;
      W.str w (Ops.binop_to_string op);
      Types.encode w ty
  | Ocmp (op, ty) ->
      W.u8 w 1;
      W.str w (Ops.cmpop_to_string op);
      Types.encode w ty
  | Osel ty ->
      W.u8 w 2;
      Types.encode w ty
  | Ocast (op, dty, sty) ->
      W.u8 w 3;
      W.str w (Ops.castop_to_string op);
      Types.encode w dty;
      Types.encode w sty
  | Omov ty ->
      W.u8 w 4;
      Types.encode w ty
  | Old (sp, ty) ->
      W.u8 w 5;
      encode_space w sp;
      Types.encode w ty
  | Ost (sp, ty) ->
      W.u8 w 6;
      encode_space w sp;
      Types.encode w ty
  | Oquery q ->
      W.u8 w 7;
      W.str w q
  | Omath (m, ty) ->
      W.u8 w 8;
      W.str w m;
      Types.encode w ty
  | Oatomic a ->
      W.u8 w 9;
      W.str w a
  | Obarrier -> W.u8 w 10
  | Oframe -> W.u8 w 11
  | Ospill_st slot ->
      W.u8 w 12;
      W.int w slot
  | Ospill_ld slot ->
      W.u8 w 13;
      W.int w slot
  | Oarg i ->
      W.u8 w 14;
      W.int w i

let decode_op r =
  match R.u8 r with
  | 0 ->
      let op = Ops.binop_of_string (R.str r) in
      let ty = Types.decode r in
      Obin (op, ty)
  | 1 ->
      let op = Ops.cmpop_of_string (R.str r) in
      let ty = Types.decode r in
      Ocmp (op, ty)
  | 2 -> Osel (Types.decode r)
  | 3 ->
      let op = Ops.castop_of_string (R.str r) in
      let dty = Types.decode r in
      let sty = Types.decode r in
      Ocast (op, dty, sty)
  | 4 -> Omov (Types.decode r)
  | 5 ->
      let sp = decode_space r in
      let ty = Types.decode r in
      Old (sp, ty)
  | 6 ->
      let sp = decode_space r in
      let ty = Types.decode r in
      Ost (sp, ty)
  | 7 -> Oquery (R.str r)
  | 8 ->
      let m = R.str r in
      let ty = Types.decode r in
      Omath (m, ty)
  | 9 -> Oatomic (R.str r)
  | 10 -> Obarrier
  | 11 -> Oframe
  | 12 -> Ospill_st (R.int r)
  | 13 -> Ospill_ld (R.int r)
  | 14 -> Oarg (R.int r)
  | k -> Util.failf "Mach.decode_op: bad tag %d" k

let encode_instr w i =
  encode_op w i.op;
  W.option w encode_reg i.dst;
  W.list w encode_src i.srcs

let decode_instr r =
  let op = decode_op r in
  let dst = R.option r decode_reg in
  let srcs = R.list r decode_src in
  { op; dst; srcs }

let encode_term w = function
  | Tbr l ->
      W.u8 w 0;
      W.str w l
  | Tcbr (c, t, e) ->
      W.u8 w 1;
      encode_src w c;
      W.str w t;
      W.str w e
  | Tret -> W.u8 w 2

let decode_term r =
  match R.u8 r with
  | 0 -> Tbr (R.str r)
  | 1 ->
      let c = decode_src r in
      let t = R.str r in
      let e = R.str r in
      Tcbr (c, t, e)
  | _ -> Tret

let encode_mfunc w f =
  W.str w f.sym;
  W.list w encode_reg f.params;
  W.list w Types.encode f.arg_tys;
  W.int w f.vregs;
  W.int w f.sregs;
  W.int w f.frame;
  W.int w f.spill_slots;
  W.option w
    (fun w (t, b) ->
      W.int w t;
      W.int w b)
    f.launch_bounds;
  W.int w f.max_pressure_v;
  W.int w f.max_pressure_s;
  W.list w
    (fun w b ->
      W.str w b.mlab;
      W.list w encode_instr b.code;
      encode_term w b.term)
    f.blocks

let decode_mfunc r =
  let sym = R.str r in
  let params = R.list r decode_reg in
  let arg_tys = R.list r Types.decode in
  let vregs = R.int r in
  let sregs = R.int r in
  let frame = R.int r in
  let spill_slots = R.int r in
  let launch_bounds =
    R.option r (fun r ->
        let t = R.int r in
        let b = R.int r in
        (t, b))
  in
  let max_pressure_v = R.int r in
  let max_pressure_s = R.int r in
  let blocks =
    R.list r (fun r ->
        let mlab = R.str r in
        let code = R.list r decode_instr in
        let term = decode_term r in
        { mlab; code; term })
  in
  {
    sym; params; arg_tys; vregs; sregs; frame; spill_slots; launch_bounds;
    max_pressure_v; max_pressure_s; blocks;
  }

let obj_magic = "PROB\x01"

let encode_obj (o : obj) : string =
  let w = W.create () in
  Buffer.add_string w obj_magic;
  W.u8 w (match o.okind with VGcn -> 0 | VSass -> 1);
  W.list w encode_mfunc o.kernels;
  W.list w Bitcode.encode_gvar o.oglobals;
  W.list w
    (fun w (n, d) ->
      W.str w n;
      W.str w d)
    o.sections;
  W.contents w

let decode_obj (s : string) : obj =
  let m = String.length obj_magic in
  if String.length s < m || String.sub s 0 m <> obj_magic then
    Util.failf "Mach.decode_obj: bad magic";
  let r = R.create s in
  r.R.pos <- m;
  let okind = match R.u8 r with 0 -> VGcn | _ -> VSass in
  let kernels = R.list r decode_mfunc in
  let oglobals = R.list r Bitcode.decode_gvar in
  let sections =
    R.list r (fun r ->
        let n = R.str r in
        let d = R.str r in
        (n, d))
  in
  { okind; kernels; oglobals; sections }

(* ------------------------------------------------------------------ *)
(* Pretty printing (debugging aid).                                    *)

let reg_to_string r =
  Printf.sprintf "%%%s%d" (match r.rcls with CS -> "s" | CV -> "v") r.rid

let src_to_string = function
  | Rs r -> reg_to_string r
  | Ki k -> Konst.to_string k
  | Gs s -> "@" ^ s

let op_name = function
  | Obin (op, ty) -> Printf.sprintf "%s.%s" (Ops.binop_to_string op) (Types.to_string ty)
  | Ocmp (op, ty) -> Printf.sprintf "setp.%s.%s" (Ops.cmpop_to_string op) (Types.to_string ty)
  | Osel ty -> Printf.sprintf "selp.%s" (Types.to_string ty)
  | Ocast (op, d, s) ->
      Printf.sprintf "cvt.%s.%s.%s" (Ops.castop_to_string op) (Types.to_string d)
        (Types.to_string s)
  | Omov ty -> Printf.sprintf "mov.%s" (Types.to_string ty)
  | Old (SGlobal, ty) -> Printf.sprintf "ld.global.%s" (Types.to_string ty)
  | Old (SScratch, ty) -> Printf.sprintf "ld.local.%s" (Types.to_string ty)
  | Ost (SGlobal, ty) -> Printf.sprintf "st.global.%s" (Types.to_string ty)
  | Ost (SScratch, ty) -> Printf.sprintf "st.local.%s" (Types.to_string ty)
  | Oquery q -> "query." ^ q
  | Omath (m, ty) -> Printf.sprintf "%s.%s" m (Types.to_string ty)
  | Oatomic a -> "atom." ^ a
  | Obarrier -> "bar.sync"
  | Oframe -> "frame"
  | Ospill_st s -> Printf.sprintf "spill.st[%d]" s
  | Ospill_ld s -> Printf.sprintf "spill.ld[%d]" s
  | Oarg i -> Printf.sprintf "ld.kernarg[%d]" i

let instr_to_string i =
  let dst = match i.dst with Some r -> reg_to_string r ^ ", " | None -> "" in
  Printf.sprintf "%s %s%s" (op_name i.op) dst
    (String.concat ", " (List.map src_to_string i.srcs))

let mfunc_to_string f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf ".kernel %s (v=%d s=%d frame=%d spills=%d)%s\n" f.sym f.vregs f.sregs
       f.frame f.spill_slots
       (match f.launch_bounds with
       | Some (t, b) -> Printf.sprintf " launch_bounds(%d,%d)" t b
       | None -> ""));
  List.iter
    (fun b ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" b.mlab);
      List.iter
        (fun i -> Buffer.add_string buf (Printf.sprintf "  %s\n" (instr_to_string i)))
        b.code;
      Buffer.add_string buf
        (Printf.sprintf "  %s\n"
           (match b.term with
           | Tbr l -> "bra " ^ l
           | Tcbr (c, t, e) -> Printf.sprintf "cbr %s, %s, %s" (src_to_string c) t e
           | Tret -> "ret")))
    f.blocks;
  Buffer.contents buf
