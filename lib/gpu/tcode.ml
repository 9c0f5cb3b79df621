(* Threaded code: a Mach.mfunc pre-decoded once per kernel into flat
   arrays the SIMT executor can run without per-instruction overhead.

   The reference interpreter (Exec.run_warp) re-resolves [List.nth]
   operand lists, [Option.get] destinations, string block labels and a
   string-keyed ipdom map on every dynamic instruction, and allocates
   [Konst.t] boxes per lane per memory access. Decoding replaces all of
   that with integer block ids, an int-indexed ipdom table, and
   per-instruction records whose operands are already split into
   int-context / float-context accessors - the classic
   threaded-code/pre-decoding transformation (OCamlJIT 2.0 lineage).

   A decoded [program] is immutable apart from one spare set of
   executor buffers (see [acquire]), so one decode is shared by every
   launch of the kernel (Gpurt keeps a per-kernel program; the JIT
   attaches programs to code-cache entries as a third cache tier) and
   by all domains of a multicore launch.

   Semantics note: every operation here must be bit-identical to the
   reference interpreter - the differential qcheck/HeCBench tests and
   the "paper tables unchanged" gate both depend on it. When editing,
   change Exec.run_warp first and mirror the semantics here. *)

open Proteus_ir
open Proteus_backend

(* Operand pre-resolved for an integer-context read (Exec.src_i). *)
type isrc =
  | IV of int (* vector register id *)
  | IS of int (* scalar register id *)
  | IK of int64 (* constant, via Konst.as_int *)
  | IG of string (* device global symbol, resolved per launch *)

(* Operand pre-resolved for a float-context read (Exec.src_f). *)
type fsrc =
  | FV of int
  | FS of int
  | FK of float (* constant, via Konst.as_float *)
  | FBad (* float read of a symbol: traps like the reference *)

(* Destination register: class resolved, no Option.get at run time. *)
type tdst = DV of int | DS of int

(* Integer binops with the type-directed semantics of
   [Konst.as_int (Konst.binop op (kint ~bits x) (kint ~bits y))]
   specialized away from Konst boxing (see Exec_t.ibinop). *)
type ibinop =
  | BAdd | BSub | BMul | BSDiv | BSRem
  | BAnd | BOr | BXor | BShl | BLShr | BAShr
  | BSMin | BSMax

type fbinop = BFAdd | BFSub | BFMul | BFDiv | BFRem | BFMin | BFMax

(* Casts with source/destination widths pre-extracted. *)
type tcast =
  | CSiToFp of int * bool (* src int bits, round result to f32 *)
  | CFpToSi of int (* dst int bits *)
  | CFpExt
  | CFpTrunc
  | CZext of int * int (* src bits, dst bits *)
  | CSext of int * int
  | CTrunc of int (* dst bits *)
  | CBitFF (* float <- float *)
  | CBitIF (* float <- int bits *)
  | CBitFI (* int <- float bits *)
  | CBitII

(* Memory access type, pre-dispatched from Types.ty so loads/stores hit
   Gmem's width-specific primitives without constructing Konst.t. *)
type mty =
  | MBool
  | MI8
  | MI32
  | MI64 (* TInt 64 and TPtr *)
  | MF32
  | MF64

type atomic = AAddF32 | AAddF64 | AAddI32

type tquery =
  | QTidX | QTidY | QTidZ
  | QCtaidX | QCtaidY | QCtaidZ
  | QNtidX | QNtidY | QNtidZ
  | QNctaidX | QNctaidY | QNctaidZ

(* Math intrinsics as first-class variants rather than stored closures:
   the executor dispatches on the tag and calls the C external directly,
   which (unlike a call through a captured [float -> float]) keeps the
   operand and result unboxed in the per-lane loop. Unknown names fall
   through to Ir.Intrinsics at run time, preserving the reference
   interpreter's trap-on-execute behaviour. *)
type math1 =
  | M1Sqrt | M1Rsqrt | M1Exp | M1Log | M1Sin | M1Cos
  | M1Fabs | M1Floor | M1Ceil | M1Tanh
  | M1Gen of string

type math2 = M2Pow | M2Atan2 | M2Gen of string

type tinstr =
  | TIBin of ibinop * int * tdst * isrc * isrc (* bits *)
  | TFBin of fbinop * bool * tdst * fsrc * fsrc (* round to f32 *)
  | TFBinLong of fbinop * bool * tdst * fsrc * fsrc
      (* FDiv/FRem: long-latency pipe, extra math_warp counter *)
  | TIBinLong of ibinop * int * tdst * isrc * isrc (* SDiv/SRem *)
  | TICmp of Ops.cmpop * int * tdst * isrc * isrc (* bits *)
  | TFCmp of Ops.cmpop * tdst * fsrc * fsrc
  | TSelI of tdst * isrc * isrc * isrc (* cnd, a, b *)
  | TSelF of tdst * isrc * fsrc * fsrc
  | TCast of tcast * tdst * isrc * fsrc
      (* exactly one of the operands is live, per the cast kind *)
  | TMovI of tdst * isrc
  | TMovF of tdst * fsrc
  | TLd of Mach.space * mty * tdst * isrc (* addr *)
  | TSt of Mach.space * mty * isrc * fsrc * isrc
      (* int value | float value (per mty), addr *)
  | TQuery of tquery * tdst
  | TMath1 of math1 * bool * tdst * fsrc (* round to f32 *)
  | TMath2 of math2 * bool * tdst * fsrc * fsrc
  | TFma of bool * tdst * fsrc * fsrc * fsrc
  | TAtomic of atomic * tdst option * isrc * isrc * fsrc
      (* addr, int operand, float operand (one live per atomic) *)
  | TBarrier
  | TFrame of tdst * int64 (* immediate offset *)
  | TArg of int * tdst
  | TSpillStS of int * int (* slot, scalar reg *)
  | TSpillStV of int * int (* slot, vector reg *)
  | TSpillLd of int * tdst

type tterm = TTbr of int | TTcbr of isrc * int * int | TTret

type tblock = { tcode : tinstr array; tterm : tterm }

(* ---- executor buffers ---- *)

(* Allocation-free per-instruction cache-line dedup. A warp touches at
   most one address per lane per instruction, so a lanes-sized scratch
   pair suffices; duplicates are found by linear scan (<= 64 entries).
   Kept first-occurrence order, which for the executors means the
   reference interpreter's descending-lane order. *)
type linedup = { la_buf : int array; mutable la_n : int }

let linedup_create lanes = { la_buf = Array.make (max 1 lanes) 0; la_n = 0 }
let linedup_reset d = d.la_n <- 0

let linedup_add d (la : int) : bool =
  let fresh = ref true in
  for k = 0 to d.la_n - 1 do
    if d.la_buf.(k) = la then fresh := false
  done;
  if !fresh then begin
    d.la_buf.(d.la_n) <- la;
    d.la_n <- d.la_n + 1
  end;
  !fresh

(* Per-warp buffers of the threaded executor, sized for one program
   and one warp width; zero-filled before each warp, so reuse is
   indistinguishable from the reference's fresh allocations. Integer
   banks are byte buffers holding one int64 cell per register (see the
   unboxing note in Exec); float banks are flat float arrays, which
   OCaml already stores unboxed. *)
type tbufs = {
  tb_lanes : int; (* warp width the banks are sized for *)
  bvi : Bytes.t; (* vregs * lanes int64 cells *)
  bvf : float array;
  bsi : Bytes.t; (* sregs int64 cells *)
  bsf : float array;
  bspi : Bytes.t; (* spill_slots * lanes int64 cells *)
  bspf : float array;
  bsspi : Bytes.t; (* spill_slots int64 cells *)
  bsspf : float array;
  babuf : int array; (* per-instruction address collection *)
  bdedup : linedup;
  blanes : int array; (* active-lane indices of the current mask *)
}

let tbufs_create (f : Mach.mfunc) lanes =
  let nvr = max 1 f.Mach.vregs and nsr = max 1 f.Mach.sregs in
  let nsp = max 1 f.Mach.spill_slots in
  {
    tb_lanes = lanes;
    bvi = Bytes.make (nvr * lanes * 8) '\000';
    bvf = Array.make (nvr * lanes) 0.0;
    bsi = Bytes.make (nsr * 8) '\000';
    bsf = Array.make nsr 0.0;
    bspi = Bytes.make (nsp * lanes * 8) '\000';
    bspf = Array.make (nsp * lanes) 0.0;
    bsspi = Bytes.make (nsp * 8) '\000';
    bsspf = Array.make nsp 0.0;
    babuf = Array.make (max 1 lanes) 0;
    bdedup = linedup_create lanes;
    blanes = Array.make 64 0;
  }

(* Zero the register and spill banks; [babuf], [bdedup] and [blanes]
   are rewritten before every read. *)
let tbufs_reset b =
  Bytes.fill b.bvi 0 (Bytes.length b.bvi) '\000';
  Array.fill b.bvf 0 (Array.length b.bvf) 0.0;
  Bytes.fill b.bsi 0 (Bytes.length b.bsi) '\000';
  Array.fill b.bsf 0 (Array.length b.bsf) 0.0;
  Bytes.fill b.bspi 0 (Bytes.length b.bspi) '\000';
  Array.fill b.bspf 0 (Array.length b.bspf) 0.0;
  Bytes.fill b.bsspi 0 (Bytes.length b.bsspi) '\000';
  Array.fill b.bsspf 0 (Array.length b.bsspf) 0.0

type program = {
  tf : Mach.mfunc; (* the decoded function; used for identity checks *)
  entry : int;
  blocks : tblock array;
  labels : string array; (* block id -> label, for trap messages *)
  ipdom : int array; (* block id -> reconvergence block id, -1 = exit *)
  has_atomics : bool; (* forces the serial (single-domain) schedule *)
  has_barriers : bool;
  spare : tbufs option Atomic.t;
      (* executor buffers between launches; empty while a launch holds them *)
}

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let ibits_of = function
  | Types.TBool -> 1
  | Types.TInt b -> b
  | Types.TPtr _ -> 64
  | t -> fail "Tcode.ibits_of: %s" (Types.to_string t)

let is_float_ty = function Types.TFloat _ -> true | _ -> false
let fbits_of = function Types.TFloat b -> b | _ -> 64

let isrc_of (s : Mach.msrc) : isrc =
  match s with
  | Mach.Rs { Mach.rid; rcls = Mach.CV } -> IV rid
  | Mach.Rs { Mach.rid; rcls = Mach.CS } -> IS rid
  | Mach.Ki k -> IK (Konst.as_int k)
  | Mach.Gs g -> IG g

let fsrc_of (s : Mach.msrc) : fsrc =
  match s with
  | Mach.Rs { Mach.rid; rcls = Mach.CV } -> FV rid
  | Mach.Rs { Mach.rid; rcls = Mach.CS } -> FS rid
  | Mach.Ki k -> FK (Konst.as_float k)
  | Mach.Gs _ -> FBad

let dst_of (d : Mach.reg option) : tdst =
  match d with
  | Some { Mach.rid; rcls = Mach.CV } -> DV rid
  | Some { Mach.rid; rcls = Mach.CS } -> DS rid
  | None -> fail "Tcode: instruction missing destination"

let mty_of (ty : Types.ty) : mty =
  match ty with
  | Types.TBool -> MBool
  | Types.TInt 8 -> MI8
  | Types.TInt 32 -> MI32
  | Types.TInt _ -> MI64
  | Types.TFloat 32 -> MF32
  | Types.TFloat _ -> MF64
  | Types.TPtr _ -> MI64
  | Types.TVoid | Types.TArr _ -> fail "Tcode.mty_of: %s" (Types.to_string ty)

let mty_is_float = function MF32 | MF64 -> true | _ -> false

let nth srcs i =
  match List.nth_opt srcs i with
  | Some s -> s
  | None -> fail "Tcode: missing operand %d" i

let ibinop_of (op : Ops.binop) : ibinop =
  match op with
  | Ops.Add -> BAdd
  | Ops.Sub -> BSub
  | Ops.Mul -> BMul
  | Ops.SDiv -> BSDiv
  | Ops.SRem -> BSRem
  | Ops.And -> BAnd
  | Ops.Or -> BOr
  | Ops.Xor -> BXor
  | Ops.Shl -> BShl
  | Ops.LShr -> BLShr
  | Ops.AShr -> BAShr
  | Ops.SMin -> BSMin
  | Ops.SMax -> BSMax
  | _ -> fail "Tcode: int binop expected, got %s" (Ops.binop_to_string op)

let fbinop_of (op : Ops.binop) : fbinop =
  match op with
  | Ops.FAdd -> BFAdd
  | Ops.FSub -> BFSub
  | Ops.FMul -> BFMul
  | Ops.FDiv -> BFDiv
  | Ops.FRem -> BFRem
  | Ops.FMin -> BFMin
  | Ops.FMax -> BFMax
  | _ -> fail "Tcode: float binop expected, got %s" (Ops.binop_to_string op)

let math1_of = function
  | "math.sqrt" -> M1Sqrt
  | "math.rsqrt" -> M1Rsqrt
  | "math.exp" -> M1Exp
  | "math.log" -> M1Log
  | "math.sin" -> M1Sin
  | "math.cos" -> M1Cos
  | "math.fabs" -> M1Fabs
  | "math.floor" -> M1Floor
  | "math.ceil" -> M1Ceil
  | "math.tanh" -> M1Tanh
  | n -> M1Gen n

let math2_of = function
  | "math.pow" -> M2Pow
  | "math.atan2" -> M2Atan2
  | n -> M2Gen n

let query_of = function
  | "gpu.tid.x" -> QTidX
  | "gpu.tid.y" -> QTidY
  | "gpu.tid.z" -> QTidZ
  | "gpu.ctaid.x" -> QCtaidX
  | "gpu.ctaid.y" -> QCtaidY
  | "gpu.ctaid.z" -> QCtaidZ
  | "gpu.ntid.x" -> QNtidX
  | "gpu.ntid.y" -> QNtidY
  | "gpu.ntid.z" -> QNtidZ
  | "gpu.nctaid.x" -> QNctaidX
  | "gpu.nctaid.y" -> QNctaidY
  | "gpu.nctaid.z" -> QNctaidZ
  | q -> fail "Tcode: unknown query %s" q

let decode_instr (i : Mach.minstr) : tinstr =
  match i.Mach.op with
  | Mach.Obin (op, ty) ->
      if is_float_ty ty then begin
        let r32 = fbits_of ty = 32 in
        let a = fsrc_of (nth i.Mach.srcs 0) and b = fsrc_of (nth i.Mach.srcs 1) in
        match op with
        | Ops.FDiv | Ops.FRem -> TFBinLong (fbinop_of op, r32, dst_of i.Mach.dst, a, b)
        | _ -> TFBin (fbinop_of op, r32, dst_of i.Mach.dst, a, b)
      end
      else begin
        let bits = ibits_of ty in
        let a = isrc_of (nth i.Mach.srcs 0) and b = isrc_of (nth i.Mach.srcs 1) in
        match op with
        | Ops.SDiv | Ops.SRem -> TIBinLong (ibinop_of op, bits, dst_of i.Mach.dst, a, b)
        | _ -> TIBin (ibinop_of op, bits, dst_of i.Mach.dst, a, b)
      end
  | Mach.Ocmp (op, ty) ->
      if is_float_ty ty then
        TFCmp (op, dst_of i.Mach.dst, fsrc_of (nth i.Mach.srcs 0), fsrc_of (nth i.Mach.srcs 1))
      else
        TICmp
          ( op, ibits_of ty, dst_of i.Mach.dst,
            isrc_of (nth i.Mach.srcs 0), isrc_of (nth i.Mach.srcs 1) )
  | Mach.Osel ty ->
      let cnd = isrc_of (nth i.Mach.srcs 0) in
      if is_float_ty ty then
        TSelF (dst_of i.Mach.dst, cnd, fsrc_of (nth i.Mach.srcs 1), fsrc_of (nth i.Mach.srcs 2))
      else
        TSelI (dst_of i.Mach.dst, cnd, isrc_of (nth i.Mach.srcs 1), isrc_of (nth i.Mach.srcs 2))
  | Mach.Ocast (op, dty, sty) ->
      let a = nth i.Mach.srcs 0 in
      let dead_i = IK 0L and dead_f = FK 0.0 in
      let cast, ia, fa =
        match (op, is_float_ty sty, is_float_ty dty) with
        | Ops.SiToFp, false, true ->
            (CSiToFp (ibits_of sty, dty = Types.TFloat 32), isrc_of a, dead_f)
        | Ops.FpToSi, true, false -> (CFpToSi (ibits_of dty), dead_i, fsrc_of a)
        | Ops.FpExt, true, true -> (CFpExt, dead_i, fsrc_of a)
        | Ops.FpTrunc, true, true -> (CFpTrunc, dead_i, fsrc_of a)
        | Ops.Zext, false, false -> (CZext (ibits_of sty, ibits_of dty), isrc_of a, dead_f)
        | Ops.Sext, false, false -> (CSext (ibits_of sty, ibits_of dty), isrc_of a, dead_f)
        | Ops.Trunc, false, false -> (CTrunc (ibits_of dty), isrc_of a, dead_f)
        | Ops.Bitcast, true, true -> (CBitFF, dead_i, fsrc_of a)
        | Ops.Bitcast, false, true -> (CBitIF, isrc_of a, dead_f)
        | Ops.Bitcast, true, false -> (CBitFI, dead_i, fsrc_of a)
        | Ops.Bitcast, false, false -> (CBitII, isrc_of a, dead_f)
        | _ -> fail "Tcode: bad cast"
      in
      TCast (cast, dst_of i.Mach.dst, ia, fa)
  | Mach.Omov ty ->
      if is_float_ty ty then TMovF (dst_of i.Mach.dst, fsrc_of (nth i.Mach.srcs 0))
      else TMovI (dst_of i.Mach.dst, isrc_of (nth i.Mach.srcs 0))
  | Mach.Old (space, ty) ->
      TLd (space, mty_of ty, dst_of i.Mach.dst, isrc_of (nth i.Mach.srcs 0))
  | Mach.Ost (space, ty) ->
      let mty = mty_of ty in
      let v = nth i.Mach.srcs 0 and p = nth i.Mach.srcs 1 in
      if mty_is_float mty then TSt (space, mty, IK 0L, fsrc_of v, isrc_of p)
      else TSt (space, mty, isrc_of v, FK 0.0, isrc_of p)
  | Mach.Oquery q -> TQuery (query_of q, dst_of i.Mach.dst)
  | Mach.Omath (name, ty) -> (
      let r32 = fbits_of ty = 32 in
      let d = dst_of i.Mach.dst in
      match i.Mach.srcs with
      | [ a ] -> TMath1 (math1_of name, r32, d, fsrc_of a)
      | [ a; b ] -> TMath2 (math2_of name, r32, d, fsrc_of a, fsrc_of b)
      | [ a; b; c ] when name = "math.fma" ->
          TFma (r32, d, fsrc_of a, fsrc_of b, fsrc_of c)
      | _ -> fail "Tcode: math arity %s" name)
  | Mach.Oatomic name ->
      let kind =
        match name with
        | "gpu.atomic.add.f32" -> AAddF32
        | "gpu.atomic.add.f64" -> AAddF64
        | "gpu.atomic.add.i32" -> AAddI32
        | n -> fail "Tcode: atomic %s" n
      in
      let p = nth i.Mach.srcs 0 and v = nth i.Mach.srcs 1 in
      let dst =
        match i.Mach.dst with
        | Some { Mach.rid; rcls = Mach.CV } -> Some (DV rid)
        | Some { Mach.rid; rcls = Mach.CS } -> Some (DS rid)
        | None -> None
      in
      let iv, fv =
        match kind with
        | AAddI32 -> (isrc_of v, FK 0.0)
        | AAddF32 | AAddF64 -> (IK 0L, fsrc_of v)
      in
      TAtomic (kind, dst, isrc_of p, iv, fv)
  | Mach.Obarrier -> TBarrier
  | Mach.Oframe ->
      let off =
        match i.Mach.srcs with [ Mach.Ki k ] -> Konst.as_int k | _ -> 0L
      in
      TFrame (dst_of i.Mach.dst, off)
  | Mach.Oarg k -> TArg (k, dst_of i.Mach.dst)
  | Mach.Ospill_st slot -> (
      match nth i.Mach.srcs 0 with
      | Mach.Rs { Mach.rcls = Mach.CS; rid } -> TSpillStS (slot, rid)
      | Mach.Rs { Mach.rcls = Mach.CV; rid } -> TSpillStV (slot, rid)
      | _ -> fail "Tcode: spill of non-register")
  | Mach.Ospill_ld slot -> TSpillLd (slot, dst_of i.Mach.dst)

let decode (f : Mach.mfunc) : program =
  if f.Mach.blocks = [] then fail "Tcode.decode: kernel %s has no blocks" f.Mach.sym;
  let n = List.length f.Mach.blocks in
  let labels = Array.make n "" in
  let id_of : (string, int) Hashtbl.t = Hashtbl.create (2 * n) in
  List.iteri
    (fun i (b : Mach.mblock) ->
      labels.(i) <- b.Mach.mlab;
      Hashtbl.replace id_of b.Mach.mlab i)
    f.Mach.blocks;
  let bid lab =
    match Hashtbl.find_opt id_of lab with
    | Some i -> i
    | None -> fail "Tcode.decode: no block %s in %s" lab f.Mach.sym
  in
  let has_atomics = ref false and has_barriers = ref false in
  let blocks =
    Array.of_list
      (List.map
         (fun (b : Mach.mblock) ->
           let tcode =
             Array.of_list
               (List.map
                  (fun i ->
                    (match i.Mach.op with
                    | Mach.Oatomic _ -> has_atomics := true
                    | Mach.Obarrier -> has_barriers := true
                    | _ -> ());
                    decode_instr i)
                  b.Mach.code)
           in
           let tterm =
             match b.Mach.term with
             | Mach.Tbr l -> TTbr (bid l)
             | Mach.Tcbr (c, t, e) -> TTcbr (isrc_of c, bid t, bid e)
             | Mach.Tret -> TTret
           in
           { tcode; tterm })
         f.Mach.blocks)
  in
  (* int-indexed immediate-postdominator table (reconvergence points) *)
  let ipdom =
    Dom.ipostdoms n (fun i ->
        match blocks.(i).tterm with
        | TTbr l -> [ l ]
        | TTcbr (_, t, e) -> [ t; e ]
        | TTret -> [])
  in
  {
    tf = f;
    entry = 0;
    blocks;
    labels;
    ipdom;
    has_atomics = !has_atomics;
    has_barriers = !has_barriers;
    spare = Atomic.make None;
  }

(* Executor buffers for one launch of [p] on a [lanes]-wide warp: the
   program's spare set when the slot holds one of that width, else a
   fresh set. The exchange empties the slot, so a concurrent launch of
   the same program (serve tenants on other domains share one cache
   entry's program) never sees buffers in use and allocates its own.
   The spare lives and dies with the program: no table outside it can
   keep buffers alive. *)
let acquire p ~lanes : tbufs =
  match Atomic.exchange p.spare None with
  | Some b when b.tb_lanes = lanes -> b
  | _ -> tbufs_create p.tf lanes

(* Hand buffers back after a launch. If two launches overlapped, the
   last to finish keeps its set and the other is left to the GC. *)
let release p (b : tbufs) = Atomic.set p.spare (Some b)

(* A program may be scheduled across domains when re-ordering its
   thread-blocks cannot change results: atomics serialize through
   global memory with a defined (launch-order) result in the reference
   executor, so they force the serial schedule. *)
let parallel_safe p = not p.has_atomics
