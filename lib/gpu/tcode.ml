(* Threaded code: a Mach.mfunc pre-decoded once per kernel into flat
   arrays, and the warp states Exec compiles from them.

   Interpreting Mach directly means re-resolving [List.nth] operand
   lists, [Option.get] destinations, string block labels and a
   string-keyed ipdom map on every dynamic instruction, and allocating
   [Konst.t] boxes per lane per memory access. Decoding replaces all of
   that with integer block ids, an int-indexed ipdom table, and
   per-instruction records whose operands are already split into
   int-context / float-context reads. Constants and device-global
   symbols get per-program slots, so every operand names
   a cell of the register banks: a vector register, a scalar register,
   a constant or a symbol resolved per launch.

   Decoding is total. A shape the specification interpreter
   (Refexec, in lib/fuzz) rejects only when it executes it - a missing
   destination or operand, an unknown query, math arity or atomic, a
   constant of the wrong kind, a register outside the function's banks
   - decodes to a [TTrap] (or [TTtrap] for a branch) holding the
   exception the interpreter raises at that point; the two whose
   failure depends on run time, a void access and a float op on an
   integer type, keep it there ([MNone], [TIBinBad]). An unreached bad
   instruction costs nothing and a reached one fails the launch as the
   interpreter does. [Decode_error] is left for Mach the interpreter
   rejects before its first instruction: a kernel with no blocks, or a
   branch to a label that does not exist.

   Exec compiles a program into a [wstate]: the register banks of one
   warp, the per-launch values the compiled code reads, and one
   closure per instruction. A decoded [program] is immutable apart from
   its stack of idle warp states (see [pop]), so one decode is shared
   by every launch of the kernel (Gpurt keeps a per-kernel program; the
   JIT attaches programs to code-cache entries as a third cache tier)
   and by all domains of a multicore launch, each running its own
   state.

   Semantics note: every operation here must be bit-identical to the
   specification interpreter - the differential qcheck/HeCBench tests,
   fuzz oracle (b) and the "paper tables unchanged" gate all depend on
   it. When editing, change Refexec.run_warp first and mirror the
   semantics here. *)

open Proteus_support
open Proteus_ir
open Proteus_backend

(* A trap raised by the executor itself (shared with Refexec). *)
exception Trap of string

(* Operand pre-resolved for an integer-context read. *)
type isrc =
  | IV of int (* vector register id *)
  | IS of int (* scalar register id *)
  | IK of int (* constant: slot in [iconsts], via Konst.as_int *)
  | IG of int (* device global: slot in [syms], resolved per launch *)

(* Operand pre-resolved for a float-context read. *)
type fsrc =
  | FV of int
  | FS of int
  | FK of int (* constant: slot in [fconsts], via Konst.as_float *)
  | FBad (* float read of a symbol: traps when read, like Refexec *)

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
  | MNone of string
      (* void or array type (printed): fails per lane, after the
         address read, like Gmem.read / Refexec's store path *)

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
  | TLd of Mach.space * mty * tdst * isrc * int (* addr, site *)
  | TSt of Mach.space * mty * isrc * fsrc * isrc * int
      (* int value | float value (per mty), addr, site *)
  | TQuery of tquery * tdst
  | TMath1 of math1 * bool * tdst * fsrc (* round to f32 *)
  | TMath2 of math2 * bool * tdst * fsrc * fsrc
  | TFma of bool * tdst * fsrc * fsrc * fsrc
  | TAtomic of atomic * tdst option * isrc * isrc * fsrc * int
      (* addr, int operand, float operand (one live per atomic), site *)
  | TBarrier
  | TFrame of tdst * int64 (* immediate offset *)
  | TArg of int * tdst
  | TSpillStS of int * int (* slot, scalar reg *)
  | TSpillStV of int * int (* slot, vector reg *)
  | TSpillLd of int * tdst
  | TTrap of exn (* the shape Refexec fails on when it executes it *)
  | TIBinBad of Ops.binop * int * bool * isrc * isrc
      (* a float op on an integer type: Konst.binop's failure, whose
         message carries the first active lane's operands (bits,
         scalar destination, a, b) *)

(* [TTtrap]: a conditional branch whose condition Refexec cannot read *)
type tterm = TTbr of int | TTcbr of isrc * int * int | TTret | TTtrap of exn

type tblock = { tcode : tinstr array; tterm : tterm }

(* A memory-instruction site for PerfLint's per-site profile: the
   structural key plus the access width and space Counters.record_site
   takes. *)
type site = { skey : Counters.site_key; swidth : int; sscratch : bool }

(* ---- warp state ---- *)

(* Allocation-free per-instruction cache-line dedup. A warp touches at
   most one address per lane per instruction, so a lanes-sized buffer
   suffices. Neighbouring lanes mostly share a line, so the last kept
   line is tested first; the rest is scanned only for a line that
   differs from it (<= 64 entries). Kept first-occurrence order, which
   for the executors means the reference interpreter's descending-lane
   order. *)
type linedup = { la_buf : int array; mutable la_n : int }

let linedup_create lanes = { la_buf = Array.make (max 1 lanes) 0; la_n = 0 }
let linedup_reset d = d.la_n <- 0

let linedup_add d (la : int) : bool =
  let n = d.la_n and buf = d.la_buf in
  if n > 0 && Array.unsafe_get buf (n - 1) = la then false
  else begin
    let k = ref (n - 2) in
    while !k >= 0 && Array.unsafe_get buf !k <> la do
      decr k
    done;
    if !k >= 0 then false
    else begin
      buf.(n) <- la;
      d.la_n <- n + 1;
      true
    end
  end

(* a one-cell float32 array the executor rounds through (Exec.f32_round) *)
type f32cell = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

let f32_cell () : f32cell = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout 1

(* The registers of one warp. Both banks start with [vregs * lanes]
   vector cells (register r, lane l at r * lanes + l) followed at [ub]
   by one cell per scalar register. The integer bank goes on with the
   program's integer constants and symbols, the float bank with its
   float constants, and each ends in a discard cell, the destination of
   an atomic whose old value nobody reads. Integer cells are int64s in
   a byte buffer (see the unboxing note in Exec); float cells a flat
   float array, which OCaml already stores unboxed. The register and
   spill cells are zeroed before each warp ([reset]), so reuse is
   indistinguishable from the reference's fresh arrays; constants are
   written once, symbols per launch. *)
type banks = {
  lanes : int; (* warp width the banks are sized for *)
  ub : int; (* cell of scalar register 0 *)
  nsr : int;
  nik : int;
  bi : Bytes.t;
  bf : float array;
  spi : Bytes.t; (* spill_slots * lanes int64 cells *)
  spf : float array;
  sspi : Bytes.t; (* spill_slots int64 cells *)
  sspf : float array;
  abuf : int array; (* per-instruction address collection *)
  dedup : linedup;
  act : int array; (* active-lane indices of the current mask *)
  mutable nact : int; (* how many *)
  mutable alo : int; (* the mask [act] lists, as 32-bit halves; -1: none *)
  mutable ahi : int;
  f32 : f32cell;
  serr : exn array;
      (* per symbol slot: why resolving it failed this launch, or the
         executor's marker for a resolved slot *)
}

(* Operand and destination cells; [imask]/[fmask] is the lane mask the
   compiled loops apply before indexing: -1 for a vector register, 0
   for a uniform cell. [FBad] is never read (the instruction traps
   first). *)
let icell b = function
  | IV r -> r * b.lanes
  | IS r -> b.ub + r
  | IK k -> b.ub + b.nsr + k
  | IG g -> b.ub + b.nsr + b.nik + g

let imask = function IV _ -> -1 | IS _ | IK _ | IG _ -> 0

let fcell b = function
  | FV r -> r * b.lanes
  | FS r -> b.ub + r
  | FK k -> b.ub + b.nsr + k
  | FBad -> 0

let fmask = function FV _ -> -1 | FS _ | FK _ | FBad -> 0
let dcell b = function DV r -> r * b.lanes | DS r -> b.ub + r
let idiscard b = (Bytes.length b.bi / 8) - 1
let fdiscard b = Array.length b.bf - 1

(* Zero the register and spill cells; [abuf], [dedup] and [act] are
   rewritten before every read. *)
let reset b =
  let regs = b.ub + b.nsr in
  b.alo <- -1;
  Bytes.fill b.bi 0 (regs * 8) '\000';
  Array.fill b.bf 0 regs 0.0;
  Bytes.fill b.spi 0 (Bytes.length b.spi) '\000';
  Array.fill b.spf 0 (Array.length b.spf) 0.0;
  Bytes.fill b.sspi 0 (Bytes.length b.sspi) '\000';
  Array.fill b.sspf 0 (Array.length b.sspf) 0.0

(* Where deduped cache-line accesses go: straight into the shared L2
   model (serial schedule) or into a per-block trace that is replayed
   serially after a parallel launch. *)
type line_sink = Direct of L2cache.t | Record of int Util.Vec.t

(* The values of the launch a warp state runs (in the multicore
   schedule, of the thread-block), written before it runs. The compiled
   closures read each field once per instruction, never per lane. *)
type wlaunch = {
  mutable data : Bytes.t; (* the arena: execution never grows it *)
  mutable ctr : Counters.t;
  mutable sink : line_sink;
  mutable args : Konst.t array;
  mutable profile : Counters.site_table option;
  mutable line : int; (* L2 line size *)
  mutable lsh : int; (* log2 of [line] when a power of two, else -1 *)
  mutable gx : int; (* grid dims *)
  mutable bx : int; (* block dims; launch is 1-D so y = z = 1 *)
  mutable scratch_base : int;
  mutable thread_frame : int;
  (* the current warp: block index, thread id of lane 0 within the
     block, the byte offsets of lane 0's frame and spill area, and the
     instructions it may still retire *)
  mutable bix : int;
  mutable btx : int;
  mutable scratch0 : int;
  mutable spill0 : int;
  mutable fuel : int;
}

(* A block terminator with its condition resolved to a cell. *)
type cterm =
  | KBr of int
  | KRet
  | KTrap of exn
  | KCbr of int * int * int * int * int
      (* condition cell, lane mask, symbol slot or -1, then, else *)

(* A compiled block: one closure per instruction, applied to the
   number of active lanes. *)
type cblock = { ccode : (int -> unit) array; cterm : cterm }

(* A warp state: banks, launch values and the code compiled over them.
   One domain runs it at a time. *)
type wstate = { wb : banks; wl : wlaunch; wcode : cblock array }

type program = {
  tf : Mach.mfunc; (* the decoded function; used for identity checks *)
  entry : int;
  blocks : tblock array;
  ipdom : int array; (* block id -> reconvergence block id, -1 = exit *)
  sites : site array; (* indexed by the site ordinal of TLd/TSt/TAtomic *)
  has_atomics : bool; (* forces the serial (single-domain) schedule *)
  iconsts : int64 array; (* [IK] slots *)
  fconsts : float array; (* [FK] slots *)
  syms : string array; (* [IG] slots *)
  states : wstate list Atomic.t; (* idle warp states (see [pop]) *)
}

let banks_create (p : program) lanes =
  let f = p.tf in
  let nvr = max 1 f.Mach.vregs and nsr = max 1 f.Mach.sregs in
  let nsp = max 1 f.Mach.spill_slots in
  let ub = nvr * lanes in
  let nik = Array.length p.iconsts and nfk = Array.length p.fconsts in
  let bi = Bytes.make ((ub + nsr + nik + Array.length p.syms + 1) * 8) '\000' in
  Array.iteri (fun k v -> Bytes.set_int64_ne bi ((ub + nsr + k) * 8) v) p.iconsts;
  let bf = Array.make (ub + nsr + nfk + 1) 0.0 in
  Array.blit p.fconsts 0 bf (ub + nsr) nfk;
  {
    lanes; ub; nsr; nik; bi; bf;
    spi = Bytes.make (nsp * lanes * 8) '\000';
    spf = Array.make (nsp * lanes) 0.0;
    sspi = Bytes.make (nsp * 8) '\000';
    sspf = Array.make nsp 0.0;
    abuf = Array.make (max 1 lanes) 0;
    dedup = linedup_create lanes;
    act = Array.make 64 0;
    nact = 0;
    alo = -1;
    ahi = -1;
    f32 = f32_cell ();
    serr = Array.make (Array.length p.syms) Not_found;
  }

(* what an idle state points at; never written, since a launch sets
   every field before it runs *)
let idle_ctr = Counters.create ()
let idle_sink = Record (Util.Vec.create 0)

let wlaunch_create () =
  {
    data = Bytes.empty; ctr = idle_ctr; sink = idle_sink; args = [||]; profile = None;
    line = 1; lsh = 0; gx = 0; bx = 1; scratch_base = 0; thread_frame = 0; bix = 0;
    btx = 0; scratch0 = 0; spill0 = 0; fuel = 0;
  }

(* Drop a finished launch's values. The state outlives them: it keeps
   no arena, trace or arguments alive, and the launch's young counters
   and sink are not promoted for being referenced from it. *)
let idle wl =
  wl.data <- Bytes.empty;
  wl.ctr <- idle_ctr;
  wl.sink <- idle_sink;
  wl.args <- [||];
  wl.profile <- None

(* A lock-free stack of idle warp states. A launch pops one (Exec
   compiles a new state only when the stack is empty) and pushes it back
   when it completes; a launch that fails drops it. Launches of one
   program on several domains (serve tenants sharing a cache entry, the
   blocks of a multicore launch) therefore never share a state, and the
   stack holds at most as many states as ever ran at once. The states
   live and die with the program: no table outside it keeps them
   alive. *)
let rec pop (s : 'a list Atomic.t) : 'a option =
  match Atomic.get s with
  | [] -> None
  | x :: rest as l -> if Atomic.compare_and_set s l rest then Some x else pop s

let rec push (s : 'a list Atomic.t) (x : 'a) : unit =
  let l = Atomic.get s in
  if not (Atomic.compare_and_set s l (x :: l)) then push s x

(* Mach the specification interpreter rejects before running any
   instruction (no blocks; a branch to a missing label). *)
exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

(* Inside [decode_instr]: the instruction fails with this exception
   when it executes. *)
exception Reach of exn

let reach e = raise (Reach e)
let trap fmt = Printf.ksprintf (fun s -> reach (Trap s)) fmt
let is_float_ty = function Types.TFloat _ -> true | _ -> false
let fbits_of = function Types.TFloat b -> b | _ -> 64

(* Refexec's width helper, with its message *)
let ibits_of = function
  | Types.TBool -> 1
  | Types.TInt b -> b
  | Types.TPtr _ -> 64
  | t -> reach (Failure ("Exec.ibits_of: " ^ Types.to_string t))

let mty_of (ty : Types.ty) : mty =
  match ty with
  | Types.TBool -> MBool
  | Types.TInt 8 -> MI8
  | Types.TInt 32 -> MI32
  | Types.TInt _ -> MI64
  | Types.TFloat 32 -> MF32
  | Types.TFloat _ -> MF64
  | Types.TPtr _ -> MI64
  | Types.TVoid | Types.TArr _ -> MNone (Types.to_string ty)

let mty_is_float = function MF32 | MF64 -> true | _ -> false

let ibinop_of (op : Ops.binop) : ibinop option =
  match op with
  | Ops.Add -> Some BAdd
  | Ops.Sub -> Some BSub
  | Ops.Mul -> Some BMul
  | Ops.SDiv -> Some BSDiv
  | Ops.SRem -> Some BSRem
  | Ops.And -> Some BAnd
  | Ops.Or -> Some BOr
  | Ops.Xor -> Some BXor
  | Ops.Shl -> Some BShl
  | Ops.LShr -> Some BLShr
  | Ops.AShr -> Some BAShr
  | Ops.SMin -> Some BSMin
  | Ops.SMax -> Some BSMax
  | _ -> None

let fbinop_of (op : Ops.binop) : fbinop option =
  match op with
  | Ops.FAdd -> Some BFAdd
  | Ops.FSub -> Some BFSub
  | Ops.FMul -> Some BFMul
  | Ops.FDiv -> Some BFDiv
  | Ops.FRem -> Some BFRem
  | Ops.FMin -> Some BFMin
  | Ops.FMax -> Some BFMax
  | _ -> None

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
  | q -> trap "unknown query %s" q

(* Operand and destination checks for one function. [decode_instr]
   makes them in Refexec's evaluation order (OCaml evaluates call and
   tuple arguments right to left), so the first to fail is the one
   Refexec meets. Register ids must lie inside the banks: the executor
   reads them unchecked. A float read of a symbol fails only when read
   ([FBad]); [sym_read] notes one, because if a later check of the same
   instruction fails, that read came first and is the failure.
   Each constant operand gets a slot of its own, each distinct symbol
   one (kept last first). *)
type dctx = {
  nvr : int;
  nsr : int;
  nsp : int;
  mutable sym_read : bool;
  mutable iks : int64 list;
  mutable nik : int;
  mutable fks : float list;
  mutable nfk : int;
  mutable sgs : string list;
}

let ik c v =
  c.iks <- v :: c.iks;
  c.nik <- c.nik + 1;
  IK (c.nik - 1)

let fk c v =
  c.fks <- v :: c.fks;
  c.nfk <- c.nfk + 1;
  FK (c.nfk - 1)

let sym c g =
  let rec find i = function
    | [] ->
        c.sgs <- g :: c.sgs;
        List.length c.sgs - 1
    | s :: rest -> if String.equal s g then i else find (i - 1) rest
  in
  IG (find (List.length c.sgs - 1) c.sgs)

let in_bank n r = if r < 0 || r >= n then reach (Invalid_argument "index out of bounds")
let vreg c r = in_bank c.nvr r; r
let sreg c r = in_bank c.nsr r; r
let slot c s = in_bank c.nsp s; s
let konst conv k = try conv k with Failure _ as e -> reach e

let isrc_of c (s : Mach.msrc) : isrc =
  match s with
  | Mach.Rs { Mach.rid; rcls = Mach.CV } -> IV (vreg c rid)
  | Mach.Rs { Mach.rid; rcls = Mach.CS } -> IS (sreg c rid)
  | Mach.Ki k -> ik c (konst Konst.as_int k)
  | Mach.Gs g -> sym c g

(* [~arm:true] for a select arm, which only lanes that pick it read *)
let fsrc_of ?(arm = false) c (s : Mach.msrc) : fsrc =
  match s with
  | Mach.Rs { Mach.rid; rcls = Mach.CV } -> FV (vreg c rid)
  | Mach.Rs { Mach.rid; rcls = Mach.CS } -> FS (sreg c rid)
  | Mach.Ki k -> fk c (konst Konst.as_float k)
  | Mach.Gs _ ->
      if not arm then c.sym_read <- true;
      FBad

let need_dst (i : Mach.minstr) : Mach.reg =
  match i.Mach.dst with Some d -> d | None -> reach (Invalid_argument "option is None")

let dst_of c (d : Mach.reg) : tdst =
  match d.Mach.rcls with Mach.CV -> DV (vreg c d.Mach.rid) | Mach.CS -> DS (sreg c d.Mach.rid)

let nth srcs i = match List.nth_opt srcs i with Some s -> s | None -> reach (Failure "nth")

(* [site kind ~width ~scratch] registers the instruction's profiling
   site and returns its ordinal. *)
let decode_instr c ~site (i : Mach.minstr) : tinstr =
  match i.Mach.op with
  | Mach.Obin (op, ty) ->
      let d = need_dst i in
      let b = nth i.Mach.srcs 1 and a = nth i.Mach.srcs 0 in
      if is_float_ty ty then begin
        let r32 = fbits_of ty = 32 in
        let fb = fsrc_of c b in
        let fa = fsrc_of c a in
        match fbinop_of op with
        | None -> trap "int binop on float type"
        | Some fop -> (
            let d = dst_of c d in
            match op with
            | Ops.FDiv | Ops.FRem -> TFBinLong (fop, r32, d, fa, fb)
            | _ -> TFBin (fop, r32, d, fa, fb))
      end
      else begin
        let bits = ibits_of ty in
        let ib = isrc_of c b in
        let ia = isrc_of c a in
        match ibinop_of op with
        | None -> TIBinBad (op, bits, d.Mach.rcls = Mach.CS, ia, ib)
        | Some iop -> (
            let d = dst_of c d in
            match op with
            | Ops.SDiv | Ops.SRem -> TIBinLong (iop, bits, d, ia, ib)
            | _ -> TIBin (iop, bits, d, ia, ib))
      end
  | Mach.Ocmp (op, ty) ->
      let d = need_dst i in
      let b = nth i.Mach.srcs 1 and a = nth i.Mach.srcs 0 in
      if is_float_ty ty then begin
        let fb = fsrc_of c b in
        let fa = fsrc_of c a in
        TFCmp (op, dst_of c d, fa, fb)
      end
      else begin
        let bits = ibits_of ty in
        let ib = isrc_of c b in
        let ia = isrc_of c a in
        TICmp (op, bits, dst_of c d, ia, ib)
      end
  | Mach.Osel ty ->
      let d = need_dst i in
      let b = nth i.Mach.srcs 2 and a = nth i.Mach.srcs 1 in
      let cnd = isrc_of c (nth i.Mach.srcs 0) in
      if is_float_ty ty then begin
        let fa = fsrc_of ~arm:true c a in
        let fb = fsrc_of ~arm:true c b in
        TSelF (dst_of c d, cnd, fa, fb)
      end
      else begin
        let ia = isrc_of c a in
        let ib = isrc_of c b in
        TSelI (dst_of c d, cnd, ia, ib)
      end
  | Mach.Ocast (op, dty, sty) ->
      let d = need_dst i in
      let a = nth i.Mach.srcs 0 in
      let dead_i = ik c 0L and dead_f = fk c 0.0 in
      let cast, ia, fa =
        match (op, is_float_ty sty, is_float_ty dty) with
        | Ops.SiToFp, false, true ->
            let sbits = ibits_of sty in
            (CSiToFp (sbits, dty = Types.TFloat 32), isrc_of c a, dead_f)
        | Ops.FpToSi, true, false ->
            let fa = fsrc_of c a in
            (CFpToSi (ibits_of dty), dead_i, fa)
        | Ops.FpExt, true, true -> (CFpExt, dead_i, fsrc_of c a)
        | Ops.FpTrunc, true, true -> (CFpTrunc, dead_i, fsrc_of c a)
        | (Ops.Zext | Ops.Sext | Ops.Trunc), false, false ->
            let sbits = ibits_of sty in
            let dbits = ibits_of dty in
            let ia = isrc_of c a in
            let cast =
              match op with
              | Ops.Zext -> CZext (sbits, dbits)
              | Ops.Sext -> CSext (sbits, dbits)
              | _ -> CTrunc dbits
            in
            (cast, ia, dead_f)
        | Ops.Bitcast, true, true -> (CBitFF, dead_i, fsrc_of c a)
        | Ops.Bitcast, false, true -> (CBitIF, isrc_of c a, dead_f)
        | Ops.Bitcast, true, false -> (CBitFI, dead_i, fsrc_of c a)
        | Ops.Bitcast, false, false -> (CBitII, isrc_of c a, dead_f)
        | _ -> trap "bad cast"
      in
      TCast (cast, dst_of c d, ia, fa)
  | Mach.Omov ty ->
      let d = need_dst i in
      let a = nth i.Mach.srcs 0 in
      if is_float_ty ty then begin
        let fa = fsrc_of c a in
        TMovF (dst_of c d, fa)
      end
      else begin
        let ia = isrc_of c a in
        TMovI (dst_of c d, ia)
      end
  | Mach.Old (space, ty) ->
      let d = need_dst i in
      let pa = isrc_of c (nth i.Mach.srcs 0) in
      let d = dst_of c d in
      TLd
        ( space, mty_of ty, d, pa,
          site Counters.Kload ~width:(Types.size_of ty) ~scratch:(space = Mach.SScratch) )
  | Mach.Ost (space, ty) ->
      let v = nth i.Mach.srcs 0 and p = nth i.Mach.srcs 1 in
      let pa = isrc_of c p in
      let mty = mty_of ty in
      let iv, fv =
        if mty_is_float mty then (ik c 0L, fsrc_of c v) else (isrc_of c v, fk c 0.0)
      in
      TSt
        ( space, mty, iv, fv, pa,
          site Counters.Kstore ~width:(Types.size_of ty) ~scratch:(space = Mach.SScratch) )
  | Mach.Oquery q ->
      let d = need_dst i in
      let q = query_of q in
      TQuery (q, dst_of c d)
  | Mach.Omath (name, ty) -> (
      let r32 = fbits_of ty = 32 in
      let d = need_dst i in
      match i.Mach.srcs with
      | [ a ] ->
          let fa = fsrc_of c a in
          TMath1 (math1_of name, r32, dst_of c d, fa)
      | [ a; b ] ->
          let fb = fsrc_of c b in
          let fa = fsrc_of c a in
          TMath2 (math2_of name, r32, dst_of c d, fa, fb)
      | [ a; b; cc ] when name = "math.fma" ->
          let fc = fsrc_of c cc in
          let fb = fsrc_of c b in
          let fa = fsrc_of c a in
          TFma (r32, dst_of c d, fa, fb, fc)
      | _ -> trap "math arity %s" name)
  | Mach.Oatomic name ->
      let p = nth i.Mach.srcs 0 and v = nth i.Mach.srcs 1 in
      let pa = isrc_of c p in
      let kind =
        match name with
        | "gpu.atomic.add.f32" -> AAddF32
        | "gpu.atomic.add.f64" -> AAddF64
        | "gpu.atomic.add.i32" -> AAddI32
        | n -> trap "atomic %s" n
      in
      let iv, fv =
        match kind with
        | AAddI32 -> (isrc_of c v, fk c 0.0)
        | AAddF32 | AAddF64 -> (ik c 0L, fsrc_of c v)
      in
      let dst = Option.map (dst_of c) i.Mach.dst in
      let width = if kind = AAddF64 then 8 else 4 in
      TAtomic (kind, dst, pa, iv, fv, site Counters.Katomic ~width ~scratch:false)
  | Mach.Obarrier -> TBarrier
  | Mach.Oframe ->
      let d = need_dst i in
      let off =
        match i.Mach.srcs with [ Mach.Ki k ] -> konst Konst.as_int k | _ -> 0L
      in
      TFrame (dst_of c d, off)
  | Mach.Oarg k ->
      let d = need_dst i in
      TArg (k, dst_of c d)
  | Mach.Ospill_st s -> (
      match nth i.Mach.srcs 0 with
      | Mach.Rs { Mach.rcls = Mach.CS; rid } ->
          let rid = sreg c rid in
          TSpillStS (slot c s, rid)
      | Mach.Rs { Mach.rcls = Mach.CV; rid } ->
          let rid = vreg c rid in
          TSpillStV (slot c s, rid)
      | _ -> trap "spill of non-register")
  | Mach.Ospill_ld s ->
      let d = need_dst i in
      let s = slot c s in
      TSpillLd (s, dst_of c d)

let decode (f : Mach.mfunc) : program =
  if f.Mach.blocks = [] then fail "Tcode.decode: kernel %s has no blocks" f.Mach.sym;
  let n = List.length f.Mach.blocks in
  let id_of : (string, int) Hashtbl.t = Hashtbl.create (2 * n) in
  List.iteri (fun i (b : Mach.mblock) -> Hashtbl.replace id_of b.Mach.mlab i) f.Mach.blocks;
  let bid lab =
    match Hashtbl.find_opt id_of lab with
    | Some i -> i
    | None -> fail "Tcode.decode: no block %s in %s" lab f.Mach.sym
  in
  let c =
    { nvr = max 1 f.Mach.vregs; nsr = max 1 f.Mach.sregs;
      nsp = max 1 f.Mach.spill_slots; sym_read = false; iks = []; nik = 0;
      fks = []; nfk = 0; sgs = [] }
  in
  let sites = ref [] and nsites = ref 0 in
  let has_atomics = ref false in
  let succs = Array.make n [] in
  let blocks =
    Array.of_list
      (List.mapi
         (fun bi (b : Mach.mblock) ->
           (* site ordinals count every memory op of the block in code
              order, as PerfLint's static walk does *)
           let ord = ref 0 in
           let decode_one (i : Mach.minstr) =
             (match i.Mach.op with Mach.Oatomic _ -> has_atomics := true | _ -> ());
             let site sk_kind ~width ~scratch =
               let skey =
                 { Counters.sk_sym = f.Mach.sym; sk_block = b.Mach.mlab; sk_ord = !ord; sk_kind }
               in
               sites := { skey; swidth = width; sscratch = scratch } :: !sites;
               incr nsites;
               !nsites - 1
             in
             c.sym_read <- false;
             let ti =
               try decode_instr c ~site i
               with Reach e -> TTrap (if c.sym_read then Trap "float read of symbol" else e)
             in
             if Mach.is_mem_op i.Mach.op then incr ord;
             ti
           in
           let tcode = Array.of_list (List.map decode_one b.Mach.code) in
           let tterm =
             match b.Mach.term with
             | Mach.Tbr l ->
                 let l = bid l in
                 succs.(bi) <- [ l ];
                 TTbr l
             | Mach.Tcbr (cnd, t, e) -> (
                 let t = bid t and e = bid e in
                 succs.(bi) <- [ t; e ];
                 match isrc_of c cnd with
                 | cnd -> TTcbr (cnd, t, e)
                 | exception Reach ex -> TTtrap ex)
             | Mach.Tret -> TTret
           in
           { tcode; tterm })
         f.Mach.blocks)
  in
  {
    tf = f;
    entry = 0;
    blocks;
    (* int-indexed immediate-postdominator table (reconvergence
       points), over the Mach successors, trapping branches included *)
    ipdom = Dom.ipostdoms n (Array.get succs);
    sites = Array.of_list (List.rev !sites);
    has_atomics = !has_atomics;
    iconsts = Array.of_list (List.rev c.iks);
    fconsts = Array.of_list (List.rev c.fks);
    syms = Array.of_list (List.rev c.sgs);
    states = Atomic.make [];
  }

(* A program may be scheduled across domains when re-ordering its
   thread-blocks cannot change results: atomics serialize through
   global memory with a defined (launch-order) result in the reference
   executor, so they force the serial schedule. *)
let parallel_safe p = not p.has_atomics
