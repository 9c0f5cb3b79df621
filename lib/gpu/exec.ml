(* SIMT executor: runs machine code warp by warp in lockstep with an
   active mask and immediate-postdominator reconvergence. Both sides of
   a divergent branch issue for the whole warp (serialised), memory
   accesses coalesce into cache lines through the L2 model, and scratch
   (spill / local-array) traffic goes through the same hierarchy.

   There is one engine. [compile] turns a decoded Tcode program into a
   warp state (Tcode.wstate): the register banks of one warp and one
   closure per instruction, with the operation, the destination class,
   each operand's cell and lane mask and the f32 rounding chosen when
   the closure is built, so the per-lane loops hold no dispatch. The
   program keeps its idle states, so a warm launch builds nothing. A
   launch runs serially on one state, or schedules independent
   thread-blocks across a domain pool ("multicore"), each domain
   running the blocks it takes on a state of its own. The multicore
   schedule keeps L2 determinism by recording each block's cache-line
   trace during parallel execution and replaying the traces serially in
   block order afterwards, so the shared LRU model sees exactly the
   serial access sequence. Kernels with atomics, and every launch while
   a PerfLint site profile is armed, run serially.

   Its specification is the reference interpreter [Refexec] (lib/fuzz):
   memory contents, every counter, the simulated timing, the per-site
   profile and the failure of a failing launch must match it bit for
   bit. Fuzz oracle (b) and test/test_exec.ml check that. *)

open Proteus_support
open Proteus_ir
open Proteus_backend

let popcount = Util.popcount64

exception Trap = Tcode.Trap

(* Unchecked fixed-width byte-buffer access (native byte order). The
   integer register banks and the arena accesses below go through these
   compiler primitives instead of [int64 array] / the Gmem accessors
   because their results stay unboxed inside the per-lane loops: an
   [int64 array] store allocates a fresh box per register write, and at
   ~10^8 dynamic lane-operations per benchmark that boxing dominated
   the executor's wall clock. They are used only where the index is
   known to be in range: register ids are checked once at decode time
   (register id < nvr/nsr, lane < lanes), and arena offsets sit behind
   the explicit bounds test that reproduces Gmem.check. *)
external b_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external b_set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external b_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Native order is fine for the register banks, which are private to
   one warp. Device memory is little-endian on every host, like Gmem's
   accessors: the arena reads and writes swap bytes behind the
   compile-time [%big_endian] constant, so on a little-endian host they
   compile to the plain primitive. *)
external big_endian : unit -> bool = "%big_endian"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] le_get32u d i = if big_endian () then bswap32 (b_get32u d i) else b_get32u d i
let[@inline] le_get64u d i = if big_endian () then bswap64 (b_get64u d i) else b_get64u d i

let[@inline] le_set32u d i v =
  if big_endian () then b_set32u d i (bswap32 v) else b_set32u d i v

let[@inline] le_set64u d i v =
  if big_endian () then b_set64u d i (bswap64 v) else b_set64u d i v

(* ------------------------------------------------------------------ *)
(* Lane accessors. A compiled loop runs one operation for the lanes
   [ls.(0..n-1)]: the active lanes, or lane 0 alone ([lane0]) for a
   scalar destination, which reads vector operands at lane 0 as the
   reference does. An operand is a bank cell [o] and a lane mask [m]
   (Tcode.icell / imask): lane l reads cell [o + (l land m)], its own
   cell of a vector register or the one cell of a uniform operand,
   without a branch. A destination cell is indexed by the lane.

   Each operation has its own hand-written loop. This library is built
   without flambda, where a loop taking the operation as a function
   ([fun x y -> x +. y]) boxes every lane's operands and result; the
   accessors below are inlined, so every int64/float intermediate stays
   unboxed. *)

let lane0 = [| 0 |]

let[@inline] iget (bi : Bytes.t) o m l : int64 = b_get64u bi ((o + (l land m)) lsl 3)
let[@inline] iset (bi : Bytes.t) d l (v : int64) = b_set64u bi ((d + l) lsl 3) v
let[@inline] fget (bf : float array) o m l : float = Array.unsafe_get bf (o + (l land m))
let[@inline] fset (bf : float array) d l (v : float) = Array.unsafe_set bf (d + l) v

(* sign-normalise to the width whose shift [sh] is *)
let[@inline] sx (v : int64) sh = Int64.shift_right (Int64.shift_left v sh) sh
let shift_of bits = if bits >= 64 then 0 else 64 - bits

type lanes_fn = int array -> int -> unit

(* Integer binops with the semantics of
   [Konst.as_int (Konst.binop op (kint ~bits x) (kint ~bits y))]: both
   inputs sign-normalised to [bits], operate, renormalise. The low
   [bits] bits of a sum, difference, product, bitwise op or left shift
   (and the shift amount, [land (bits - 1)]) depend only on the low
   [bits] bits of the inputs, so those loops skip the input
   normalisation. *)
let ibin_lanes bi (op : Tcode.ibinop) bits d x xm y ym : lanes_fn =
  let sh = shift_of bits and shm = bits - 1 in
  let lmask = if bits = 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L in
  match op with
  | Tcode.BAdd ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.add (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BSub ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.sub (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BMul ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.mul (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BSDiv ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = sx (iget bi x xm l) sh and b = sx (iget bi y ym l) sh in
          iset bi d l (sx (if b = 0L then 0L else Int64.div a b) sh)
        done
  | Tcode.BSRem ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = sx (iget bi x xm l) sh and b = sx (iget bi y ym l) sh in
          iset bi d l (sx (if b = 0L then 0L else Int64.rem a b) sh)
        done
  | Tcode.BAnd ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.logand (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BOr ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.logor (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BXor ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.logxor (iget bi x xm l) (iget bi y ym l)) sh)
        done
  | Tcode.BShl ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let s = Int64.to_int (iget bi y ym l) land shm in
          iset bi d l (sx (Int64.shift_left (iget bi x xm l) s) sh)
        done
  | Tcode.BLShr ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let s = Int64.to_int (iget bi y ym l) land shm in
          iset bi d l
            (sx (Int64.shift_right_logical (Int64.logand (iget bi x xm l) lmask) s) sh)
        done
  | Tcode.BAShr ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let s = Int64.to_int (iget bi y ym l) land shm in
          iset bi d l (sx (Int64.shift_right (sx (iget bi x xm l) sh) s) sh)
        done
  | Tcode.BSMin ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = sx (iget bi x xm l) sh and b = sx (iget bi y ym l) sh in
          iset bi d l (if a <= b then a else b)
        done
  | Tcode.BSMax ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = sx (iget bi x xm l) sh and b = sx (iget bi y ym l) sh in
          iset bi d l (if a >= b then a else b)
        done

let fbin_lanes bf (op : Tcode.fbinop) d x xm y ym : lanes_fn =
  match op with
  | Tcode.BFAdd ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (fget bf x xm l +. fget bf y ym l)
        done
  | Tcode.BFSub ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (fget bf x xm l -. fget bf y ym l)
        done
  | Tcode.BFMul ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (fget bf x xm l *. fget bf y ym l)
        done
  | Tcode.BFDiv ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (fget bf x xm l /. fget bf y ym l)
        done
  | Tcode.BFRem ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.rem (fget bf x xm l) (fget bf y ym l))
        done
  | Tcode.BFMin ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = fget bf x xm l and b = fget bf y ym l in
          fset bf d l (if a <= b then a else b)
        done
  | Tcode.BFMax ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let a = fget bf x xm l and b = fget bf y ym l in
          fset bf d l (if a >= b then a else b)
        done

let icmp_lanes bi (op : Ops.cmpop) bits d x xm y ym : lanes_fn =
  let sh = shift_of bits in
  match op with
  | Ops.CEq ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh = sx (iget bi y ym l) sh then 1L else 0L)
        done
  | Ops.CNe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh <> sx (iget bi y ym l) sh then 1L else 0L)
        done
  | Ops.CLt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh < sx (iget bi y ym l) sh then 1L else 0L)
        done
  | Ops.CLe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh <= sx (iget bi y ym l) sh then 1L else 0L)
        done
  | Ops.CGt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh > sx (iget bi y ym l) sh then 1L else 0L)
        done
  | Ops.CGe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if sx (iget bi x xm l) sh >= sx (iget bi y ym l) sh then 1L else 0L)
        done

let fcmp_lanes bi bf (op : Ops.cmpop) d x xm y ym : lanes_fn =
  match op with
  | Ops.CEq ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l = fget bf y ym l then 1L else 0L)
        done
  | Ops.CNe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l <> fget bf y ym l then 1L else 0L)
        done
  | Ops.CLt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l < fget bf y ym l then 1L else 0L)
        done
  | Ops.CLe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l <= fget bf y ym l then 1L else 0L)
        done
  | Ops.CGt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l > fget bf y ym l then 1L else 0L)
        done
  | Ops.CGe ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (if fget bf x xm l >= fget bf y ym l then 1L else 0L)
        done

let movi_lanes bi d x xm : lanes_fn =
 fun ls n ->
  for j = 0 to n - 1 do
    let l = Array.unsafe_get ls j in
    iset bi d l (iget bi x xm l)
  done

let movf_lanes bf d x xm : lanes_fn =
 fun ls n ->
  for j = 0 to n - 1 do
    let l = Array.unsafe_get ls j in
    fset bf d l (fget bf x xm l)
  done

(* Casts; CSiToFp's and CFpTrunc's f32 rounding is the caller's. *)
let cast_lanes (b : Tcode.banks) (cast : Tcode.tcast) d x xm : lanes_fn =
  let bi = b.Tcode.bi and bf = b.Tcode.bf in
  match cast with
  | Tcode.CSiToFp (sbits, _) ->
      let sh = shift_of sbits in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Int64.to_float (sx (iget bi x xm l) sh))
        done
  | Tcode.CFpToSi dbits ->
      let sh = shift_of dbits in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.of_float (fget bf x xm l)) sh)
        done
  | Tcode.CFpExt | Tcode.CFpTrunc | Tcode.CBitFF -> movf_lanes bf d x xm
  | Tcode.CZext (sbits, dbits) ->
      let zmask = if sbits >= 64 then -1L else Int64.sub (Int64.shift_left 1L sbits) 1L in
      let sh = shift_of dbits in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (Int64.logand (iget bi x xm l) zmask) sh)
        done
  | Tcode.CSext (sbits, dbits) ->
      let ssh = shift_of sbits and dsh = shift_of dbits in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (sx (iget bi x xm l) ssh) dsh)
        done
  | Tcode.CTrunc dbits ->
      let sh = shift_of dbits in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (sx (iget bi x xm l) sh)
        done
  | Tcode.CBitIF ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Int64.float_of_bits (iget bi x xm l))
        done
  | Tcode.CBitFI ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (Int64.bits_of_float (fget bf x xm l))
        done
  | Tcode.CBitII -> movi_lanes bi d x xm

let math1_lanes bf (op : Tcode.math1) d x xm : lanes_fn =
  match op with
  | Tcode.M1Sqrt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (sqrt (fget bf x xm l))
        done
  | Tcode.M1Rsqrt ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (1.0 /. sqrt (fget bf x xm l))
        done
  | Tcode.M1Exp ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (exp (fget bf x xm l))
        done
  | Tcode.M1Log ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (log (fget bf x xm l))
        done
  | Tcode.M1Sin ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (sin (fget bf x xm l))
        done
  | Tcode.M1Cos ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (cos (fget bf x xm l))
        done
  | Tcode.M1Fabs ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.abs (fget bf x xm l))
        done
  | Tcode.M1Floor ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.floor (fget bf x xm l))
        done
  | Tcode.M1Ceil ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.ceil (fget bf x xm l))
        done
  | Tcode.M1Tanh ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (tanh (fget bf x xm l))
        done
  | Tcode.M1Gen name ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Ir.Intrinsics.eval_math_unary name (fget bf x xm l))
        done

let math2_lanes bf (op : Tcode.math2) d x xm y ym : lanes_fn =
  match op with
  | Tcode.M2Pow ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.pow (fget bf x xm l) (fget bf y ym l))
        done
  | Tcode.M2Atan2 ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Float.atan2 (fget bf x xm l) (fget bf y ym l))
        done
  | Tcode.M2Gen name ->
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          fset bf d l (Ir.Intrinsics.eval_math_binary name (fget bf x xm l) (fget bf y ym l))
        done

(* Round to float32 and back through a one-cell float32 array, as
   [Util.to_f32] does through [Int32.bits_of_float]: the same conversion
   instructions, but ocamlopt inlines the bigarray access where
   [Util.to_f32] makes two C calls. *)
let[@inline] f32_round (c : Tcode.f32cell) (x : float) : float =
  Bigarray.Array1.unsafe_set c 0 x;
  Bigarray.Array1.unsafe_get c 0

(* [f], then the destination rounded to f32 through the state's cell *)
let then_round (b : Tcode.banks) r32 d (f : lanes_fn) : lanes_fn =
  if not r32 then f
  else
    let bf = b.Tcode.bf and c = b.Tcode.f32 in
    fun ls n ->
      f ls n;
      for j = 0 to n - 1 do
        let l = Array.unsafe_get ls j in
        fset bf d l (f32_round c (Array.unsafe_get bf (d + l)))
      done

(* ------------------------------------------------------------------ *)
(* Operand reads that can fail. A symbol slot fails when resolving it
   failed this launch; a float read of a symbol ([-1] here) always
   traps. [check_reads] raises the first failure of a list kept in the
   reference's read order. *)

(* the [Tcode.banks.serr] entry of a resolved symbol slot *)
exception Resolved

let iread = function Tcode.IG g -> [ g ] | Tcode.IV _ | Tcode.IS _ | Tcode.IK _ -> []
let fread = function Tcode.FBad -> [ -1 ] | Tcode.FV _ | Tcode.FS _ | Tcode.FK _ -> []

let rec check_reads (serr : exn array) = function
  | [] -> ()
  | g :: rest ->
      if g < 0 then raise (Trap "float read of symbol");
      let e = Array.unsafe_get serr g in
      if e != Resolved then raise e;
      check_reads serr rest

(* [k], after the operand reads [reads] that can fail *)
let guard (b : Tcode.banks) reads (k : int -> unit) : int -> unit =
  match reads with
  | [] -> k
  | _ ->
      let serr = b.Tcode.serr in
      fun act ->
        check_reads serr reads;
        k act

(* Counted ALU instructions: [f] on the active lanes, or on lane 0 for
   a scalar destination. [long] is the long-latency pipe (divisions). *)
let alu (b : Tcode.banks) (wl : Tcode.wlaunch) (d : Tcode.tdst) ~long (f : lanes_fn) :
    int -> unit =
  match d with
  | Tcode.DS _ ->
      fun _ ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.salu <- c.Counters.salu + 1;
        if long then c.Counters.math_warp <- c.Counters.math_warp + 1;
        f lane0 1
  | Tcode.DV _ ->
      let ls = b.Tcode.act in
      fun act ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.valu_warp <- c.Counters.valu_warp + 1;
        c.Counters.valu_thread <- c.Counters.valu_thread + act;
        if long then c.Counters.math_warp <- c.Counters.math_warp + 1;
        f ls act

(* Transcendentals and fma issue on the math pipe. *)
let math (b : Tcode.banks) (wl : Tcode.wlaunch) (d : Tcode.tdst) (f : lanes_fn) :
    int -> unit =
  match d with
  | Tcode.DS _ ->
      fun _ ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        f lane0 1
  | Tcode.DV _ ->
      let ls = b.Tcode.act in
      fun act ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        c.Counters.valu_thread <- c.Counters.valu_thread + act;
        f ls act

(* A select reads only the arm each lane picks, so an arm that can fail
   fails only for a lane that picks it, in lane order. *)
let sel_lanes (b : Tcode.banks) (cnd : Tcode.isrc) ra rb (f : lanes_fn) : lanes_fn =
  match (ra, rb) with
  | [], [] -> f
  | _ ->
      let bi = b.Tcode.bi and serr = b.Tcode.serr in
      let c = Tcode.icell b cnd and cm = Tcode.imask cnd in
      fun ls n ->
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          check_reads serr (if iget bi c cm l <> 0L then ra else rb)
        done;
        f ls n

(* ------------------------------------------------------------------ *)
(* Coalescing and the per-site profile. *)

(* out-of-range arena access: identical failure to Gmem.check *)
let oob ai len = Util.failf "device memory access out of range: 0x%x (+%d)" ai len

let touch_line (wl : Tcode.wlaunch) (la : int) =
  let c = wl.Tcode.ctr in
  c.Counters.mem_lines <- c.Counters.mem_lines + 1;
  match wl.Tcode.sink with
  | Tcode.Direct l2 ->
      if L2cache.access_line l2 la then c.Counters.l2_hits <- c.Counters.l2_hits + 1
      else c.Counters.l2_misses <- c.Counters.l2_misses + 1
  | Tcode.Record v -> Util.Vec.push v la

(* line addresses are non-negative, so when the line size is a power of
   two (it is on every modelled device) the division is a shift *)
let[@inline] line_of (wl : Tcode.wlaunch) a =
  if wl.Tcode.lsh >= 0 then a lsr wl.Tcode.lsh else a / wl.Tcode.line

(* [abuf.(0..n-1)] was filled in ascending lane order; the reference
   interpreter prepends to a list and so touches lines in descending
   lane order - walk backwards to preserve the exact L2 sequence. *)
let touch_collected (b : Tcode.banks) wl n =
  let d = b.Tcode.dedup and ab = b.Tcode.abuf in
  Tcode.linedup_reset d;
  (* a lane on the previous lane's line adds nothing: skip the call *)
  let prev = ref (-1) in
  for k = n - 1 downto 0 do
    let la = line_of wl (Array.unsafe_get ab k) in
    if la <> !prev then begin
      prev := la;
      if Tcode.linedup_add d la then touch_line wl la
    end
  done

let touch_one (b : Tcode.banks) wl (a : int) =
  let d = b.Tcode.dedup in
  Tcode.linedup_reset d;
  let la = line_of wl a in
  if Tcode.linedup_add d la then touch_line wl la

(* PerfLint's per-site profile, when armed: the access at site [st] by
   [act] lanes touched the lines the dedup buffer now holds *)
let record_site (b : Tcode.banks) (wl : Tcode.wlaunch) (st : Tcode.site) act =
  match wl.Tcode.profile with
  | None -> ()
  | Some tbl ->
      Counters.record_site tbl st.Tcode.skey ~lanes:act ~lines:b.Tcode.dedup.Tcode.la_n
        ~full:(act = b.Tcode.lanes) ~width:st.Tcode.swidth ~scratch:st.Tcode.sscratch

(* Per-lane loads: address, collected for coalescing, bounds, value.
   [MNone] fails after the address read, like Gmem.read. *)
let load_lanes (b : Tcode.banks) (wl : Tcode.wlaunch) (mty : Tcode.mty) d p pm : lanes_fn =
  let bi = b.Tcode.bi and bf = b.Tcode.bf and ab = b.Tcode.abuf in
  match mty with
  | Tcode.MBool ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 1 > dlen then oob ai 1;
          iset bi d l (if Bytes.unsafe_get data ai <> '\000' then 1L else 0L)
        done
  | Tcode.MI8 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 1 > dlen then oob ai 1;
          iset bi d l (Int64.of_int ((Char.code (Bytes.unsafe_get data ai) lsl 55) asr 55))
        done
  | Tcode.MI32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          iset bi d l (Int64.of_int32 (le_get32u data ai))
        done
  | Tcode.MI64 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 8 > dlen then oob ai 8;
          iset bi d l (le_get64u data ai)
        done
  | Tcode.MF32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          fset bf d l (Int32.float_of_bits (le_get32u data ai))
        done
  | Tcode.MF64 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 8 > dlen then oob ai 8;
          fset bf d l (Int64.float_of_bits (le_get64u data ai))
        done
  | Tcode.MNone t -> fun _ _ -> Util.failf "Gmem.read: cannot read %s" t

(* Per-lane stores: address, collected, value ([v] for integer types,
   [fv] for float types), bounds, write. A void store fails sizing the
   type once both operands are read. *)
let store_lanes (b : Tcode.banks) (wl : Tcode.wlaunch) (mty : Tcode.mty) v vm fv fvm p pm :
    lanes_fn =
  let bi = b.Tcode.bi and bf = b.Tcode.bf and ab = b.Tcode.abuf in
  match mty with
  | Tcode.MBool ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 1 > dlen then oob ai 1;
          Bytes.unsafe_set data ai
            (if Int64.logand (iget bi v vm l) 1L = 0L then '\000' else '\001')
        done
  | Tcode.MI8 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 1 > dlen then oob ai 1;
          Bytes.unsafe_set data ai (Char.unsafe_chr (Int64.to_int (iget bi v vm l) land 0xff))
        done
  | Tcode.MI32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          le_set32u data ai (Int64.to_int32 (iget bi v vm l))
        done
  | Tcode.MI64 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 8 > dlen then oob ai 8;
          le_set64u data ai (iget bi v vm l)
        done
  | Tcode.MF32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          le_set32u data ai (Int32.bits_of_float (fget bf fv fvm l))
        done
  | Tcode.MF64 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 8 > dlen then oob ai 8;
          le_set64u data ai (Int64.bits_of_float (fget bf fv fvm l))
        done
  | Tcode.MNone t -> fun _ _ -> Util.failf "Exec.ibits_of: %s" t

(* Per-lane atomic adds: address, collected, bounds, old value, operand,
   write; the old value goes to the destination cell [d] (lane mask
   [dm]: a scalar destination ends with the last lane's). *)
let atomic_lanes (b : Tcode.banks) (wl : Tcode.wlaunch) (kind : Tcode.atomic) d dm v vm fv
    fvm p pm : lanes_fn =
  let bi = b.Tcode.bi and bf = b.Tcode.bf and ab = b.Tcode.abuf in
  match kind with
  | Tcode.AAddF32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          let old = Int32.float_of_bits (le_get32u data ai) in
          le_set32u data ai (Int32.bits_of_float (old +. fget bf fv fvm l));
          fset bf d (l land dm) old
        done
  | Tcode.AAddF64 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 8 > dlen then oob ai 8;
          let old = Int64.float_of_bits (le_get64u data ai) in
          le_set64u data ai (Int64.bits_of_float (old +. fget bf fv fvm l));
          fset bf d (l land dm) old
        done
  | Tcode.AAddI32 ->
      fun ls n ->
        let data = wl.Tcode.data in
        let dlen = Bytes.length data in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          let ai = Int64.to_int (iget bi p pm l) in
          Array.unsafe_set ab j ai;
          if ai <= 0 || ai + 4 > dlen then oob ai 4;
          let old = le_get32u data ai in
          le_set32u data ai (Int32.add old (Int64.to_int32 (iget bi v vm l)));
          iset bi d (l land dm) (Int64.of_int32 old)
        done

(* thread coordinates of a 1-D launch (by = bz = 1, base tid y = z =
   0); the lane-independent ones once per instruction *)
let query_lanes bi (wl : Tcode.wlaunch) (q : Tcode.tquery) d : lanes_fn =
  let uniform (v : Tcode.wlaunch -> int) : lanes_fn =
   fun ls n ->
    let v = Int64.of_int (v wl) in
    for j = 0 to n - 1 do
      iset bi d (Array.unsafe_get ls j) v
    done
  in
  match q with
  | Tcode.QTidX ->
      fun ls n ->
        let btx = wl.Tcode.btx and bx = wl.Tcode.bx in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (Int64.of_int ((btx + l) mod bx))
        done
  | Tcode.QTidZ ->
      fun ls n ->
        let btx = wl.Tcode.btx and bx = wl.Tcode.bx in
        for j = 0 to n - 1 do
          let l = Array.unsafe_get ls j in
          iset bi d l (Int64.of_int ((btx + l) / bx))
        done
  | Tcode.QTidY | Tcode.QCtaidY | Tcode.QCtaidZ -> uniform (fun _ -> 0)
  | Tcode.QCtaidX -> uniform (fun wl -> wl.Tcode.bix)
  | Tcode.QNtidX -> uniform (fun wl -> wl.Tcode.bx)
  | Tcode.QNctaidX -> uniform (fun wl -> wl.Tcode.gx)
  | Tcode.QNtidY | Tcode.QNtidZ | Tcode.QNctaidY | Tcode.QNctaidZ -> uniform (fun _ -> 1)

(* ------------------------------------------------------------------ *)
(* The compiler: one closure per instruction, applied to the number of
   active lanes. Counter updates and the fuel check stay per
   instruction, so the out-of-fuel point is exact. *)

let compile_instr (b : Tcode.banks) (wl : Tcode.wlaunch) ~frame ~(sites : Tcode.site array)
    (ti : Tcode.tinstr) : int -> unit =
  let bi = b.Tcode.bi and bf = b.Tcode.bf and ls = b.Tcode.act in
  let ic = Tcode.icell b and im = Tcode.imask in
  let fc = Tcode.fcell b and fm = Tcode.fmask in
  match ti with
  | Tcode.TIBin (op, bits, d, x, y) | Tcode.TIBinLong (op, bits, d, x, y) ->
      let long = match ti with Tcode.TIBinLong _ -> true | _ -> false in
      guard b (iread y @ iread x)
        (alu b wl d ~long
           (ibin_lanes bi op bits (Tcode.dcell b d) (ic x) (im x) (ic y) (im y)))
  | Tcode.TFBin (op, r32, d, x, y) | Tcode.TFBinLong (op, r32, d, x, y) ->
      let long = match ti with Tcode.TFBinLong _ -> true | _ -> false in
      let dc = Tcode.dcell b d in
      guard b (fread y @ fread x)
        (alu b wl d ~long (then_round b r32 dc (fbin_lanes bf op dc (fc x) (fm x) (fc y) (fm y))))
  | Tcode.TICmp (op, bits, d, x, y) ->
      guard b (iread y @ iread x)
        (alu b wl d ~long:false
           (icmp_lanes bi op bits (Tcode.dcell b d) (ic x) (im x) (ic y) (im y)))
  | Tcode.TFCmp (op, d, x, y) ->
      guard b (fread y @ fread x)
        (alu b wl d ~long:false
           (fcmp_lanes bi bf op (Tcode.dcell b d) (fc x) (fm x) (fc y) (fm y)))
  | Tcode.TSelI (d, cnd, x, y) ->
      let dc = Tcode.dcell b d and c = ic cnd and cm = im cnd in
      let x = ic x and xm = im x and ra = iread x and rb = iread y in
      let y = ic y and ym = im y in
      guard b (iread cnd)
        (alu b wl d ~long:false
           (sel_lanes b cnd ra rb (fun ls n ->
                for j = 0 to n - 1 do
                  let l = Array.unsafe_get ls j in
                  iset bi dc l (if iget bi c cm l <> 0L then iget bi x xm l else iget bi y ym l)
                done)))
  | Tcode.TSelF (d, cnd, x, y) ->
      let dc = Tcode.dcell b d and c = ic cnd and cm = im cnd in
      let x = fc x and xm = fm x and ra = fread x and rb = fread y in
      let y = fc y and ym = fm y in
      guard b (iread cnd)
        (alu b wl d ~long:false
           (sel_lanes b cnd ra rb (fun ls n ->
                for j = 0 to n - 1 do
                  let l = Array.unsafe_get ls j in
                  fset bf dc l (if iget bi c cm l <> 0L then fget bf x xm l else fget bf y ym l)
                done)))
  | Tcode.TCast (cast, d, ia, fa) ->
      let dc = Tcode.dcell b d in
      let reads, x, xm =
        match cast with
        | Tcode.CSiToFp _ | Tcode.CZext _ | Tcode.CSext _ | Tcode.CTrunc _ | Tcode.CBitIF
        | Tcode.CBitII ->
            (iread ia, ic ia, im ia)
        | Tcode.CFpToSi _ | Tcode.CFpExt | Tcode.CFpTrunc | Tcode.CBitFF | Tcode.CBitFI ->
            (fread fa, fc fa, fm fa)
      in
      let r32 = match cast with Tcode.CSiToFp (_, r) -> r | Tcode.CFpTrunc -> true | _ -> false in
      guard b reads (alu b wl d ~long:false (then_round b r32 dc (cast_lanes b cast dc x xm)))
  | Tcode.TMovI (d, x) ->
      guard b (iread x) (alu b wl d ~long:false (movi_lanes bi (Tcode.dcell b d) (ic x) (im x)))
  | Tcode.TMovF (d, x) ->
      guard b (fread x) (alu b wl d ~long:false (movf_lanes bf (Tcode.dcell b d) (fc x) (fm x)))
  | Tcode.TLd (space, mty, d, pa, site) -> (
      let st = sites.(site) and p = ic pa and pm = im pa in
      let load = load_lanes b wl mty (Tcode.dcell b d) p pm in
      guard b (iread pa)
        (match d with
        | Tcode.DS _ ->
            (* uniform scalar fetch: the line is touched before the read *)
            fun act ->
              let c = wl.Tcode.ctr in
              c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
              c.Counters.smem <- c.Counters.smem + 1;
              touch_one b wl (Int64.to_int (iget bi p pm 0));
              record_site b wl st act;
              load lane0 1
        | Tcode.DV _ ->
            let scratch = space = Mach.SScratch in
            fun act ->
              let c = wl.Tcode.ctr in
              c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
              c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
              c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
              if scratch then c.Counters.scratch_ld <- c.Counters.scratch_ld + 1;
              load ls act;
              touch_collected b wl act;
              record_site b wl st act))
  | Tcode.TSt (space, mty, iv, fv, pa, site) ->
      let st = sites.(site) and scratch = space = Mach.SScratch in
      let store = store_lanes b wl mty (ic iv) (im iv) (fc fv) (fm fv) (ic pa) (im pa) in
      let vreads = if Tcode.mty_is_float mty then fread fv else iread iv in
      guard b (iread pa @ vreads) (fun act ->
          let c = wl.Tcode.ctr in
          c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
          c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
          c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
          if scratch then c.Counters.scratch_st <- c.Counters.scratch_st + 1;
          store ls act;
          touch_collected b wl act;
          record_site b wl st act)
  | Tcode.TQuery (q, d) -> alu b wl d ~long:false (query_lanes bi wl q (Tcode.dcell b d))
  | Tcode.TMath1 (op, r32, d, x) ->
      let dc = Tcode.dcell b d in
      guard b (fread x) (math b wl d (then_round b r32 dc (math1_lanes bf op dc (fc x) (fm x))))
  | Tcode.TMath2 (op, r32, d, x, y) ->
      let dc = Tcode.dcell b d in
      guard b (fread y @ fread x)
        (math b wl d (then_round b r32 dc (math2_lanes bf op dc (fc x) (fm x) (fc y) (fm y))))
  | Tcode.TFma (r32, d, x, y, z) ->
      let dc = Tcode.dcell b d in
      let x = fc x and xm = fm x and rx = fread x and y' = fc y and ym = fm y in
      let ry = fread y and zc = fc z and zm = fm z and rz = fread z in
      guard b (rz @ ry @ rx)
        (math b wl d
           (then_round b r32 dc (fun ls n ->
                for j = 0 to n - 1 do
                  let l = Array.unsafe_get ls j in
                  fset bf dc l ((fget bf x xm l *. fget bf y' ym l) +. fget bf zc zm l)
                done)))
  | Tcode.TAtomic (kind, dst, pa, iv, fv, site) ->
      let st = sites.(site) and p = ic pa and pm = im pa in
      let d, dm =
        match (dst, kind) with
        | Some d, _ -> (Tcode.dcell b d, match d with Tcode.DV _ -> -1 | Tcode.DS _ -> 0)
        | None, Tcode.AAddI32 -> (Tcode.idiscard b, 0)
        | None, (Tcode.AAddF32 | Tcode.AAddF64) -> (Tcode.fdiscard b, 0)
      in
      let atomic = atomic_lanes b wl kind d dm (ic iv) (im iv) (fc fv) (fm fv) p pm in
      (* the operand is read after the first lane's bounds check *)
      let vreads = match kind with Tcode.AAddI32 -> iread iv | _ -> fread fv in
      let width = match kind with Tcode.AAddF64 -> 8 | _ -> 4 in
      let serr = b.Tcode.serr in
      guard b (iread pa) (fun act ->
          let c = wl.Tcode.ctr in
          c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
          c.Counters.atomics <- c.Counters.atomics + 1;
          c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
          (match vreads with
          | [] -> ()
          | _ ->
              let ai = Int64.to_int (iget bi p pm (Array.unsafe_get ls 0)) in
              if ai <= 0 || ai + width > Bytes.length wl.Tcode.data then oob ai width;
              check_reads serr vreads);
          atomic ls act;
          touch_collected b wl act;
          record_site b wl st act)
  | Tcode.TBarrier ->
      fun _ ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1
  | Tcode.TFrame (d, off) ->
      (* every active lane writes; a scalar destination keeps the last *)
      let dc = Tcode.dcell b d and dm = match d with Tcode.DV _ -> -1 | Tcode.DS _ -> 0 in
      let count = alu b wl d ~long:false (fun _ _ -> ()) in
      fun act ->
        count act;
        let s0 = wl.Tcode.scratch0 in
        for j = 0 to act - 1 do
          let l = Array.unsafe_get ls j in
          iset bi dc (l land dm) (Int64.add (Int64.of_int (s0 + (l * frame))) off)
        done
  | Tcode.TArg (k, d) ->
      let dc = Tcode.dcell b d in
      let lanes, scalar = match d with Tcode.DS _ -> (lane0, true) | Tcode.DV _ -> (ls, false) in
      fun act ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        let n = if scalar then 1 else act in
        begin match wl.Tcode.args.(k) with
        | Konst.KFloat (f, _) ->
            for j = 0 to n - 1 do
              fset bf dc (Array.unsafe_get lanes j) f
            done
        | (Konst.KBool _ | Konst.KInt _ | Konst.KNull) as v ->
            let iv =
              match v with
              | Konst.KBool bv -> if bv then 1L else 0L
              | Konst.KInt (iv, _) -> iv
              | _ -> 0L
            in
            for j = 0 to n - 1 do
              iset bi dc (Array.unsafe_get lanes j) iv
            done
        end
  | Tcode.TSpillStS (slot, rid) ->
      let sc = b.Tcode.ub + rid and sspi = b.Tcode.sspi and sspf = b.Tcode.sspf in
      fun _ ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_st <- c.Counters.spill_st + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        b_set64u sspi (slot lsl 3) (b_get64u bi (sc lsl 3));
        sspf.(slot) <- bf.(sc)
  | Tcode.TSpillStV (slot, rid) ->
      let lanes = b.Tcode.lanes and spi = b.Tcode.spi and spf = b.Tcode.spf in
      let sc = slot * lanes and rc = rid * lanes and ab = b.Tcode.abuf in
      fun act ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_st <- c.Counters.spill_st + 1;
        c.Counters.scratch_st <- c.Counters.scratch_st + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        let sp = wl.Tcode.spill0 + (slot * 8 * lanes) in
        for j = 0 to act - 1 do
          let l = Array.unsafe_get ls j in
          Array.unsafe_set ab j (sp + (l * 8));
          b_set64u spi ((sc + l) lsl 3) (b_get64u bi ((rc + l) lsl 3));
          Array.unsafe_set spf (sc + l) (Array.unsafe_get bf (rc + l))
        done;
        touch_collected b wl act
  | Tcode.TSpillLd (slot, Tcode.DS rid) ->
      let dc = b.Tcode.ub + rid and sspi = b.Tcode.sspi and sspf = b.Tcode.sspf in
      fun _ ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_ld <- c.Counters.spill_ld + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        b_set64u bi (dc lsl 3) (b_get64u sspi (slot lsl 3));
        bf.(dc) <- sspf.(slot)
  | Tcode.TSpillLd (slot, Tcode.DV rid) ->
      let lanes = b.Tcode.lanes and spi = b.Tcode.spi and spf = b.Tcode.spf in
      let sc = slot * lanes and rc = rid * lanes and ab = b.Tcode.abuf in
      fun act ->
        let c = wl.Tcode.ctr in
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_ld <- c.Counters.spill_ld + 1;
        c.Counters.scratch_ld <- c.Counters.scratch_ld + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        let sp = wl.Tcode.spill0 + (slot * 8 * lanes) in
        for j = 0 to act - 1 do
          let l = Array.unsafe_get ls j in
          Array.unsafe_set ab j (sp + (l * 8));
          b_set64u bi ((rc + l) lsl 3) (b_get64u spi ((sc + l) lsl 3));
          Array.unsafe_set bf (rc + l) (Array.unsafe_get spf (sc + l))
        done;
        touch_collected b wl act
  | Tcode.TTrap e -> fun _ -> raise e
  | Tcode.TIBinBad (op, bits, scalar, x, y) ->
      (* Refexec's first lane reads y, then x, and Konst.binop fails *)
      let xc = ic x and xm = im x and yc = ic y and ym = im y in
      guard b (iread y @ iread x) (fun _ ->
          let l = if scalar then 0 else Array.unsafe_get ls 0 in
          let yv = iget bi yc ym l in
          let xv = iget bi xc xm l in
          ignore (Konst.binop op (Konst.kint ~bits xv) (Konst.kint ~bits yv)))

let compile_term (b : Tcode.banks) : Tcode.tterm -> Tcode.cterm = function
  | Tcode.TTbr l -> Tcode.KBr l
  | Tcode.TTret -> Tcode.KRet
  | Tcode.TTtrap e -> Tcode.KTrap e
  | Tcode.TTcbr (cnd, t, e) ->
      let g = match cnd with Tcode.IG g -> g | _ -> -1 in
      Tcode.KCbr (Tcode.icell b cnd, Tcode.imask cnd, g, t, e)

(* A warp state for [p] on a [lanes]-wide warp. *)
let compile (p : Tcode.program) ~lanes : Tcode.wstate =
  let b = Tcode.banks_create p lanes and wl = Tcode.wlaunch_create () in
  let frame = p.Tcode.tf.Mach.frame and sites = p.Tcode.sites in
  let wcode =
    Array.map
      (fun (blk : Tcode.tblock) ->
        {
          Tcode.ccode = Array.map (compile_instr b wl ~frame ~sites) blk.Tcode.tcode;
          cterm = compile_term b blk.Tcode.tterm;
        })
      p.Tcode.blocks
  in
  { Tcode.wb = b; wl; wcode }

(* An idle state of [p] for [lanes]-wide warps, compiled when the
   program holds none; [release] hands it back. *)
let acquire (p : Tcode.program) ~lanes : Tcode.wstate =
  match Tcode.pop p.Tcode.states with
  | Some w when w.Tcode.wb.Tcode.lanes = lanes -> w
  | _ -> compile p ~lanes

let release (p : Tcode.program) (w : Tcode.wstate) =
  Tcode.idle w.Tcode.wl;
  Tcode.push p.Tcode.states w

(* ------------------------------------------------------------------ *)
(* SIMT control flow over integer block ids. The stop sentinel -2
   matches no block, like the reference's None (ipdom exit is -1). *)

let rec run (w : Tcode.wstate) (ipdom : int array) (bid : int) (mask : int64) (stop : int) :
    int64 =
  if bid = stop || Int64.equal mask 0L then mask
  else begin
    let b = w.Tcode.wb and wl = w.Tcode.wl in
    let blk = w.Tcode.wcode.(bid) in
    (* the mask is constant across a block's straight-line body, so
       its popcount and active-lane list are computed on block entry,
       and only when the mask differs from the last block's *)
    let ls = b.Tcode.act in
    let lo = Int64.to_int (Int64.logand mask 0xffffffffL) in
    let hi = Int64.to_int (Int64.shift_right_logical mask 32) in
    if lo <> b.Tcode.alo || hi <> b.Tcode.ahi then begin
      let aj = ref 0 in
      for l = 0 to b.Tcode.lanes - 1 do
        if Int64.logand mask (Int64.shift_left 1L l) <> 0L then begin
          Array.unsafe_set ls !aj l;
          incr aj
        end
      done;
      b.Tcode.nact <- popcount mask;
      b.Tcode.alo <- lo;
      b.Tcode.ahi <- hi
    end;
    let act = b.Tcode.nact in
    let code = blk.Tcode.ccode in
    for idx = 0 to Array.length code - 1 do
      let fuel = wl.Tcode.fuel - 1 in
      wl.Tcode.fuel <- fuel;
      if fuel <= 0 then raise (Trap "out of fuel");
      (Array.unsafe_get code idx) act
    done;
    match blk.Tcode.cterm with
    | Tcode.KBr l -> run w ipdom l mask stop
    | Tcode.KRet -> 0L
    | Tcode.KTrap e -> raise e
    | Tcode.KCbr (cc, cm, g, t, e) ->
        let c = wl.Tcode.ctr and bi = b.Tcode.bi in
        c.Counters.branches <- c.Counters.branches + 1;
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        let tm =
          if cm = 0 then begin
            (* uniform condition: every active lane agrees *)
            if g >= 0 && b.Tcode.serr.(g) != Resolved then raise b.Tcode.serr.(g);
            if b_get64u bi (cc lsl 3) <> 0L then mask else 0L
          end
          else begin
            (* accumulate the taken mask in two int halves: an
               [int64 ref] would box on every update *)
            let lo = ref 0 and hi = ref 0 in
            for j = 0 to act - 1 do
              let l = Array.unsafe_get ls j in
              if b_get64u bi ((cc + l) lsl 3) <> 0L then
                if l < 32 then lo := !lo lor (1 lsl l) else hi := !hi lor (1 lsl (l - 32))
            done;
            Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int !hi) 32)
          end
        in
        let em = Int64.logand mask (Int64.lognot tm) in
        if Int64.equal em 0L then run w ipdom t mask stop
        else if Int64.equal tm 0L then run w ipdom e mask stop
        else begin
          let r = ipdom.(bid) in
          if r >= 0 then begin
            let m1 = run w ipdom t tm r in
            let m2 = run w ipdom e em r in
            let joined = Int64.logor m1 m2 in
            if r = stop then joined else run w ipdom r joined stop
          end
          else begin
            let _ = run w ipdom t tm (-2) in
            let _ = run w ipdom e em (-2) in
            0L
          end
        end
  end

(* ------------------------------------------------------------------ *)
(* Kernel launch: iterate blocks and warps.                            *)

type launch_result = {
  counters : Counters.t;
  waves : int;
  blocks_launched : int;
  engine : string; (* "threaded" | "multicore" (Refexec: "reference") *)
}

(* What every block of one launch shares. *)
type lenv = {
  mem : Gmem.t;
  symbols : string -> int64;
  args : Konst.t array;
  profile : Counters.site_table option; (* the armed site profile, read once per launch *)
  line : int;
  lsh : int;
  gx : int;
  bx : int;
  scratch_base : int;
  thread_frame : int;
}

(* Point [w] at launch [e], counting into [ctr] and sending lines to
   [sink], and resolve the program's symbols. A symbol whose lookup
   fails fails the instruction that reads it, as in the reference. *)
let setup (w : Tcode.wstate) (p : Tcode.program) (e : lenv) ctr sink =
  let wl = w.Tcode.wl and b = w.Tcode.wb in
  wl.Tcode.data <- e.mem.Gmem.data;
  wl.Tcode.ctr <- ctr;
  wl.Tcode.sink <- sink;
  wl.Tcode.args <- e.args;
  wl.Tcode.profile <- e.profile;
  wl.Tcode.line <- e.line;
  wl.Tcode.lsh <- e.lsh;
  wl.Tcode.gx <- e.gx;
  wl.Tcode.bx <- e.bx;
  wl.Tcode.scratch_base <- e.scratch_base;
  wl.Tcode.thread_frame <- e.thread_frame;
  let syms = p.Tcode.syms in
  for g = 0 to Array.length syms - 1 do
    match e.symbols syms.(g) with
    | v ->
        b_set64u b.Tcode.bi (Tcode.icell b (Tcode.IG g) lsl 3) v;
        b.Tcode.serr.(g) <- Resolved
    | exception ex -> b.Tcode.serr.(g) <- ex
  done

(* Run the warps of thread-block [blk] on [w]. *)
let run_block (w : Tcode.wstate) (p : Tcode.program) ~warp ~block ~nwarps_per_block blk =
  let wl = w.Tcode.wl in
  let frame = p.Tcode.tf.Mach.frame in
  for wi = 0 to nwarps_per_block - 1 do
    let base_lane = wi * warp in
    let lanes_active = min warp (block - base_lane) in
    let mask =
      if lanes_active >= 64 then -1L else Int64.sub (Int64.shift_left 1L lanes_active) 1L
    in
    Tcode.reset w.Tcode.wb;
    let s0 = wl.Tcode.scratch_base + (((blk * block) + base_lane) * wl.Tcode.thread_frame) in
    wl.Tcode.scratch0 <- s0;
    wl.Tcode.spill0 <- s0 + (warp * frame);
    wl.Tcode.bix <- blk;
    wl.Tcode.btx <- base_lane;
    wl.Tcode.fuel <- 1_000_000_000;
    ignore (run w p.Tcode.ipdom p.Tcode.entry mask (-2));
    let c = wl.Tcode.ctr in
    c.Counters.warps <- c.Counters.warps + 1;
    c.Counters.threads <- c.Counters.threads + lanes_active
  done

(* Launch [f] over a 1-D [grid] of [block]-thread blocks. [tcode] is
   [f]'s decoded program when the caller keeps one (a program decoded
   from another function is ignored); otherwise [f] is decoded here.
   The per-thread scratch frame is freed when the launch ends, also
   when a warp fails. *)
let launch ?domains ?tcode ~(device : Device.t) ~(mem : Gmem.t) ~(l2 : L2cache.t)
    ~(symbols : string -> int64) (f : Mach.mfunc) ~(grid : int) ~(block : int)
    ~(args : Konst.t array) : launch_result =
  let counters = Counters.create () in
  let warp = device.Device.warp_size in
  let thread_frame = f.Mach.frame + (f.Mach.spill_slots * 8) in
  let total_threads = grid * block in
  let scratch_bytes = max 16 (total_threads * thread_frame) in
  let scratch_base = Gmem.alloc mem scratch_bytes in
  let nwarps_per_block = (block + warp - 1) / warp in
  let profile = !Counters.site_profile in
  let run () =
    let p = match tcode with Some p when p.Tcode.tf == f -> p | _ -> Tcode.decode f in
    let ndom = match domains with Some n -> max 1 n | None -> Pool.default_domains () in
    let line = device.Device.l2_line in
    let env =
      {
        mem; symbols; args; profile; line;
        lsh = (match Util.pow2_log2 (Int64.of_int line) with Some k -> k | None -> -1);
        gx = grid; bx = block; scratch_base = Int64.to_int scratch_base; thread_frame;
      }
    in
    (* an armed profile is one shared table: record from one domain *)
    if ndom <= 1 || grid <= 1 || not (Tcode.parallel_safe p) || Option.is_some profile
    then begin
      let w = acquire p ~lanes:warp in
      setup w p env counters (Tcode.Direct l2);
      for blk = 0 to grid - 1 do
        run_block w p ~warp ~block ~nwarps_per_block blk
      done;
      release p w;
      "threaded"
    end
    else begin
      (* Parallel block schedule: execute chunks of blocks across the
         domain pool with per-block counters and cache-line traces,
         then merge counters additively and replay traces serially in
         block order through the shared L2 - the model sees exactly
         the serial access sequence, so hits/misses (and the derived
         timing) match the serial schedule bit for bit. Chunking
         bounds the memory held by traces. The launch takes one warp
         state per domain from the program up front (so the first
         launch compiles them all), each task pops one for its block
         and pushes it back, and the program gets them back when the
         launch completes. *)
      let pool = Pool.shared ~size:ndom in
      let free = Atomic.make (List.init (min ndom grid) (fun _ -> acquire p ~lanes:warp)) in
      let chunk = 4 * ndom in
      let start = ref 0 in
      while !start < grid do
        let n = min chunk (grid - !start) in
        let per_block = Array.init n (fun _ -> Counters.create ()) in
        let traces = Array.init n (fun _ -> Util.Vec.create 0) in
        Pool.run pool
          (fun i ->
            let w = match Tcode.pop free with Some w -> w | None -> acquire p ~lanes:warp in
            setup w p env per_block.(i) (Tcode.Record traces.(i));
            run_block w p ~warp ~block ~nwarps_per_block (!start + i);
            Tcode.push free w)
          n;
        for i = 0 to n - 1 do
          Counters.add counters per_block.(i);
          Util.Vec.iter
            (fun la ->
              if L2cache.access_line l2 la then
                counters.Counters.l2_hits <- counters.Counters.l2_hits + 1
              else counters.Counters.l2_misses <- counters.Counters.l2_misses + 1)
            traces.(i)
        done;
        start := !start + n
      done;
      List.iter (release p) (Atomic.get free);
      "multicore"
    end
  in
  let engine = Fun.protect ~finally:(fun () -> Gmem.free mem scratch_base) run in
  { counters; waves = counters.Counters.warps; blocks_launched = grid; engine }
