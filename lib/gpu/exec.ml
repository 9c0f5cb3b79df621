(* SIMT executor: runs machine code warp by warp in lockstep with an
   active mask and immediate-postdominator reconvergence. Both sides of
   a divergent branch issue for the whole warp (serialised), memory
   accesses coalesce into cache lines through the L2 model, and scratch
   (spill / local-array) traffic goes through the same hierarchy.

   There is one engine: the pre-decoded Tcode program run by
   [texec_launch], either serially or with independent thread-blocks
   scheduled across a domain pool ("multicore"). The multicore schedule
   keeps L2 determinism by recording each block's cache-line trace
   during parallel execution and replaying the traces serially in block
   order afterwards, so the shared LRU model sees exactly the serial
   access sequence. Kernels with atomics, and every launch while a
   PerfLint site profile is armed, run serially.

   Its specification is the reference interpreter [Refexec] (lib/fuzz):
   memory contents, every counter, the simulated timing, the per-site
   profile and the failure of a failing launch must match it bit for
   bit. Fuzz oracle (b) and test/test_exec.ml check that. *)

open Proteus_support
open Proteus_ir
open Proteus_backend

let popcount = Util.popcount64

exception Trap = Tcode.Trap

(* ------------------------------------------------------------------ *)
(* Threaded-code engine: executes a pre-decoded Tcode.program. Keeps
   Refexec's observable behaviour exactly; see the header comment. *)

(* Where deduped cache-line accesses go: straight into the shared L2
   model (serial engines) or into a per-block trace that is replayed
   serially after a parallel launch. *)
type line_sink = Direct | Record of int Util.Vec.t

type tenv = {
  tmem : Gmem.t;
  tl2 : L2cache.t;
  tsymbols : string -> int64;
  targs : Konst.t array;
  tgx : int; (* grid dims *)
  tbx : int; (* block dims; launch is 1-D so y = z = 1 *)
  tline : int; (* L2 line size *)
  tscratch_base : int64;
  tthread_frame : int;
  tc : Counters.t;
  tsink : line_sink;
  tprofile : Counters.site_table option;
      (* the armed site profile, read once per launch *)
}

(* Unchecked fixed-width byte-buffer access (native byte order). The
   integer register banks and the arena fast paths below go through
   these compiler primitives instead of [int64 array] / the Gmem
   accessors because their results stay unboxed inside the per-lane
   loops: an [int64 array] store allocates a fresh box per register
   write, and at ~10^8 dynamic lane-operations per benchmark that boxing
   dominated the executor's wall clock. They are used only where the
   index is known to be in range: register ids are checked once at
   decode time (register id < nvr/nsr, lane < lanes), and arena offsets
   sit behind the explicit bounds test that reproduces Gmem.check. *)
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

(* Integer binop with the exact semantics of
   [Konst.as_int (Konst.binop op (kint ~bits x) (kint ~bits y))]:
   both inputs sign-normalised to [bits], operate, renormalise. *)
let ibin (op : Tcode.ibinop) bits x y =
  let x = Konst.norm_int x bits and y = Konst.norm_int y bits in
  let r =
    match op with
    | Tcode.BAdd -> Int64.add x y
    | Tcode.BSub -> Int64.sub x y
    | Tcode.BMul -> Int64.mul x y
    | Tcode.BSDiv -> if Int64.equal y 0L then 0L else Int64.div x y
    | Tcode.BSRem -> if Int64.equal y 0L then 0L else Int64.rem x y
    | Tcode.BAnd -> Int64.logand x y
    | Tcode.BOr -> Int64.logor x y
    | Tcode.BXor -> Int64.logxor x y
    | Tcode.BShl -> Int64.shift_left x (Int64.to_int y land (bits - 1))
    | Tcode.BLShr ->
        let ux =
          if bits = 64 then x
          else Int64.logand x (Int64.sub (Int64.shift_left 1L bits) 1L)
        in
        Int64.shift_right_logical ux (Int64.to_int y land (bits - 1))
    | Tcode.BAShr -> Int64.shift_right x (Int64.to_int y land (bits - 1))
    | Tcode.BSMin -> if Int64.compare x y <= 0 then x else y
    | Tcode.BSMax -> if Int64.compare x y >= 0 then x else y
  in
  Konst.norm_int r bits

let fbin (op : Tcode.fbinop) x y =
  match op with
  | Tcode.BFAdd -> x +. y
  | Tcode.BFSub -> x -. y
  | Tcode.BFMul -> x *. y
  | Tcode.BFDiv -> x /. y
  | Tcode.BFRem -> Float.rem x y
  | Tcode.BFMin -> if x <= y then x else y
  | Tcode.BFMax -> if x >= y then x else y

let icmp (op : Ops.cmpop) x y =
  let cv = Int64.compare x y in
  match op with
  | Ops.CEq -> cv = 0
  | Ops.CNe -> cv <> 0
  | Ops.CLt -> cv < 0
  | Ops.CLe -> cv <= 0
  | Ops.CGt -> cv > 0
  | Ops.CGe -> cv >= 0

let fcmp (op : Ops.cmpop) (x : float) (y : float) =
  match op with
  | Ops.CEq -> x = y
  | Ops.CNe -> x <> y
  | Ops.CLt -> x < y
  | Ops.CLe -> x <= y
  | Ops.CGt -> x > y
  | Ops.CGe -> x >= y

let math1_eval (op : Tcode.math1) x =
  match op with
  | Tcode.M1Sqrt -> sqrt x
  | Tcode.M1Rsqrt -> 1.0 /. sqrt x
  | Tcode.M1Exp -> exp x
  | Tcode.M1Log -> log x
  | Tcode.M1Sin -> sin x
  | Tcode.M1Cos -> cos x
  | Tcode.M1Fabs -> Float.abs x
  | Tcode.M1Floor -> Float.floor x
  | Tcode.M1Ceil -> Float.ceil x
  | Tcode.M1Tanh -> tanh x
  | Tcode.M1Gen n -> Ir.Intrinsics.eval_math_unary n x

let math2_eval (op : Tcode.math2) x y =
  match op with
  | Tcode.M2Pow -> Float.pow x y
  | Tcode.M2Atan2 -> Float.atan2 x y
  | Tcode.M2Gen n -> Ir.Intrinsics.eval_math_binary n x y

(* Build the warp runner for one launch of [p] into buffers [b]. The
   ~30 operand accessors and vector loops below are closures over the
   launch environment; building them once per launch rather than per
   warp leaves the per-warp setup allocation-free. The returned
   function runs one warp; its coordinates reach the closures through
   the refs below. [b] is zero-filled by the caller before each warp. *)
let texec_launch (env : tenv) (p : Tcode.program) (b : Tcode.tbufs) ~(lanes : int) :
    first_thread:int -> bix:int -> btx:int -> int64 -> unit =
  let c = env.tc in
  let frame = p.Tcode.tf.Mach.frame in
  let mem = env.tmem in
  (* the arena never grows mid-kernel (execution performs no device
     allocation), so its backing buffer is hoisted for the whole launch *)
  let data = mem.Gmem.data in
  let dlen = Bytes.length data in
  let bvi = b.Tcode.bvi and bvf = b.Tcode.bvf and bsi = b.Tcode.bsi and bsf = b.Tcode.bsf in
  let bspi = b.Tcode.bspi and bspf = b.Tcode.bspf in
  let bsspi = b.Tcode.bsspi and bsspf = b.Tcode.bsspf in
  let babuf = b.Tcode.babuf and bdedup = b.Tcode.bdedup in
  let tline = env.tline in
  (* line addresses are non-negative, so when the line size is a power
     of two (it is on every modelled device) the division by [tline]
     strength-reduces to a shift *)
  let tlsh =
    match Util.pow2_log2 (Int64.of_int tline) with Some k -> k | None -> -1
  in
  (* the current warp: block index, thread id of lane 0 within the
     block, and the byte offsets of lane 0's frame and spill area *)
  let bix = ref 0 and btx = ref 0 in
  let scratch0 = ref 0 and spill0 = ref 0 in
  let nref = ref 0 in
  (* active-lane index list for the current execution mask, refreshed
     at every [run] entry: vector loops iterate [blanes.(0..act-1)]
     instead of testing a mask bit per lane, so fully-divergent warps
     pay only for their live lanes *)
  let blanes = b.Tcode.blanes in
  (* ---- operand access (scalar / cold paths; the vector loops below
     inline these matches so intermediates stay unboxed) ---- *)
  let src_i (s : Tcode.isrc) lane : int64 =
    match s with
    | Tcode.IV r -> b_get64u bvi (((r * lanes) + lane) lsl 3)
    | Tcode.IS r -> b_get64u bsi (r lsl 3)
    | Tcode.IK k -> k
    | Tcode.IG g -> env.tsymbols g
  in
  let src_f (s : Tcode.fsrc) lane : float =
    match s with
    | Tcode.FV r -> bvf.((r * lanes) + lane)
    | Tcode.FS r -> bsf.(r)
    | Tcode.FK k -> k
    | Tcode.FBad -> raise (Trap "float read of symbol")
  in
  let dst_i (d : Tcode.tdst) lane v =
    match d with
    | Tcode.DV r -> b_set64u bvi (((r * lanes) + lane) lsl 3) v
    | Tcode.DS r -> b_set64u bsi (r lsl 3) v
  in
  let dst_f (d : Tcode.tdst) lane v =
    match d with
    | Tcode.DV r -> bvf.((r * lanes) + lane) <- v
    | Tcode.DS r -> bsf.(r) <- v
  in
  let write_konst (d : Tcode.tdst) lane (k : Konst.t) =
    match k with
    | Konst.KFloat (v, _) -> dst_f d lane v
    | Konst.KBool bv -> dst_i d lane (if bv then 1L else 0L)
    | Konst.KInt (v, _) -> dst_i d lane v
    | Konst.KNull -> dst_i d lane 0L
  in
  let is_scalar (d : Tcode.tdst) = match d with Tcode.DS _ -> true | Tcode.DV _ -> false in
  (* thread coordinates (1-D launch: by = bz = 1, base tid y = z = 0).
     Returns a plain int (immediate), so per-lane calls do not box. *)
  let query_int (q : Tcode.tquery) lane : int =
    match q with
    | Tcode.QTidX -> (!btx + lane) mod env.tbx
    | Tcode.QTidY -> (!btx + lane) / env.tbx mod 1
    | Tcode.QTidZ -> (!btx + lane) / env.tbx / 1
    | Tcode.QCtaidX -> !bix
    | Tcode.QCtaidY | Tcode.QCtaidZ -> 0
    | Tcode.QNtidX -> env.tbx
    | Tcode.QNtidY | Tcode.QNtidZ -> 1
    | Tcode.QNctaidX -> env.tgx
    | Tcode.QNctaidY | Tcode.QNctaidZ -> 1
  in
  (* ---- coalescing ---- *)
  let touch_line (la : int) =
    c.Counters.mem_lines <- c.Counters.mem_lines + 1;
    match env.tsink with
    | Direct ->
        if L2cache.access_line env.tl2 la then c.Counters.l2_hits <- c.Counters.l2_hits + 1
        else c.Counters.l2_misses <- c.Counters.l2_misses + 1
    | Record v -> Util.Vec.push v la
  in
  (* [babuf.(0..n-1)] was filled in ascending lane order; the reference
     interpreter prepends to a list and so touches lines in descending
     lane order - walk backwards to preserve the exact L2 sequence. *)
  let touch_collected n =
    Tcode.linedup_reset bdedup;
    for k = n - 1 downto 0 do
      let a = Array.unsafe_get babuf k in
      let la = if tlsh >= 0 then a lsr tlsh else a / tline in
      if Tcode.linedup_add bdedup la then touch_line la
    done
  in
  let touch_one (ai : int) =
    Tcode.linedup_reset bdedup;
    let la = if tlsh >= 0 then ai lsr tlsh else ai / tline in
    if Tcode.linedup_add bdedup la then touch_line la
  in
  (* PerfLint's per-site profile, when armed: the access at site [s]
     by [act] lanes touched the lines the dedup buffer now holds *)
  let sites = p.Tcode.sites in
  let profiling = Option.is_some env.tprofile in
  let record_site s act =
    match env.tprofile with
    | None -> ()
    | Some tbl ->
        let st = sites.(s) in
        Counters.record_site tbl st.Tcode.skey ~lanes:act ~lines:bdedup.Tcode.la_n
          ~full:(act = lanes) ~width:st.Tcode.swidth ~scratch:st.Tcode.sscratch
  in
  (* out-of-range arena access: identical failure to Gmem.check *)
  let oob ai len = Util.failf "device memory access out of range: 0x%x (+%d)" ai len in
  let count_alu scalar act =
    c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
    if scalar then c.Counters.salu <- c.Counters.salu + 1
    else begin
      c.Counters.valu_warp <- c.Counters.valu_warp + 1;
      c.Counters.valu_thread <- c.Counters.valu_thread + act
    end
  in
  (* ---- hand-inlined vector loops ----
     The operand fetches and arithmetic are spelled out per lane so
     every int64/float intermediate stays unboxed (this module is built
     without flambda: cross-function float/int64 values are boxed, and
     a boxed-integer [let] is only unboxed when every producing branch
     is itself unboxable - hence the [Int64.logor k 0L] on the
     constant/symbol branches, a no-op that keeps the binding
     eligible). *)
  (* Uniform operands (scalar regs, constants, symbols) are fetched
     once per instruction, not per lane: the loops below write only
     vector registers, so uniforms cannot change mid-instruction.
     Vector operands reduce to a precomputed byte offset, removing the
     per-lane variant dispatch and [r * lanes] multiply. The [act > 0]
     guards keep the no-active-lane case free of side effects (the old
     per-lane code never ran its body then, including uniform traps). *)
  let ibin_vec (op : Tcode.ibinop) bits (rd : int) a a2 (act : int) =
    if act > 0 then begin
    let sh = if bits >= 64 then 0 else 64 - bits in
    let shm = bits - 1 in
    let lshr_mask =
      if bits = 64 then -1L else Int64.sub (Int64.shift_left 1L bits) 1L
    in
    let xv = match a with Tcode.IV _ -> true | _ -> false in
    let xoff = match a with Tcode.IV r -> (r * lanes) lsl 3 | _ -> 0 in
    let xk =
      match a with
      | Tcode.IV _ -> 0L
      | Tcode.IS r -> b_get64u bsi (r lsl 3)
      | Tcode.IK k -> Int64.logor k 0L
      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
    in
    let yv = match a2 with Tcode.IV _ -> true | _ -> false in
    let yoff = match a2 with Tcode.IV r -> (r * lanes) lsl 3 | _ -> 0 in
    let yk =
      match a2 with
      | Tcode.IV _ -> 0L
      | Tcode.IS r -> b_get64u bsi (r lsl 3)
      | Tcode.IK k -> Int64.logor k 0L
      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
    in
    let doff = (rd * lanes) lsl 3 in
    for j = 0 to act - 1 do
      let l = Array.unsafe_get blanes j in
      begin
        let x0 =
          if xv then b_get64u bvi (xoff + (l lsl 3)) else Int64.logor xk 0L
        in
        let y0 =
          if yv then b_get64u bvi (yoff + (l lsl 3)) else Int64.logor yk 0L
        in
        let x = Int64.shift_right (Int64.shift_left x0 sh) sh in
        let y = Int64.shift_right (Int64.shift_left y0 sh) sh in
        let r =
          match op with
          | Tcode.BAdd -> Int64.add x y
          | Tcode.BSub -> Int64.sub x y
          | Tcode.BMul -> Int64.mul x y
          | Tcode.BSDiv -> if y = 0L then 0L else Int64.div x y
          | Tcode.BSRem -> if y = 0L then 0L else Int64.rem x y
          | Tcode.BAnd -> Int64.logand x y
          | Tcode.BOr -> Int64.logor x y
          | Tcode.BXor -> Int64.logxor x y
          | Tcode.BShl -> Int64.shift_left x (Int64.to_int y land shm)
          | Tcode.BLShr ->
              Int64.shift_right_logical (Int64.logand x lshr_mask)
                (Int64.to_int y land shm)
          | Tcode.BAShr -> Int64.shift_right x (Int64.to_int y land shm)
          | Tcode.BSMin -> if x <= y then x else y
          | Tcode.BSMax -> if x >= y then x else y
        in
        b_set64u bvi (doff + (l lsl 3))
          (Int64.shift_right (Int64.shift_left r sh) sh)
      end
    done
    end
  in
  let fbin_vec (op : Tcode.fbinop) r32 (rd : int) a a2 (act : int) =
    if act > 0 then begin
    let xv = match a with Tcode.FV _ -> true | _ -> false in
    let xoff = match a with Tcode.FV r -> r * lanes | _ -> 0 in
    let xk =
      match a with
      | Tcode.FV _ -> 0.0
      | Tcode.FS r -> bsf.(r)
      | Tcode.FK k -> k
      | Tcode.FBad -> raise (Trap "float read of symbol")
    in
    let yv = match a2 with Tcode.FV _ -> true | _ -> false in
    let yoff = match a2 with Tcode.FV r -> r * lanes | _ -> 0 in
    let yk =
      match a2 with
      | Tcode.FV _ -> 0.0
      | Tcode.FS r -> bsf.(r)
      | Tcode.FK k -> k
      | Tcode.FBad -> raise (Trap "float read of symbol")
    in
    let doff = rd * lanes in
    for j = 0 to act - 1 do
      let l = Array.unsafe_get blanes j in
      begin
        let x = if xv then Array.unsafe_get bvf (xoff + l) else xk in
        let y = if yv then Array.unsafe_get bvf (yoff + l) else yk in
        let v =
          match op with
          | Tcode.BFAdd -> x +. y
          | Tcode.BFSub -> x -. y
          | Tcode.BFMul -> x *. y
          | Tcode.BFDiv -> x /. y
          | Tcode.BFRem -> Float.rem x y
          | Tcode.BFMin -> if x <= y then x else y
          | Tcode.BFMax -> if x >= y then x else y
        in
        Array.unsafe_set bvf (doff + l)
          (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
      end
    done
    end
  in
  let icmp_vec (op : Ops.cmpop) bits (rd : int) a a2 (act : int) =
    if act > 0 then begin
    let sh = if bits >= 64 then 0 else 64 - bits in
    let xv = match a with Tcode.IV _ -> true | _ -> false in
    let xoff = match a with Tcode.IV r -> (r * lanes) lsl 3 | _ -> 0 in
    let xk =
      match a with
      | Tcode.IV _ -> 0L
      | Tcode.IS r -> b_get64u bsi (r lsl 3)
      | Tcode.IK k -> Int64.logor k 0L
      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
    in
    let yv = match a2 with Tcode.IV _ -> true | _ -> false in
    let yoff = match a2 with Tcode.IV r -> (r * lanes) lsl 3 | _ -> 0 in
    let yk =
      match a2 with
      | Tcode.IV _ -> 0L
      | Tcode.IS r -> b_get64u bsi (r lsl 3)
      | Tcode.IK k -> Int64.logor k 0L
      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
    in
    let doff = (rd * lanes) lsl 3 in
    for j = 0 to act - 1 do
      let l = Array.unsafe_get blanes j in
      begin
        let x0 =
          if xv then b_get64u bvi (xoff + (l lsl 3)) else Int64.logor xk 0L
        in
        let y0 =
          if yv then b_get64u bvi (yoff + (l lsl 3)) else Int64.logor yk 0L
        in
        let x = Int64.shift_right (Int64.shift_left x0 sh) sh in
        let y = Int64.shift_right (Int64.shift_left y0 sh) sh in
        let cres =
          match op with
          | Ops.CEq -> x = y
          | Ops.CNe -> x <> y
          | Ops.CLt -> x < y
          | Ops.CLe -> x <= y
          | Ops.CGt -> x > y
          | Ops.CGe -> x >= y
        in
        b_set64u bvi (doff + (l lsl 3)) (if cres then 1L else 0L)
      end
    done
    end
  in
  let fcmp_vec (op : Ops.cmpop) (rd : int) a a2 (act : int) =
    if act > 0 then begin
    let xv = match a with Tcode.FV _ -> true | _ -> false in
    let xoff = match a with Tcode.FV r -> r * lanes | _ -> 0 in
    let xk =
      match a with
      | Tcode.FV _ -> 0.0
      | Tcode.FS r -> bsf.(r)
      | Tcode.FK k -> k
      | Tcode.FBad -> raise (Trap "float read of symbol")
    in
    let yv = match a2 with Tcode.FV _ -> true | _ -> false in
    let yoff = match a2 with Tcode.FV r -> r * lanes | _ -> 0 in
    let yk =
      match a2 with
      | Tcode.FV _ -> 0.0
      | Tcode.FS r -> bsf.(r)
      | Tcode.FK k -> k
      | Tcode.FBad -> raise (Trap "float read of symbol")
    in
    let doff = (rd * lanes) lsl 3 in
    for j = 0 to act - 1 do
      let l = Array.unsafe_get blanes j in
      begin
        let x = if xv then Array.unsafe_get bvf (xoff + l) else xk in
        let y = if yv then Array.unsafe_get bvf (yoff + l) else yk in
        let cres =
          match op with
          | Ops.CEq -> x = y
          | Ops.CNe -> x <> y
          | Ops.CLt -> x < y
          | Ops.CLe -> x <= y
          | Ops.CGt -> x > y
          | Ops.CGe -> x >= y
        in
        b_set64u bvi (doff + (l lsl 3)) (if cres then 1L else 0L)
      end
    done
    end
  in
  (* ---- dispatch ---- *)
  let exec_instr (ti : Tcode.tinstr) (act : int) =
    match ti with
    | Tcode.TIBin (op, bits, d, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> dst_i d 0 (ibin op bits (src_i a 0) (src_i a2 0))
        | Tcode.DV rd -> ibin_vec op bits rd a a2 act)
    | Tcode.TIBinLong (op, bits, d, a, a2) -> (
        count_alu (is_scalar d) act;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        match d with
        | Tcode.DS _ -> dst_i d 0 (ibin op bits (src_i a 0) (src_i a2 0))
        | Tcode.DV rd -> ibin_vec op bits rd a a2 act)
    | Tcode.TFBin (op, r32, d, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ ->
            let v = fbin op (src_f a 0) (src_f a2 0) in
            dst_f d 0 (if r32 then Util.to_f32 v else v)
        | Tcode.DV rd -> fbin_vec op r32 rd a a2 act)
    | Tcode.TFBinLong (op, r32, d, a, a2) -> (
        count_alu (is_scalar d) act;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        match d with
        | Tcode.DS _ ->
            let v = fbin op (src_f a 0) (src_f a2 0) in
            dst_f d 0 (if r32 then Util.to_f32 v else v)
        | Tcode.DV rd -> fbin_vec op r32 rd a a2 act)
    | Tcode.TICmp (op, bits, d, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ ->
            dst_i d 0
              (if
                 icmp op
                   (Konst.norm_int (src_i a 0) bits)
                   (Konst.norm_int (src_i a2 0) bits)
               then 1L
               else 0L)
        | Tcode.DV rd -> icmp_vec op bits rd a a2 act)
    | Tcode.TFCmp (op, d, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> dst_i d 0 (if fcmp op (src_f a 0) (src_f a2 0) then 1L else 0L)
        | Tcode.DV rd -> fcmp_vec op rd a a2 act)
    | Tcode.TSelI (d, cnd, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ ->
            dst_i d 0
              (if not (Int64.equal (src_i cnd 0) 0L) then src_i a 0 else src_i a2 0)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let cv =
                  match cnd with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                let v =
                  if cv <> 0L then
                    match a with
                    | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                    | Tcode.IS r -> b_get64u bsi (r lsl 3)
                    | Tcode.IK k -> Int64.logor k 0L
                    | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                  else
                    match a2 with
                    | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                    | Tcode.IS r -> b_get64u bsi (r lsl 3)
                    | Tcode.IK k -> Int64.logor k 0L
                    | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                b_set64u bvi (((rd * lanes) + l) lsl 3) v
              end
            done)
    | Tcode.TSelF (d, cnd, a, a2) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ ->
            dst_f d 0
              (if not (Int64.equal (src_i cnd 0) 0L) then src_f a 0 else src_f a2 0)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let cv =
                  match cnd with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                let v =
                  if cv <> 0L then
                    match a with
                    | Tcode.FV r -> bvf.((r * lanes) + l)
                    | Tcode.FS r -> bsf.(r)
                    | Tcode.FK k -> k
                    | Tcode.FBad -> raise (Trap "float read of symbol")
                  else
                    match a2 with
                    | Tcode.FV r -> bvf.((r * lanes) + l)
                    | Tcode.FS r -> bsf.(r)
                    | Tcode.FK k -> k
                    | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                bvf.((rd * lanes) + l) <- v
              end
            done)
    | Tcode.TCast (cast, d, ia, fa) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> (
            match cast with
            | Tcode.CSiToFp (sbits, r32) ->
                let v = Int64.to_float (Konst.norm_int (src_i ia 0) sbits) in
                dst_f d 0 (if r32 then Util.to_f32 v else v)
            | Tcode.CFpToSi dbits ->
                dst_i d 0 (Konst.norm_int (Int64.of_float (src_f fa 0)) dbits)
            | Tcode.CFpExt -> dst_f d 0 (src_f fa 0)
            | Tcode.CFpTrunc -> dst_f d 0 (Util.to_f32 (src_f fa 0))
            | Tcode.CZext (sbits, dbits) ->
                let v = src_i ia 0 in
                let v =
                  if sbits >= 64 then v
                  else Int64.logand v (Int64.sub (Int64.shift_left 1L sbits) 1L)
                in
                dst_i d 0 (Konst.norm_int v dbits)
            | Tcode.CSext (sbits, dbits) ->
                dst_i d 0 (Konst.norm_int (Konst.norm_int (src_i ia 0) sbits) dbits)
            | Tcode.CTrunc dbits -> dst_i d 0 (Konst.norm_int (src_i ia 0) dbits)
            | Tcode.CBitFF -> dst_f d 0 (src_f fa 0)
            | Tcode.CBitIF -> dst_f d 0 (Int64.float_of_bits (src_i ia 0))
            | Tcode.CBitFI -> dst_i d 0 (Int64.bits_of_float (src_f fa 0))
            | Tcode.CBitII -> dst_i d 0 (src_i ia 0))
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                match cast with
                | Tcode.CSiToFp (sbits, r32) ->
                    let sh = if sbits >= 64 then 0 else 64 - sbits in
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    let v =
                      Int64.to_float (Int64.shift_right (Int64.shift_left x0 sh) sh)
                    in
                    bvf.((rd * lanes) + l) <-
                      (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
                | Tcode.CFpToSi dbits ->
                    let sh = if dbits >= 64 then 0 else 64 - dbits in
                    let x =
                      match fa with
                      | Tcode.FV r -> bvf.((r * lanes) + l)
                      | Tcode.FS r -> bsf.(r)
                      | Tcode.FK k -> k
                      | Tcode.FBad -> raise (Trap "float read of symbol")
                    in
                    b_set64u bvi (((rd * lanes) + l) lsl 3)
                      (Int64.shift_right (Int64.shift_left (Int64.of_float x) sh) sh)
                | Tcode.CFpExt | Tcode.CBitFF ->
                    bvf.((rd * lanes) + l) <-
                      (match fa with
                      | Tcode.FV r -> bvf.((r * lanes) + l)
                      | Tcode.FS r -> bsf.(r)
                      | Tcode.FK k -> k
                      | Tcode.FBad -> raise (Trap "float read of symbol"))
                | Tcode.CFpTrunc ->
                    let x =
                      match fa with
                      | Tcode.FV r -> bvf.((r * lanes) + l)
                      | Tcode.FS r -> bsf.(r)
                      | Tcode.FK k -> k
                      | Tcode.FBad -> raise (Trap "float read of symbol")
                    in
                    bvf.((rd * lanes) + l) <- Int32.float_of_bits (Int32.bits_of_float x)
                | Tcode.CZext (sbits, dbits) ->
                    let zmask =
                      if sbits >= 64 then -1L
                      else Int64.sub (Int64.shift_left 1L sbits) 1L
                    in
                    let dsh = if dbits >= 64 then 0 else 64 - dbits in
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    let x = Int64.logand x0 zmask in
                    b_set64u bvi (((rd * lanes) + l) lsl 3)
                      (Int64.shift_right (Int64.shift_left x dsh) dsh)
                | Tcode.CSext (sbits, dbits) ->
                    let ssh = if sbits >= 64 then 0 else 64 - sbits in
                    let dsh = if dbits >= 64 then 0 else 64 - dbits in
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    let x = Int64.shift_right (Int64.shift_left x0 ssh) ssh in
                    b_set64u bvi (((rd * lanes) + l) lsl 3)
                      (Int64.shift_right (Int64.shift_left x dsh) dsh)
                | Tcode.CTrunc dbits ->
                    let dsh = if dbits >= 64 then 0 else 64 - dbits in
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    b_set64u bvi (((rd * lanes) + l) lsl 3)
                      (Int64.shift_right (Int64.shift_left x0 dsh) dsh)
                | Tcode.CBitIF ->
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    bvf.((rd * lanes) + l) <- Int64.float_of_bits x0
                | Tcode.CBitFI ->
                    let x =
                      match fa with
                      | Tcode.FV r -> bvf.((r * lanes) + l)
                      | Tcode.FS r -> bsf.(r)
                      | Tcode.FK k -> k
                      | Tcode.FBad -> raise (Trap "float read of symbol")
                    in
                    b_set64u bvi (((rd * lanes) + l) lsl 3) (Int64.bits_of_float x)
                | Tcode.CBitII ->
                    let x0 =
                      match ia with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    b_set64u bvi (((rd * lanes) + l) lsl 3) x0
              end
            done)
    | Tcode.TMovI (d, a) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> dst_i d 0 (src_i a 0)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
                b_set64u bvi
                  (((rd * lanes) + l) lsl 3)
                  (match a with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L)
            done)
    | Tcode.TMovF (d, a) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> dst_f d 0 (src_f a 0)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
                bvf.((rd * lanes) + l) <-
                  (match a with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol"))
            done)
    | Tcode.TLd (space, mty, d, pa, site) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        match d with
        | Tcode.DS _ -> (
            (* uniform scalar fetch *)
            c.Counters.smem <- c.Counters.smem + 1;
            let addr = src_i pa 0 in
            touch_one (Int64.to_int addr);
            if profiling then record_site site act;
            match mty with
            | Tcode.MBool -> dst_i d 0 (if Gmem.read_u8 mem addr <> 0 then 1L else 0L)
            | Tcode.MI8 ->
                dst_i d 0 (Konst.norm_int (Int64.of_int (Gmem.read_u8 mem addr)) 8)
            | Tcode.MI32 -> dst_i d 0 (Int64.of_int32 (Gmem.read_i32 mem addr))
            | Tcode.MI64 -> dst_i d 0 (Gmem.read_i64 mem addr)
            | Tcode.MF32 -> dst_f d 0 (Gmem.read_f32 mem addr)
            | Tcode.MF64 -> dst_f d 0 (Gmem.read_f64 mem addr)
            | Tcode.MNone t -> Util.failf "Gmem.read: cannot read %s" t)
        | Tcode.DV rd ->
            c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
            c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
            if space = Mach.SScratch then
              c.Counters.scratch_ld <- c.Counters.scratch_ld + 1;
            nref := 0;
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let ai =
                  Int64.to_int
                    (match pa with
                    | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                    | Tcode.IS r -> b_get64u bsi (r lsl 3)
                    | Tcode.IK k -> Int64.logor k 0L
                    | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L)
                in
                babuf.(!nref) <- ai;
                incr nref;
                match mty with
                | Tcode.MBool ->
                    if ai <= 0 || ai + 1 > dlen then oob ai 1;
                    b_set64u bvi
                      (((rd * lanes) + l) lsl 3)
                      (if Bytes.get data ai <> '\000' then 1L else 0L)
                | Tcode.MI8 ->
                    if ai <= 0 || ai + 1 > dlen then oob ai 1;
                    let v = Char.code (Bytes.get data ai) in
                    b_set64u bvi
                      (((rd * lanes) + l) lsl 3)
                      (Int64.of_int ((v lsl 55) asr 55))
                | Tcode.MI32 ->
                    if ai <= 0 || ai + 4 > dlen then oob ai 4;
                    b_set64u bvi
                      (((rd * lanes) + l) lsl 3)
                      (Int64.of_int32 (le_get32u data ai))
                | Tcode.MI64 ->
                    if ai <= 0 || ai + 8 > dlen then oob ai 8;
                    b_set64u bvi (((rd * lanes) + l) lsl 3) (le_get64u data ai)
                | Tcode.MF32 ->
                    if ai <= 0 || ai + 4 > dlen then oob ai 4;
                    bvf.((rd * lanes) + l) <- Int32.float_of_bits (le_get32u data ai)
                | Tcode.MF64 ->
                    if ai <= 0 || ai + 8 > dlen then oob ai 8;
                    bvf.((rd * lanes) + l) <- Int64.float_of_bits (le_get64u data ai)
                | Tcode.MNone t -> Util.failf "Gmem.read: cannot read %s" t
              end
            done;
            touch_collected !nref;
            if profiling then record_site site act)
    | Tcode.TSt (space, mty, iv, fv, pa, site) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        if space = Mach.SScratch then c.Counters.scratch_st <- c.Counters.scratch_st + 1;
        nref := 0;
        for j = 0 to act - 1 do
          let l = Array.unsafe_get blanes j in
          begin
            let ai =
              Int64.to_int
                (match pa with
                | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                | Tcode.IS r -> b_get64u bsi (r lsl 3)
                | Tcode.IK k -> Int64.logor k 0L
                | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L)
            in
            babuf.(!nref) <- ai;
            incr nref;
            match mty with
            | Tcode.MBool ->
                if ai <= 0 || ai + 1 > dlen then oob ai 1;
                let v =
                  match iv with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                Bytes.set data ai (if Int64.logand v 1L = 0L then '\000' else '\001')
            | Tcode.MI8 ->
                if ai <= 0 || ai + 1 > dlen then oob ai 1;
                let v =
                  match iv with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                Bytes.set data ai (Char.unsafe_chr (Int64.to_int v land 0xff))
            | Tcode.MI32 ->
                if ai <= 0 || ai + 4 > dlen then oob ai 4;
                le_set32u data ai
                  (Int64.to_int32
                     (match iv with
                     | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                     | Tcode.IS r -> b_get64u bsi (r lsl 3)
                     | Tcode.IK k -> Int64.logor k 0L
                     | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L))
            | Tcode.MI64 ->
                if ai <= 0 || ai + 8 > dlen then oob ai 8;
                le_set64u data ai
                  (match iv with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L)
            | Tcode.MF32 ->
                if ai <= 0 || ai + 4 > dlen then oob ai 4;
                le_set32u data ai
                  (Int32.bits_of_float
                     (match fv with
                     | Tcode.FV r -> bvf.((r * lanes) + l)
                     | Tcode.FS r -> bsf.(r)
                     | Tcode.FK k -> k
                     | Tcode.FBad -> raise (Trap "float read of symbol")))
            | Tcode.MF64 ->
                if ai <= 0 || ai + 8 > dlen then oob ai 8;
                le_set64u data ai
                  (Int64.bits_of_float
                     (match fv with
                     | Tcode.FV r -> bvf.((r * lanes) + l)
                     | Tcode.FS r -> bsf.(r)
                     | Tcode.FK k -> k
                     | Tcode.FBad -> raise (Trap "float read of symbol")))
            | Tcode.MNone t ->
                (* Refexec reads the value, then fails sizing the type *)
                ignore (src_i iv l);
                Util.failf "Exec.ibits_of: %s" t
          end
        done;
        touch_collected !nref;
        if profiling then record_site site act
    | Tcode.TQuery (q, d) -> (
        count_alu (is_scalar d) act;
        match d with
        | Tcode.DS _ -> dst_i d 0 (Int64.of_int (query_int q 0))
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
                b_set64u bvi (((rd * lanes) + l) lsl 3) (Int64.of_int (query_int q l))
            done)
    | Tcode.TMath1 (op, r32, d, a) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        if not (is_scalar d) then c.Counters.valu_thread <- c.Counters.valu_thread + act;
        match d with
        | Tcode.DS _ ->
            let v = math1_eval op (src_f a 0) in
            dst_f d 0 (if r32 then Util.to_f32 v else v)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let x =
                  match a with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let v =
                  match op with
                  | Tcode.M1Sqrt -> sqrt x
                  | Tcode.M1Rsqrt -> 1.0 /. sqrt x
                  | Tcode.M1Exp -> exp x
                  | Tcode.M1Log -> log x
                  | Tcode.M1Sin -> sin x
                  | Tcode.M1Cos -> cos x
                  | Tcode.M1Fabs -> Float.abs x
                  | Tcode.M1Floor -> Float.floor x
                  | Tcode.M1Ceil -> Float.ceil x
                  | Tcode.M1Tanh -> tanh x
                  | Tcode.M1Gen n -> Ir.Intrinsics.eval_math_unary n x
                in
                bvf.((rd * lanes) + l) <-
                  (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
              end
            done)
    | Tcode.TMath2 (op, r32, d, a, a2) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        if not (is_scalar d) then c.Counters.valu_thread <- c.Counters.valu_thread + act;
        match d with
        | Tcode.DS _ ->
            let v = math2_eval op (src_f a 0) (src_f a2 0) in
            dst_f d 0 (if r32 then Util.to_f32 v else v)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let x =
                  match a with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let y =
                  match a2 with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let v =
                  match op with
                  | Tcode.M2Pow -> Float.pow x y
                  | Tcode.M2Atan2 -> Float.atan2 x y
                  | Tcode.M2Gen n -> Ir.Intrinsics.eval_math_binary n x y
                in
                bvf.((rd * lanes) + l) <-
                  (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
              end
            done)
    | Tcode.TFma (r32, d, a, a2, a3) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        if not (is_scalar d) then c.Counters.valu_thread <- c.Counters.valu_thread + act;
        match d with
        | Tcode.DS _ ->
            let v = (src_f a 0 *. src_f a2 0) +. src_f a3 0 in
            dst_f d 0 (if r32 then Util.to_f32 v else v)
        | Tcode.DV rd ->
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                let x =
                  match a with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let y =
                  match a2 with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let z =
                  match a3 with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                let v = (x *. y) +. z in
                bvf.((rd * lanes) + l) <-
                  (if r32 then Int32.float_of_bits (Int32.bits_of_float v) else v)
              end
            done)
    | Tcode.TAtomic (kind, dst, pa, iv, fv, site) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.atomics <- c.Counters.atomics + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        nref := 0;
        for j = 0 to act - 1 do
          let l = Array.unsafe_get blanes j in
          begin
            let ai =
              Int64.to_int
                (match pa with
                | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                | Tcode.IS r -> b_get64u bsi (r lsl 3)
                | Tcode.IK k -> Int64.logor k 0L
                | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L)
            in
            babuf.(!nref) <- ai;
            incr nref;
            match kind with
            | Tcode.AAddF32 ->
                if ai <= 0 || ai + 4 > dlen then oob ai 4;
                let old = Int32.float_of_bits (le_get32u data ai) in
                let v =
                  match fv with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                le_set32u data ai (Int32.bits_of_float (old +. v));
                (match dst with
                | Some (Tcode.DV r) -> bvf.((r * lanes) + l) <- old
                | Some (Tcode.DS r) -> bsf.(r) <- old
                | None -> ())
            | Tcode.AAddF64 ->
                if ai <= 0 || ai + 8 > dlen then oob ai 8;
                let old = Int64.float_of_bits (le_get64u data ai) in
                let v =
                  match fv with
                  | Tcode.FV r -> bvf.((r * lanes) + l)
                  | Tcode.FS r -> bsf.(r)
                  | Tcode.FK k -> k
                  | Tcode.FBad -> raise (Trap "float read of symbol")
                in
                le_set64u data ai (Int64.bits_of_float (old +. v));
                (match dst with
                | Some (Tcode.DV r) -> bvf.((r * lanes) + l) <- old
                | Some (Tcode.DS r) -> bsf.(r) <- old
                | None -> ())
            | Tcode.AAddI32 ->
                if ai <= 0 || ai + 4 > dlen then oob ai 4;
                let old = le_get32u data ai in
                let v =
                  match iv with
                  | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                  | Tcode.IS r -> b_get64u bsi (r lsl 3)
                  | Tcode.IK k -> Int64.logor k 0L
                  | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                in
                le_set32u data ai (Int32.add old (Int64.to_int32 v));
                (match dst with
                | Some (Tcode.DV r) ->
                    b_set64u bvi (((r * lanes) + l) lsl 3) (Int64.of_int32 old)
                | Some (Tcode.DS r) -> b_set64u bsi (r lsl 3) (Int64.of_int32 old)
                | None -> ())
          end
        done;
        touch_collected !nref;
        if profiling then record_site site act
    | Tcode.TBarrier -> c.Counters.warp_instrs <- c.Counters.warp_instrs + 1
    | Tcode.TFrame (d, off) ->
        count_alu (is_scalar d) act;
        let s0 = !scratch0 in
        for j = 0 to act - 1 do
          let l = Array.unsafe_get blanes j in
          begin
            let v = Int64.add (Int64.of_int (s0 + (l * frame))) off in
            match d with
            | Tcode.DV r -> b_set64u bvi (((r * lanes) + l) lsl 3) v
            | Tcode.DS r -> b_set64u bsi (r lsl 3) v
          end
        done
    | Tcode.TArg (k, d) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        let v = env.targs.(k) in
        match d with
        | Tcode.DS _ -> write_konst d 0 v
        | Tcode.DV rd -> (
            match v with
            | Konst.KFloat (f, _) ->
                for j = 0 to act - 1 do
                  let l = Array.unsafe_get blanes j in
                    bvf.((rd * lanes) + l) <- f
                done
            | Konst.KBool bv ->
                let iv = if bv then 1L else 0L in
                for j = 0 to act - 1 do
                  let l = Array.unsafe_get blanes j in
                    b_set64u bvi (((rd * lanes) + l) lsl 3) iv
                done
            | Konst.KInt (iv, _) ->
                for j = 0 to act - 1 do
                  let l = Array.unsafe_get blanes j in
                    b_set64u bvi (((rd * lanes) + l) lsl 3) iv
                done
            | Konst.KNull ->
                for j = 0 to act - 1 do
                  let l = Array.unsafe_get blanes j in
                    b_set64u bvi (((rd * lanes) + l) lsl 3) 0L
                done))
    | Tcode.TSpillStS (slot, rid) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_st <- c.Counters.spill_st + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        b_set64u bsspi (slot lsl 3) (b_get64u bsi (rid lsl 3));
        bsspf.(slot) <- bsf.(rid)
    | Tcode.TSpillStV (slot, rid) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_st <- c.Counters.spill_st + 1;
        c.Counters.scratch_st <- c.Counters.scratch_st + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        nref := 0;
        let sp = !spill0 + (slot * 8 * lanes) in
        for j = 0 to act - 1 do
          let l = Array.unsafe_get blanes j in
          begin
            babuf.(!nref) <- sp + (l * 8);
            incr nref;
            b_set64u bspi
              (((slot * lanes) + l) lsl 3)
              (b_get64u bvi (((rid * lanes) + l) lsl 3));
            bspf.((slot * lanes) + l) <- bvf.((rid * lanes) + l)
          end
        done;
        touch_collected !nref
    | Tcode.TSpillLd (slot, d) -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_ld <- c.Counters.spill_ld + 1;
        match d with
        | Tcode.DS rid ->
            c.Counters.smem <- c.Counters.smem + 1;
            b_set64u bsi (rid lsl 3) (b_get64u bsspi (slot lsl 3));
            bsf.(rid) <- bsspf.(slot)
        | Tcode.DV rid ->
            c.Counters.scratch_ld <- c.Counters.scratch_ld + 1;
            c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
            nref := 0;
            let sp = !spill0 + (slot * 8 * lanes) in
            for j = 0 to act - 1 do
              let l = Array.unsafe_get blanes j in
              begin
                babuf.(!nref) <- sp + (l * 8);
                incr nref;
                b_set64u bvi
                  (((rid * lanes) + l) lsl 3)
                  (b_get64u bspi (((slot * lanes) + l) lsl 3));
                bvf.((rid * lanes) + l) <- bspf.((slot * lanes) + l)
              end
            done;
            touch_collected !nref)
    | Tcode.TTrap e -> raise e
    | Tcode.TIBinBad (op, bits, scalar, a, a2) ->
        (* Refexec's first lane reads b, then a, and Konst.binop fails *)
        let l = if scalar then 0 else Array.unsafe_get blanes 0 in
        let y = src_i a2 l in
        let x = src_i a l in
        ignore (Konst.binop op (Konst.kint ~bits x) (Konst.kint ~bits y))
  in
  (* ---- SIMT control flow over integer block ids ---- *)
  (* stop sentinel -2 matches no block, like the reference's None
     (ipdom exit is -1) *)
  let fuel = ref 0 in
  let blocks = p.Tcode.blocks in
  let ipdom = p.Tcode.ipdom in
  let rec run (bid : int) (mask : int64) (stop : int) : int64 =
    if bid = stop || Int64.equal mask 0L then mask
    else begin
      let blk = blocks.(bid) in
      let code = blk.Tcode.tcode in
      (* the mask is constant across a block's straight-line body, so
         its popcount and active-lane list are computed once per block,
         not per instruction *)
      let act = popcount mask in
      let aj = ref 0 in
      for l = 0 to lanes - 1 do
        if Int64.logand mask (Int64.shift_left 1L l) <> 0L then begin
          Array.unsafe_set blanes !aj l;
          incr aj
        end
      done;
      for idx = 0 to Array.length code - 1 do
        decr fuel;
        if !fuel <= 0 then raise (Trap "out of fuel");
        exec_instr (Array.unsafe_get code idx) act
      done;
      match blk.Tcode.tterm with
      | Tcode.TTbr l -> run l mask stop
      | Tcode.TTret -> 0L
      | Tcode.TTtrap e -> raise e
      | Tcode.TTcbr (cnd, t, e) ->
          c.Counters.branches <- c.Counters.branches + 1;
          c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
          let tm =
            match cnd with
            | Tcode.IS rid -> if b_get64u bsi (rid lsl 3) <> 0L then mask else 0L
            | _ ->
                (* accumulate the taken mask in two int halves: an
                   [int64 ref] would box on every update *)
                let lo = ref 0 and hi = ref 0 in
                for j = 0 to act - 1 do
                  let l = Array.unsafe_get blanes j in
                  begin
                    let v =
                      match cnd with
                      | Tcode.IV r -> b_get64u bvi (((r * lanes) + l) lsl 3)
                      | Tcode.IS r -> b_get64u bsi (r lsl 3)
                      | Tcode.IK k -> Int64.logor k 0L
                      | Tcode.IG g -> Int64.logor (env.tsymbols g) 0L
                    in
                    if v <> 0L then
                      if l < 32 then lo := !lo lor (1 lsl l)
                      else hi := !hi lor (1 lsl (l - 32))
                  end
                done;
                Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int !hi) 32)
          in
          let em = Int64.logand mask (Int64.lognot tm) in
          if Int64.equal em 0L then run t mask stop
          else if Int64.equal tm 0L then run e mask stop
          else begin
            let r = ipdom.(bid) in
            if r >= 0 then begin
              let m1 = run t tm r in
              let m2 = run e em r in
              let joined = Int64.logor m1 m2 in
              if r = stop then joined else run r joined stop
            end
            else begin
              let _ = run t tm (-2) in
              let _ = run e em (-2) in
              0L
            end
          end
    end
  in
  fun ~first_thread ~bix:bx ~btx:tx init_mask ->
    let s0 = Int64.to_int env.tscratch_base + (first_thread * env.tthread_frame) in
    scratch0 := s0;
    spill0 := s0 + (lanes * frame);
    bix := bx;
    btx := tx;
    fuel := 1_000_000_000;
    ignore (run p.Tcode.entry init_mask (-2))

(* ------------------------------------------------------------------ *)
(* Kernel launch: iterate blocks and warps.                            *)

type launch_result = {
  counters : Counters.t;
  waves : int;
  blocks_launched : int;
  engine : string; (* "threaded" | "multicore" (Refexec: "reference") *)
}

(* Run the warps of thread-block [blk] through the threaded engine:
   [trun_block env p bufs ~warp ~block ~nwarps_per_block] builds the
   warp runner once, and each application to a block index reuses it. *)
let trun_block (env : tenv) (p : Tcode.program) (bufs : Tcode.tbufs) ~warp ~block
    ~nwarps_per_block =
  let c = env.tc in
  let run_warp = texec_launch env p bufs ~lanes:warp in
  fun blk ->
    for wi = 0 to nwarps_per_block - 1 do
      let base_lane = wi * warp in
      let lanes_active = min warp (block - base_lane) in
      let mask =
        if lanes_active >= 64 then -1L
        else Int64.sub (Int64.shift_left 1L lanes_active) 1L
      in
      Tcode.tbufs_reset bufs;
      run_warp ~first_thread:((blk * block) + base_lane) ~bix:blk ~btx:base_lane mask;
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
    let mkenv tc tsink =
      {
        tmem = mem;
        tl2 = l2;
        tsymbols = symbols;
        targs = args;
        tgx = grid;
        tbx = block;
        tline = device.Device.l2_line;
        tscratch_base = scratch_base;
        tthread_frame = thread_frame;
        tc;
        tsink;
        tprofile = profile;
      }
    in
    (* an armed profile is one shared table: record from one domain *)
    if ndom <= 1 || grid <= 1 || not (Tcode.parallel_safe p) || Option.is_some profile
    then begin
      let env = mkenv counters Direct in
      let bufs = Tcode.acquire p ~lanes:warp in
      let run_block = trun_block env p bufs ~warp ~block ~nwarps_per_block in
      for blk = 0 to grid - 1 do
        run_block blk
      done;
      Tcode.release p bufs;
      "threaded"
    end
    else begin
      (* Parallel block schedule: execute chunks of blocks across the
         domain pool with per-block counters and cache-line traces,
         then merge counters additively and replay traces serially in
         block order through the shared L2 - the model sees exactly
         the serial access sequence, so hits/misses (and the derived
         timing) match the serial schedule bit for bit. Chunking
         bounds the memory held by traces. *)
      let pool = Pool.shared ~size:ndom in
      let chunk = 4 * ndom in
      let start = ref 0 in
      while !start < grid do
        let n = min chunk (grid - !start) in
        let per_block = Array.init n (fun _ -> Counters.create ()) in
        let traces = Array.init n (fun _ -> Util.Vec.create 0) in
        Pool.run pool
          (fun i ->
            let blk = !start + i in
            let env = mkenv per_block.(i) (Record traces.(i)) in
            let bufs = Tcode.acquire p ~lanes:warp in
            trun_block env p bufs ~warp ~block ~nwarps_per_block blk;
            Tcode.release p bufs)
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
      "multicore"
    end
  in
  let engine = Fun.protect ~finally:(fun () -> Gmem.free mem scratch_base) run in
  { counters; waves = counters.Counters.warps; blocks_launched = grid; engine }
