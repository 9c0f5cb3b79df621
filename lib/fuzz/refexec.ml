(* Reference SIMT interpreter: the executable specification of the
   executor. It walks Mach directly - string block labels, [List.nth]
   operands, a [Konst.t] per lane per memory access - warp by warp in
   lockstep with an active mask and immediate-postdominator
   reconvergence, exactly as [Exec.launch] must behave. It is not on
   any launch path: fuzz oracle (b) and the executor tests run
   [Exec.launch] against it, bit for bit (memory contents, every
   counter, the simulated timing derived from them, the per-site
   profile, and the failure raised by a launch that fails). When the
   semantics change, change [run_warp] first and mirror it in Tcode and
   Exec. *)

open Proteus_support
open Proteus_ir
open Proteus_backend
open Proteus_gpu

type kernel_env = {
  mem : Gmem.t;
  l2 : L2cache.t;
  device : Device.t;
  symbols : string -> int64; (* device global addresses *)
  args : Konst.t array;
  grid : int * int * int;
  block : int * int * int;
  scratch_base : int64; (* arena for per-thread frames *)
  thread_frame : int; (* bytes per thread (frame + spill slots) *)
  counters : Counters.t;
}

(* Per-warp register state: parallel float/int banks, scalar and vector. *)
type wstate = {
  lanes : int;
  vi : int64 array; (* vregs * lanes *)
  vf : float array;
  si : int64 array;
  sf : float array;
  spi : int64 array; (* spill slots * lanes *)
  spf : float array;
  sspi : int64 array; (* scalar spill slots *)
  sspf : float array;
  first_thread : int; (* global linear id of lane 0 *)
  block_id : int * int * int;
  base_tid : int * int * int; (* thread id of lane 0 within the block *)
}

let popcount = Util.popcount64

let lane_active mask lane =
  not (Int64.equal (Int64.logand mask (Int64.shift_left 1L lane)) 0L)

exception Trap = Exec.Trap

let is_float_ty = function Types.TFloat _ -> true | _ -> false

let norm_ibits bits v = Konst.norm_int v bits

let ibits_of = function
  | Types.TBool -> 1
  | Types.TInt b -> b
  | Types.TPtr _ -> 64
  | t -> Util.failf "Exec.ibits_of: %s" (Types.to_string t)

(* ------------------------------------------------------------------ *)

(* Per-kernel preparation shared by all warps of a launch: block map
   and reconvergence points. *)
type prep = {
  pblocks : (string, Mach.mblock) Hashtbl.t;
  pipdom : string Util.Smap.t; (* absent: reconverges at exit *)
}

let prepare (f : Mach.mfunc) : prep =
  let pblocks : (string, Mach.mblock) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (b : Mach.mblock) -> Hashtbl.replace pblocks b.Mach.mlab b) f.Mach.blocks;
  let blocks = Array.of_list f.Mach.blocks in
  let pipdom = ref Util.Smap.empty in
  Array.iteri
    (fun i r ->
      if r >= 0 then pipdom := Util.Smap.add blocks.(i).Mach.mlab blocks.(r).Mach.mlab !pipdom)
    (Dom.ipostdoms (Array.length blocks) (Mach.succ_indices blocks));
  { pblocks; pipdom = !pipdom }

let run_warp (env : kernel_env) (f : Mach.mfunc) (prep : prep) (w : wstate)
    (init_mask : int64) : unit =
  let c = env.counters in
  let lanes = w.lanes in
  let block lab =
    match Hashtbl.find_opt prep.pblocks lab with
    | Some b -> b
    | None -> raise (Trap ("no block " ^ lab))
  in
  let ipdom = prep.pipdom in
  (* ---- register access ---- *)
  let rd_vi r lane = w.vi.((r * lanes) + lane) in
  let rd_vf r lane = w.vf.((r * lanes) + lane) in
  let wr_vi r lane v = w.vi.((r * lanes) + lane) <- v in
  let wr_vf r lane v = w.vf.((r * lanes) + lane) <- v in
  let src_i (s : Mach.msrc) lane : int64 =
    match s with
    | Mach.Rs { Mach.rid; rcls = Mach.CV } -> rd_vi rid lane
    | Mach.Rs { Mach.rid; rcls = Mach.CS } -> w.si.(rid)
    | Mach.Ki k -> Konst.as_int k
    | Mach.Gs g -> env.symbols g
  in
  let src_f (s : Mach.msrc) lane : float =
    match s with
    | Mach.Rs { Mach.rid; rcls = Mach.CV } -> rd_vf rid lane
    | Mach.Rs { Mach.rid; rcls = Mach.CS } -> w.sf.(rid)
    | Mach.Ki k -> Konst.as_float k
    | Mach.Gs _ -> raise (Trap "float read of symbol")
  in
  let dst_i (d : Mach.reg) lane v =
    match d.Mach.rcls with
    | Mach.CV -> wr_vi d.Mach.rid lane v
    | Mach.CS -> w.si.(d.Mach.rid) <- v
  in
  let dst_f (d : Mach.reg) lane v =
    match d.Mach.rcls with
    | Mach.CV -> wr_vf d.Mach.rid lane v
    | Mach.CS -> w.sf.(d.Mach.rid) <- v
  in
  let write_konst (d : Mach.reg) lane (k : Konst.t) =
    match k with
    | Konst.KFloat (v, _) -> dst_f d lane v
    | Konst.KBool b -> dst_i d lane (if b then 1L else 0L)
    | Konst.KInt (v, _) -> dst_i d lane v
    | Konst.KNull -> dst_i d lane 0L
  in
  (* thread coordinates *)
  let gx, gy, gz = env.grid and bx, by, bz = env.block in
  ignore (gx, gy, gz, bx, by, bz);
  let btx, bty, btz = w.base_tid in
  let tid_of lane =
    (* lanes advance along x *)
    let linear = btx + lane in
    let x = linear mod bx in
    let rest = linear / bx in
    let y = bty + (rest mod by) in
    let z = btz + (rest / by) in
    (x, y, z)
  in
  let bix, biy, biz = w.block_id in
  let query_val q lane : int64 =
    let x, y, z = tid_of lane in
    let v =
      match q with
      | "gpu.tid.x" -> x
      | "gpu.tid.y" -> y
      | "gpu.tid.z" -> z
      | "gpu.ctaid.x" -> bix
      | "gpu.ctaid.y" -> biy
      | "gpu.ctaid.z" -> biz
      | "gpu.ntid.x" -> bx
      | "gpu.ntid.y" -> by
      | "gpu.ntid.z" -> bz
      | "gpu.nctaid.x" -> gx
      | "gpu.nctaid.y" -> gy
      | "gpu.nctaid.z" -> gz
      | q -> raise (Trap ("unknown query " ^ q))
    in
    Int64.of_int v
  in
  (* memory access with coalescing; returns the number of distinct
     cache lines the access touched, and updates counters *)
  let dedup = Tcode.linedup_create lanes in
  let touch_lines addrs =
    (* unique cache lines among lane addresses *)
    let line = env.device.Device.l2_line in
    Tcode.linedup_reset dedup;
    let fresh = ref 0 in
    List.iter
      (fun a ->
        let la = Int64.to_int a / line in
        if Tcode.linedup_add dedup la then begin
          incr fresh;
          c.Counters.mem_lines <- c.Counters.mem_lines + 1;
          if L2cache.access env.l2 a then c.Counters.l2_hits <- c.Counters.l2_hits + 1
          else c.Counters.l2_misses <- c.Counters.l2_misses + 1
        end)
      addrs;
    !fresh
  in
  (* Per-site transaction profiling (PerfLint validation): when armed,
     every load/store/atomic issue records its active-lane and
     fresh-line counts under a structural (sym, block, mem-op ordinal)
     key. Ordinals count every memory op of the block in code order
     and reset on block entry, matching the static classifier's walk
     of the optimized IR. *)
  let profile = !Counters.site_profile in
  let site_lab = ref "" in
  let site_ord = ref 0 in
  let record_site kind ~ord ~act ~lines ~width ~scratch =
    match profile with
    | None -> ()
    | Some tbl ->
        Counters.record_site tbl
          { Counters.sk_sym = f.Mach.sym; sk_block = !site_lab; sk_ord = ord;
            sk_kind = kind }
          ~lanes:act ~lines ~full:(act = lanes) ~width ~scratch
  in
  (* Spill slots are lane-interleaved within a warp's scratch region
     (hardware swizzles scratch so per-lane spill traffic coalesces). *)
  let scratch_addr lane slot =
    Int64.add env.scratch_base
      (Int64.of_int
         ((w.first_thread * env.thread_frame)
         + (lanes * f.Mach.frame)
         + (slot * 8 * lanes)
         + (lane * 8)))
  in
  (* ---- main instruction dispatch ---- *)
  let exec_instr (i : Mach.minstr) (mask : int64) =
    let act = popcount mask in
    let for_lanes fn =
      for lane = 0 to lanes - 1 do
        if lane_active mask lane then fn lane
      done
    in
    let scalar_dst =
      match i.Mach.dst with Some { Mach.rcls = Mach.CS; _ } -> true | None -> false | _ -> false
    in
    let count_alu () =
      c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
      if scalar_dst then c.Counters.salu <- c.Counters.salu + 1
      else begin
        c.Counters.valu_warp <- c.Counters.valu_warp + 1;
        c.Counters.valu_thread <- c.Counters.valu_thread + act
      end
    in
    match i.Mach.op with
    | Mach.Obin (op, ty) ->
        count_alu ();
        (* divisions issue through the long-latency pipe like
           transcendentals on both architectures *)
        (match op with
        | Ops.FDiv | Ops.FRem | Ops.SDiv | Ops.SRem ->
            c.Counters.math_warp <- c.Counters.math_warp + 1
        | _ -> ());
        let d = Option.get i.Mach.dst in
        let a, b = (List.nth i.Mach.srcs 0, List.nth i.Mach.srcs 1) in
        if is_float_ty ty then begin
          let bits = match ty with Types.TFloat b -> b | _ -> 64 in
          let apply x y =
            let open Ops in
            match op with
            | FAdd -> x +. y
            | FSub -> x -. y
            | FMul -> x *. y
            | FDiv -> x /. y
            | FRem -> Float.rem x y
            | FMin -> if x <= y then x else y
            | FMax -> if x >= y then x else y
            | _ -> raise (Trap "int binop on float type")
          in
          let round = if bits = 32 then Util.to_f32 else fun x -> x in
          if scalar_dst then dst_f d 0 (round (apply (src_f a 0) (src_f b 0)))
          else for_lanes (fun l -> dst_f d l (round (apply (src_f a l) (src_f b l))))
        end
        else begin
          let bits = ibits_of ty in
          let apply x y =
            Konst.as_int (Konst.binop op (Konst.kint ~bits x) (Konst.kint ~bits y))
          in
          if scalar_dst then dst_i d 0 (apply (src_i a 0) (src_i b 0))
          else for_lanes (fun l -> dst_i d l (apply (src_i a l) (src_i b l)))
        end
    | Mach.Ocmp (op, ty) ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        let a, b = (List.nth i.Mach.srcs 0, List.nth i.Mach.srcs 1) in
        let cmp_i x y =
          let cv = Int64.compare x y in
          let open Ops in
          match op with
          | CEq -> cv = 0
          | CNe -> cv <> 0
          | CLt -> cv < 0
          | CLe -> cv <= 0
          | CGt -> cv > 0
          | CGe -> cv >= 0
        in
        let cmp_f x y =
          let open Ops in
          match op with
          | CEq -> x = y
          | CNe -> x <> y
          | CLt -> x < y
          | CLe -> x <= y
          | CGt -> x > y
          | CGe -> x >= y
        in
        if is_float_ty ty then
          if scalar_dst then dst_i d 0 (if cmp_f (src_f a 0) (src_f b 0) then 1L else 0L)
          else
            for_lanes (fun l -> dst_i d l (if cmp_f (src_f a l) (src_f b l) then 1L else 0L))
        else begin
          let bits = ibits_of ty in
          let n v = norm_ibits bits v in
          if scalar_dst then
            dst_i d 0 (if cmp_i (n (src_i a 0)) (n (src_i b 0)) then 1L else 0L)
          else
            for_lanes (fun l ->
                dst_i d l (if cmp_i (n (src_i a l)) (n (src_i b l)) then 1L else 0L))
        end
    | Mach.Osel ty ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        let cnd, a, b =
          (List.nth i.Mach.srcs 0, List.nth i.Mach.srcs 1, List.nth i.Mach.srcs 2)
        in
        let go l =
          let take = not (Int64.equal (src_i cnd l) 0L) in
          if is_float_ty ty then dst_f d l (if take then src_f a l else src_f b l)
          else dst_i d l (if take then src_i a l else src_i b l)
        in
        if scalar_dst then go 0 else for_lanes go
    | Mach.Ocast (op, dty, sty) ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        let a = List.nth i.Mach.srcs 0 in
        let go l =
          match (op, is_float_ty sty, is_float_ty dty) with
          | Ops.SiToFp, false, true ->
              let bits = ibits_of sty in
              let v = Int64.to_float (norm_ibits bits (src_i a l)) in
              dst_f d l (if dty = Types.TFloat 32 then Util.to_f32 v else v)
          | Ops.FpToSi, true, false ->
              dst_i d l (norm_ibits (ibits_of dty) (Int64.of_float (src_f a l)))
          | Ops.FpExt, true, true -> dst_f d l (src_f a l)
          | Ops.FpTrunc, true, true -> dst_f d l (Util.to_f32 (src_f a l))
          | (Ops.Zext | Ops.Sext | Ops.Trunc), false, false ->
              let sbits = ibits_of sty and dbits = ibits_of dty in
              let v = src_i a l in
              let v =
                match op with
                | Ops.Zext ->
                    if sbits >= 64 then v
                    else Int64.logand v (Int64.sub (Int64.shift_left 1L sbits) 1L)
                | Ops.Sext -> norm_ibits sbits v
                | _ -> v
              in
              dst_i d l (norm_ibits dbits v)
          | Ops.Bitcast, _, _ ->
              if is_float_ty dty && is_float_ty sty then dst_f d l (src_f a l)
              else if is_float_ty dty then dst_f d l (Int64.float_of_bits (src_i a l))
              else if is_float_ty sty then dst_i d l (Int64.bits_of_float (src_f a l))
              else dst_i d l (src_i a l)
          | _ -> raise (Trap "bad cast")
        in
        if scalar_dst then go 0 else for_lanes go
    | Mach.Omov ty ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        let a = List.nth i.Mach.srcs 0 in
        let go l = if is_float_ty ty then dst_f d l (src_f a l) else dst_i d l (src_i a l) in
        if scalar_dst then go 0 else for_lanes go
    | Mach.Old (space, ty) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        let ord = !site_ord in
        incr site_ord;
        let d = Option.get i.Mach.dst in
        let p = List.nth i.Mach.srcs 0 in
        if scalar_dst then begin
          (* uniform scalar fetch *)
          c.Counters.smem <- c.Counters.smem + 1;
          let addr = src_i p 0 in
          let fresh = touch_lines [ addr ] in
          record_site Counters.Kload ~ord ~act ~lines:fresh
            ~width:(Types.size_of ty) ~scratch:(space = Mach.SScratch);
          write_konst d 0 (Gmem.read env.mem ty addr)
        end
        else begin
          c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
          c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
          (if space = Mach.SScratch then
             c.Counters.scratch_ld <- c.Counters.scratch_ld + 1);
          let addrs = ref [] in
          for_lanes (fun l ->
              let addr = src_i p l in
              addrs := addr :: !addrs;
              write_konst d l (Gmem.read env.mem ty addr));
          let fresh = touch_lines !addrs in
          record_site Counters.Kload ~ord ~act ~lines:fresh
            ~width:(Types.size_of ty) ~scratch:(space = Mach.SScratch)
        end
    | Mach.Ost (space, ty) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.vmem_warp <- c.Counters.vmem_warp + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        if space = Mach.SScratch then c.Counters.scratch_st <- c.Counters.scratch_st + 1;
        let ord = !site_ord in
        incr site_ord;
        let v = List.nth i.Mach.srcs 0 and p = List.nth i.Mach.srcs 1 in
        let addrs = ref [] in
        for_lanes (fun l ->
            let addr = src_i p l in
            addrs := addr :: !addrs;
            let k =
              if is_float_ty ty then
                Konst.KFloat (src_f v l, match ty with Types.TFloat b -> b | _ -> 64)
              else Konst.kint ~bits:(ibits_of ty) (src_i v l)
            in
            Gmem.write env.mem ty addr k);
        let fresh = touch_lines !addrs in
        record_site Counters.Kstore ~ord ~act ~lines:fresh
          ~width:(Types.size_of ty) ~scratch:(space = Mach.SScratch)
    | Mach.Oquery q ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        if scalar_dst then dst_i d 0 (query_val q 0)
        else for_lanes (fun l -> dst_i d l (query_val q l))
    | Mach.Omath (name, ty) ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.math_warp <- c.Counters.math_warp + 1;
        if not scalar_dst then c.Counters.valu_thread <- c.Counters.valu_thread + act;
        let d = Option.get i.Mach.dst in
        let bits = match ty with Types.TFloat b -> b | _ -> 64 in
        let round = if bits = 32 then Util.to_f32 else fun x -> x in
        let go l =
          let v =
            match i.Mach.srcs with
            | [ a ] -> Ir.Intrinsics.eval_math_unary name (src_f a l)
            | [ a; b ] -> Ir.Intrinsics.eval_math_binary name (src_f a l) (src_f b l)
            | [ a; b; cc ] when name = "math.fma" ->
                (src_f a l *. src_f b l) +. src_f cc l
            | _ -> raise (Trap ("math arity " ^ name))
          in
          dst_f d l (round v)
        in
        if scalar_dst then go 0 else for_lanes go
    | Mach.Oatomic name ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.atomics <- c.Counters.atomics + 1;
        c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
        let ord = !site_ord in
        incr site_ord;
        let p = List.nth i.Mach.srcs 0 and v = List.nth i.Mach.srcs 1 in
        let addrs = ref [] in
        for_lanes (fun l ->
            let addr = src_i p l in
            addrs := addr :: !addrs;
            match name with
            | "gpu.atomic.add.f32" ->
                let old = Gmem.read_f32 env.mem addr in
                Gmem.write_f32 env.mem addr (Util.to_f32 (old +. src_f v l));
                (match i.Mach.dst with Some d -> dst_f d l old | None -> ())
            | "gpu.atomic.add.f64" ->
                let old = Gmem.read_f64 env.mem addr in
                Gmem.write_f64 env.mem addr (old +. src_f v l);
                (match i.Mach.dst with Some d -> dst_f d l old | None -> ())
            | "gpu.atomic.add.i32" ->
                let old = Gmem.read_i32 env.mem addr in
                Gmem.write_i32 env.mem addr (Int32.add old (Int64.to_int32 (src_i v l)));
                (match i.Mach.dst with Some d -> dst_i d l (Int64.of_int32 old) | None -> ())
            | n -> raise (Trap ("atomic " ^ n)));
        let fresh = touch_lines !addrs in
        let width =
          if String.length name >= 3
             && String.sub name (String.length name - 3) 3 = "f64"
          then 8
          else 4
        in
        record_site Counters.Katomic ~ord ~act ~lines:fresh ~width
          ~scratch:false
    | Mach.Obarrier -> c.Counters.warp_instrs <- c.Counters.warp_instrs + 1
    | Mach.Oframe ->
        count_alu ();
        let d = Option.get i.Mach.dst in
        let off =
          match i.Mach.srcs with [ Mach.Ki k ] -> Konst.as_int k | _ -> 0L
        in
        (* frames pack per-lane at the head of the warp's scratch
           region; lane-interleaved spill slots follow (scratch_addr) *)
        for_lanes (fun l ->
            let base =
              Int64.add env.scratch_base
                (Int64.of_int
                   ((w.first_thread * env.thread_frame) + (l * f.Mach.frame)))
            in
            dst_i d l (Int64.add base off))
    | Mach.Oarg k ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.smem <- c.Counters.smem + 1;
        let d = Option.get i.Mach.dst in
        let v = env.args.(k) in
        if scalar_dst then write_konst d 0 v
        else for_lanes (fun l -> write_konst d l v)
    | Mach.Ospill_st slot ->
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_st <- c.Counters.spill_st + 1;
        let v = List.nth i.Mach.srcs 0 in
        (match v with
        | Mach.Rs { Mach.rcls = Mach.CS; rid } ->
            c.Counters.smem <- c.Counters.smem + 1;
            w.sspi.(slot) <- w.si.(rid);
            w.sspf.(slot) <- w.sf.(rid)
        | Mach.Rs { Mach.rcls = Mach.CV; rid } ->
            c.Counters.scratch_st <- c.Counters.scratch_st + 1;
            c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
            let addrs = ref [] in
            for_lanes (fun l ->
                addrs := scratch_addr l slot :: !addrs;
                w.spi.((slot * lanes) + l) <- rd_vi rid l;
                w.spf.((slot * lanes) + l) <- rd_vf rid l);
            ignore (touch_lines !addrs)
        | _ -> raise (Trap "spill of non-register"))
    | Mach.Ospill_ld slot -> (
        c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
        c.Counters.spill_ld <- c.Counters.spill_ld + 1;
        let d = Option.get i.Mach.dst in
        match d.Mach.rcls with
        | Mach.CS ->
            c.Counters.smem <- c.Counters.smem + 1;
            w.si.(d.Mach.rid) <- w.sspi.(slot);
            w.sf.(d.Mach.rid) <- w.sspf.(slot)
        | Mach.CV ->
            c.Counters.scratch_ld <- c.Counters.scratch_ld + 1;
            c.Counters.vmem_thread <- c.Counters.vmem_thread + act;
            let addrs = ref [] in
            for_lanes (fun l ->
                addrs := scratch_addr l slot :: !addrs;
                wr_vi d.Mach.rid l w.spi.((slot * lanes) + l);
                wr_vf d.Mach.rid l w.spf.((slot * lanes) + l));
            ignore (touch_lines !addrs))
  in
  (* ---- SIMT control flow ---- *)
  let fuel = ref 1_000_000_000 in
  (* [stop]: the reconvergence label that ends this walk; None = never *)
  let rec run (label : string) (mask : int64) (stop : string option) : int64 =
    if stop = Some label || Int64.equal mask 0L then mask
    else begin
      let b = block label in
      site_lab := label;
      site_ord := 0;
      List.iter
        (fun i ->
          decr fuel;
          if !fuel <= 0 then raise (Trap "out of fuel");
          exec_instr i mask)
        b.Mach.code;
      match b.Mach.term with
      | Mach.Tbr l -> run l mask stop
      | Mach.Tret -> 0L
      | Mach.Tcbr (cnd, t, e) ->
          c.Counters.branches <- c.Counters.branches + 1;
          c.Counters.warp_instrs <- c.Counters.warp_instrs + 1;
          let tm = ref 0L in
          (match cnd with
          | Mach.Rs { Mach.rcls = Mach.CS; rid } ->
              if not (Int64.equal w.si.(rid) 0L) then tm := mask
          | _ ->
              for lane = 0 to lanes - 1 do
                if lane_active mask lane && not (Int64.equal (src_i cnd lane) 0L) then
                  tm := Int64.logor !tm (Int64.shift_left 1L lane)
              done);
          let em = Int64.logand mask (Int64.lognot !tm) in
          if Int64.equal em 0L then run t mask stop
          else if Int64.equal !tm 0L then run e mask stop
          else begin
            match Util.Smap.find_opt label ipdom with
            | Some r ->
                let m1 = run t !tm (Some r) in
                let m2 = run e em (Some r) in
                let joined = Int64.logor m1 m2 in
                if stop = Some r then joined else run r joined stop
            | None ->
                let _ = run t !tm None in
                let _ = run e em None in
                0L
          end
    end
  in
  let _ = run (List.hd f.Mach.blocks).Mach.mlab init_mask None in
  ignore (popcount init_mask)


(* ------------------------------------------------------------------ *)
(* Kernel launch: iterate blocks and warps, one fresh register state
   per warp. The scratch frame is freed even when a warp fails, as in
   [Exec.launch]. *)

let launch ~(device : Device.t) ~(mem : Gmem.t) ~(l2 : L2cache.t)
    ~(symbols : string -> int64) (f : Mach.mfunc) ~(grid : int) ~(block : int)
    ~(args : Konst.t array) : Exec.launch_result =
  let counters = Counters.create () in
  let warp = device.Device.warp_size in
  let thread_frame = f.Mach.frame + (f.Mach.spill_slots * 8) in
  let total_threads = grid * block in
  let scratch_bytes = max 16 (total_threads * thread_frame) in
  let scratch_base = Gmem.alloc mem scratch_bytes in
  let nwarps_per_block = (block + warp - 1) / warp in
  Fun.protect
    ~finally:(fun () -> Gmem.free mem scratch_base)
    (fun () ->
    let prep = prepare f in
      for blk = 0 to grid - 1 do
        for wi = 0 to nwarps_per_block - 1 do
          let base_lane = wi * warp in
          let lanes_active = min warp (block - base_lane) in
          let lanes = warp in
          let nvr = max 1 f.Mach.vregs and nsr = max 1 f.Mach.sregs in
          let w =
            {
              lanes;
              vi = Array.make (nvr * lanes) 0L;
              vf = Array.make (nvr * lanes) 0.0;
              si = Array.make nsr 0L;
              sf = Array.make nsr 0.0;
              spi = Array.make (max 1 (f.Mach.spill_slots * lanes)) 0L;
              spf = Array.make (max 1 (f.Mach.spill_slots * lanes)) 0.0;
              sspi = Array.make (max 1 f.Mach.spill_slots) 0L;
              sspf = Array.make (max 1 f.Mach.spill_slots) 0.0;
              first_thread = (blk * block) + base_lane;
              block_id = (blk, 0, 0);
              base_tid = (base_lane, 0, 0);
            }
          in
          let env =
            {
              mem;
              l2;
              device;
              symbols;
              args;
              grid = (grid, 1, 1);
              block = (block, 1, 1);
              scratch_base;
              thread_frame;
              counters;
            }
          in
          let mask =
            if lanes_active >= 64 then -1L
            else Int64.sub (Int64.shift_left 1L lanes_active) 1L
          in
          run_warp env f prep w mask;
          counters.Counters.warps <- counters.Counters.warps + 1;
          counters.Counters.threads <- counters.Counters.threads + lanes_active
        done
      done;
  { Exec.counters; waves = counters.Counters.warps; blocks_launched = grid;
    engine = "reference" })
