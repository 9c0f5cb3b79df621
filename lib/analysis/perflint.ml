(* PerfLint: static memory-performance and occupancy analysis.

   Three layers share this module:

   1. [report_normalized] — the `proteus perflint` CLI surface. Runs
      over the same Normalize.clone'd, dbg.loc-carrying module
      KernelSan uses and produces per-kernel cost reports: every
      load/store/atomic classified as broadcast / coalesced /
      strided-N / scattered from the affine form of its address
      (Addrsym), shared-memory bank-conflict estimates, a
      register-pressure/occupancy estimate from the backend's own
      linear-scan results, and a divergence-cost estimate from the
      uniformity lattice weighted by Loopinfo trip counts.

   2. [classify_module] + [validate] — the measurement loop. The
      static classifier walks the *optimized* device module (the exact
      module codegen consumes) and keys every site structurally:
      (kernel symbol, block label, ordinal of the memory op within the
      block, access kind). The executor's site profiler
      (Counters.site_profile) uses the same key, so predicted
      transaction intervals can be compared against measured
      fresh-line counts per site. Codegen strips dbg.loc before any
      pass runs, so structural keys — not source locations — are the
      only stable join. Isel lowers each IR memory op to exactly one
      machine memory op, preserves block labels, and neither critical
      -edge splitting, spill insertion, nor the PTX round trip
      perturbs intra-block memory-op order, which is what makes the
      join sound.

   3. [gep_factors] — SpecAdvisor wiring: per-GEP address-class cost
      factors that make `w_addr` coalescing-aware (a fold inside a
      scattered address stream is worth more than one the coalescer
      already handles). Factors are >= 1.0, so scores only grow and
      every previously-recommended argument stays recommended.

   Known unsound corners (see DESIGN.md): launches are modelled as
   1-D (threadIdx.y/z are uniform 0), pointer phis resolve to
   Scattered, and the transaction model tracks start-address lines
   only — all deliberately matched to the executor's coalescing
   model. *)

open Proteus_support
open Proteus_ir
module Counters = Proteus_gpu.Counters
module Device = Proteus_gpu.Device

(* ------------------------------------------------------------------ *)
(* Memory-access classes                                               *)

type mem_class = Broadcast | Coalesced | Strided of int | Scattered

let class_name = function
  | Broadcast -> "broadcast"
  | Coalesced -> "coalesced"
  | Strided s -> Printf.sprintf "strided-%d" s
  | Scattered -> "scattered"

(* Constructor-level equality: strided-8 and strided-32 are the same
   class for accuracy accounting. *)
let same_class a b =
  match (a, b) with
  | Broadcast, Broadcast | Coalesced, Coalesced | Scattered, Scattered -> true
  | Strided _, Strided _ -> true
  | _ -> false

(* Per-lane byte stride of an affine address form. Within one warp of
   a 1-D launch only threadIdx.x varies lane to lane (the executor
   packs lanes along x; y/z tids are 0), so the stride is the
   coefficient of the pure [Tid 0] term. A [Tid 0] atom multiplied by
   anything else makes the stride lane-dependent. *)
let lane_stride (form : Affine.t) : [ `Uniform | `Stride of int | `Nonlinear ] =
  let has_tid0 (atoms, _) = List.mem (Affine.Tid 0) atoms in
  let tid0_terms = List.filter has_tid0 form.Affine.terms in
  match tid0_terms with
  | [] -> `Uniform
  | [ ([ Affine.Tid 0 ], s) ] -> `Stride s
  | _ -> `Nonlinear

let classify ~(width : int) (byte_off : Affine.t option) : mem_class =
  match byte_off with
  | None -> Scattered
  | Some form -> (
      match lane_stride form with
      | `Uniform | `Stride 0 -> Broadcast
      | `Stride s when abs s <= width -> Coalesced
      | `Stride s -> Strided s
      | `Nonlinear -> Scattered)

(* ------------------------------------------------------------------ *)
(* Transaction model                                                   *)

let ceil_div a b = (a + b - 1) / b

(* Predicted transactions (distinct cache lines) for one full-warp
   issue of [lanes] active lanes. Matches the executor's coalescing
   model: one line per distinct start-address/line pair; access width
   does not straddle. *)
let predicted_tx cls ~(lanes : int) ~(width : int) ~(line : int) : int =
  match cls with
  | Broadcast -> 1
  | Coalesced -> max 1 (ceil_div (lanes * width) line)
  | Strided s ->
      let s = abs s in
      if s >= line then lanes else max 1 (ceil_div (lanes * s) line)
  | Scattered -> lanes

(* Predicted [lo, hi] interval, with one line of slack for a base
   address that is not line-aligned. *)
let tx_interval cls ~(lanes : int) ~(width : int) ~(line : int) : int * int =
  match cls with
  | Broadcast -> (1, 1)
  | Coalesced ->
      (* the class covers strides in [1, width]: overlapping strides
         touch fewer lines than the nominal width*lanes footprint *)
      (1, min lanes (max 1 (ceil_div (lanes * width) line) + 1))
  | Strided s ->
      let s = abs s in
      if s >= line then (lanes, lanes)
      else
        let lo = max 1 (lanes * s / line) in
        (lo, min lanes (ceil_div (lanes * s) line + 1))
  | Scattered -> (1, lanes)

(* Best-fit class for a measured lines-per-issue ratio, used to label
   disagreements in reports. *)
let measured_class ~(r : float) ~(lanes : float) ~(width : int) ~(line : int) :
    mem_class =
  if r <= 1.01 then Broadcast
  else
    let coal = float_of_int (max 1 (ceil_div (int_of_float lanes * width) line)) in
    if r <= coal +. 1.01 then Coalesced
    else if r >= 0.9 *. lanes then Scattered
    else
      let s = int_of_float (Float.round (r *. float_of_int line /. lanes)) in
      Strided (max (width + 1) s)

(* ------------------------------------------------------------------ *)
(* Static site classification (validation side)                        *)

type space = Sp_global | Sp_shared | Sp_scratch

let space_name = function
  | Sp_global -> "global"
  | Sp_shared -> "shared"
  | Sp_scratch -> "scratch"

type static_site = {
  ss_sym : string;
  ss_block : string;
  ss_ord : int; (* memory-op ordinal within the block, code order *)
  ss_kind : Counters.access_kind;
  ss_width : int;
  ss_space : space;
  ss_class : mem_class;
  ss_root : string;
  ss_loc : (int * int) option;
}

let kind_name = function
  | Counters.Kload -> "load"
  | Counters.Kstore -> "store"
  | Counters.Katomic -> "atomic"

(* Walk one function, numbering memory ops per block in code order —
   the same ordinals the executor assigns to the lowered
   Old/Ost/Oatomic instructions. *)
let classify_func (m : Ir.modul) (f : Ir.func) : static_site list =
  let sx = Addrsym.create ~phi_linear:true m f in
  let sites = ref [] in
  List.iter
    (fun (b : Ir.block) ->
      let ord = ref 0 in
      List.iteri
        (fun k i ->
          let add ptr_op width kind =
            let o = !ord in
            incr ord;
            let pi = sx.Addrsym.resolve ptr_op in
            let space =
              match pi.Addrsym.root with
              | Addrsym.Ralloca _ -> Sp_scratch
              | Addrsym.Rglobal { Ir.gspace = Types.AS_shared; _ } -> Sp_shared
              | _ -> Sp_global
            in
            sites :=
              {
                ss_sym = f.Ir.fname;
                ss_block = b.Ir.label;
                ss_ord = o;
                ss_kind = kind;
                ss_width = max 1 width;
                ss_space = space;
                ss_class = classify ~width:(max 1 width) pi.Addrsym.byte_off;
                ss_root = Addrsym.root_name pi.Addrsym.root;
                ss_loc = sx.Addrsym.loc_at b.Ir.label k;
              }
              :: !sites
          in
          match i with
          | Ir.ILoad (d, p) ->
              add p (Types.size_of (Ir.reg_ty f d)) Counters.Kload
          | Ir.IStore (v, p) ->
              add p (Types.size_of (Ir.operand_ty m f v)) Counters.Kstore
          | Ir.ICall (_, a, [ p; v ]) when Ir.Intrinsics.is_atomic a ->
              add p (Types.size_of (Ir.operand_ty m f v)) Counters.Katomic
          | _ -> ())
        b.Ir.insts)
    f.Ir.blocks;
  List.rev !sites

(* Classify every kernel of [m]. For validation, [m] must be the
   optimized device module the backend consumes. *)
let classify_module (m : Ir.modul) : static_site list =
  m.Ir.funcs
  |> List.filter (fun (f : Ir.func) ->
         f.Ir.kind = Ir.Kernel && (not f.Ir.is_decl) && f.Ir.blocks <> [])
  |> List.concat_map (classify_func m)

(* ------------------------------------------------------------------ *)
(* Validation against the executor's site profile                      *)

type site_cmp = {
  c_site : static_site;
  c_issues : int;
  c_lanes : float; (* avg active lanes per issue *)
  c_lines : float; (* avg fresh lines per issue *)
  c_full : bool; (* comparison used full-mask issues only *)
  c_measured : mem_class;
  c_agree : bool;
}

type vresult = {
  v_static : int; (* classifiable (non-scratch) static sites *)
  v_matched : int; (* of those, executed at least once *)
  v_agree : int;
  v_rows : site_cmp list;
  v_by_class : (string * int * int) list; (* class name, matched, agreed *)
}

let accuracy_pct (v : vresult) : float =
  if v.v_matched = 0 then 100.0
  else 100.0 *. float_of_int v.v_agree /. float_of_int v.v_matched

let validate ~(device : Device.t) (sites : static_site list)
    (tbl : Counters.site_table) : vresult =
  let line = device.Device.l2_line in
  let rows = ref [] in
  let stat = ref 0 and matched = ref 0 and agree = ref 0 in
  List.iter
    (fun ss ->
      if ss.ss_space <> Sp_scratch then begin
        incr stat;
        let key =
          { Counters.sk_sym = ss.ss_sym; sk_block = ss.ss_block;
            sk_ord = ss.ss_ord; sk_kind = ss.ss_kind }
        in
        match Hashtbl.find_opt tbl key with
        | Some s when s.Counters.s_issues > 0 && not s.Counters.s_scratch ->
            incr matched;
            (* prefer full-mask issues: partial or sparse masks widen
               every prediction interval to the point of vacuity *)
            let full = s.Counters.s_full_issues > 0 in
            let issues, lanes_sum, lines_sum =
              if full then
                ( s.Counters.s_full_issues,
                  s.Counters.s_full_lanes,
                  s.Counters.s_full_lines )
              else (s.Counters.s_issues, s.Counters.s_lanes, s.Counters.s_lines)
            in
            let fi = float_of_int issues in
            let a = float_of_int lanes_sum /. fi in
            let r = float_of_int lines_sum /. fi in
            let ok =
              if full then begin
                let lanes = lanes_sum / issues in
                let lo, hi =
                  tx_interval ss.ss_class ~lanes ~width:ss.ss_width ~line
                in
                r >= float_of_int lo -. 1e-9 && r <= float_of_int hi +. 1e-9
              end
              else
                (* partial-mask site: only the hard bound is checkable *)
                r <= a +. 1e-9
            in
            if ok then incr agree;
            rows :=
              {
                c_site = ss;
                c_issues = issues;
                c_lanes = a;
                c_lines = r;
                c_full = full;
                c_measured = measured_class ~r ~lanes:a ~width:ss.ss_width ~line;
                c_agree = ok;
              }
              :: !rows
        | _ -> ()
      end)
    sites;
  let by_class =
    List.fold_left
      (fun acc row ->
        let name =
          match row.c_site.ss_class with
          | Strided _ -> "strided"
          | c -> class_name c
        in
        let m, g = try List.assoc name acc with Not_found -> (0, 0) in
        (name, (m + 1, (g + if row.c_agree then 1 else 0)))
        :: List.remove_assoc name acc)
      [] !rows
    |> List.map (fun (n, (m, g)) -> (n, m, g))
    |> List.sort compare
  in
  {
    v_static = !stat;
    v_matched = !matched;
    v_agree = !agree;
    v_rows = List.rev !rows;
    v_by_class = by_class;
  }

(* ------------------------------------------------------------------ *)
(* Shared-memory bank conflicts                                        *)

let banks = 32
let bank_word = 4

(* Worst-case simultaneous-request multiplicity on one bank for a
   32-lane quad of the warp accessing at byte stride [s]. Lanes that
   hit the same word broadcast and do not conflict. *)
let bank_ways ~(stride : int) : int =
  if stride = 0 then 1
  else begin
    let words = Hashtbl.create 32 in
    let per_bank = Array.make banks 0 in
    for lane = 0 to banks - 1 do
      let word = lane * stride / bank_word in
      if not (Hashtbl.mem words word) then begin
        Hashtbl.replace words word ();
        let b = ((word mod banks) + banks) mod banks in
        per_bank.(b) <- per_bank.(b) + 1
      end
    done;
    Array.fold_left max 1 per_bank
  end

(* ------------------------------------------------------------------ *)
(* Per-kernel report (CLI side, over the normalized debug clone)       *)

type site_report = {
  p_site : static_site;
  p_tx : int; (* predicted transactions per full-warp issue *)
  p_bank_ways : int; (* shared space only; 1 elsewhere *)
}

type kernel_report = {
  r_kernel : string;
  r_sites : site_report list;
  r_vregs : int;
  r_sregs : int;
  r_spills : int;
  r_max_pressure_v : int;
  r_max_pressure_s : int;
  r_waves : int; (* resident waves per CU under the register budget *)
  r_max_waves : int;
  r_occupancy : float; (* waves / max_waves *)
  r_divergent_blocks : int;
  r_div_cost : float; (* trip-weighted instructions under divergence *)
  r_findings : Finding.t list;
}

(* Occupancy from the backend's own allocation results. *)
let occupancy_of_mfunc (device : Device.t) (mf : Proteus_backend.Mach.mfunc) :
    int * int =
  let open Proteus_backend in
  let regs = max 1 mf.Mach.vregs in
  let by_regs =
    device.Device.reg_units_per_cu / (regs * device.Device.warp_size)
  in
  let waves = max 1 (min device.Device.max_waves_per_cu by_regs) in
  (waves, device.Device.max_waves_per_cu)

(* Static trip estimate of a loop: header condition [iv CMP bound]
   with a constant bound, a constant phi init and a constant step.
   Unknown shapes estimate 8 iterations. *)
let default_trip = 8.0

let trip_estimate (f : Ir.func) (sx : Addrsym.t) (l : Loopinfo.loop) : float =
  let hb = Ir.find_block f l.Loopinfo.header in
  let header_phis =
    List.filter_map
      (function Ir.IPhi (d, inc) -> Some (d, inc) | _ -> None)
      hb.Ir.insts
  in
  let const_of o = Option.bind (sx.Addrsym.aff o) Affine.to_const in
  match hb.Ir.term with
  | Ir.TCondBr (Ir.Reg cr, _, _) -> (
      match sx.Addrsym.defs.(cr) with
      | Some (Ir.ICmp (_, _, x, y)) -> (
          let iv_of = function
            | Ir.Reg r -> List.assoc_opt r header_phis
            | _ -> None
          in
          let iv, bound =
            match (iv_of x, iv_of y) with
            | Some inc, None -> (Some inc, const_of y)
            | None, Some inc -> (Some inc, const_of x)
            | _ -> (None, None)
          in
          match (iv, bound) with
          | Some inc, Some b ->
              (* init: the incoming from outside the loop body *)
              let init =
                List.find_map
                  (fun (pred, v) ->
                    if Util.Sset.mem pred l.Loopinfo.body then None
                    else const_of v)
                  inc
              in
              let step =
                List.find_map
                  (fun (pred, v) ->
                    if not (Util.Sset.mem pred l.Loopinfo.body) then None
                    else
                      match v with
                      | Ir.Reg r -> (
                          match sx.Addrsym.defs.(r) with
                          | Some (Ir.IBin (_, Ops.Add, _, Ir.Imm k))
                          | Some (Ir.IBin (_, Ops.Add, Ir.Imm k, _)) ->
                              Some (Int64.to_int (Konst.as_int k))
                          | Some (Ir.IBin (_, Ops.Sub, _, Ir.Imm k)) ->
                              Some (-Int64.to_int (Konst.as_int k))
                          | _ -> None)
                      | _ -> None)
                  inc
              in
              (match (init, step) with
              | Some i0, Some s when s <> 0 && (b - i0) * s > 0 ->
                  Float.min 4096.0 (Float.max 1.0 (float_of_int ((b - i0) / s)))
              | _ -> default_trip)
          | _ -> default_trip)
      | _ -> default_trip)
  | _ -> default_trip

let non_dbg_insts (b : Ir.block) =
  List.length
    (List.filter
       (function
         | Ir.ICall (None, c, _) when c = Ir.Intrinsics.dbg_loc -> false
         | _ -> true)
       b.Ir.insts)

(* Divergence cost: instructions in blocks control-dependent on a
   divergent branch, weighted by the trip product of their enclosing
   loops — both sides of a divergent branch serialize, and doing so
   inside a hot loop multiplies the waste. *)
let divergence_cost (f : Ir.func) (sx : Addrsym.t) (li : Loopinfo.t) :
    int * float =
  let u = sx.Addrsym.uni in
  let weight_of label =
    List.fold_left
      (fun w (l : Loopinfo.loop) ->
        if Util.Sset.mem label l.Loopinfo.body then
          Float.min 1e6 (w *. trip_estimate f sx l)
        else w)
      1.0 li.Loopinfo.loops
  in
  let nblocks = ref 0 and cost = ref 0.0 in
  List.iter
    (fun (b : Ir.block) ->
      if
        Util.Sset.mem b.Ir.label sx.Addrsym.live
        && Uniformity.in_divergent_region u b.Ir.label
      then begin
        incr nblocks;
        cost :=
          !cost +. (weight_of b.Ir.label *. float_of_int (non_dbg_insts b))
      end)
    f.Ir.blocks;
  (!nblocks, !cost)

(* Cost thresholds for findings. *)
let occupancy_warn = 0.5
let strided_warn_factor = 4 (* |stride| >= factor * width warns *)

let report_func ?(device = Device.mi250x) (m : Ir.modul) (f : Ir.func)
    ~(mf : Proteus_backend.Mach.mfunc option) : kernel_report =
  let open Proteus_backend in
  let sx = Addrsym.create ~phi_linear:true m f in
  let li = Loopinfo.compute sx.Addrsym.cfg sx.Addrsym.dom in
  let warp = device.Device.warp_size in
  let line = device.Device.l2_line in
  let findings = ref [] in
  let report ?loc ~kind ~severity ~block msg =
    findings :=
      Finding.mk ?loc ~kind ~severity ~func:f.Ir.fname ~block msg :: !findings
  in
  let sites =
    List.map
      (fun ss ->
        let tx =
          predicted_tx ss.ss_class ~lanes:warp ~width:ss.ss_width ~line
        in
        let ways =
          match (ss.ss_space, ss.ss_class) with
          | Sp_shared, (Broadcast | Coalesced) -> 1
          | Sp_shared, Strided s -> bank_ways ~stride:s
          | Sp_shared, Scattered -> 1 (* unknown stride: nothing provable *)
          | _ -> 1
        in
        (match (ss.ss_space, ss.ss_class) with
        | Sp_global, Scattered ->
            report ?loc:ss.ss_loc ~kind:Finding.Coalescing
              ~severity:Finding.Warning ~block:ss.ss_block
              (Printf.sprintf
                 "scattered %s of %s: up to %d transactions per warp access"
                 (kind_name ss.ss_kind) ss.ss_root warp)
        | Sp_global, Strided s when abs s >= strided_warn_factor * ss.ss_width
          ->
            report ?loc:ss.ss_loc ~kind:Finding.Coalescing
              ~severity:Finding.Warning ~block:ss.ss_block
              (Printf.sprintf
                 "strided %s of %s (stride %d bytes): ~%d transactions per \
                  warp access vs %d if coalesced"
                 (kind_name ss.ss_kind) ss.ss_root s tx
                 (max 1 (ceil_div (warp * ss.ss_width) line)))
        | Sp_global, Strided s ->
            report ?loc:ss.ss_loc ~kind:Finding.Coalescing
              ~severity:Finding.Info ~block:ss.ss_block
              (Printf.sprintf "strided %s of %s (stride %d bytes)"
                 (kind_name ss.ss_kind) ss.ss_root s)
        | _ -> ());
        if ways > 1 then
          report ?loc:ss.ss_loc ~kind:Finding.Bank_conflict
            ~severity:Finding.Warning ~block:ss.ss_block
            (Printf.sprintf
               "%d-way shared-memory bank conflict on %s (stride %s bytes)"
               ways ss.ss_root
               (match ss.ss_class with
               | Strided s -> string_of_int s
               | _ -> "?"));
        { p_site = ss; p_tx = tx; p_bank_ways = ways })
      (classify_func m f)
  in
  let vregs, sregs, spills, pv, ps =
    match mf with
    | Some mf ->
        ( mf.Mach.vregs, mf.Mach.sregs, mf.Mach.spill_slots,
          mf.Mach.max_pressure_v, mf.Mach.max_pressure_s )
    | None -> (0, 0, 0, 0, 0)
  in
  let waves, max_waves =
    match mf with
    | Some mf -> occupancy_of_mfunc device mf
    | None -> (device.Device.max_waves_per_cu, device.Device.max_waves_per_cu)
  in
  let occupancy = float_of_int waves /. float_of_int max_waves in
  if occupancy < occupancy_warn then
    report ~kind:Finding.Occupancy ~severity:Finding.Warning
      ~block:(match f.Ir.blocks with b :: _ -> b.Ir.label | [] -> "")
      (Printf.sprintf
         "register pressure limits occupancy to %d/%d waves per CU (%d \
          vector registers%s)"
         waves max_waves vregs
         (if spills > 0 then Printf.sprintf ", %d spill slots" spills else ""));
  let div_blocks, div_cost = divergence_cost f sx li in
  if div_cost >= 256.0 then
    report ~kind:Finding.Divergence ~severity:Finding.Info
      ~block:(match f.Ir.blocks with b :: _ -> b.Ir.label | [] -> "")
      (Printf.sprintf
         "%d blocks execute under divergent control flow (trip-weighted cost \
          ~%.0f instructions)"
         div_blocks div_cost);
  {
    r_kernel = f.Ir.fname;
    r_sites = sites;
    r_vregs = vregs;
    r_sregs = sregs;
    r_spills = spills;
    r_max_pressure_v = pv;
    r_max_pressure_s = ps;
    r_waves = waves;
    r_max_waves = max_waves;
    r_occupancy = occupancy;
    r_divergent_blocks = div_blocks;
    r_div_cost = div_cost;
    r_findings = List.sort Finding.compare !findings;
  }

(* Report every kernel of a Normalize.clone'd module. The occupancy
   estimate compiles a fresh clone through the real O3+backend
   pipeline (dbg.loc markers are stripped there, exactly as the
   driver does), so register counts are the allocator's own. *)
let report_normalized ?(device = Device.mi250x) (m : Ir.modul) :
    kernel_report list =
  let open Proteus_backend in
  let mo = Ir.clone_module m in
  ignore (Proteus_opt.Pipeline.optimize_o3 mo);
  let obj, _ = Proteus_runtime.Toolchain.compile ~vendor:device.Device.vendor mo in
  let mfunc_of sym =
    List.find_opt (fun (k : Mach.mfunc) -> k.Mach.sym = sym) obj.Mach.kernels
  in
  m.Ir.funcs
  |> List.filter (fun (f : Ir.func) ->
         f.Ir.kind = Ir.Kernel && (not f.Ir.is_decl) && f.Ir.blocks <> [])
  |> List.map (fun f -> report_func ~device m f ~mf:(mfunc_of f.Ir.fname))

let report_module ?device (m : Ir.modul) : kernel_report list =
  report_normalized ?device (Normalize.clone m)

(* ------------------------------------------------------------------ *)
(* SpecAdvisor wiring: coalescing-aware address-fold factors           *)

(* Pinning part of an address computation pays more when the access it
   feeds coalesces poorly — those sites dominate memory cost, and a
   constant component is what layout-aware folding needs. All factors
   are >= 1.0: scores only grow, recommendations only widen. *)
let addr_cost_factor = function
  | Broadcast | Coalesced -> 1.0
  | Strided _ -> 1.5
  | Scattered -> 2.0

(* Per-GEP class factors for [f]: the register defined by each GEP
   maps to the coalescing class of its address form. Non-GEP registers
   get the neutral factor. *)
let gep_factors (m : Ir.modul) (f : Ir.func) : int -> float =
  let sx = Addrsym.create ~phi_linear:true m f in
  let table : (int, float) Hashtbl.t = Hashtbl.create 32 in
  Ir.iter_instrs f (fun i ->
      match i with
      | Ir.IGep (d, _, _) ->
          let pi = sx.Addrsym.resolve (Ir.Reg d) in
          let width =
            match Ir.reg_ty f d with
            | Types.TPtr (e, _) -> max 1 (Types.size_of e)
            | _ -> 1
          in
          let cls = classify ~width pi.Addrsym.byte_off in
          Hashtbl.replace table d (addr_cost_factor cls)
      | _ -> ());
  fun r -> match Hashtbl.find_opt table r with Some x -> x | None -> 1.0

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let loc_str = function
  | Some (l, c) -> Printf.sprintf "%d:%d" l c
  | None -> "-"

let to_string ?(file = "<source>") (r : kernel_report) : string =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "%s: kernel %s: %d memory sites; vregs=%d sregs=%d spills=%d \
        pressure=%d/%d; occupancy %d/%d waves (%.0f%%); divergence cost \
        ~%.0f (%d blocks)\n"
       file r.r_kernel (List.length r.r_sites) r.r_vregs r.r_sregs r.r_spills
       r.r_max_pressure_v r.r_max_pressure_s r.r_waves r.r_max_waves
       (100.0 *. r.r_occupancy) r.r_div_cost r.r_divergent_blocks);
  List.iter
    (fun s ->
      let ss = s.p_site in
      Buffer.add_string b
        (Printf.sprintf
           "  %-7s %-8s %-12s %s  width=%d tx/warp=%d%s  (%%%s#%d @ %s)\n"
           (kind_name ss.ss_kind) (space_name ss.ss_space)
           (class_name ss.ss_class) ss.ss_root ss.ss_width s.p_tx
           (if s.p_bank_ways > 1 then
              Printf.sprintf " banks=%d-way" s.p_bank_ways
            else "")
           ss.ss_block ss.ss_ord (loc_str ss.ss_loc)))
    r.r_sites;
  List.iter
    (fun fd -> Buffer.add_string b ("  " ^ Finding.to_string ~file fd ^ "\n"))
    r.r_findings;
  Buffer.contents b

let findings_of_reports (rs : kernel_report list) : Finding.t list =
  List.concat_map (fun r -> r.r_findings) rs
