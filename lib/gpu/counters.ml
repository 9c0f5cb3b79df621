(* Hardware-counter record filled by the SIMT executor and consumed by
   the timing model and the rocprof/nvprof-style reports of Figs 7-11. *)

type t = {
  mutable valu_warp : int; (* vector-ALU instructions issued (per warp) *)
  mutable valu_thread : int; (* vector-ALU lane executions (per work item) *)
  mutable salu : int; (* scalar-ALU instructions (once per warp) *)
  mutable math_warp : int; (* transcendental issues *)
  mutable vmem_warp : int; (* vector memory instructions *)
  mutable vmem_thread : int;
  mutable smem : int; (* scalar fetches (uniform loads, kernarg) *)
  mutable scratch_ld : int; (* per-thread scratch/local loads (incl. spills) *)
  mutable scratch_st : int;
  mutable spill_ld : int; (* register-allocator spill reloads (warp) *)
  mutable spill_st : int;
  mutable atomics : int;
  mutable branches : int;
  mutable warp_instrs : int; (* all instructions issued, per warp *)
  mutable threads : int;
  mutable warps : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable mem_lines : int; (* coalesced lines touched *)
}

let create () =
  {
    valu_warp = 0; valu_thread = 0; salu = 0; math_warp = 0; vmem_warp = 0;
    vmem_thread = 0; smem = 0; scratch_ld = 0; scratch_st = 0; spill_ld = 0;
    spill_st = 0; atomics = 0; branches = 0; warp_instrs = 0; threads = 0;
    warps = 0; l2_hits = 0; l2_misses = 0; mem_lines = 0;
  }

let add a b =
  a.valu_warp <- a.valu_warp + b.valu_warp;
  a.valu_thread <- a.valu_thread + b.valu_thread;
  a.salu <- a.salu + b.salu;
  a.math_warp <- a.math_warp + b.math_warp;
  a.vmem_warp <- a.vmem_warp + b.vmem_warp;
  a.vmem_thread <- a.vmem_thread + b.vmem_thread;
  a.smem <- a.smem + b.smem;
  a.scratch_ld <- a.scratch_ld + b.scratch_ld;
  a.scratch_st <- a.scratch_st + b.scratch_st;
  a.spill_ld <- a.spill_ld + b.spill_ld;
  a.spill_st <- a.spill_st + b.spill_st;
  a.atomics <- a.atomics + b.atomics;
  a.branches <- a.branches + b.branches;
  a.warp_instrs <- a.warp_instrs + b.warp_instrs;
  a.threads <- a.threads + b.threads;
  a.warps <- a.warps + b.warps;
  a.l2_hits <- a.l2_hits + b.l2_hits;
  a.l2_misses <- a.l2_misses + b.l2_misses;
  a.mem_lines <- a.mem_lines + b.mem_lines

let fdiv a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Per-instruction-site memory-transaction profiling (PerfLint
   validation). Sites are keyed structurally — kernel symbol, machine
   block label, ordinal of the memory op within the block (counting
   every load/store/atomic, any address space, in code order) — the
   same key the static classifier derives from the optimized IR, since
   codegen strips dbg.loc before any pass runs. Tcode gives every
   load/store/atomic its site at decode time; [Exec.launch] reads
   [site_profile] once per launch and, while it is armed, runs the
   launch serially so the shared table is written from one domain.
   The reference interpreter (Refexec) records the same table, and the
   executor tests and fuzz oracle (b) require the two to be equal. *)

type access_kind = Kload | Kstore | Katomic

type site_key = {
  sk_sym : string;
  sk_block : string;
  sk_ord : int;
  sk_kind : access_kind;
}

type site = {
  mutable s_issues : int; (* warp-level executions of the site *)
  mutable s_lanes : int; (* total active lanes over all issues *)
  mutable s_lines : int; (* total fresh cache lines touched *)
  mutable s_full_issues : int; (* issues with every lane active *)
  mutable s_full_lanes : int;
  mutable s_full_lines : int;
  mutable s_width : int; (* access width in bytes (last seen) *)
  mutable s_scratch : bool; (* true when any issue hit scratch space *)
}

type site_table = (site_key, site) Hashtbl.t

let create_sites () : site_table = Hashtbl.create 64

(* Armed profile: when [Some tbl], every launch accumulates per-site
   statistics into [tbl]. Global by design — profiling is a
   whole-process measurement mode, like Stats. *)
let site_profile : site_table option ref = ref None

let record_site (tbl : site_table) key ~lanes ~lines ~full ~width ~scratch =
  let s =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let s =
          { s_issues = 0; s_lanes = 0; s_lines = 0; s_full_issues = 0;
            s_full_lanes = 0; s_full_lines = 0; s_width = width;
            s_scratch = false }
        in
        Hashtbl.replace tbl key s;
        s
  in
  s.s_issues <- s.s_issues + 1;
  s.s_lanes <- s.s_lanes + lanes;
  s.s_lines <- s.s_lines + lines;
  if full then begin
    s.s_full_issues <- s.s_full_issues + 1;
    s.s_full_lanes <- s.s_full_lanes + lanes;
    s.s_full_lines <- s.s_full_lines + lines
  end;
  s.s_width <- width;
  if scratch then s.s_scratch <- true

(* rocprof/nvprof-style derived metrics *)
let valu_insts_per_item t = fdiv t.valu_thread t.threads
let salu_insts_per_wave t = fdiv t.salu t.warps
let inst_per_warp t = fdiv t.warp_instrs t.warps
let vfetch_per_item t = fdiv t.vmem_thread t.threads
let sfetch_per_wave t = fdiv t.smem t.warps
let l2_hit_ratio t = fdiv t.l2_hits (t.l2_hits + t.l2_misses)
let spills t = t.spill_ld + t.spill_st
