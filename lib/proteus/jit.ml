(* The Proteus JIT compilation runtime library (Sec. 3.3). Installed
   into a host program's extern table, it services __jit_launch_kernel:
   hash the specialization, consult the two-level cache, and on a miss
   retrieve the kernel's embedded bitcode (from the .jit.<sym> section
   on AMD; from device memory on NVIDIA), link device globals,
   specialize (RCF + LB), run the O3 pipeline, generate machine code
   through the vendor backend, cache it, and launch.

   Fault containment: JIT specialization is an optimization layered on
   a working AOT binary, so the program must never be worse off for
   enabling it. Every pipeline stage runs inside a containment
   boundary (see [in_stage]); on any exception the launch falls back
   to the AOT kernel already loaded in Gpurt, the failure is recorded
   per stage in Stats, and after [Config.quarantine_threshold]
   consecutive failures the (mid, sym) kernel is quarantined: later
   launches skip JIT entirely until a backoff of
   [Config.quarantine_backoff] launches expires (doubling after each
   failed retry), serving-stack style.

   Stage budgets: with [Config.stage_deadline_ms] > 0, a stage whose
   cost-model charges exceed that many simulated milliseconds fails
   like any other stage. Simulated time does not depend on the host,
   so an overrun recurs for its key: it falls back and strikes toward
   quarantine without a retry. Only transient failures (a cache entry
   lock held by another process, the EAGAIN class) retry, with
   jittered exponential backoff on the simulated clock. *)

open Proteus_support
open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_runtime

(* Per-(mid, sym) quarantine record. [cooldown] > 0 means quarantined:
   that many launches go straight to AOT before one JIT retry. *)
type qstate = {
  mutable consec_failures : int;
  mutable cooldown : int;
  mutable cur_backoff : int; (* backoff applied on the next quarantine *)
}

(* One armed background (tier-up) compile: the inputs a launch
   captured when its specialization key crossed the
   Config.tier_threshold gate. This JIT runs it itself at its next
   launch boundary (see [drain_tier]). *)
type tier_job = {
  tj_key : Speckey.t;
  tj_mid : string;
  tj_sym : string;
  tj_spec_values : (int * Konst.t) list;
  tj_block : int;
  tj_armed_s : float; (* simulated clock when armed, for swap latency *)
}

type t = {
  rt : Gpurt.ctx;
  vendor : Device.vendor;
  config : Config.t;
  tenant : string option;
      (* multi-tenant service: the client session this JIT serves.
         Scopes quarantine keys and cache-entry ownership so one
         tenant's poisoned kernel or quota pressure can never spill
         into another's service level. None = single-tenant process. *)
  cache : Cachestore.t;
  stats : Stats.t;
  faults : Fault.t;
  rng : Util.Rng.t; (* deterministic jitter for retry backoff *)
  quarantine : (string, qstate) Hashtbl.t;
  registered_vars : (string, unit) Hashtbl.t;
  advice : (string, Proteus_analysis.Specadvisor.kernel_impact option) Hashtbl.t;
      (* (mid/sym) -> memoized SpecAdvisor impact report; filled lazily
         on the first launch under the advise policy. The full report
         (not just the statically recommended indices) is kept so the
         adaptive tier policy can re-filter it against measured reuse *)
  mutable pending_tier : tier_job option;
      (* the tier-up compile the last launch armed, if any: [launch]
         drains it at its top and a launch arms at most one *)
  charged : Clock.t;
      (* every simulated second [charge] has booked, wherever it went:
         [in_stage] reads a stage's cost off it *)
  mutable charge_sink : (float -> unit) option;
      (* when set, [charge] redirects simulated cost here instead of
         advancing the shared clock: a background compile occupies a
         spare core, so its simulated time must not delay the client's
         launch stream. Only ever set around a drained tier job. *)
}

(* [cache] defaults to a private store for [vendor] (the paper's
   single-process behaviour); the multi-tenant serve loop passes one
   shared store, whose [Cachestore.compile_once] makes N tenants dedup
   compiles against each other. A shared cache keeps its own fault set
   (from its creator) — per-tenant injected faults fire only in this
   JIT's pipeline stages, never inside the shared store, and a compile
   that fails in one tenant's stages is not handed to another. *)
let create ?(config = Config.default) ?cache ?tenant (rt : Gpurt.ctx)
    (vendor : Device.vendor) : t =
  rt.Gpurt.exec_domains <- config.Config.exec_domains;
  let faults = Fault.of_env ~base:config.Config.fault_plan () in
  {
    rt;
    vendor;
    config;
    tenant;
    cache =
      (match cache with
      | Some c -> c
      | None ->
          Cachestore.create ?persistent_dir:config.Config.persistent_dir ~vendor ~faults
            ~tenant_quota:config.Config.tenant_quota
            ~lock_timeout_ms:config.Config.lock_timeout_ms ());
    stats = Stats.create ();
    faults;
    rng = Util.Rng.create 0x5EED;
    quarantine = Hashtbl.create 8;
    registered_vars = Hashtbl.create 8;
    advice = Hashtbl.create 8;
    pending_tier = None;
    charged = Clock.create ();
    charge_sink = None;
  }

let charge t s =
  Clock.advance t.charged s;
  match t.charge_sink with
  | Some sink -> sink s
  | None -> Clock.advance t.rt.Gpurt.clock s

(* ---- containment boundary ---------------------------------------- *)

(* A JIT failure tagged with the pipeline stage it escaped from. *)
exception Stage_failure of Fault.point * exn

(* A stage charged this many simulated milliseconds, more than
   Config.stage_deadline_ms allows. *)
exception Over_budget of float

(* Run one pipeline stage: fire its fault-injection point, hold it to
   its simulated budget when Config.stage_deadline_ms is > 0, and tag
   any escaping exception with the stage so the launch-level handler
   can account it. An overrun fails the stage after its work is done,
   because the key's next compile would cost the same. Already-tagged
   exceptions pass through untouched (an outer stage must not
   re-attribute an inner stage's failure). *)
let in_stage t (p : Fault.point) (f : unit -> 'a) : 'a =
  (try Fault.hit t.faults p with e -> raise (Stage_failure (p, e)));
  let budget_ms = t.config.Config.stage_deadline_ms in
  try
    if budget_ms <= 0.0 then f ()
    else begin
      let before = Clock.read t.charged in
      let r = f () in
      let spent_ms = (Clock.read t.charged -. before) *. 1e3 in
      if spent_ms > budget_ms then begin
        t.stats.Stats.deadline_overruns <- t.stats.Stats.deadline_overruns + 1;
        raise (Over_budget spent_ms)
      end;
      r
    end
  with
  | Stage_failure _ as e -> raise e
  | e -> raise (Stage_failure (p, e))

(* ---- JIT pipeline stages ----------------------------------------- *)

(* Retrieve the extracted bitcode for [sym]. AMD: read the .jit.<sym>
   section of the loaded module (host-side, cheap). NVIDIA: the bytes
   live in a device global; read them back over the interconnect. *)
let fetch_bitcode (t : t) (sym : string) : string =
  in_stage t Fault.Fetch_bitcode @@ fun () ->
  match t.vendor with
  | Device.Amd -> (
      let rec find = function
        | [] -> Util.failf "Proteus: no .jit section for kernel %s" sym
        | (lm : Gpurt.loaded_module) :: rest -> (
            match List.assoc_opt (Plugin.jit_section sym) lm.Gpurt.lobj.Mach.sections with
            | Some bc -> bc
            | None -> find rest)
      in
      let bc = find t.rt.Gpurt.modules in
      charge t 10.0e-6 (* section lookup *);
      bc)
  | Device.Nvidia -> (
      let gname = Plugin.jit_bc_global sym in
      match Gpurt.get_symbol_address t.rt gname with
      | Some addr ->
          (* find the length from the module's global table *)
          let rec len_of = function
            | [] -> Util.failf "Proteus: missing device global %s" gname
            | (lm : Gpurt.loaded_module) :: rest -> (
                match
                  List.find_opt
                    (fun (g : Ir.gvar) -> g.Ir.gname = gname)
                    lm.Gpurt.lobj.Mach.oglobals
                with
                | Some g -> Types.size_of g.Ir.gty
                | None -> len_of rest)
          in
          let len = len_of t.rt.Gpurt.modules in
          (* cuModuleGetGlobal + device-to-host read *)
          let bc = Gpurt.read_device_bytes t.rt addr len in
          charge t (Costmodel.xfer t.rt.Gpurt.cost len);
          bc
      | None -> Util.failf "Proteus: device global %s not found (was the plugin run?)" gname)

let resolve_global (t : t) (name : string) : int64 =
  (* cudaGetSymbolAddress / hipGetSymbolAddress *)
  match Gpurt.get_symbol_address t.rt name with
  | Some a -> a
  | None -> Util.failf "Proteus: cannot resolve device global %s" name

(* Deterministically corrupt the specialized kernel IR in place: the
   payload of [Fault.Specialize_corrupt]. Drops a phi incoming edge
   when one exists, else inserts a use of an undefined register — both
   are exactly the structural breakages the hardened verifier detects. *)
let corrupt_ir (m : Ir.modul) ~(sym : string) : unit =
  Ir.touch_module m;
  match Ir.find_func_opt m sym with
  | None -> ()
  | Some f -> (
      let dropped = ref false in
      List.iter
        (fun (b : Ir.block) ->
          if not !dropped then
            b.Ir.insts <-
              List.map
                (fun i ->
                  match i with
                  | Ir.IPhi (d, (_ :: _ :: _ as inc)) when not !dropped ->
                      dropped := true;
                      Ir.IPhi (d, List.tl inc)
                  | i -> i)
                b.Ir.insts)
        f.Ir.blocks;
      if not !dropped then
        match f.Ir.blocks with
        | entry :: _ ->
            let undef = Ir.fresh_reg f (Types.TInt 32) in
            let dst = Ir.fresh_reg f (Types.TInt 32) in
            entry.Ir.insts <-
              entry.Ir.insts
              @ [ Ir.IBin (dst, Ops.Add, Ir.Reg undef, Ir.Imm (Konst.ki32 0)) ]
        | [] -> ())

(* The PROTEUS_VERIFY gate: structural IR verification plus KernelSan
   error-level findings on the kernel being compiled. Any violation
   raises inside [in_stage t Fault.Verify], so the launch-level handler
   turns it into a contained AOT fallback and counts it in
   [Stats.verify_rejections]. *)
let verify_ir (t : t) (m : Ir.modul) ~(sym : string) : unit =
  in_stage t Fault.Verify @@ fun () ->
  Verify.verify_module m;
  let findings = Proteus_analysis.Kernelsan.analyze_kernel m sym in
  (match Proteus_analysis.Kernelsan.errors findings with
  | [] -> ()
  | fd :: _ ->
      Util.failf "Proteus: KernelSan rejected %s: %s" sym
        (Proteus_analysis.Finding.to_string fd));
  (* one extra IR traversal, priced like an optimizer sweep *)
  let n = ref 0 in
  List.iter
    (fun (f : Ir.func) -> Ir.iter_instrs f (fun _ -> incr n))
    m.Ir.funcs;
  charge t (float_of_int !n *. t.rt.Gpurt.cost.Costmodel.opt_per_work_s)

(* The PROTEUS_VERIFY=2 gate: TransVal translation validation of one
   transformation step. Runs inside the contained [Fault.Verify] stage,
   so a refuted verdict degrades to a counted AOT fallback (and feeds
   quarantine pressure) exactly like a structural-verifier rejection.
   Unproven is counted but only fatal under PROTEUS_VERIFY_STRICT. *)
let transval_gate (t : t) ~(phase : string)
    ?(subst = Proteus_analysis.Transval.no_subst) ~(reference : Ir.modul)
    ~(candidate : Ir.modul) ~(sym : string) () : unit =
  in_stage t Fault.Verify @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let verdict =
    Proteus_analysis.Transval.check_kernel ~subst ~reference ~candidate sym
  in
  Proteus_support.Hist.record t.stats.Stats.tv_hist (Unix.gettimeofday () -. t0);
  match verdict with
  | Proteus_analysis.Transval.Proven ->
      t.stats.Stats.tv_proven <- t.stats.Stats.tv_proven + 1
  | Proteus_analysis.Transval.Unproven why ->
      t.stats.Stats.tv_unproven <- t.stats.Stats.tv_unproven + 1;
      if t.config.Config.verify_strict then
        Util.failf "Proteus: TransVal could not prove %s %s: %s" sym phase why
  | Proteus_analysis.Transval.Refuted fd ->
      t.stats.Stats.tv_refuted <- t.stats.Stats.tv_refuted + 1;
      Util.failf "Proteus: TransVal refuted %s %s: %s" sym phase
        (Proteus_analysis.Finding.to_string fd)

(* Compile one kernel specialization to a loadable object. *)
let compile_specialization (t : t) ~(bitcode : string) ~(sym : string)
    ~(spec_values : (int * Konst.t) list) ~(block : int) : Mach.obj =
  let cost = t.rt.Gpurt.cost in
  let t0 = Unix.gettimeofday () in
  (* parse bitcode *)
  let m =
    in_stage t Fault.Decode @@ fun () ->
    charge t (float_of_int (String.length bitcode) *. cost.Costmodel.bitcode_parse_per_byte_s);
    Bitcode.decode_module bitcode
  in
  let vlevel = Config.effective_verify_level t.config in
  (* translation validation needs the decoded module as it was before
     specialization mutates it in place *)
  let m_decoded = if vlevel >= 2 then Some (Ir.clone_module m) else None in
  (* link + specialize *)
  in_stage t Fault.Specialize (fun () ->
      Specialize.apply t.config m ~kernel:sym ~spec_values ~block
        ~resolve_global:(resolve_global t));
  (* silent-corruption fault: damages the IR without raising, so only
     the verify gate stands between it and codegen *)
  if Fault.fires t.faults Fault.Specialize_corrupt then corrupt_ir m ~sym;
  (* translation validation runs before the structural verifier: a
     refutation then carries source provenance (the decoded reference
     still has its dbg.loc markers) instead of a bare verifier error *)
  (match m_decoded with
  | Some reference ->
      (* the decoded reference sees the same substitution the
         specializer performed: folded argument values (1-based in
         [spec_values], 0-based in the symbolic summary) and resolved
         device-global addresses *)
      let subst =
        {
          Proteus_analysis.Transval.sub_params =
            (if t.config.Config.enable_rcf then
               List.map (fun (i, k) -> (i - 1, k)) spec_values
             else []);
          sub_globals =
            List.filter_map
              (fun (g : Ir.gvar) ->
                if g.Ir.gextern then Some (g.Ir.gname, resolve_global t g.Ir.gname)
                else None)
              reference.Ir.globals;
        }
      in
      transval_gate t ~phase:"after specialize" ~subst ~reference ~candidate:m
        ~sym ()
  | None -> ());
  if vlevel >= 1 then verify_ir t m ~sym;
  let m_spec = if vlevel >= 2 then Some (Ir.clone_module m) else None in
  (* O3 pipeline *)
  in_stage t Fault.Optimize (fun () ->
      let pstats = Proteus_opt.Pipeline.optimize_o3 m in
      charge t (float_of_int pstats.Proteus_opt.Pass.work *. cost.Costmodel.opt_per_work_s));
  (match m_spec with
  | Some reference ->
      transval_gate t ~phase:"after O3" ~reference ~candidate:m ~sym ()
  | None -> ());
  if vlevel >= 1 then verify_ir t m ~sym;
  (* backend code generation *)
  let obj =
    in_stage t Fault.Codegen @@ fun () ->
    (* the linked module holds [sym] alone and no globals *)
    let obj, ptx = Toolchain.compile ~vendor:t.vendor m in
    let n = List.fold_left (fun acc k -> acc + Mach.instr_count k) 0 obj.Mach.kernels in
    (match t.vendor with
    | Device.Amd ->
        charge t
          (float_of_int n
          *. (cost.Costmodel.isel_per_instr_s +. cost.Costmodel.regalloc_per_instr_s))
    | Device.Nvidia ->
        (* NVPTX emits PTX text; the PTX compiler produces the binary *)
        charge t (float_of_int (String.length ptx) *. cost.Costmodel.ptx_emit_per_byte_s);
        charge t (float_of_int (String.length ptx) *. cost.Costmodel.ptxas_per_byte_s);
        charge t (float_of_int n *. cost.Costmodel.regalloc_per_instr_s));
    obj
  in
  t.stats.Stats.compiles <- t.stats.Stats.compiles + 1;
  t.stats.Stats.real_compile_s <-
    t.stats.Stats.real_compile_s +. (Unix.gettimeofday () -. t0);
  obj

(* ---- quarantine policy ------------------------------------------- *)

(* Quarantine (and advice/profile) keys are tenant-scoped: with a
   shared content-addressed store two tenants can hit the same
   (mid, sym), but quarantine is a judgement about a *client's* launch
   stream, not about the artifact — tenant A poisoning its copy of a
   kernel must not put tenant B's identical kernel on the AOT path. *)
let qkey t ~mid ~sym =
  (match t.tenant with Some tn -> tn ^ ":" | None -> "") ^ mid ^ "/" ^ sym

(* The quarantine record of [qk], created by its first failure: a
   healthy kernel has none, so a healthy launch only looks it up. An
   absent record means what a fresh one would (no failures, no
   cooldown, the configured backoff). *)
let qstate t qk : qstate =
  match Hashtbl.find_opt t.quarantine qk with
  | Some q -> q
  | None ->
      let q =
        {
          consec_failures = 0;
          cooldown = 0;
          cur_backoff = max t.config.Config.quarantine_backoff 0;
        }
      in
      Hashtbl.replace t.quarantine qk q;
      q

let quarantined_kernels t =
  Hashtbl.fold (fun k q acc -> if q.cooldown > 0 then k :: acc else acc) t.quarantine []
  |> List.sort compare

(* A failure was contained for (mid, sym): count it and, past the
   threshold, quarantine the kernel. Each time a post-backoff retry
   fails again the backoff doubles. *)
let note_failure t (q : qstate) =
  q.consec_failures <- q.consec_failures + 1;
  let threshold = t.config.Config.quarantine_threshold in
  if threshold > 0 && q.consec_failures >= threshold then begin
    t.stats.Stats.quarantine_events <- t.stats.Stats.quarantine_events + 1;
    if t.config.Config.quarantine_backoff = 0 then q.cooldown <- max_int
    else begin
      q.cooldown <- q.cur_backoff;
      (* exponential backoff for the next round, capped to stay sane *)
      q.cur_backoff <- min (q.cur_backoff * 2) (1 lsl 20);
      (* the retry after this cooldown gets one shot: a single failure
         re-quarantines immediately *)
      q.consec_failures <- threshold - 1
    end
  end

(* Account one contained failure of the kernel [qk] names: the stage it
   escaped from ([outside] when no instrumented stage tagged it), a
   verify-gate rejection, and a strike toward quarantine. *)
let record_contained t ~qk ~(outside : string) (e : exn) : unit =
  let stage_name = match e with Stage_failure (p, _) -> Fault.point_name p | _ -> outside in
  (match e with
  | Stage_failure (Fault.Verify, _) ->
      t.stats.Stats.verify_rejections <- t.stats.Stats.verify_rejections + 1
  | _ -> ());
  Stats.record_failure t.stats stage_name;
  note_failure t (qstate t qk)

(* A success clears the kernel's streak. The usual table is empty, and
   the length test then skips hashing [qk]. *)
let note_success t qk =
  if Hashtbl.length t.quarantine > 0 then Hashtbl.remove t.quarantine qk

(* ---- specialization policy (SpecAdvisor) ------------------------- *)

(* SpecAdvisor impact report for (mid, sym), computed once per kernel
   from its extracted bitcode and memoized for the life of the JIT.
   Runs inside the same Fetch_bitcode/Decode containment stages as
   compilation, so advisor failures are contained, counted and
   quarantined exactly like compile failures. *)
let advised_impact (t : t) ~(qk : string) ~(sym : string) :
    Proteus_analysis.Specadvisor.kernel_impact option =
  match Hashtbl.find_opt t.advice qk with
  | Some r -> r
  | None ->
      let t0 = Unix.gettimeofday () in
      let bitcode = fetch_bitcode t sym in
      let m = in_stage t Fault.Decode (fun () -> Bitcode.decode_module bitcode) in
      let impact =
        Proteus_analysis.Specadvisor.advise_kernel
          ~threshold:t.config.Config.spec_threshold m sym
      in
      t.stats.Stats.advise_time_s <-
        t.stats.Stats.advise_time_s +. (Unix.gettimeofday () -. t0);
      (* one advisory IR pass costs about as much as one optimizer
         sweep of the kernel; charge the simulated clock accordingly *)
      charge t
        (float_of_int (String.length bitcode)
        *. t.rt.Gpurt.cost.Costmodel.bitcode_parse_per_byte_s);
      Hashtbl.replace t.advice qk impact;
      impact

(* The advisor's static score threshold assumes a nominal reuse of
   [nominal_reuse] launches when it amortizes compile cost. With
   tiering on, the per-kernel launch profile replaces that guess: a
   kernel measured at L launches gets an effective threshold of
   base * nominal / max L nominal, so arguments the static model
   declined become worth specializing once reuse demonstrably exceeds
   break-even. Without tiering (no profile), the static model stands. *)
let nominal_reuse = 10

let effective_spec_threshold (t : t) ~(qk : string) : float =
  let base = t.config.Config.spec_threshold in
  if not t.config.Config.tier then base
  else
    let launches = Stats.kernel_launch_count t.stats qk in
    if launches <= nominal_reuse then base
    else base *. float_of_int nominal_reuse /. float_of_int launches

let advised_args (t : t) ~(qk : string) ~(sym : string) : int list =
  match advised_impact t ~qk ~sym with
  | None -> []
  | Some ki ->
      let eff = effective_spec_threshold t ~qk in
      List.filter_map
        (fun (a : Proteus_analysis.Specadvisor.arg_impact) ->
          if
            a.Proteus_analysis.Specadvisor.index > 0
            && (a.Proteus_analysis.Specadvisor.recommended
               || ((not a.Proteus_analysis.Specadvisor.is_ptr)
                  && a.Proteus_analysis.Specadvisor.score >= eff))
          then Some a.Proteus_analysis.Specadvisor.index
          else None)
        ki.Proteus_analysis.Specadvisor.ranked
      |> List.sort compare

(* Apply the configured specialization policy to the annotated values.
   The filtered list feeds BOTH the cache key and the specializer, so
   a cached object is always exactly the code the key describes.
   [qk] is the launch's [qkey]. *)
let policy_values (t : t) ~(qk : string) ~(sym : string)
    (spec_values : (int * Konst.t) list) : (int * Konst.t) list =
  if spec_values = [] then spec_values
  else begin
    let policy = t.config.Config.spec_policy in
    let recommended =
      match policy with
      | Config.Spec_advise -> advised_args t ~qk ~sym
      | Config.Spec_all | Config.Spec_none -> []
    in
    let keep, skipped = Speckey.apply_policy ~policy ~recommended spec_values in
    t.stats.Stats.spec_skipped_args <- t.stats.Stats.spec_skipped_args + skipped;
    keep
  end

let policy_spec_values (t : t) ~(mid : string) ~(sym : string)
    (spec_values : (int * Konst.t) list) : (int * Konst.t) list =
  policy_values t ~qk:(qkey t ~mid ~sym) ~sym spec_values

(* ---- launch ------------------------------------------------------ *)

(* Arm a background O3 compile for a hot specialization key once it
   crosses the Config.tier_threshold launch-count gate. The job runs
   at the next launch boundary's drain (see [drain_tier]); here we
   only capture its inputs. *)
let arm_tier (t : t) ~(mid : string) ~(sym : string) ~(key : Speckey.t)
    ~(spec_values : (int * Konst.t) list) ~(block : int) : unit =
  if Stats.key_launches t.stats (Speckey.to_string key) >= t.config.Config.tier_threshold then
    t.pending_tier <-
      Some
        {
          tj_key = key;
          tj_mid = mid;
          tj_sym = sym;
          tj_spec_values = spec_values;
          tj_block = block;
          tj_armed_s = Clock.read t.rt.Gpurt.clock;
        }

(* The one compile routine, for a synchronous miss and a tier-up job
   alike: [Cachestore.compile_once] runs it only when no other JIT
   sharing the store is compiling the key and no entry is resident, so
   a key compiles once unless a compile fails; then this JIT compiles
   it in its own stages. Returns the entry and whether this call
   compiled it. *)
let compile_entry (t : t) ~(key : Speckey.t) ~(sym : string)
    ~(spec_values : (int * Konst.t) list) ~(block : int) : Cachestore.entry * bool =
  Cachestore.compile_once t.cache key (fun () ->
      let bitcode = fetch_bitcode t sym in
      let obj = compile_specialization t ~bitcode ~sym ~spec_values ~block in
      let e =
        in_stage t Fault.Cache_write (fun () ->
            Cachestore.insert ?owner:t.tenant t.cache key obj)
      in
      Stats.record_cache_entry t.stats (Config.policy_name t.config.Config.spec_policy);
      e)

(* The JIT path proper: raises Stage_failure on any contained error.
   Returns whether JIT-compiled code ran: false for the AOT artifact a
   cold tiered launch dispatches while its O3 compile waits for the
   next launch boundary. [qk] is the launch's [qkey], built once by
   [launch]. [first] is false on a retry, which must not count the
   launch into the kernel and key profiles a second time. *)
let jit_launch (t : t) ~(first : bool) ~(qk : string) ~(mid : string) ~(sym : string)
    ~(grid : int) ~(block : int) ~(args : Konst.t array) ~(spec_mask : int64) : bool =
  let cost = t.rt.Gpurt.cost in
  let clock_before = Clock.read t.rt.Gpurt.clock in
  if first then Stats.record_kernel_launch t.stats qk;
  let spec_values =
    if t.config.Config.enable_rcf || t.config.Config.enable_lb then
      List.filter_map
        (fun i -> if i <= Array.length args then Some (i, args.(i - 1)) else None)
        (Annotate.args_of_mask spec_mask)
    else []
  in
  (* The specialization policy filters the values before they reach
     either the key or the specializer. *)
  let spec_values =
    if t.config.Config.enable_rcf then policy_values t ~qk ~sym spec_values
    else spec_values
  in
  (* Hash always encodes what the generated code depends on. *)
  let key =
    Speckey.compute ~mid ~sym
      ~spec_values:(if t.config.Config.enable_rcf then spec_values else [])
      ~launch_bounds:(if t.config.Config.enable_lb then Some block else None)
  in
  charge t cost.Costmodel.cache_hash_s;
  if first then Stats.record_key_launch t.stats (Speckey.to_string key);
  let served =
    match
      in_stage t Fault.Cache_read (fun () ->
          if t.config.Config.use_mem_cache then Cachestore.lookup ?owner:t.tenant t.cache key
          else Cachestore.Miss)
    with
    | Cachestore.Mem_hit e ->
        t.stats.Stats.mem_hits <- t.stats.Stats.mem_hits + 1;
        `Entry e
    | Cachestore.Disk_hit e ->
        t.stats.Stats.disk_hits <- t.stats.Stats.disk_hits + 1;
        charge t
          (cost.Costmodel.cache_disk_lat_s
          +. (float_of_int e.Cachestore.bytes *. cost.Costmodel.cache_disk_per_byte_s));
        charge t
          (float_of_int e.Cachestore.bytes *. cost.Costmodel.module_load_per_byte_s);
        `Entry e
    | Cachestore.Miss when t.config.Config.tier ->
        (* Tiered cold launch: never block on O3. Serve the AOT
           artifact now; once the key is hot enough, arm the
           specialized compile for the next boundary's drain. The
           launch pays only hash + lookup + arming bookkeeping. *)
        arm_tier t ~mid ~sym ~key ~spec_values ~block;
        t.stats.Stats.tier_launches <- t.stats.Stats.tier_launches + 1;
        `Tier0
    | Cachestore.Miss ->
        let e, compiled = compile_entry t ~key ~sym ~spec_values ~block in
        if compiled then begin
          t.stats.Stats.flight_leads <- t.stats.Stats.flight_leads + 1;
          charge t (float_of_int e.Cachestore.bytes *. cost.Costmodel.module_load_per_byte_s)
        end
        else begin
          (* served by another launch's compile, which this launch
             waited for or found on its re-check. In a serial run this
             launch's lookup would have hit, so it counts and costs
             exactly a memory hit, and the service totals do not depend
             on which tenant won the race. *)
          t.stats.Stats.flight_suppressed <- t.stats.Stats.flight_suppressed + 1;
          t.stats.Stats.mem_hits <- t.stats.Stats.mem_hits + 1
        end;
        `Entry e
  in
  let overhead = Clock.read t.rt.Gpurt.clock -. clock_before in
  t.stats.Stats.jit_overhead_s <- t.stats.Stats.jit_overhead_s +. overhead;
  Hist.record t.stats.Stats.launch_hist overhead;
  Stats.record_launch_overhead t.stats overhead;
  match served with
  | `Tier0 ->
      (* the AOT kernel is always resident (the plugin never strips
         it); dispatch it exactly like the containment fallback *)
      Gpurt.launch_kernel t.rt ~sym ~grid ~block ~args;
      false
  | `Entry entry ->
      let k = Mach.find_kernel entry.Cachestore.obj sym in
      (* decoded-code tier: reuse the threaded program attached to this
         cache entry, or decode once and attach it *)
      let tcode =
        match List.assoc_opt sym entry.Cachestore.tcodes with
        | Some p when p.Tcode.tf == k ->
            t.stats.Stats.tcode_hits <- t.stats.Stats.tcode_hits + 1;
            p
        | _ ->
            let p = Tcode.decode k in
            t.stats.Stats.tcode_decodes <- t.stats.Stats.tcode_decodes + 1;
            entry.Cachestore.tcodes <-
              (sym, p) :: List.remove_assoc sym entry.Cachestore.tcodes;
            p
      in
      Gpurt.launch_mfunc t.rt ~tcode k ~grid ~block ~args;
      true

(* Launch the AOT-compiled kernel embedded in the fatbinary: the
   containment escape hatch. The plugin never removes kernels from the
   AOT device image, so this is always available. *)
let aot_fallback (t : t) ~(sym : string) ~(grid : int) ~(block : int)
    ~(args : Konst.t array) : unit =
  if not (Gpurt.has_kernel t.rt sym) then
    Util.failf "Proteus: no AOT fallback for kernel %s" sym;
  Gpurt.launch_kernel t.rt ~sym ~grid ~block ~args

(* ---- tier-up drain / publication --------------------------------- *)

(* Run the armed tier-up job, if any, at a launch boundary, through
   the same routine as a synchronous miss: a key another launch has
   compiled in the meantime compiles nothing and counts no tier-up.
   The job's simulated cost goes to [tier_compile_s], not the client's
   clock. A failed background compile is contained with exact parity
   to a synchronous one - recorded per stage, counted toward
   quarantine - except that no fallback is counted: the launches it
   would have served already ran correctly on the AOT artifact.
   Nothing raised here may reach the client. *)
let drain_tier (t : t) : unit =
  match t.pending_tier with
  | None -> ()
  | Some job -> (
      t.pending_tier <- None;
      let sim = ref 0.0 in
      t.charge_sink <- Some (fun s -> sim := !sim +. s);
      let res =
        try
          Ok
            (compile_entry t ~key:job.tj_key ~sym:job.tj_sym
               ~spec_values:job.tj_spec_values ~block:job.tj_block)
        with e -> Error e
      in
      t.charge_sink <- None;
      t.stats.Stats.tier_compile_s <- t.stats.Stats.tier_compile_s +. !sim;
      let qk = qkey t ~mid:job.tj_mid ~sym:job.tj_sym in
      match res with
      | Ok (_, false) -> ()
      | Ok (_, true) ->
          t.stats.Stats.tierups <- t.stats.Stats.tierups + 1;
          Hist.record t.stats.Stats.swap_hist (Clock.read t.rt.Gpurt.clock -. job.tj_armed_s);
          note_success t qk
      | Error e ->
          t.stats.Stats.tierup_failures <- t.stats.Stats.tierup_failures + 1;
          record_contained t ~qk ~outside:"tierup" e)

(* Counters the cache store maintains under its own mutex, mirrored
   into the printable Stats ledger after every launch. *)
let sync_cache_counters t =
  t.stats.Stats.cache_corruptions <- t.cache.Cachestore.corruptions;
  t.stats.Stats.lock_waits <- t.cache.Cachestore.lock_waits;
  t.stats.Stats.lock_contended <- t.cache.Cachestore.lock_contended;
  t.stats.Stats.disk_degrades <- t.cache.Cachestore.disk_degrades

(* Jittered exponential backoff: base * 2^attempt, scaled by a jitter
   factor in [0.5, 1.0) drawn from [rand] (a float in [0,1)). Capped at
   [max_ms] so a long retry chain cannot wait unboundedly. The caller
   supplies the draw (from a seeded Util.Rng), so a retry schedule can
   be reproduced exactly. *)
let backoff_ms ?(max_ms = 1000.0) ~(base_ms : float) ~(attempt : int)
    ~(rand : float) () : float =
  let base_ms = if base_ms <= 0.0 then 0.0 else base_ms in
  let attempt = if attempt < 0 then 0 else if attempt > 20 then 20 else attempt in
  let raw = base_ms *. float_of_int (1 lsl attempt) in
  let jitter = 0.5 +. (0.5 *. (if rand < 0.0 then 0.0 else if rand >= 1.0 then 0.999999 else rand)) in
  Float.min (raw *. jitter) max_ms

(* The __jit_launch_kernel entry point: JIT under containment, AOT on
   any contained failure, quarantine on repeated failure. Transient
   failures (lock contention - see Fault.classify_exn) retry up to
   Config.retry_max times with jittered exponential backoff before
   falling back; permanent ones, stage-budget overruns among them,
   fall back and count toward quarantine immediately. *)
let launch (t : t) ~(mid : string) ~(sym : string) ~(grid : int) ~(block : int)
    ~(args : Konst.t array) ~(spec_mask : int64) : unit =
  t.stats.Stats.jit_launches <- t.stats.Stats.jit_launches + 1;
  (* launch boundary: run the tier-up job the last launch armed, so
     this launch's cache lookup can already see its entry *)
  drain_tier t;
  let qk = qkey t ~mid ~sym in
  (* as in [note_success]: the usual table is empty, and the length
     test then skips hashing [qk] *)
  (match if Hashtbl.length t.quarantine = 0 then None else Hashtbl.find_opt t.quarantine qk with
  | Some q when q.cooldown > 0 ->
      (* quarantined: serve from the AOT binary, tick down the backoff *)
      if q.cooldown <> max_int then q.cooldown <- q.cooldown - 1;
      t.stats.Stats.quarantined_launches <- t.stats.Stats.quarantined_launches + 1;
      if q.cooldown = 0 then
        t.stats.Stats.quarantine_retries <- t.stats.Stats.quarantine_retries + 1;
      aot_fallback t ~sym ~grid ~block ~args
  | _ ->
      let rec attempt (n : int) : unit =
        match jit_launch t ~first:(n = 0) ~qk ~mid ~sym ~grid ~block ~args ~spec_mask with
        | jitted ->
            if n > 0 then
              t.stats.Stats.retry_successes <- t.stats.Stats.retry_successes + 1;
            (* a tier-0 serve says nothing about JIT pipeline health:
               it must not clear the consecutive-failure streak a
               failed background compile is building toward quarantine *)
            if jitted then note_success t qk
        | exception e ->
            let transient =
              match e with
              | Stage_failure (_, inner) -> Fault.classify_exn inner = Fault.Transient
              | _ -> false
            in
            if transient && n < t.config.Config.retry_max then begin
              t.stats.Stats.retries <- t.stats.Stats.retries + 1;
              (* jittered exponential backoff, charged to the simulated
                 clock (deterministic: the jitter comes from a seeded
                 Rng, the clock from the cost model) *)
              let delay_ms =
                backoff_ms ~base_ms:t.config.Config.retry_backoff_ms ~attempt:n
                  ~rand:(Util.Rng.float t.rng) ()
              in
              charge t (delay_ms *. 1e-3);
              attempt (n + 1)
            end
            else begin
              t.stats.Stats.fallbacks <- t.stats.Stats.fallbacks + 1;
              record_contained t ~qk ~outside:"launch" e;
              aot_fallback t ~sym ~grid ~block ~args
            end
      in
      attempt 0);
  sync_cache_counters t

(* --------------------------------------------------------------- *)
(* Host extern bindings: installs __jit_launch_kernel and
   __jit_register_var into a Hostexec run. *)

let host_hook (t : t) (h : Hostexec.host_ctx) (name : string) (args : Konst.t list) :
    Konst.t option option =
  if name = Plugin.entry_point then begin
    (* (mid_str, stub_addr, grid, block, shmem, kernel args..., spec_mask) *)
    match args with
    | mid_ptr :: stub :: grid :: block :: _shmem :: rest when rest <> [] -> (
        let mid = Hostexec.read_cstring h.Hostexec.host_mem (Konst.as_int mid_ptr) in
        let rec split_last = function
          | [ x ] -> ([], x)
          | x :: tl ->
              let init, last = split_last tl in
              (x :: init, last)
          | [] -> assert false
        in
        let kargs, mask = split_last rest in
        let stub_addr = Konst.as_int stub in
        match Gpurt.sym_of_stub t.rt stub_addr with
        | Some sym ->
            launch t ~mid ~sym
              ~grid:(Int64.to_int (Konst.as_int grid))
              ~block:(Int64.to_int (Konst.as_int block))
              ~args:(Array.of_list kargs) ~spec_mask:(Konst.as_int mask);
            Some None
        | None ->
            (* Unregistered stub: nothing to launch, JIT or AOT. A
               clean, counted per-launch error instead of a crash. *)
            t.stats.Stats.host_hook_errors <- t.stats.Stats.host_hook_errors + 1;
            Some None)
    | _ ->
        (* Malformed call shape from a rewritten host binary: count it
           and decline the launch rather than kill the program. *)
        t.stats.Stats.host_hook_errors <- t.stats.Stats.host_hook_errors + 1;
        Some None
  end
  else if name = Plugin.register_var_fn then begin
    (match args with
    | [ p ] ->
        let vname = Hostexec.read_cstring h.Hostexec.host_mem (Konst.as_int p) in
        Hashtbl.replace t.registered_vars vname ()
    | _ -> ());
    Some None
  end
  else None
