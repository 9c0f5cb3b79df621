(* Proteus JIT configuration knobs, matching the paper's experiment
   modes: None (JIT with O3 but no specialization, Fig. 6), LB, RCF and
   LB+RCF (Sec. 4.5), with in-memory and persistent caching toggles,
   plus the fault-containment policy (fault injection plan and kernel
   quarantine thresholds). *)

(* Which annotated arguments enter the specialization key.
   [Spec_all] keys every annotated argument (the paper's behaviour);
   [Spec_advise] consults the SpecAdvisor impact report and drops
   arguments scoring below [spec_threshold], trading a little folding
   for fewer JIT compiles and smaller caches; [Spec_none] keys no
   argument values (launch bounds still apply under LB). *)
type spec_policy = Proteus_support.Knob.spec_policy = Spec_all | Spec_advise | Spec_none

let policy_name p = fst (List.find (fun (_, q) -> q = p) Proteus_support.Knob.spec_policies)

type t = {
  enable_rcf : bool; (* runtime constant folding of kernel arguments *)
  enable_lb : bool; (* dynamic launch bounds *)
  use_mem_cache : bool;
  persistent_dir : string option; (* None disables the disk cache *)
  fault_plan : Fault.plan; (* programmatic fault injection; [] = none *)
  quarantine_threshold : int;
      (* consecutive JIT failures of one (mid, sym) before the kernel is
         quarantined to the AOT path; 0 disables quarantine *)
  quarantine_backoff : int;
      (* launches a quarantined kernel skips JIT before one retry is
         allowed (doubling on repeated failure); 0 = quarantine forever *)
  verify_jit : bool;
      (* shorthand for [verify_level] 1: re-run the IR verifier +
         KernelSan on post-specialize and post-O3 IR; a violation becomes
         a counted AOT fallback instead of reaching codegen *)
  verify_level : int;
      (* PROTEUS_VERIFY; level 2 additionally runs TransVal translation
         validation: post-specialize IR is proven equivalent to the
         decoded IR (spec args substituted) and post-O3 IR to
         post-specialize. A refuted verdict is contained exactly like a
         verifier rejection (counted AOT fallback + quarantine
         pressure); unproven is counted but non-fatal unless
         [verify_strict]. 0 = off, 1 = verifier + KernelSan only *)
  verify_strict : bool;
      (* PROTEUS_VERIFY_STRICT: treat an unproven TransVal verdict at
         verify level 2 as a rejection instead of a counted warning *)
  exec_domains : int;
      (* domains the executor schedules thread-blocks across; 0 =
         automatic (Pool.default_domains: PROTEUS_EXEC_DOMAINS if set,
         else the recommended domain count); 1 forces serial execution *)
  spec_policy : spec_policy; (* PROTEUS_SPEC_POLICY=all|advise|none *)
  spec_threshold : float;
      (* minimum SpecAdvisor score an argument needs to stay in the key
         under the advise policy *)
  stage_deadline_ms : float;
      (* budget per JIT stage in simulated milliseconds: the cost model's
         charges during one stage are compared with it. An overrun
         recurs for its key, so it is a permanent failure (AOT fallback
         and a quarantine strike, no retry). 0 disables the check *)
  retry_max : int;
      (* transient-failure retries per launch before the AOT fallback;
         permanent failures never retry *)
  retry_backoff_ms : float;
      (* base of the jittered exponential backoff between retries,
         charged to the simulated clock *)
  lock_timeout_ms : float;
      (* bound on waiting for a cross-process cache entry lock; a
         timeout is a transient failure. 0 waits forever *)
  tier : bool;
      (* PROTEUS_TIER=on: tiered compilation. A cold launch dispatches
         the AOT artifact immediately and the specialized O3 compile
         runs in the background, hot-swapped in via the versioned
         cache before a later launch. Off (the default) keeps the
         paper's block-on-first-launch behaviour *)
  tier_threshold : int;
      (* launches a specialization key must accumulate before it is hot
         enough to spend a background O3 compile on (profile-guided
         gate; minimum 1) *)
  tenant_quota : int;
      (* bytes one tenant may pin in the shared memory cache tier
         before its own LRU entries are evicted; 0 = unlimited. Only
         meaningful when a Cachestore is shared across tenants (the
         serve loop) *)
}

(* The four fields with a knob (Proteus_support.Knob) read it when this
   module is initialised; the rest are constants. *)
let default =
  let module K = Proteus_support.Knob in
  {
    enable_rcf = true;
    enable_lb = true;
    use_mem_cache = true;
    persistent_dir = None;
    fault_plan = [];
    quarantine_threshold = 3;
    quarantine_backoff = 16;
    verify_jit = false;
    verify_level = K.get K.verify;
    verify_strict = K.get K.verify_strict;
    exec_domains = 0;
    spec_policy = K.get K.spec_policy;
    spec_threshold = Proteus_analysis.Specadvisor.default_threshold;
    stage_deadline_ms = 0.0;
    retry_max = 2;
    retry_backoff_ms = 1.0;
    lock_timeout_ms = 1000.0;
    tier = K.get K.tier;
    tier_threshold = 2;
    tenant_quota = 0;
  }

(* Paper mode names *)
let mode_none = { default with enable_rcf = false; enable_lb = false }
let mode_lb = { default with enable_rcf = false; enable_lb = true }
let mode_rcf = { default with enable_rcf = true; enable_lb = false }
let mode_lb_rcf = default

(* The verification level actually in force: tests and embedders that
   set [verify_jit] directly (without touching [verify_level]) keep
   level-1 behaviour. *)
let effective_verify_level c =
  if c.verify_level >= 1 then c.verify_level else if c.verify_jit then 1 else 0

let mode_name c =
  match (c.enable_rcf, c.enable_lb) with
  | false, false -> "None"
  | false, true -> "LB"
  | true, false -> "RCF"
  | true, true -> "LB+RCF"
