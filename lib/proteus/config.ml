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
type spec_policy = Spec_all | Spec_advise | Spec_none

let policy_name = function
  | Spec_all -> "all"
  | Spec_advise -> "advise"
  | Spec_none -> "none"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "all" -> Some Spec_all
  | "advise" -> Some Spec_advise
  | "none" -> Some Spec_none
  | _ -> None

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
      (* PROTEUS_VERIFY: re-run the IR verifier + KernelSan on
         post-specialize and post-O3 IR; a violation becomes a counted
         AOT fallback instead of reaching codegen *)
  verify_level : int;
      (* PROTEUS_VERIFY=2 additionally runs TransVal translation
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
      (* PROTEUS_SPEC_THRESHOLD: minimum SpecAdvisor score an argument
         needs to stay in the key under the advise policy *)
  stage_deadline_ms : float;
      (* PROTEUS_STAGE_DEADLINE_MS: wall-clock budget per JIT stage; an
         overrun is a transient failure (retried with backoff, then
         AOT). 0 disables the check - the default, so tier-1 runs stay
         free of wall-clock nondeterminism *)
  retry_max : int;
      (* PROTEUS_RETRY_MAX: transient-failure retries per launch before
         the AOT fallback; permanent failures never retry *)
  retry_backoff_ms : float;
      (* PROTEUS_RETRY_BACKOFF_MS: base of the jittered exponential
         backoff between retries, charged to the simulated clock *)
  lock_timeout_ms : float;
      (* PROTEUS_LOCK_TIMEOUT_MS: bound on waiting for a cross-process
         cache entry lock; a timeout is a transient failure. 0 waits
         forever *)
  tier : bool;
      (* PROTEUS_TIER=on: tiered compilation. A cold launch dispatches
         the AOT artifact immediately and the specialized O3 compile
         runs in the background, hot-swapped in via the versioned
         cache before a later launch. Off (the default) keeps the
         paper's block-on-first-launch behaviour *)
  tier_threshold : int;
      (* PROTEUS_TIER_THRESHOLD: launches a specialization key must
         accumulate before it is hot enough to spend a background O3
         compile on (profile-guided gate; minimum 1) *)
  tenant_quota : int;
      (* PROTEUS_TENANT_QUOTA: bytes one tenant may pin in the shared
         memory cache tier before its own LRU entries are evicted;
         0 = unlimited. Only meaningful when a Cachestore is shared
         across tenants (the serve loop) *)
}

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n >= 0 -> n | _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some x when x >= 0.0 -> x
      | _ -> default)
  | None -> default

let env_policy name default =
  match Sys.getenv_opt name with
  | Some s -> Option.value (policy_of_string s) ~default
  | None -> default

(* PROTEUS_VERIFY is a level: booleans keep their historical meaning
   (on = 1) and "2" opts into translation validation. *)
let env_verify_level name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "0" | "false" | "no" | "off" | "" -> 0
      | "1" | "true" | "yes" | "on" -> 1
      | "2" -> 2
      | _ -> default)
  | None -> default

let env_bool name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "1" | "true" | "yes" | "on" -> true
      | "0" | "false" | "no" | "off" | "" -> false
      | _ -> default)
  | None -> default

let default =
  {
    enable_rcf = true;
    enable_lb = true;
    use_mem_cache = true;
    persistent_dir = None;
    fault_plan = [];
    quarantine_threshold = env_int "PROTEUS_QUARANTINE_THRESHOLD" 3;
    quarantine_backoff = env_int "PROTEUS_QUARANTINE_BACKOFF" 16;
    verify_jit = env_verify_level "PROTEUS_VERIFY" 0 >= 1;
    verify_level = env_verify_level "PROTEUS_VERIFY" 0;
    verify_strict = env_bool "PROTEUS_VERIFY_STRICT" false;
    exec_domains = 0;
    spec_policy = env_policy "PROTEUS_SPEC_POLICY" Spec_all;
    spec_threshold =
      env_float "PROTEUS_SPEC_THRESHOLD" Proteus_analysis.Specadvisor.default_threshold;
    stage_deadline_ms = env_float "PROTEUS_STAGE_DEADLINE_MS" 0.0;
    retry_max = env_int "PROTEUS_RETRY_MAX" 2;
    retry_backoff_ms = env_float "PROTEUS_RETRY_BACKOFF_MS" 1.0;
    lock_timeout_ms = env_float "PROTEUS_LOCK_TIMEOUT_MS" 1000.0;
    tier = env_bool "PROTEUS_TIER" false;
    tier_threshold = max 1 (env_int "PROTEUS_TIER_THRESHOLD" 2);
    tenant_quota = env_int "PROTEUS_TENANT_QUOTA" 0;
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
