(* Runtime statistics of the Proteus JIT library: cache behaviour,
   compilation overhead (simulated and real), code-cache sizes, the
   fault-containment ledger (AOT fallbacks, failures by JIT stage,
   quarantine activity, cache corruption), and the resilience ledger
   (compile-once waits, transient retries, stage-budget overruns, the
   disk-full degrade) with p50/p90/p99 latency histograms. *)

open Proteus_support

type t = {
  mutable jit_launches : int;
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable compiles : int;
  mutable jit_overhead_s : float; (* simulated seconds spent off the critical kernel path *)
  mutable real_compile_s : float; (* actual wall-clock of our pipeline *)
  (* decoded-code cache tier: threaded-code programs attached to code
     cache entries; a hit skips decoding on a warm launch *)
  mutable tcode_decodes : int;
  mutable tcode_hits : int;
  (* fault containment *)
  mutable fallbacks : int; (* launches that completed on the AOT kernel after a JIT failure *)
  failures_by_stage : (string, int) Hashtbl.t; (* stage name -> count *)
  mutable quarantine_events : int; (* times a kernel entered quarantine *)
  mutable quarantined_launches : int; (* launches that skipped JIT because of quarantine *)
  mutable quarantine_retries : int; (* JIT retries after a quarantine backoff expired *)
  mutable cache_corruptions : int; (* corrupt/truncated persistent entries discarded *)
  mutable host_hook_errors : int; (* malformed launch calls / unregistered stubs *)
  mutable verify_rejections : int;
      (* launches the PROTEUS_VERIFY gate sent to the AOT kernel because
         post-specialize/post-O3 IR failed verification or KernelSan *)
  (* translation validation (PROTEUS_VERIFY=2): per kernel-pair verdicts
     and wall-clock validation latency *)
  mutable tv_proven : int;
  mutable tv_unproven : int;
  mutable tv_refuted : int;
  tv_hist : Hist.t; (* seconds per validated pair *)
  (* specialization policy (SpecAdvisor) *)
  mutable spec_skipped_args : int;
      (* annotated argument values dropped from specialization keys by
         the active policy (advise: below-threshold; none: all) *)
  mutable advise_time_s : float; (* wall-clock spent in SpecAdvisor at JIT time *)
  cache_entries_by_policy : (string, int) Hashtbl.t;
      (* policy name -> code-cache entries inserted under that policy *)
  (* resilience: compile-once, retries, stage budgets, disk-full *)
  mutable flight_leads : int; (* cache-miss compiles this process ran *)
  mutable flight_suppressed : int; (* misses served by another launch's compile *)
  mutable retries : int; (* launch re-attempts after a transient failure *)
  mutable retry_successes : int; (* launches that succeeded on a retry *)
  mutable deadline_overruns : int;
      (* stages that charged more simulated time than Config.stage_deadline_ms *)
  mutable disk_degrades : int; (* times the persistent cache tier was dropped *)
  mutable lock_waits : int; (* cross-process cache entry-lock acquisitions *)
  mutable lock_contended : int; (* acquisitions that had to wait *)
  launch_hist : Hist.t; (* per-launch simulated JIT overhead (deterministic) *)
  (* tiered compilation: profile-guided background O3 *)
  mutable tier_launches : int; (* launches served from the tier-0 artifact *)
  mutable tierups : int; (* background O3 compiles published *)
  mutable tierup_failures : int; (* contained background-compile failures *)
  mutable tier_compile_s : float;
      (* simulated seconds of background compilation - spent off the
         launch critical path, never charged to the shared clock *)
  mutable first_launch_s : float; (* overhead of the first JIT launch; nan until set *)
  mutable steady_launch_s : float; (* overhead of the most recent JIT launch *)
  swap_hist : Hist.t; (* simulated arm -> publish latency per tier-up *)
  profiles : (string, int ref) Hashtbl.t;
      (* spec key -> launches; feeds the Config.tier_threshold hot-key
         gate *)
  kernel_launches : (string, int ref) Hashtbl.t;
      (* (mid/sym) -> launches; feeds the adaptive SpecAdvisor threshold *)
}

let create () =
  {
    jit_launches = 0; mem_hits = 0; disk_hits = 0; compiles = 0; jit_overhead_s = 0.0;
    real_compile_s = 0.0;
    tcode_decodes = 0; tcode_hits = 0;
    fallbacks = 0; failures_by_stage = Hashtbl.create 8; quarantine_events = 0;
    quarantined_launches = 0; quarantine_retries = 0; cache_corruptions = 0;
    host_hook_errors = 0; verify_rejections = 0;
    tv_proven = 0; tv_unproven = 0; tv_refuted = 0; tv_hist = Hist.create ();
    spec_skipped_args = 0; advise_time_s = 0.0;
    cache_entries_by_policy = Hashtbl.create 4;
    flight_leads = 0; flight_suppressed = 0; retries = 0; retry_successes = 0;
    deadline_overruns = 0; disk_degrades = 0;
    lock_waits = 0; lock_contended = 0;
    launch_hist = Hist.create ();
    tier_launches = 0; tierups = 0; tierup_failures = 0; tier_compile_s = 0.0;
    first_launch_s = nan; steady_launch_s = nan;
    swap_hist = Hist.create ();
    profiles = Hashtbl.create 16;
    kernel_launches = Hashtbl.create 8;
  }

(* ---- launch counts: per spec key and per (mid/sym) kernel ---- *)

let bump tbl k =
  match Hashtbl.find_opt tbl k with
  | Some n -> incr n
  | None -> Hashtbl.add tbl k (ref 1)

let count tbl k = match Hashtbl.find_opt tbl k with Some n -> !n | None -> 0
let record_key_launch t key = bump t.profiles key
let key_launches t key = count t.profiles key
let profiled_keys t = Hashtbl.length t.profiles
let record_kernel_launch t k = bump t.kernel_launches k
let kernel_launch_count t k = count t.kernel_launches k

let record_launch_overhead t (seconds : float) =
  if Float.is_nan t.first_launch_s then t.first_launch_s <- seconds;
  t.steady_launch_s <- seconds

let record_cache_entry t policy =
  let n = Option.value (Hashtbl.find_opt t.cache_entries_by_policy policy) ~default:0 in
  Hashtbl.replace t.cache_entries_by_policy policy (n + 1)

let cache_entries_for t policy =
  Option.value (Hashtbl.find_opt t.cache_entries_by_policy policy) ~default:0

let cache_entries_total t =
  Hashtbl.fold (fun _ n acc -> acc + n) t.cache_entries_by_policy 0

let record_failure t stage =
  let n = Option.value (Hashtbl.find_opt t.failures_by_stage stage) ~default:0 in
  Hashtbl.replace t.failures_by_stage stage (n + 1)

let failures_total t = Hashtbl.fold (fun _ n acc -> acc + n) t.failures_by_stage 0

let stage_failures t =
  Hashtbl.fold (fun s n acc -> (s, n) :: acc) t.failures_by_stage []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The printable ledger as ordered key/value pairs. Segments whose
   counters are all zero are omitted so the quiet case stays short;
   within a segment every field always prints, so the same fields
   always appear in the same order and "column" across runs (the old
   hand-rolled printer drifted: mixed millisecond precisions and
   fields that appeared conditionally mid-line). *)
let to_pairs s =
  let ms x = Printf.sprintf "%.3fms" (x *. 1e3) in
  let base =
    [
      ("launches", string_of_int s.jit_launches);
      ("mem-hits", string_of_int s.mem_hits);
      ("disk-hits", string_of_int s.disk_hits);
      ("compiles", string_of_int s.compiles);
      ("overhead", ms s.jit_overhead_s);
      ("real-compile", ms s.real_compile_s);
      ("tcode-hits", string_of_int s.tcode_hits);
      ("tcode-decodes", string_of_int s.tcode_decodes);
    ]
  in
  let faults =
    if failures_total s = 0 && s.fallbacks = 0 && s.cache_corruptions = 0
       && s.host_hook_errors = 0 && s.quarantined_launches = 0
       && s.quarantine_events = 0 && s.verify_rejections = 0
    then []
    else
      [
        ("fallbacks", string_of_int s.fallbacks);
        ( "failures",
          "["
          ^ String.concat ","
              (List.map (fun (st, n) -> Printf.sprintf "%s:%d" st n) (stage_failures s))
          ^ "]" );
        ("quarantine-events", string_of_int s.quarantine_events);
        ("quarantined-launches", string_of_int s.quarantined_launches);
        ("quarantine-retries", string_of_int s.quarantine_retries);
        ("cache-corruptions", string_of_int s.cache_corruptions);
        ("host-hook-errors", string_of_int s.host_hook_errors);
        ("verify-rejections", string_of_int s.verify_rejections);
      ]
  in
  let policy =
    if s.spec_skipped_args = 0 && s.advise_time_s = 0.0
       && Hashtbl.length s.cache_entries_by_policy = 0
    then []
    else
      [
        ("spec-skipped-args", string_of_int s.spec_skipped_args);
        ("advise-time", ms s.advise_time_s);
        ( "cache-entries",
          "["
          ^ String.concat ","
              (Hashtbl.fold (fun p n acc -> (p, n) :: acc) s.cache_entries_by_policy []
              |> List.sort compare
              |> List.map (fun (p, n) -> Printf.sprintf "%s:%d" p n))
          ^ "]" );
      ]
  in
  let resilience =
    if s.flight_leads = 0 && s.flight_suppressed = 0 && s.retries = 0
       && s.deadline_overruns = 0 && s.disk_degrades = 0
       && Knob.rejections () = 0 && s.lock_waits = 0
    then []
    else
      [
        ("flight-leads", string_of_int s.flight_leads);
        ("flight-suppressed", string_of_int s.flight_suppressed);
        ("retries", string_of_int s.retries);
        ("retry-successes", string_of_int s.retry_successes);
        ("deadline-overruns", string_of_int s.deadline_overruns);
        ("disk-degrades", string_of_int s.disk_degrades);
        ("env-rejections", string_of_int (Knob.rejections ()));
        ("lock-waits", string_of_int s.lock_waits);
        ("lock-contended", string_of_int s.lock_contended);
      ]
  in
  let tier =
    if s.tier_launches = 0 && s.tierups = 0 && s.tierup_failures = 0 then []
    else
      [
        ("tier-launches", string_of_int s.tier_launches);
        ("tierups", string_of_int s.tierups);
        ("tierup-failures", string_of_int s.tierup_failures);
        ("tier-compile", ms s.tier_compile_s);
        ( "swap-latency-p50",
          if Hist.count s.swap_hist = 0 then "n/a" else ms (Hist.p50 s.swap_hist) );
        ( "first-launch",
          if Float.is_nan s.first_launch_s then "n/a" else ms s.first_launch_s );
        ( "steady-launch",
          if Float.is_nan s.steady_launch_s then "n/a" else ms s.steady_launch_s );
        ("profiled-keys", string_of_int (profiled_keys s));
      ]
  in
  let transval =
    if s.tv_proven = 0 && s.tv_unproven = 0 && s.tv_refuted = 0 then []
    else
      [
        ("tv-proven", string_of_int s.tv_proven);
        ("tv-unproven", string_of_int s.tv_unproven);
        ("tv-refuted", string_of_int s.tv_refuted);
        ( "tv-p50",
          if Hist.count s.tv_hist = 0 then "n/a" else ms (Hist.p50 s.tv_hist) );
        ( "tv-p99",
          if Hist.count s.tv_hist = 0 then "n/a" else ms (Hist.p99 s.tv_hist) );
      ]
  in
  let analysis =
    let nh = Proteus_analysis.Normalize.cache_hits ()
    and nm = Proteus_analysis.Normalize.cache_misses () in
    if nh = 0 && nm = 0 then []
    else
      [
        ("normalize-hits", string_of_int nh);
        ("normalize-misses", string_of_int nm);
      ]
  in
  let latency =
    if Hist.count s.launch_hist = 0 then []
    else
      [
        ("overhead-p50", ms (Hist.p50 s.launch_hist));
        ("overhead-p90", ms (Hist.p90 s.launch_hist));
        ("overhead-p99", ms (Hist.p99 s.launch_hist));
      ]
  in
  base @ faults @ transval @ analysis @ policy @ resilience @ tier @ latency

let to_string s =
  "jit " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (to_pairs s))

(* ---- hit rate (multi-tenant serve) ------------------------------- *)

(* Cache hit rate over this ledger's launches: both cache tiers count
   as hits; tier-0 serves and misses do not. 0 when nothing launched. *)
let hit_rate s : float =
  if s.jit_launches = 0 then 0.0
  else float_of_int (s.mem_hits + s.disk_hits) /. float_of_int s.jit_launches
