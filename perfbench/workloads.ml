(* The three workloads. Each is a closed loop driven from one process:
   the next op starts only when the previous one returned. A run is a
   sequence of identical rounds (same seed, same inputs); every round
   sets up from scratch, times a fixed number of ops, then checks their
   outputs. Round lengths are fixed because per-op cost grows with the
   number of launches a context has made: Gpurt.ctx.profiles and
   Stats.profiles keep a record per launch for the life of the context,
   so a longer round would pay for a longer list and a bigger heap.

   hecbench-cold  one op = one paper "Proteus" cell: a HeCBench app on
                  one vendor, run through its host program with a fresh,
                  empty persistent cache directory; 12 ops per round in
                  a seeded order. Set-up is the AOT compile of the 12
                  Proteus executables; the first round's set-up also
                  builds and runs the 12 plain AOT executables whose
                  output every op is checked against. It should show
                  executor and large-kernel compile cost (RSBENCH,
                  SW4CK) and barely show the warm-launch bookkeeping.
   serve-hot      the Serve loop on one serving domain, 4 tenants x 16
                  kernels, a Zipf(1.1) schedule of 20,000 launches;
                  every (tenant, kernel) pair is warmed in set-up, so the
                  timed phase is all cache hits. It should show the
                  warm-launch path (key, lookup, Stats, decoded code, a
                  2-warp kernel, GC) and not compile cost.
   serve-churn    the same loop, 10,000 launches, no warm-up, with a
                  per-tenant memory quota of [churn_resident] entries,
                  sized from one entry measured in set-up so that the
                  miss share (about one launch in nine) is a property of
                  the schedule and not of code size. It should show
                  small-kernel compile cost and cache writes and
                  evictions beside the reads. *)

open Proteus_support
open Proteus_ir
open Proteus_gpu
open Proteus_runtime
open Proteus_core
open Proteus_driver
open Proteus_hecbench

(* One execution of a unit of work a run repeats: a hecbench cell, a
   segment of a serve schedule, or serve-hot's warm-up. [uid] names the
   unit across rounds. Latencies are microseconds, times seconds. *)
type unit_run = {
  uid : int;
  u_factor : float; (* the host factor while it ran, see Hostspeed *)
  u_wall_s : float; (* minus replay work in traced rounds *)
  u_op_s : float array;
  u_hit_us : float array; (* timed-phase JIT launches served from the cache *)
  u_miss_us : float array; (* JIT launches that compiled, set-up included *)
}

(* What one round measured. [counts] must repeat exactly for a seed. *)
type round = {
  setup_s : float;
  setup_factor : float; (* the host factor during set-up *)
  units : unit_run list;
  failed : int;
  counts : (string * float) list;
  gc_minor_words : float;
  gc_major_words : float; (* allocated directly in the major heap *)
  gc_major_collections : int;
  resolved : (string * int) list; (* the workload's shape, for the report *)
}

(* The configuration every JIT in the benchmark runs under, spelled out
   field by field so that no environment variable reaches it (main also
   refuses to start while any PROTEUS_* variable is set). *)
let pinned : Config.t =
  {
    Config.enable_rcf = true;
    enable_lb = true;
    use_mem_cache = true;
    persistent_dir = None;
    fault_plan = [];
    quarantine_threshold = 3;
    quarantine_backoff = 16;
    verify_jit = false;
    verify_level = 0;
    verify_strict = false;
    exec_domains = 0;
    spec_policy = Config.Spec_all;
    spec_threshold = Proteus_analysis.Specadvisor.default_threshold;
    stage_deadline_ms = 0.0;
    retry_max = 2;
    retry_backoff_ms = 1.0;
    lock_timeout_ms = 1000.0;
    tier = false;
    tier_threshold = 2;
    tenant_quota = 0;
  }

(* Per-round running totals. *)
type tally = {
  mutable t_op_s : float list;
  mutable t_hit_us : float list;
  mutable t_miss_us : float list;
  mutable t_warp_instrs : int;
}

let tally () = { t_op_s = []; t_hit_us = []; t_miss_us = []; t_warp_instrs = 0 }
let hits_of a = List.length a.t_hit_us
let misses_of a = List.length a.t_miss_us

let unit_run uid ~factor wall (a : tally) =
  { uid; u_factor = factor; u_wall_s = wall; u_op_s = Array.of_list a.t_op_s;
    u_hit_us = Array.of_list a.t_hit_us; u_miss_us = Array.of_list a.t_miss_us }

let note (a : tally) ~timed (o : Layers.obs) =
  let us = Layers.us o.Layers.span in
  if o.Layers.miss then a.t_miss_us <- us :: a.t_miss_us
  else if timed then a.t_hit_us <- us :: a.t_hit_us;
  if timed then a.t_warp_instrs <- a.t_warp_instrs + o.Layers.warp_instrs

let replay_ns (lt : Layers.t option) =
  match lt with Some lt -> lt.Layers.replay_ns | None -> 0L

(* Host probes in the order they were taken: [between] probes once more
   and gives the host factor of the work since the last probe. *)
type probes = { mutable last : float }

let probes () = { last = Hostspeed.probe () }

let between (p : probes) =
  let now = Hostspeed.probe () in
  let f = Pbstats.host_factor ~reference_s:Hostspeed.reference_s ~before:p.last ~after:now in
  p.last <- now;
  f

(* The same work with its times divided by its host factor. *)
let corrected (u : unit_run) =
  let d = Array.map (fun x -> x /. u.u_factor) in
  { u with u_factor = 1.0; u_wall_s = u.u_wall_s /. u.u_factor; u_op_s = d u.u_op_s;
    u_hit_us = d u.u_hit_us; u_miss_us = d u.u_miss_us }

(* Run the timed phase with GC counters read on either side. *)
let timed_phase (f : unit -> unit) =
  let g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  ( g1.Gc.minor_words -. g0.Gc.minor_words,
    direct g1 -. direct g0,
    g1.Gc.major_collections - g0.Gc.major_collections )

let total_kernel_ms (rt : Gpurt.ctx) = Gpurt.total_kernel_time rt *. 1e3

let cache_evictions (c : Cachestore.t) =
  c.Cachestore.evictions_mem + c.Cachestore.evictions_quota + c.Cachestore.evictions_disk

(* ---- hecbench-cold ----------------------------------------------- *)

type cell = {
  uid : int; (* position in the unshuffled cell list *)
  app : App.t;
  vendor : Device.vendor;
  exe : Driver.exe;
  aot_output : string;
}

let hec_cells (seed : int) : (int * (App.t * Device.vendor)) array =
  let a =
    Array.of_list
      (List.concat_map (fun app -> [ (app, Device.Amd); (app, Device.Nvidia) ]) Suite.apps)
    |> Array.mapi (fun i c -> (i, c))
  in
  let rng = Util.Rng.create seed in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A __jit_launch_kernel call, decoded the way Jit.host_hook does:
   (mid, stub, grid, block, shmem, kernel args..., spec mask). *)
let parse_launch (jit : Jit.t) (h : Hostexec.host_ctx) (args : Konst.t list) :
    Layers.launch option =
  let rt = jit.Jit.rt in
  match args with
  | mid_ptr :: stub :: grid :: block :: _shmem :: (_ :: _ as rest) -> (
      let mid = Hostexec.read_cstring h.Hostexec.host_mem (Konst.as_int mid_ptr) in
      let rev = List.rev rest in
      let int k = Int64.to_int (Konst.as_int k) in
      match Gpurt.sym_of_stub rt (Konst.as_int stub) with
      | Some sym ->
          Some
            (Layers.launch jit ~mid ~sym ~grid:(int grid) ~block:(int block)
               ~args:(Array.of_list (List.rev (List.tl rev)))
               ~mask:(Konst.as_int (List.hd rev)))
      | None -> None)
  | _ -> None

type hec_counts = {
  mutable units : unit_run list;
  mutable hits : int;
  mutable misses : int;
  mutable compiles : int;
  mutable evictions : int;
  mutable all_warp_instrs : int;
  mutable tcode_decodes : int;
  mutable lookups : int;
  mutable sim_ms : float;
  mutable failed : int;
}

(* One cell, run the way Driver.run runs a Proteus executable, with the
   JIT's host hook wrapped so every launch is timed from outside. *)
let hec_op ~(dir : string) (lt : Layers.t option) ~probes ~op ~uid (n : hec_counts) (c : cell)
    : unit =
  let a = tally () in
  let r0 = replay_ns lt in
  let op_t0 = Trace.now () in
  let rt = Gpurt.create (Device.by_vendor c.vendor) in
  ignore (Gpurt.load_module rt c.exe.Driver.fatbin);
  let jit =
    Jit.create ~config:{ pinned with Config.persistent_dir = Some dir } rt c.vendor
  in
  let launch_spans = ref [] and compiled = ref [] and seen = ref [] in
  let exec_replayed = Hashtbl.create 8 in
  let hook h name args =
    if name <> Plugin.entry_point then Jit.host_hook jit h name args
    else begin
      let l = match lt with Some _ -> parse_launch jit h args | None -> None in
      let snap =
        match (lt, l) with
        | Some lt, Some l when not (Hashtbl.mem exec_replayed (Speckey.to_string l.Layers.key)) ->
            let s = Layers.snapshot_if_hit lt jit l in
            if s <> None then Hashtbl.replace exec_replayed (Speckey.to_string l.Layers.key) ();
            s
        | _ -> None
      in
      let r, o = Layers.observe jit (fun () -> Jit.host_hook jit h name args) in
      note a ~timed:true o;
      launch_spans := (o.Layers.t0, Int64.add o.Layers.t0 o.Layers.span) :: !launch_spans;
      (match (lt, l) with
      | Some lt, Some l ->
          Layers.after_launch lt ~op ~name:"jit.launch" jit o l snap;
          seen := l :: !seen;
          if o.Layers.miss then compiled := l :: !compiled
      | _ -> ());
      r
    end
  in
  let run_r0 = replay_ns lt and run_t0 = Trace.now () in
  let r = Hostexec.run ~extra:hook rt c.exe.Driver.host in
  let run_t1 = Trace.now () and run_replay = Int64.sub (replay_ns lt) run_r0 in
  let output_ok =
    r.Hostexec.exit_code = 0 && c.app.App.check r.Hostexec.output
    && r.Hostexec.output = c.aot_output
  in
  let op_t1 = Trace.now () in
  let op_s = Trace.secs (Int64.sub (Int64.sub op_t1 op_t0) (Int64.sub (replay_ns lt) r0)) in
  a.t_op_s <- [ op_s ];
  n.units <- unit_run uid ~factor:(between probes) op_s a :: n.units;
  n.hits <- n.hits + hits_of a;
  n.misses <- n.misses + misses_of a;
  let s = jit.Jit.stats in
  if Pbstats.op_failed ~output_ok ~fallbacks:s.Stats.fallbacks
       ~quarantined:s.Stats.quarantined_launches
  then n.failed <- n.failed + 1;
  n.compiles <- n.compiles + s.Stats.compiles;
  n.evictions <- n.evictions + cache_evictions jit.Jit.cache;
  n.all_warp_instrs <- n.all_warp_instrs + Layers.warp_instrs_of rt rt.Gpurt.launches;
  n.tcode_decodes <- n.tcode_decodes + s.Stats.tcode_decodes;
  n.lookups <- n.lookups + s.Stats.jit_launches;
  n.sim_ms <- n.sim_ms +. total_kernel_ms rt;
  (match lt with
  | Some lt ->
      Trace.add lt.Layers.trace ~op "hecbench.op" op_t0 op_t1;
      Trace.add lt.Layers.trace ~op "hostexec.run" run_t0 run_t1;
      (* the hook's own replay work (memory snapshots) is not host time *)
      Layers.Acc.add lt.Layers.acc "hostexec.self_ms"
        (Trace.secs
           (Int64.sub (Pbstats.self_time ~start:run_t0 ~stop:run_t1 !launch_spans) run_replay)
        *. 1e3);
      List.iter (Layers.replay_compile lt ~op jit) (List.rev !compiled);
      Layers.replay_key_path lt jit.Jit.cache (List.rev !seen);
      Layers.replaying lt (fun () ->
          let t0 = Trace.now () in
          ignore
            (Proteus_frontend.Compile.compile ~name:c.app.App.name
               ~vendor:(Driver.frontend_vendor c.vendor) c.app.App.source);
          Layers.Acc.add lt.Layers.acc "frontend.compile_ms" (Trace.secs (Trace.since t0) *. 1e3))
  | None -> ());
  Harness.rm_rf dir

(* The output of each cell's plain AOT build, the reference every op is
   checked against: computed once per run, in the first round's set-up. *)
let aot_outputs : (string, string) Hashtbl.t = Hashtbl.create 12

let aot_output (app : App.t) vendor =
  let k = app.App.name ^ "/" ^ Serve.backend_name vendor in
  match Hashtbl.find_opt aot_outputs k with
  | Some o -> o
  | None ->
      let aot = Driver.compile ~name:app.App.name ~vendor ~mode:Driver.Aot app.App.source in
      let o = (Driver.run aot).Driver.output in
      Hashtbl.replace aot_outputs k o;
      o

let hecbench_round ~(seed : int) ~(round : int) (lt : Layers.t option) : round =
  let probes = probes () in
  let t0 = Trace.now () in
  let cells =
    Array.map
      (fun (uid, (app, vendor)) ->
        let exe = Driver.compile ~name:app.App.name ~vendor ~mode:Driver.Proteus app.App.source in
        Option.iter
          (fun lt ->
            Layers.Acc.add lt.Layers.acc "driver.compile_ms" (exe.Driver.build_wall_s *. 1e3))
          lt;
        { uid; app; vendor; exe; aot_output = aot_output app vendor })
      (hec_cells seed)
  in
  let setup_s = Trace.secs (Trace.since t0) in
  let setup_factor = between probes in
  let n =
    { units = []; hits = 0; misses = 0; compiles = 0; evictions = 0; all_warp_instrs = 0;
      tcode_decodes = 0; lookups = 0; sim_ms = 0.0; failed = 0 }
  in
  let minor, major, majc =
    timed_phase (fun () ->
        Array.iteri
          (fun i c ->
            let dir = Printf.sprintf ".perfbench/tmp/cache-r%d-%d" round i in
            Harness.rm_rf dir;
            hec_op ~dir lt ~probes ~op:i ~uid:c.uid n c)
          cells)
  in
  {
    setup_s;
    setup_factor;
    units = n.units;
    failed = n.failed;
    counts =
      [
        ("jit.compiles", float_of_int n.compiles);
        ("jit.misses", float_of_int n.misses);
        ("cachestore.evictions", float_of_int n.evictions);
        ("cachestore.hits", float_of_int n.hits);
        ("cachestore.lookups", float_of_int n.lookups);
        ("gpu.warp_instrs", float_of_int n.all_warp_instrs);
        ("gpu.tcode_decodes", float_of_int n.tcode_decodes);
        ("sim.kernel_ms_total", n.sim_ms);
      ];
    gc_minor_words = minor;
    gc_major_words = major;
    gc_major_collections = majc;
    resolved = [ ("ops_per_round", Array.length cells) ];
  }

(* ---- serve-hot / serve-churn ------------------------------------- *)

let serve_tenants = 4
let serve_kernels = 16
let serve_n = 64
let serve_block = 32
let serve_skew = 1.1
let hot_launches = 20_000
let churn_launches = 10_000

(* The schedule is timed in segments of this many launches, each a unit
   of its own (see Pbstats.fastest_half) with probes of the host's speed
   on either side: short enough to follow the host's phases, long enough
   to hold several minor collections, which then count in every
   execution of the segment. *)
let serve_segment = 1_000

(* Entries each tenant may keep resident under serve-churn. With 16
   shared keys and Zipf(1.1), 3 gives a miss share near 11%: 2 gives
   ~54% (the all-launch median then sits in the compile mode) and 4
   under 1%. *)
let churn_resident = 3

let serve_round ~(churn : bool) ~(seed : int) (lt : Layers.t option) : round =
  let probes = probes () in
  let t0 = Trace.now () in
  let launches = if churn then churn_launches else hot_launches in
  let w =
    Proteus_fuzz.Workload.generate ~seed ~tenants:serve_tenants ~kernels:serve_kernels
      ~launches ~skew:serve_skew
  in
  let create config tenants kernels =
    Serve.create ~config ~vendor:Device.Amd ~tenants ~kernels ~n:serve_n ~block:serve_block ()
  in
  let config, quota =
    if churn then begin
      (* one compiled entry's size; the half-entry slack keeps the
         resident count exact although entry sizes differ by a few
         bytes from kernel to kernel *)
      let one = create pinned 1 1 in
      Serve.launch one ~tenant:0 ~kernel:0;
      let entry = Cachestore.mem_size (Serve.store one) in
      let quota = (churn_resident * entry) + (entry / 2) in
      ( { pinned with Config.tenant_quota = quota },
        [ ("entry_bytes", entry); ("quota_entries", churn_resident); ("quota_bytes", quota) ] )
    end
    else (pinned, [ ("quota_bytes", 0) ])
  in
  let sv = create config serve_tenants serve_kernels in
  let warm = tally () in
  let launch tn k =
    Layers.observe (Serve.jit sv ~tenant:tn) (fun () -> Serve.launch sv ~tenant:tn ~kernel:k)
  in
  let launch_of tn k =
    let ks = sv.Serve.sv_kernels.(k) and t = sv.Serve.sv_tenants.(tn) in
    Layers.launch (Serve.jit sv ~tenant:tn) ~mid:ks.Serve.ks_mid ~sym:ks.Serve.ks_sym ~grid:sv.Serve.sv_grid
      ~block:sv.Serve.sv_block
      ~args:
        [| Konst.kint ~bits:64 ks.Serve.ks_a; Konst.kint ~bits:64 t.Serve.tn_x;
           Konst.kint ~bits:64 t.Serve.tn_y; Konst.ki32 sv.Serve.sv_n |]
      ~mask:(Lazy.force Serve.spec_mask)
  in
  (* fallbacks and quarantined launches, per timed launch *)
  let contained = Array.make launches (0, 0) in
  (* a compile is replayed right after its launch, while the quota
     still keeps the entry it is checked against *)
  let traced_launch ~op tn k (o : Layers.obs) snap =
    match lt with
    | Some lt ->
        let jit = Serve.jit sv ~tenant:tn in
        let l = launch_of tn k in
        Layers.after_launch lt ~op ~name:"serve.launch" jit o l snap;
        if o.Layers.miss then Layers.replay_compile lt ~op jit l
    | None -> ()
  in
  let warmup =
    if churn then [||]
    else
      Array.init (serve_tenants * serve_kernels) (fun i ->
          (i / serve_kernels, i mod serve_kernels))
  in
  let w0 = Trace.now () in
  Array.iter
    (fun (tn, k) ->
      let (), o = launch tn k in
      note warm ~timed:false o;
      traced_launch ~op:(-1) tn k o None)
    warmup;
  let warm_s = Trace.secs (Trace.since w0) in
  let setup_s = Trace.secs (Trace.since t0) in
  let setup_factor = between probes in
  let schedule = w.Proteus_fuzz.Workload.schedule in
  let segments = ref [] in
  let exec_replayed = Array.make serve_kernels false in
  let minor, major, majc =
    timed_phase (fun () ->
        for sg = 0 to ((launches + serve_segment - 1) / serve_segment) - 1 do
          let a = tally () in
          let r0 = replay_ns lt and s0 = Trace.now () in
          for op = sg * serve_segment to min launches ((sg + 1) * serve_segment) - 1 do
            let tn, k = schedule.(op) in
            let snap =
              match lt with
              | Some lt when not exec_replayed.(k) ->
                  let s = Layers.snapshot_if_hit lt (Serve.jit sv ~tenant:tn) (launch_of tn k) in
                  if s <> None then exec_replayed.(k) <- true;
                  s
              | _ -> None
            in
            let (), o = launch tn k in
            a.t_op_s <- Trace.secs o.Layers.span :: a.t_op_s;
            note a ~timed:true o;
            contained.(op) <- (o.Layers.fallbacks, o.Layers.quarantined);
            traced_launch ~op tn k o snap
          done;
          let wall = Int64.sub (Trace.since s0) (Int64.sub (replay_ns lt) r0) in
          let u = unit_run (sg + 1) ~factor:(between probes) (Trace.secs wall) a in
          segments := (a, u) :: !segments
        done)
  in
  let total f = List.fold_left (fun acc (a, _) -> acc + f a) 0 !segments in
  Option.iter
    (fun lt ->
      for tn = 0 to serve_tenants - 1 do
        Layers.replay_key_path lt ~owner:(Serve.tenant_name sv ~tenant:tn) (Serve.store sv)
          (Array.to_list w.Proteus_fuzz.Workload.schedule
          |> List.filter_map (fun (t, k) -> if t = tn then Some (launch_of t k) else None))
      done)
    lt;
  (* every tenant's device output must equal a serial single-tenant
     replay of its launches, warm-up included, with an unlimited cache
     (the quota decides what is compiled when, never what is computed);
     a tenant that diverged fails all its ops *)
  Serve.finish sv;
  let all_launches = Array.append warmup schedule in
  let diverged =
    Array.init serve_tenants (fun tn ->
        Serve.output sv ~tenant:tn
        <> Serve.replay_output ~config:pinned ~vendor:Device.Amd sv ~tenant:tn all_launches)
  in
  let failed = ref 0 in
  Array.iteri
    (fun op (tn, _) ->
      let fallbacks, quarantined = contained.(op) in
      if Pbstats.op_failed ~output_ok:(not diverged.(tn)) ~fallbacks ~quarantined then incr failed)
    schedule;
  let tenants = List.init serve_tenants Fun.id in
  let sum f = List.fold_left (fun acc tn -> acc + f (Serve.stats sv ~tenant:tn)) 0 tenants in
  {
    setup_s;
    (* unit 0 is the warm-up, whose compiles are serve-hot's misses; it
       has no timed ops *)
    setup_factor;
    units = unit_run 0 ~factor:setup_factor warm_s warm :: List.map snd !segments;
    failed = !failed;
    counts =
      [
        ("jit.compiles", float_of_int (sum (fun s -> s.Stats.compiles)));
        ("jit.misses", float_of_int (total misses_of));
        ("cachestore.evictions", float_of_int (cache_evictions (Serve.store sv)));
        ("cachestore.hits", float_of_int (total hits_of));
        ("cachestore.lookups", float_of_int launches);
        ("gpu.warp_instrs", float_of_int (total (fun a -> a.t_warp_instrs)));
        ("gpu.tcode_decodes", float_of_int (sum (fun s -> s.Stats.tcode_decodes)));
        ( "sim.kernel_ms_total",
          List.fold_left
            (fun acc tn -> acc +. total_kernel_ms (Serve.jit sv ~tenant:tn).Jit.rt)
            0.0 tenants );
      ];
    gc_minor_words = minor;
    gc_major_words = major;
    gc_major_collections = majc;
    resolved =
      [ ("tenants", serve_tenants); ("kernels", serve_kernels); ("n", serve_n);
        ("block", serve_block); ("schedule_launches", launches);
        ("warmup_launches", if churn then 0 else serve_tenants * serve_kernels) ]
      @ quota;
  }
