(* Concurrency and crash-recovery tests: histogram percentile
   estimation, simulated stage budgets and retry backoff, the store's
   compile-once wait, the persistent frame's reserved words, the
   startup recovery sweep, cache-limit env validation, and multi-domain
   torture runs proving exactly one compile per specialization key with
   stable hit/miss accounting and zero corruption. *)

open Proteus_support
open Proteus_ir
open Proteus_backend
open Proteus_gpu
open Proteus_core

let check = Alcotest.check

let tmpdir () =
  let d = Filename.temp_file "proteus-resil" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let cache_entries dir =
  List.filter
    (fun f ->
      (not (Filename.check_suffix f ".lock"))
      && not (Filename.check_suffix f ".tmp"))
    (Array.to_list (Sys.readdir dir))

let spec_key k =
  Speckey.compute ~mid:"resil" ~sym:(Printf.sprintf "k%d" k) ~spec_values:[]
    ~launch_bounds:None

let dummy_obj k =
  {
    Mach.okind = Mach.VGcn;
    kernels = [];
    oglobals = [];
    sections = [ ("s", Printf.sprintf "payload-%d-%s" k (String.make 64 'x')) ];
  }

(* ---- histogram percentiles ---- *)

let test_hist_empty () =
  let h = Hist.create () in
  check Alcotest.int "count" 0 (Hist.count h);
  check (Alcotest.float 0.0) "p50 of empty" 0.0 (Hist.p50 h);
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Hist.mean h)

let test_hist_uniform_value () =
  (* one repeated value: every percentile is that value exactly,
     because estimates clamp to the observed [min, max] *)
  let h = Hist.create () in
  for _ = 1 to 10 do
    Hist.record h 0.004
  done;
  check (Alcotest.float 1e-12) "p50" 0.004 (Hist.p50 h);
  check (Alcotest.float 1e-12) "p90" 0.004 (Hist.p90 h);
  check (Alcotest.float 1e-12) "p99" 0.004 (Hist.p99 h);
  check (Alcotest.float 1e-12) "mean" 0.004 (Hist.mean h)

let test_hist_percentiles_monotone () =
  let h = Hist.create () in
  for i = 1 to 100 do
    Hist.record h (float_of_int i *. 1e-3)
  done;
  let p50 = Hist.p50 h and p90 = Hist.p90 h and p99 = Hist.p99 h in
  Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
  Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
  (* log2 buckets: estimates are coarse but must stay in range and in
     the right half of the distribution *)
  Alcotest.(check bool) "p50 plausible" true (p50 >= 0.025 && p50 <= 0.1);
  Alcotest.(check bool) "p99 within max" true (p99 <= 0.1);
  check Alcotest.int "count" 100 (Hist.count h)

let test_hist_merge_and_clear () =
  let a = Hist.create () and b = Hist.create () in
  Hist.record a 0.001;
  Hist.record b 0.016;
  Hist.merge ~into:a b;
  check Alcotest.int "merged count" 2 (Hist.count a);
  check (Alcotest.float 1e-12) "merged sum" 0.017 (Hist.sum a);
  Alcotest.(check bool) "p99 tracks max" true (Hist.p99 a <= 0.016 +. 1e-12);
  Hist.clear a;
  check Alcotest.int "cleared" 0 (Hist.count a)

(* ---- stage budgets and backoff ---- *)

(* A JIT whose stages are held to [budget_ms] simulated milliseconds *)
let budget_jit budget_ms =
  let config = { Config.default with Config.stage_deadline_ms = budget_ms } in
  Serve.jit (Serve.create ~config ~tenants:1 ~kernels:1 ()) ~tenant:0

(* A stage charging 2 simulated ms passes with the budget off (0) or
   over its cost. *)
let test_deadline_pass () =
  List.iter
    (fun budget_ms ->
      let jt = budget_jit budget_ms in
      let r =
        Jit.in_stage jt Fault.Optimize (fun () ->
            Jit.charge jt 2e-3;
            5)
      in
      check Alcotest.int (Printf.sprintf "budget %g: result" budget_ms) 5 r;
      check Alcotest.int (Printf.sprintf "budget %g: no overrun" budget_ms) 0
        jt.Jit.stats.Stats.deadline_overruns)
    [ 0.0; 3.0; 10_000.0 ]

(* The same stage under a 1 ms budget: it fails tagged with its stage,
   permanent (the key's next compile costs the same), and counted. *)
let test_deadline_trips () =
  let jt = budget_jit 1.0 in
  match Jit.in_stage jt Fault.Optimize (fun () -> Jit.charge jt 2e-3) with
  | () -> Alcotest.fail "overrun not detected"
  | exception Jit.Stage_failure (Fault.Optimize, (Jit.Over_budget spent_ms as e)) ->
      check (Alcotest.float 1e-9) "simulated ms charged" 2.0 spent_ms;
      Alcotest.(check bool) "permanent" true (Fault.classify_exn e = Fault.Permanent);
      check Alcotest.int "counted" 1 jt.Jit.stats.Stats.deadline_overruns

let test_backoff_schedule () =
  (* rand=0 pins jitter at the 0.5 floor: the schedule is exactly
     base * 2^attempt / 2 until it hits the cap *)
  List.iter
    (fun (attempt, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "attempt %d" attempt)
        expect
        (Jit.backoff_ms ~base_ms:2.0 ~attempt ~rand:0.0 ()))
    [ (0, 1.0); (1, 2.0); (2, 4.0); (3, 8.0) ];
  (* jitter stays within [0.5, 1.0) of the raw delay *)
  let hi = Jit.backoff_ms ~base_ms:2.0 ~attempt:2 ~rand:0.999 () in
  Alcotest.(check bool) "jitter under raw" true (hi < 8.0 && hi >= 4.0);
  (* the cap bounds any attempt count, even absurd ones *)
  check (Alcotest.float 1e-9) "capped" 1000.0
    (Jit.backoff_ms ~base_ms:100.0 ~attempt:10 ~rand:0.9999 ());
  check (Alcotest.float 1e-9) "custom cap" 3.0
    (Jit.backoff_ms ~max_ms:3.0 ~base_ms:100.0 ~attempt:4 ~rand:0.5 ())

(* ---- compile-once ---- *)

let wait_for flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

let test_compile_once_sequential () =
  let c = Cachestore.create () in
  let key = spec_key 0 in
  let e, ran = Cachestore.compile_once c key (fun () -> Cachestore.insert c key (dummy_obj 0)) in
  Alcotest.(check bool) "first call compiles" true ran;
  let e2, ran2 =
    Cachestore.compile_once c key (fun () -> Alcotest.fail "a resident key must not compile")
  in
  Alcotest.(check bool) "second call compiles nothing" false ran2;
  Alcotest.(check bool) "second call returns the resident entry" true (e2 == e)

(* A second caller arrives while the first is compiling: it waits, and
   returns the first caller's entry without running its own [f]. The
   leader holds its compile open 50 ms after the follower starts. *)
let test_compile_once_coalesced () =
  let c = Cachestore.create () in
  let key = spec_key 0 in
  let compiling = Atomic.make false and follower_started = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        Cachestore.compile_once c key (fun () ->
            Atomic.set compiling true;
            wait_for follower_started;
            Unix.sleepf 0.05;
            Cachestore.insert c key (dummy_obj 42)))
  in
  wait_for compiling;
  let follower =
    Domain.spawn (fun () ->
        Atomic.set follower_started true;
        Cachestore.compile_once c key (fun () -> Cachestore.insert c key (dummy_obj 99)))
  in
  let le, lran = Domain.join leader and fe, fran = Domain.join follower in
  Alcotest.(check bool) "leader compiled" true lran;
  Alcotest.(check bool) "follower compiled nothing" false fran;
  Alcotest.(check bool) "follower returns the leader's entry" true (fe == le)

exception Boom

(* The first caller's compile fails while a second waits: the failure
   stays with the first, and the second compiles the key itself. *)
let test_compile_once_failed_leader () =
  let c = Cachestore.create () in
  let key = spec_key 0 in
  let compiling = Atomic.make false and follower_started = Atomic.make false in
  let leader =
    Domain.spawn (fun () ->
        match
          Cachestore.compile_once c key (fun () ->
              Atomic.set compiling true;
              wait_for follower_started;
              Unix.sleepf 0.05;
              raise Boom)
        with
        | _ -> false
        | exception Boom -> true)
  in
  wait_for compiling;
  let follower =
    Domain.spawn (fun () ->
        Atomic.set follower_started true;
        match
          Cachestore.compile_once c key (fun () -> Cachestore.insert c key (dummy_obj 7))
        with
        | r -> Some r
        | exception _ -> None)
  in
  Alcotest.(check bool) "leader sees its own failure" true (Domain.join leader);
  match Domain.join follower with
  | None -> Alcotest.fail "the follower was handed the leader's failure"
  | Some (e, ran) ->
      Alcotest.(check bool) "follower compiled the key itself" true ran;
      Alcotest.(check bool) "its entry is resident" true
        (Cachestore.peek_mem c key = Some e)

(* ---- persistent frame: the two reserved words ---- *)

(* A v3 frame as it was written when its two words after the version
   held a generation counter and a tier tag. *)
let frame_v3 ~(w1 : int) ~(w2 : int) (payload : string) : string =
  let w = Util.Bytesio.W.create () in
  Buffer.add_string w "PJTC";
  List.iter (Util.Bytesio.W.u32 w) [ 3l; Int32.of_int w1; Int32.of_int w2 ];
  Util.Bytesio.W.u64 w (Int64.of_int (String.length payload));
  Util.Bytesio.W.u32 w (Util.Crc32.string payload);
  Buffer.add_string w payload;
  Buffer.contents w

(* A cache file written with a bumped generation (2) and a tier-0 tag
   still loads: the store ignores both words on read. What the store
   writes has the same layout and size, with both words set to 1. *)
let test_reserved_words () =
  let dir = tmpdir () in
  let obj = dummy_obj 7 in
  let payload = Mach.encode_obj obj in
  write_file
    (Filename.concat dir (Speckey.cache_filename (spec_key 7)))
    (frame_v3 ~w1:2 ~w2:0 payload);
  let c = Cachestore.create ~persistent_dir:dir () in
  check Alcotest.int "the sweep keeps the frame" 0 c.Cachestore.corruptions;
  (match Cachestore.lookup c (spec_key 7) with
  | Cachestore.Disk_hit e ->
      Alcotest.(check bool) "same object" true (e.Cachestore.obj = obj)
  | _ -> Alcotest.fail "expected a disk hit");
  check Alcotest.int "no corruption on lookup" 0 c.Cachestore.corruptions;
  rm_rf dir;
  let dir = tmpdir () in
  let c = Cachestore.create ~persistent_dir:dir () in
  ignore (Cachestore.insert c (spec_key 7) obj);
  check Alcotest.string "written frame: reserved words 1, same size"
    (frame_v3 ~w1:1 ~w2:1 payload)
    (In_channel.with_open_bin
       (Filename.concat dir (Speckey.cache_filename (spec_key 7)))
       In_channel.input_all);
  rm_rf dir

(* ---- recovery sweep ---- *)

let test_recovery_sweep () =
  let dir = tmpdir () in
  let c1 = Cachestore.create ~persistent_dir:dir () in
  ignore (Cachestore.insert c1 (spec_key 1) (dummy_obj 1));
  ignore (Cachestore.insert c1 (spec_key 2) (dummy_obj 2));
  (* plant a crashed writer's litter: a tmp owned by a dead pid and a
     lock stamped by the same dead pid (no live holder) *)
  write_file (Filename.concat dir "orphan.99999999.tmp") "partial write";
  write_file (Filename.concat dir "stale.lock") "99999999\n";
  (* and corrupt one real entry in place *)
  let victim =
    match cache_entries dir with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "no entries written"
  in
  write_file victim "this is not a cache entry";
  let c2 = Cachestore.create ~persistent_dir:dir () in
  check Alcotest.int "tmp litter reaped" 1 c2.Cachestore.reaped_tmp;
  check Alcotest.int "stale lock reaped" 1 c2.Cachestore.reaped_locks;
  check Alcotest.int "corrupt entry swept" 1 c2.Cachestore.corruptions;
  Alcotest.(check bool) "tmp gone" false
    (Sys.file_exists (Filename.concat dir "orphan.99999999.tmp"));
  Alcotest.(check bool) "stale lock gone" false
    (Sys.file_exists (Filename.concat dir "stale.lock"));
  Alcotest.(check bool) "corrupt entry gone" false (Sys.file_exists victim);
  (* live locks (stamped by this very process) are left alone *)
  Alcotest.(check bool) "own locks survive" true
    (List.exists
       (fun f -> Filename.check_suffix f ".lock")
       (Array.to_list (Sys.readdir dir)));
  (* the surviving entry still disk-hits *)
  let hit_or_miss k =
    match Cachestore.lookup c2 (spec_key k) with
    | Cachestore.Disk_hit _ -> `Hit
    | Cachestore.Miss -> `Miss
    | Cachestore.Mem_hit _ -> `Hit
  in
  let r1 = hit_or_miss 1 and r2 = hit_or_miss 2 in
  Alcotest.(check bool) "one survivor, one swept" true
    ((r1 = `Hit && r2 = `Miss) || (r1 = `Miss && r2 = `Hit));
  rm_rf dir

let test_env_limit_rejected () =
  let before = Knob.rejections () in
  Unix.putenv "PROTEUS_MEM_CACHE_LIMIT" "-5";
  Unix.putenv "PROTEUS_DISK_CACHE_LIMIT" "lots";
  let c = Cachestore.create () in
  (* reset to the valid "unlimited" spelling for later tests *)
  Unix.putenv "PROTEUS_MEM_CACHE_LIMIT" "0";
  Unix.putenv "PROTEUS_DISK_CACHE_LIMIT" "0";
  check Alcotest.int "both malformed limits rejected" 2 (Knob.rejections () - before);
  check Alcotest.int "fail-safe to unlimited" 0 c.Cachestore.mem_limit;
  (* a well-formed value is accepted silently *)
  let before = Knob.rejections () in
  ignore (Cachestore.create ());
  check Alcotest.int "valid limits accepted" 0 (Knob.rejections () - before)

(* ---- a real entry-lock timeout ---- *)

(* A child process holds one entry's lock with lockf until the parent
   writes to [release] or exits. A later holder inherits an earlier
   one's [release], so closing it is not enough. It is forked while
   this module initialises, because OCaml cannot fork once the tests
   have started domains. *)
let hold_lock entry =
  let ready_r, ready_w = Unix.pipe () in
  let release_r, release_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close ready_r;
      Unix.close release_w;
      let fd = Unix.openfile (Cachestore.lock_path entry) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
      Unix.lockf fd Unix.F_LOCK 0;
      ignore (Unix.write_substring ready_w "!" 0 1);
      (* returns once the parent writes or exits *)
      ignore (Unix.read release_r (Bytes.create 1) 0 1);
      Unix._exit 0
  | pid ->
      Unix.close ready_w;
      Unix.close release_r;
      (pid, ready_r, release_w)

let lock_dir = tmpdir ()
let () = at_exit (fun () -> rm_rf lock_dir)

let lock_store =
  Cachestore.create ~persistent_dir:lock_dir ~mem_limit:0 ~disk_limit:0
    ~lock_timeout_ms:20.0 ()

let lock_key = spec_key 99
let lock_entry = Option.get (Cachestore.path_for lock_store lock_key)
let lock_holder = hold_lock lock_entry

(* A second holder, for an insert that waits on the lock from another
   domain. *)
let stall_dir = tmpdir ()
let () = at_exit (fun () -> rm_rf stall_dir)
let stall_timeout_ms = 1000.0

let stall_store =
  Cachestore.create ~persistent_dir:stall_dir ~mem_limit:0 ~disk_limit:0
    ~lock_timeout_ms:stall_timeout_ms ()

let stall_key = spec_key 98
let stall_holder = hold_lock (Option.get (Cachestore.path_for stall_store stall_key))

let test_lock_timeout () =
  let pid, ready, release = lock_holder in
  check Alcotest.int "holder has the lock" 1 (Unix.read ready (Bytes.create 1) 0 1);
  (match Cachestore.insert lock_store lock_key (dummy_obj 99) with
  | _ -> Alcotest.fail "insert went ahead under another process's lock"
  | exception (Fault.Lock_timeout (lock, waited_ms) as e) ->
      check Alcotest.string "names the entry's lock" (Cachestore.lock_path lock_entry) lock;
      Alcotest.(check bool) "waited past the timeout" true (waited_ms > 20.0);
      Alcotest.(check bool) "transient" true (Fault.classify_exn e = Fault.Transient));
  Alcotest.(check bool) "no file under the entry's name" false (Sys.file_exists lock_entry);
  check Alcotest.(list string) "only the lock file on disk"
    [ Filename.basename (Cachestore.lock_path lock_entry) ]
    (Array.to_list (Sys.readdir lock_dir));
  ignore (Unix.write_substring release "!" 0 1);
  Unix.close release;
  ignore (Unix.waitpid [] pid);
  Unix.close ready

(* An insert waiting on another process's entry lock holds no store
   lock: its memory-tier entry shows at once, and a lookup of another
   resident key returns well inside the lock timeout. *)
let test_lookup_during_lock_wait () =
  let pid, ready, release = stall_holder in
  check Alcotest.int "holder has the lock" 1 (Unix.read ready (Bytes.create 1) 0 1);
  let resident = spec_key 97 in
  ignore (Cachestore.insert stall_store resident (dummy_obj 97));
  let t0 = Unix.gettimeofday () in
  let inserter =
    Domain.spawn (fun () ->
        match Cachestore.insert stall_store stall_key (dummy_obj 98) with
        | _ -> false
        | exception Fault.Lock_timeout _ -> true)
  in
  while Cachestore.peek_mem stall_store stall_key = None do
    Domain.cpu_relax ()
  done;
  let hit =
    match Cachestore.lookup stall_store resident with Cachestore.Mem_hit _ -> true | _ -> false
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check bool) "resident key hits" true hit;
  Alcotest.(check bool)
    (Printf.sprintf "lookup back after %.1f ms of a %.0f ms lock timeout" ms stall_timeout_ms)
    true
    (ms < stall_timeout_ms /. 4.0);
  Alcotest.(check bool) "the waiting insert timed out" true (Domain.join inserter);
  ignore (Unix.write_substring release "!" 0 1);
  Unix.close release;
  ignore (Unix.waitpid [] pid);
  Unix.close ready

(* ---- multi-domain torture ---- *)

let nkeys = 16
let rounds = 200
let ndomains = 4

let test_torture () =
  let dir = tmpdir () in
  let c = Cachestore.create ~persistent_dir:dir () in
  let compiles = Array.init nkeys (fun _ -> Atomic.make 0) in
  let ran = Atomic.make 0 in
  let worker wid () =
    let rng = Util.Rng.create (0xBEEF + wid) in
    for r = 0 to rounds - 1 do
      (* every worker covers every key, plus random repeats *)
      let k = if r < nkeys then r else Util.Rng.int rng nkeys in
      let key = spec_key k in
      match Cachestore.lookup c key with
      | Cachestore.Mem_hit _ | Cachestore.Disk_hit _ -> ()
      | Cachestore.Miss ->
          let _, compiled =
            Cachestore.compile_once c key (fun () ->
                Atomic.incr compiles.(k);
                Cachestore.insert c key (dummy_obj k))
          in
          if compiled then Atomic.incr ran
    done
  in
  let domains = List.init ndomains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  (* exactly one compile per key, despite 4 domains racing on misses *)
  Array.iteri
    (fun k n ->
      check Alcotest.int (Printf.sprintf "key %d compiled exactly once" k) 1
        (Atomic.get n))
    compiles;
  check Alcotest.int "flight leads + cache hits conserve work" nkeys
    (Array.fold_left (fun acc a -> acc + Atomic.get a) 0 compiles);
  (* hit/miss accounting stays conserved under concurrency *)
  check Alcotest.int "lookups = hits + misses" (ndomains * rounds)
    (c.Cachestore.mem_hits + c.Cachestore.disk_hits + c.Cachestore.misses);
  check Alcotest.int "compile_once reports each compile once" nkeys (Atomic.get ran);
  (* nothing corrupted, nothing leaked: a fresh store sweeps nothing
     and disk-hits every key *)
  let c2 = Cachestore.create ~persistent_dir:dir () in
  check Alcotest.int "no corruption" 0 c2.Cachestore.corruptions;
  check Alcotest.int "no tmp litter" 0 c2.Cachestore.reaped_tmp;
  check Alcotest.int "no stale locks" 0 c2.Cachestore.reaped_locks;
  check Alcotest.int "one entry file per key" nkeys
    (List.length (cache_entries dir));
  for k = 0 to nkeys - 1 do
    match Cachestore.lookup c2 (spec_key k) with
    | Cachestore.Disk_hit _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "key %d must disk-hit after the run" k)
  done;
  rm_rf dir

(* Two JITs created on one store, with nothing else shared, race over
   the same keys on 2 domains: the store's own flight table makes each
   key compile once, on each of 5 runs. The JITs launch on the runtime
   contexts of a two-tenant Serve (its device buffers and loaded
   object); 8 kernels x 2 specialized values give 16 keys. *)
let test_two_jits_one_store () =
  let kernels = 8 and values = [| 2L; 3L |] in
  let nkeys = kernels * Array.length values in
  for rep = 1 to 5 do
    let sv = Serve.create ~tenants:2 ~kernels () in
    let store = Cachestore.create () in
    let config = { Config.default with Config.exec_domains = 1 } in
    let worker tn () =
      let t = sv.Serve.sv_tenants.(tn) in
      let jit = Jit.create ~config ~cache:store t.Serve.tn_rt Device.Amd in
      let rng = Util.Rng.create (rep * 7 + tn) in
      for r = 0 to (2 * nkeys) - 1 do
        let key = if r < nkeys then (r + (tn * 5)) mod nkeys else Util.Rng.int rng nkeys in
        let ks = sv.Serve.sv_kernels.(key mod kernels) in
        Jit.launch jit ~mid:ks.Serve.ks_mid ~sym:ks.Serve.ks_sym ~grid:sv.Serve.sv_grid
          ~block:sv.Serve.sv_block
          ~args:
            [|
              Konst.kint ~bits:64 values.(key / kernels);
              Konst.kint ~bits:64 t.Serve.tn_x;
              Konst.kint ~bits:64 t.Serve.tn_y;
              Konst.ki32 sv.Serve.sv_n;
            |]
          ~spec_mask:(Lazy.force Serve.spec_mask)
      done;
      jit.Jit.stats
    in
    let domains = List.init 2 (fun tn -> Domain.spawn (worker tn)) in
    let stats = List.map Domain.join domains in
    check Alcotest.int
      (Printf.sprintf "run %d: one compile per key" rep)
      nkeys
      (List.fold_left (fun acc s -> acc + s.Stats.compiles) 0 stats);
    check Alcotest.int
      (Printf.sprintf "run %d: no fallback" rep)
      0
      (List.fold_left (fun acc s -> acc + s.Stats.fallbacks) 0 stats)
  done

(* Tiered torture: 4 domains serve 4 tenants with tiering on, over one
   shared store with a persistent directory. Misses are served tier-0,
   and each tenant's JIT runs the tier-up compiles it armed at its own
   launch boundaries. Oracles, on each of 5 runs of a uniform 16-kernel
   workload: exactly one compile per kernel across every tenant, every
   tenant's output bit-identical to a serial single-tenant replay, and
   a recovery sweep over the directory that finds no corruption. *)
let test_tiered_torture () =
  let module Workload = Proteus_fuzz.Workload in
  let tenants = 4 and kernels = 16 in
  let w = Workload.generate ~seed:5 ~tenants ~kernels ~launches:2000 ~skew:0.0 in
  let config = { Config.default with Config.tier = true } in
  let replay = Serve.create ~config ~tenants ~kernels () in
  let expected =
    Array.init tenants (fun tn -> Serve.replay_output ~config replay ~tenant:tn w.Workload.schedule)
  in
  for rep = 1 to 5 do
    let dir = tmpdir () in
    let sv =
      Serve.create ~config:{ config with Config.persistent_dir = Some dir } ~tenants ~kernels ()
    in
    Serve.run_sharded sv ~domains:ndomains w.Workload.schedule;
    Serve.finish sv;
    check Alcotest.int
      (Printf.sprintf "run %d: one compile per kernel" rep)
      kernels (Serve.total sv).Serve.to_compiles;
    Array.iteri
      (fun tn out ->
        check Alcotest.string
          (Printf.sprintf "run %d: tenant %d output = serial replay" rep tn)
          out (Serve.output sv ~tenant:tn))
      expected;
    let swept = Cachestore.create ~persistent_dir:dir () in
    check Alcotest.int (Printf.sprintf "run %d: no corruption" rep) 0
      swept.Cachestore.corruptions;
    rm_rf dir
  done

(* Multi-tenant serve torture: 4 domains serve 4 tenants over ONE
   shared content-addressed store and single-flight table, driven by a
   seeded Zipf workload. Oracles: exactly one compile per content hash
   across every tenant (the shared flight dedupes cross-tenant misses);
   every tenant's output bit-identical to a serial single-tenant replay
   of its launch stream in a fresh private universe; and the persistent
   tier survives the concurrent run with zero corruption — a second
   service over the same directory recompiles nothing. *)
let test_serve_torture () =
  let module Workload = Proteus_fuzz.Workload in
  let dir = tmpdir () in
  let config = { Config.default with Config.persistent_dir = Some dir } in
  let tenants = 4 and kernels = 10 in
  let w =
    Workload.generate ~seed:77 ~tenants ~kernels ~launches:4_000 ~skew:1.1
  in
  let sum_compiles sv =
    let acc = ref 0 in
    for tn = 0 to tenants - 1 do
      acc := !acc + (Serve.stats sv ~tenant:tn).Stats.compiles
    done;
    !acc
  in
  let sv = Serve.create ~config ~tenants ~kernels () in
  Serve.run_sharded sv ~domains:4 w.Workload.schedule;
  Serve.finish sv;
  (* exactly one compile per content hash, all tenants combined *)
  let distinct =
    List.length
      (List.sort_uniq compare (List.map snd (Array.to_list w.Workload.schedule)))
  in
  check Alcotest.int "one compile per content hash across 4 tenants" distinct
    (sum_compiles sv);
  check Alcotest.int "every launch served" w.Workload.launches
    (let acc = ref 0 in
     for tn = 0 to tenants - 1 do
       acc := !acc + (Serve.stats sv ~tenant:tn).Stats.jit_launches
     done;
     !acc);
  (* bit-identical to a serial single-tenant replay in a fresh private
     universe (memory-only: nothing shared with the concurrent run) *)
  let replay_config = { config with Config.persistent_dir = None } in
  for tn = 0 to tenants - 1 do
    check Alcotest.string
      (Printf.sprintf "tenant %d output = serial replay" tn)
      (Serve.replay_output ~config:replay_config sv ~tenant:tn
         w.Workload.schedule)
      (Serve.output sv ~tenant:tn)
  done;
  (* recovery sweep over the shared directory finds a clean cache... *)
  let store2 = Cachestore.create ~persistent_dir:dir () in
  check Alcotest.int "no corruption after concurrent run" 0
    store2.Cachestore.corruptions;
  check Alcotest.int "no tmp litter" 0 store2.Cachestore.reaped_tmp;
  (* ...and a second service over it compiles nothing at all *)
  let sv2 = Serve.create ~config ~tenants ~kernels ~store:store2 () in
  Serve.run sv2 w.Workload.schedule;
  Serve.finish sv2;
  check Alcotest.int "warm persistent tier: zero recompiles" 0 (sum_compiles sv2);
  check Alcotest.int "zero corruptions reading every artifact back" 0
    store2.Cachestore.corruptions;
  for tn = 0 to tenants - 1 do
    check Alcotest.string
      (Printf.sprintf "tenant %d output reproduced from disk" tn)
      (Serve.output sv ~tenant:tn)
      (Serve.output sv2 ~tenant:tn)
  done;
  rm_rf dir

let () =
  Alcotest.run "resilience"
    [
      ( "hist",
        [
          Alcotest.test_case "empty histogram" `Quick test_hist_empty;
          Alcotest.test_case "uniform value is exact" `Quick test_hist_uniform_value;
          Alcotest.test_case "percentiles monotone and in range" `Quick
            test_hist_percentiles_monotone;
          Alcotest.test_case "merge and clear" `Quick test_hist_merge_and_clear;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "pass and disabled" `Quick test_deadline_pass;
          Alcotest.test_case "overrun raises" `Quick test_deadline_trips;
          Alcotest.test_case "backoff schedule, jitter, cap" `Quick
            test_backoff_schedule;
        ] );
      ( "compile",
        [
          Alcotest.test_case "second call compiles nothing" `Quick
            test_compile_once_sequential;
          Alcotest.test_case "follower waits for the open compile" `Quick
            test_compile_once_coalesced;
          Alcotest.test_case "failed leader: follower compiles" `Quick
            test_compile_once_failed_leader;
        ] );
      ( "cachestore",
        [
          Alcotest.test_case "reserved frame words ignored on read" `Quick
            test_reserved_words;
          Alcotest.test_case "recovery sweep reaps crash litter" `Quick
            test_recovery_sweep;
          Alcotest.test_case "malformed cache limits rejected" `Quick
            test_env_limit_rejected;
          Alcotest.test_case "a held entry lock times out, transient" `Quick
            test_lock_timeout;
          Alcotest.test_case "lookups go on while an insert waits on a lock" `Quick
            test_lookup_during_lock_wait;
        ] );
      ( "torture",
        [
          Alcotest.test_case "4 domains, one compile per key, no corruption"
            `Quick test_torture;
          Alcotest.test_case "tiered serve: one compile per kernel"
            `Quick test_tiered_torture;
          Alcotest.test_case
            "serve: 4 domains x 4 tenants, one compile per content hash, \
             replay-identical, no corruption"
            `Quick test_serve_torture;
          Alcotest.test_case "two Jits on one store: one compile per key"
            `Quick test_two_jits_one_store;
        ] );
    ]
