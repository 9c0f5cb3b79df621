(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs a fixed number of rounds of one workload (see workloads.ml),
   about S seconds of timed work on a quiet host, checks every op's
   output, and prints as its last line {"correct", "attempted",
   "failed", "metrics"}. Every round repeats the same units of work; the
   metrics pool the fastest half of each unit's executions
   (Pbstats.fastest_half), and times are divided by the host factor
   read from probes taken between units (Hostspeed). With --trace 0 the
   metrics are the end-to-end ones, measured with nothing but a clock
   read around each op and launch. With --trace 1 untraced and traced
   rounds alternate; the traced ones record spans, replay the layers in
   isolation and give the per-layer metrics, and comparing the two kinds
   of round gives the tracing overhead. The line before the last is a
   report: seed, host, host factor, resolved configuration, sample
   counts, the exact counts, the uncorrected times and the metrics that
   only some workloads have.

   Files go to .perfbench/ in the working directory: per-op persistent
   cache directories (removed after each op), the exact counts of each
   (workload, seed, executable), and the traced run's Chrome trace. *)

open Proteus_support

let workloads = [ "hecbench-cold"; "serve-hot"; "serve-churn" ]
let state_dir = ".perfbench"

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1)
    fmt

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", seconds, trace = 1)

(* Config.default and the cache store read PROTEUS_* variables at
   start-up; a stray one would silently change what is measured. *)
let refuse_proteus_env () =
  Array.iter
    (fun kv ->
      if String.length kv >= 8 && String.sub kv 0 8 = "PROTEUS_" then
        fail "refusing to run with %s set: the benchmark pins its own configuration"
          (List.hd (String.split_on_char '=' kv)))
    (Unix.environment ())

(* The high-water mark is reset before every round, so each round reads
   its own peak. *)
let reset_peak_rss () =
  Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
  in
  go ()

(* ---- samples ------------------------------------------------------ *)

(* The unit executions a run's metrics are computed from: the fastest
   half of each unit's executions (see Pbstats.fastest_half), with their
   times divided by their host factors unless [raw]. *)
let kept ?(raw = false) (rounds : Workloads.round list) : Workloads.unit_run list =
  Pbstats.fastest_half
    (List.concat_map
       (fun (r : Workloads.round) ->
         List.map
           (fun (u : Workloads.unit_run) ->
             let u = if raw then u else Workloads.corrected u in
             (u.Workloads.uid, u.Workloads.u_wall_s, u))
           r.Workloads.units)
       rounds)

let pool f (us : Workloads.unit_run list) = Array.concat (List.map f us)
let ops_of (us : Workloads.unit_run list) =
  List.fold_left (fun acc u -> acc + Array.length u.Workloads.u_op_s) 0 us
let ops_per_s us =
  let timed = List.filter (fun u -> u.Workloads.u_op_s <> [||]) us in
  float_of_int (ops_of timed)
  /. List.fold_left (fun acc u -> acc +. u.Workloads.u_wall_s) 0.0 timed
let all_units (rounds : Workloads.round list) =
  List.concat_map (fun (r : Workloads.round) -> r.Workloads.units) rounds
let hits (u : Workloads.unit_run) = u.Workloads.u_hit_us
let misses (u : Workloads.unit_run) = u.Workloads.u_miss_us

(* ---- rounds ------------------------------------------------------- *)

let run_round workload ~seed ~round lt =
  match workload with
  | "hecbench-cold" -> Workloads.hecbench_round ~seed ~round lt
  | "serve-hot" -> Workloads.serve_round ~churn:false ~seed lt
  | _ -> Workloads.serve_round ~churn:true ~seed lt

(* Rounds per run for each ten seconds asked for: about that much timed
   work per run on a quiet host. The count is fixed, not read off a
   clock, so a run is the same work however fast the host is, and what
   a run keeps in memory (its samples) does not grow with the speed of
   the program. Seven hecbench-cold rounds give each cell three kept
   executions. *)
let rounds_per_10s = function "hecbench-cold" -> 7 | "serve-hot" -> 30 | _ -> 16

type run = {
  plain : Workloads.round list;
  traced : Workloads.round list;
  rss_mb : float list; (* peak resident memory of each untraced round *)
  lt : Layers.t;
}

(* With tracing, untraced and traced rounds alternate. The guard keeps a
   badly slowed host inside the time a run may take. *)
let run_rounds workload ~seed ~seconds ~traced : run =
  let n = max 5 (rounds_per_10s workload * seconds / 10) in
  let lt = Layers.create () in
  let t0 = Unix.gettimeofday () in
  let plain = ref [] and traced_rounds = ref [] and rss = ref [] in
  for i = 0 to n - 1 do
    if Unix.gettimeofday () -. t0 > 150.0 then fail "the host is too slow to finish the run";
    let use_trace = traced && i mod 2 = 1 in
    if use_trace then Trace.clear lt.Layers.trace;
    (* every round starts from a compacted heap, so no round pays for
       the garbage of the one before it *)
    Gc.compact ();
    reset_peak_rss ();
    let r = run_round workload ~seed ~round:i (if use_trace then Some lt else None) in
    if use_trace then traced_rounds := r :: !traced_rounds
    else begin
      plain := r :: !plain;
      rss := peak_rss_mb () :: !rss
    end
  done;
  { plain = List.rev !plain; traced = List.rev !traced_rounds; rss_mb = !rss; lt }

(* ---- exact counts ------------------------------------------------- *)

let fingerprint (r : Workloads.round) =
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g\n" k v) r.Workloads.counts)

(* Every round of a run replays the same inputs, and so does every run
   with the same seed and executable: their counts must agree exactly.
   None depends on the executor's domain schedule (parallel blocks merge
   counters and replay L2 traffic in block order). *)
let check_counts workload ~seed (rounds : Workloads.round list) =
  let fp = fingerprint (List.hd rounds) in
  List.iteri
    (fun i r ->
      if fingerprint r <> fp then
        fail "round %d counts differ from round 0:\n%s---\n%s" i fp (fingerprint r))
    rounds;
  let path =
    Filename.concat state_dir
      (Printf.sprintf "counts-%s-seed%d-%s.txt" workload seed
         (Digest.to_hex (Digest.file Sys.executable_name)))
  in
  if Sys.file_exists path then begin
    let prev = In_channel.with_open_bin path In_channel.input_all in
    if prev <> fp then fail "counts differ from an earlier run with this seed:\n%s---\n%s" prev fp
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc fp)

(* ---- metrics ------------------------------------------------------ *)

let count (r : Workloads.round) k = List.assoc k r.Workloads.counts

let pct ~pct xs = Option.map fst (Pbstats.percentile ~pct xs)

let median_of xs = Pbstats.median (Array.of_list xs)

(* The run's times at the probe's reference speed, or as measured if
   [raw]. *)
let end_to_end ?(raw = false) (run : run) : (string * string * float option) list =
  let us = kept ~raw run.plain in
  let setup (r : Workloads.round) =
    if raw then r.Workloads.setup_s else r.Workloads.setup_s /. r.Workloads.setup_factor
  in
  [
    ("setup_s", "s", Some (median_of (List.map setup run.plain)));
    ("ops_per_s", "1/s", Some (ops_per_s us));
    ("op_ms_geomean", "ms", Some (1e3 *. Pbstats.geomean (pool (fun u -> u.Workloads.u_op_s) us)));
    ("hit_p50_us", "us", pct ~pct:50 (pool hits us));
    ("miss_p50_us", "us", pct ~pct:50 (pool misses us));
    ("peak_rss_mb", "MB", Some (median_of run.rss_mb));
  ]

let median_host_factor (rounds : Workloads.round list) =
  median_of (List.map (fun (u : Workloads.unit_run) -> u.Workloads.u_factor) (all_units rounds))

let per_layer ~(plain : Workloads.round list) ~(traced : Workloads.round list) (lt : Layers.t) :
    (string * string * float option) list =
  let acc = lt.Layers.acc in
  let mean k = Layers.Acc.mean acc k in
  let r0 = List.hd plain in
  let per_op = float_of_int (ops_of r0.Workloads.units) in
  let gc f =
    List.fold_left (fun s r -> s +. f r) 0.0 plain /. float_of_int (ops_of (all_units plain))
  in
  let ratio a b = if b = 0.0 then None else Some (a /. b) in
  [
    ("ir.decode_us", "us", mean "ir.decode_us");
    ("proteus.specialize_us", "us", mean "proteus.specialize_us");
    ("opt.o3_us", "us", mean "opt.o3_us");
    ("opt.work", "count", mean "opt.work");
    ("backend.codegen_us", "us", mean "backend.codegen_us");
    ("backend.mach_instrs", "count", mean "backend.mach_instrs");
    ("backend.spill_slots", "count", mean "backend.spill_slots");
    ("gpu.tcode_decode_us", "us", mean "gpu.tcode_decode_us");
    ("jit.compile_ms", "ms", mean "jit.compile_ms");
    ( "gpu.exec_ns_per_warp_instr", "ns",
      ratio (Layers.Acc.sum acc "exec.ns") (Layers.Acc.sum acc "exec.warp_instrs") );
    ("gpu.warp_instrs", "count", Some (count r0 "gpu.warp_instrs" /. per_op));
    ("proteus.speckey_ns", "ns", mean "proteus.speckey_ns");
    ("proteus.cachestore_lookup_ns", "ns", mean "proteus.cachestore_lookup_ns");
    ( "jit.launch_self_us", "us",
      match lt.Layers.launch_self_us with
      | [] -> None
      | xs -> Some (Pbstats.median (Array.of_list xs)) );
    ( "cachestore.hit_ratio", "ratio",
      ratio (count r0 "cachestore.hits") (count r0 "cachestore.lookups") );
    ("cachestore.evictions", "count", Some (count r0 "cachestore.evictions"));
    ("jit.compiles", "count", Some (count r0 "jit.compiles"));
    ("gpu.tcode_decodes", "count", Some (count r0 "gpu.tcode_decodes"));
    ("gc.minor_words_per_op", "words", Some (gc (fun r -> r.Workloads.gc_minor_words)));
    ("gc.major_words_per_op", "words", Some (gc (fun r -> r.Workloads.gc_major_words)));
    ( "gc.major_collections", "count",
      Some (gc (fun r -> float_of_int r.Workloads.gc_major_collections) *. per_op) );
    ("sim.kernel_ms_total", "sim_ms", Some (count r0 "sim.kernel_ms_total"));
    ( "trace.overhead_pct", "%",
      Some (((ops_per_s (kept plain) /. ops_per_s (kept traced)) -. 1.0) *. 100.0) );
  ]

(* Layers only some workloads reach: reported beside the metrics. *)
let layer_extras (lt : Layers.t) =
  List.filter_map
    (fun (k, unit) -> Option.map (fun v -> (k, unit, Some v)) (Layers.Acc.mean lt.Layers.acc k))
    [
      ("backend.ptx_emit_us", "us"); ("backend.ptxas_us", "us"); ("hostexec.self_ms", "ms");
      ("driver.compile_ms", "ms"); ("frontend.compile_ms", "ms");
    ]

(* ---- output ------------------------------------------------------- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, unit, v) ->
           match v with
           | Some v when Float.is_finite v ->
               Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v) unit
           | _ -> fail "metric %s has no value on this workload" k)
         ms)
  ^ "}"

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let () =
  let workload, seed, seconds, traced = parse_args () in
  refuse_proteus_env ();
  Util.mkdir_p (Filename.concat state_dir "tmp");
  let run = run_rounds workload ~seed ~seconds ~traced in
  let plain = run.plain and traced_rounds = run.traced and lt = run.lt in
  let all = plain @ traced_rounds in
  check_counts workload ~seed all;
  if lt.Layers.replay_mismatches > 0 then
    fail "%d replayed compiles produced different code than the run" lt.Layers.replay_mismatches;
  let attempted = ops_of (all_units all)
  and failed = List.fold_left (fun acc (r : Workloads.round) -> acc + r.Workloads.failed) 0 all in
  let metrics = if traced then per_layer ~plain ~traced:traced_rounds lt else end_to_end run in
  let samples f = string_of_int (Array.length (pool f (kept plain))) in
  (* The p99s sit where the launches that ran a minor collection begin
     (about 1% of them), so they swing with the schedule from seed to
     seed: reported, but not bounded end-to-end metrics. *)
  let extras =
    List.filter_map
      (fun (name, xs) ->
        Option.map (fun (v, _) -> (name, "us", Some v)) (Pbstats.percentile ~pct:99 xs))
      [ ("hit_p99_us", pool hits (kept plain)); ("miss_p99_us", pool misses (kept plain)) ]
    @ (if traced then
         ( "replay.compile_sum_ms", "ms",
           Some
             (List.fold_left
                (fun acc k -> acc +. (Layers.Acc.sum lt.Layers.acc k /. 1e3))
                0.0
                [ "ir.decode_us"; "proteus.specialize_us"; "opt.o3_us"; "backend.codegen_us";
                  "backend.ptx_emit_us"; "backend.ptxas_us" ]
             /. float_of_int (Array.length (pool misses (all_units traced_rounds)))) )
         :: layer_extras lt
       else [])
  in
  if traced then
    Trace.write_chrome lt.Layers.trace
      (Filename.concat state_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed));
  let r0 = List.hd plain in
  print_endline
    (json_obj
       [
         ( "perfbench",
           json_obj
             [
               ("workload", Printf.sprintf "%S" workload);
               ("seed", string_of_int seed);
               ("trace", string_of_bool traced);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
               ("host_factor", json_num (median_host_factor plain));
               ("rounds", string_of_int (List.length all));
               ( "config",
                 json_obj (List.map (fun (k, v) -> (k, string_of_int v)) r0.Workloads.resolved) );
               ("hit_samples", samples hits);
               ("miss_samples", samples misses);
               ("fail_ratio", json_num (Pbstats.fail_ratio ~failed ~attempted));
               ("counts", json_obj (List.map (fun (k, v) -> (k, json_num v)) r0.Workloads.counts));
               ("extra", json_metrics extras);
               ("uncorrected", if traced then "{}" else json_metrics (end_to_end ~raw:true run));
             ] );
       ]);
  print_endline
    (json_obj
       [
         ("correct", string_of_bool (failed = 0));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_metrics metrics);
       ])
