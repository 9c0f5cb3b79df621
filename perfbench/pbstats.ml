(* The arithmetic behind every number the benchmark reports. Pure, so
   the unit tests in test_perfbench.ml can pin it down without running
   the program under test. *)

(* Nearest-rank percentile: the smallest sample with at least [pct]% of
   the samples at or below it. It is reported only when at least ten
   samples lie above its rank, since a tail percentile resting on fewer
   samples is one outlier away from another value. Returns the value and
   the sample count it was taken over. *)
let percentile ~(pct : int) (xs : float array) : (float * int) option =
  if pct <= 0 || pct >= 100 then invalid_arg "Stats.percentile: pct out of (0, 100)";
  let n = Array.length xs in
  let rank = ((pct * n) + 99) / 100 in
  if n = 0 || n - rank < 10 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    Some (sorted.(rank - 1), n)
  end

(* Plain median (mean of the two middle samples for an even count),
   used for per-round quantities such as set-up time. *)
let median (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Geometric mean of strictly positive samples: the mean a workload of
   mixed op sizes reports without its biggest op dominating. *)
let geomean (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geomean: no samples";
  let s =
    Array.fold_left
      (fun acc x ->
        if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
        acc +. log x)
      0.0 xs
  in
  exp (s /. float_of_int n)

(* The fastest half (rounded down, at least two) of the executions of
   each unit of work, where [runs] holds (unit id, wall time, data) for
   every execution. The host factor (see Hostspeed) takes out the host's
   slow phases; what is left are short bursts inside single executions,
   such as a collection or an interrupt, and keeping each unit's faster
   half drops those while still pooling several executions. Measured on
   2 vCPUs of a shared Intel Xeon host, the spread between runs was
   smallest keeping the half, against a quarter, the middle half or all
   executions. *)
let fastest_half (runs : (int * float * 'a) list) : 'a list =
  let ids = List.sort_uniq compare (List.map (fun (id, _, _) -> id) runs) in
  List.concat_map
    (fun id ->
      let mine =
        List.filter (fun (i, _, _) -> i = id) runs
        |> List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare a b)
      in
      let n = List.length mine in
      let keep = min n (max 2 (n / 2)) in
      List.filteri (fun i _ -> i < keep) mine |> List.map (fun (_, _, x) -> x))
    ids

(* How much more slowly than its reference speed the host ran a piece
   of work timed between two probes of a fixed loop: the mean probe time
   over the probe's reference time. The work's times are divided by it. *)
let host_factor ~(reference_s : float) ~(before : float) ~(after : float) : float =
  if reference_s <= 0.0 || before <= 0.0 || after <= 0.0 then
    invalid_arg "Stats.host_factor: non-positive time";
  (before +. after) /. 2.0 /. reference_s

(* A JIT launch is a miss when the compile counter moved across it,
   and a hit (served from the code cache) otherwise. *)
type outcome = Hit | Miss

let classify ~(compiles_before : int) ~(compiles_after : int) : outcome =
  if compiles_after > compiles_before then Miss else Hit

(* An op fails when its output check fails, or when any launch inside
   it fell back to the AOT kernel or was skipped by quarantine: in
   either case the user did not get the specialized code they asked
   for, so the op's latency says nothing about the JIT. *)
let op_failed ~(output_ok : bool) ~(fallbacks : int) ~(quarantined : int) : bool =
  (not output_ok) || fallbacks > 0 || quarantined > 0

let fail_ratio ~(failed : int) ~(attempted : int) : float =
  if attempted <= 0 then invalid_arg "Stats.fail_ratio: nothing attempted";
  float_of_int failed /. float_of_int attempted

(* Self time of a span: its length minus the lengths of its children,
   which lie inside it one after another. *)
let self_time ~(start : int64) ~(stop : int64) (children : (int64 * int64) list) : int64 =
  List.fold_left (fun acc (s, e) -> Int64.sub acc (Int64.sub e s)) (Int64.sub stop start) children
