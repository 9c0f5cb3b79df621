(* Seeded Zipf workload generator for the multi-tenant JIT service
   (ROADMAP #1): a deterministic launch schedule over
   kernels x tenants x launch counts. Kernel popularity follows a
   Zipf distribution with exponent [skew] — kernel k is drawn with
   probability proportional to 1/(k+1)^skew, so a handful of hot
   kernels dominates, exactly the reuse profile a shared code cache
   exists for — while tenants are drawn uniformly. Everything derives
   from one Util.Rng seed: the same (seed, tenants, kernels, launches,
   skew) tuple produces the same schedule on every run and machine,
   which is what lets the serve torture compare a concurrent
   multi-tenant run against a serial single-tenant replay
   bit for bit.

   A schedule round-trips through a compact JSON dump ([to_json] /
   [of_json]) so a recorded workload can be replayed from a file
   (`proteus serve --dump/--replay`). *)

open Proteus_support

type t = {
  seed : int;
  tenants : int;
  kernels : int;
  launches : int;
  skew : float;
  schedule : (int * int) array; (* (tenant index, kernel index), in order *)
}

(* Cumulative Zipf(k) distribution over [kernels] ranks. The last
   entry is 1.0 up to rounding; [pick] treats it as a catch-all so a
   draw of 0.999... can never fall off the end. *)
let zipf_cdf ~(kernels : int) ~(skew : float) : float array =
  let w = Array.init kernels (fun k -> 1.0 /. (float_of_int (k + 1) ** skew)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* Smallest rank whose cumulative mass exceeds the draw. *)
let pick (cdf : float array) (r : float) : int =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > r then hi := mid else lo := mid + 1
  done;
  !lo

let generate ~(seed : int) ~(tenants : int) ~(kernels : int) ~(launches : int)
    ~(skew : float) : t =
  if tenants <= 0 then invalid_arg "Workload.generate: tenants must be positive";
  if kernels <= 0 then invalid_arg "Workload.generate: kernels must be positive";
  if launches < 0 then invalid_arg "Workload.generate: negative launch count";
  if skew < 0.0 then invalid_arg "Workload.generate: negative skew";
  let rng = Util.Rng.create seed in
  let cdf = zipf_cdf ~kernels ~skew in
  let schedule = Array.make launches (0, 0) in
  (* explicit loop: the rng draw order (tenant then kernel, per launch)
     is part of the schedule's definition *)
  for i = 0 to launches - 1 do
    let tn = Util.Rng.int rng tenants in
    let r = Util.Rng.float rng in
    schedule.(i) <- (tn, pick cdf r)
  done;
  { seed; tenants; kernels; launches; skew; schedule }

(* Fraction of all launches that land on the [top] hottest kernels
   (ranks 0 .. top-1). For a fixed seed this is monotonically
   non-decreasing in [skew]: the rng draws are identical, only the
   cumulative mass boundary moves. *)
let hot_mass (t : t) ~(top : int) : float =
  if t.launches = 0 then 0.0
  else
    let n =
      Array.fold_left
        (fun acc (_, k) -> if k < top then acc + 1 else acc)
        0 t.schedule
    in
    float_of_int n /. float_of_int t.launches

(* Launches of one tenant, in schedule order: the serial replay a
   concurrent run is checked against serves exactly this stream. *)
let tenant_schedule (t : t) ~(tenant : int) : (int * int) array =
  Array.of_list
    (List.filter (fun (tn, _) -> tn = tenant) (Array.to_list t.schedule))

(* ---- JSON dump / replay ------------------------------------------ *)

let to_json (t : t) : string =
  let pair (tn, k) = Json.(Arr [ int tn; int k ]) in
  Json.(
    to_string
      (Obj
         [
           ("seed", int t.seed);
           ("tenants", int t.tenants);
           ("kernels", int t.kernels);
           ("launches", int t.launches);
           ("skew", Num t.skew);
           ("schedule", Arr (List.map pair (Array.to_list t.schedule)));
         ]))

(* Strict decoder for [to_json]'s shape: an object with the five scalar
   fields (any order) and a "schedule" array of [t, k] pairs. Anything
   else is a loud error — a replay file that parses loosely and runs
   the wrong workload is worse than one that fails. *)
let of_json (s : string) : (t, string) result =
  match
    let v = Json.parse s in
    (match v with
    | Json.Obj fs ->
        List.iter
          (fun (k, _) ->
            if
              not
                (List.mem k [ "seed"; "tenants"; "kernels"; "launches"; "skew"; "schedule" ])
            then Json.error "unknown field %S" k)
          fs
    | _ -> Json.error "expected an object");
    let int k = Json.to_int k (Json.field v k) in
    let pair = function
      | Json.Arr [ tn; k ] -> (Json.to_int "tenant index" tn, Json.to_int "kernel index" k)
      | _ -> Json.error "schedule entries must be [tenant, kernel] pairs"
    in
    let w =
      {
        seed = int "seed";
        tenants = int "tenants";
        kernels = int "kernels";
        launches = int "launches";
        skew = Json.to_num "skew" (Json.field v "skew");
        schedule =
          Array.of_list (List.map pair (Json.to_list "schedule" (Json.field v "schedule")));
      }
    in
    if Array.length w.schedule <> w.launches then
      Json.error "schedule length %d does not match launches %d"
        (Array.length w.schedule) w.launches;
    Array.iter
      (fun (tn, k) ->
        if tn < 0 || tn >= w.tenants then Json.error "tenant index %d out of range" tn;
        if k < 0 || k >= w.kernels then Json.error "kernel index %d out of range" k)
      w.schedule;
    w
  with
  | w -> Ok w
  | exception Json.Error m -> Error m
