(* Deterministic fault injection for the JIT runtime (containment
   testing). Every stage of Proteus.Jit.launch is bracketed by a named
   injection point; a plan arms any subset of points with a trigger
   (always, fail-on-Nth-call, fail-every-Kth-call). Plans come from
   Config.t (programmatic, used by the tests) or from the
   PROTEUS_FAULT_<POINT> knobs, so a failure at any stage can be
   reproduced exactly.

   This module must stay dependency-free within proteus_core: Config
   references it, not the other way around. *)

type point =
  | Fetch_bitcode
  | Decode
  | Specialize
  | Specialize_corrupt
      (* non-raising: silently corrupts the specialized IR in place, the
         breakage the verify gate exists to catch *)
  | Optimize
  | Verify (* the PROTEUS_VERIFY gate (IR verifier + KernelSan) *)
  | Codegen
  | Cache_read
  | Cache_write
  | Cache_lock (* contention/timeout acquiring the shared cache store *)
  | Disk_full (* ENOSPC-class failure writing the persistent cache *)

let all_points =
  [ Fetch_bitcode; Decode; Specialize; Specialize_corrupt; Optimize; Verify;
    Codegen; Cache_read; Cache_write; Cache_lock; Disk_full ]

let point_name = function
  | Fetch_bitcode -> "fetch-bitcode"
  | Decode -> "decode"
  | Specialize -> "specialize"
  | Specialize_corrupt -> "specialize-corrupt"
  | Optimize -> "optimize"
  | Verify -> "verify"
  | Codegen -> "codegen"
  | Cache_read -> "cache-read"
  | Cache_write -> "cache-write"
  | Cache_lock -> "cache-lock"
  | Disk_full -> "disk-full"

(* ---- failure taxonomy --------------------------------------------

   Transient failures are environmental and worth retrying (lock
   contention); permanent ones are deterministic properties of the
   kernel or the pipeline (a decode error will decode wrong again, a
   stage over its simulated budget will overrun again) and go straight
   to the quarantine policy. The one pressure point, disk-full, is
   neither: the store drops its persistent tier and the launch never
   sees a failure. *)

type severity = Transient | Permanent

(* The severity an [Injected p] carries. Specialize-corrupt and
   disk-full never raise (their sites call [fires]); they sit with the
   permanent points only to keep the match exhaustive. *)
let point_severity = function
  | Cache_lock -> Transient
  | Fetch_bitcode | Decode | Specialize | Specialize_corrupt | Optimize
  | Verify | Codegen | Cache_read | Cache_write | Disk_full ->
      Permanent

let point_of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  let norm = String.map (function '_' -> '-' | c -> c) s in
  List.find_opt (fun p -> point_name p = norm) all_points

(* The trigger syntax is the FAULT_<POINT> knobs' value syntax. *)
type trigger = Proteus_support.Knob.trigger = Off | Always | Nth of int | Every of int

let trigger_to_string = function
  | Off -> "off"
  | Always -> "always"
  | Nth n -> Printf.sprintf "nth:%d" n
  | Every k -> Printf.sprintf "every:%d" k

let trigger_of_string = Proteus_support.Knob.trigger_of_string

(* A plan is the declarative description (stored in Config.t); [t] is
   the armed instance with per-point call counters. *)
type plan = (point * trigger) list

exception Injected of point

(* A cross-process cache entry lock stayed held past the store's
   [lock_timeout_ms]: names the lock file and how long the wait was. *)
exception Lock_timeout of string * float

(* Classify an exception that escaped a pipeline stage. Injected
   faults carry their point's severity; a lock timeout is transient by
   definition (another process holds the entry for now); everything
   else - decode errors, verifier rejections, budget overruns, OS
   errors other than the EAGAIN class - is treated as permanent
   because retrying deterministic work reproduces the failure. *)
let classify_exn (e : exn) : severity =
  match e with
  | Injected p -> point_severity p
  | Lock_timeout _ -> Transient
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR | Unix.EBUSY), _, _) -> Transient
  | _ -> Permanent

type slot = { mutable trig : trigger; mutable calls : int; mutable injected : int }

(* one slot per point, in [all_points] order *)
type t = { slots : slot array }

let index = function
  | Fetch_bitcode -> 0
  | Decode -> 1
  | Specialize -> 2
  | Specialize_corrupt -> 3
  | Optimize -> 4
  | Verify -> 5
  | Codegen -> 6
  | Cache_read -> 7
  | Cache_write -> 8
  | Cache_lock -> 9
  | Disk_full -> 10

let create () =
  { slots = Array.of_list (List.map (fun _ -> { trig = Off; calls = 0; injected = 0 }) all_points) }

let slot t p = t.slots.(index p)

let set t p trig = (slot t p).trig <- trig

let of_plan (plan : plan) : t =
  let t = create () in
  List.iter (fun (p, trig) -> set t p trig) plan;
  t

(* The FAULT_<POINT> knobs arm points the programmatic plan is silent
   about; a point named in [base] wins over its knob (code that passes
   an explicit plan has the stronger claim). *)
let of_env ?(base : plan = []) () : t =
  let knob p = Proteus_support.Knob.(get (fault (point_name p))) in
  of_plan (List.map (fun p -> (p, knob p)) all_points @ base)

(* Parse a whole schedule, "decode=always,cache-read=nth:2"; used by
   the bench driver's --inject-faults mode. Unknown points or triggers
   are reported, not ignored, so schedules in automation fail loudly. *)
let plan_of_string (s : string) : (plan, string) result =
  let specs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        match String.index_opt spec '=' with
        | None -> Error (Printf.sprintf "fault spec %S is not point=trigger" spec)
        | Some i -> (
            let pname = String.sub spec 0 i in
            let tname = String.sub spec (i + 1) (String.length spec - i - 1) in
            match point_of_name pname with
            | None -> Error (Printf.sprintf "unknown fault point %S" pname)
            | Some p -> (
                match trigger_of_string tname with
                | Ok trig -> go ((p, trig) :: acc) rest
                | Error e -> Error e)))
  in
  go [] specs

(* Tenant-scoped schedules for the multi-tenant serve loop:
   "A:specialize-corrupt=always,decode=nth:3" arms specialize-corrupt
   only for tenant A while decode=nth:3 (no tenant prefix) arms for
   every tenant. [tenant_plan name specs] projects the entries one
   named tenant should see; the serve loop feeds the projection to
   that tenant's [Jit.create], so an injected fault is physically
   incapable of firing in any other tenant's pipeline. A tenant name
   must not itself contain '=' or ','. *)
let scoped_plan_of_string (s : string) :
    ((string option * point * trigger) list, string) result =
  let specs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | spec :: rest -> (
        let scope, body =
          match String.index_opt spec ':' with
          | Some i
            when (match String.index_opt spec '=' with
                 | Some j -> i < j
                 | None -> false)
                 (* a ':' after '=' belongs to a trigger like nth:2 *) ->
              ( Some (String.sub spec 0 i),
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | _ -> (None, spec)
        in
        match plan_of_string body with
        | Ok [ (p, trig) ] -> go ((scope, p, trig) :: acc) rest
        | Ok _ -> Error (Printf.sprintf "fault spec %S is not point=trigger" spec)
        | Error e -> Error e)
  in
  go [] specs

let tenant_plan (tenant : string)
    (specs : (string option * point * trigger) list) : plan =
  List.filter_map
    (fun (scope, p, trig) ->
      match scope with
      | None -> Some (p, trig)
      | Some tn when tn = tenant -> Some (p, trig)
      | Some _ -> None)
    specs

let eval_trigger (s : slot) =
  s.calls <- s.calls + 1;
  let fire =
    match s.trig with
    | Off -> false
    | Always -> true
    | Nth n -> s.calls = n
    | Every k -> s.calls mod k = 0
  in
  if fire then s.injected <- s.injected + 1;
  fire

(* The instrumented stage entry: count the call and raise [Injected]
   if the point's trigger fires on this call. *)
let hit (t : t) (p : point) : unit =
  if eval_trigger (slot t p) then raise (Injected p)

(* Non-raising variant for points whose fault is a silent corruption
   rather than an exception (e.g. [Specialize_corrupt]): reports
   whether this call fires and leaves acting on it to the caller. *)
let fires (t : t) (p : point) : bool = eval_trigger (slot t p)

let calls t p = (slot t p).calls
let injected t p = (slot t p).injected
let total_injected t = Array.fold_left (fun acc s -> acc + s.injected) 0 t.slots
let armed t = Array.exists (fun s -> s.trig <> Off) t.slots

let to_string t =
  let armed_slots =
    List.filter_map
      (fun p ->
        let s = slot t p in
        if s.trig = Off then None
        else Some (Printf.sprintf "%s=%s" (point_name p) (trigger_to_string s.trig)))
      all_points
  in
  if armed_slots = [] then "no-faults" else String.concat "," armed_slots
