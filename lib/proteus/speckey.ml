(* Specialization keys: a hash jointly encoding (1) the unique module
   identifier bound to source code, (2) the kernel symbol, and (3) the
   runtime values of specialized arguments and launch-bound values
   (Sec. 3.3). Source changes change the module id, so stale persistent
   entries can never be revived. *)

open Proteus_support
open Proteus_ir

type t = { hash : string }

let compute ~(mid : string) ~(sym : string) ~(spec_values : (int * Konst.t) list)
    ~(launch_bounds : int option) : t =
  let h = Util.Fnv.offset_basis in
  let h = Util.Fnv.add_string h mid in
  let h = Util.Fnv.add_string h sym in
  let h =
    List.fold_left
      (fun h (idx, k) ->
        let h = Util.Fnv.add_int h idx in
        match k with
        | Konst.KBool b -> Util.Fnv.add_int h (if b then 1 else 0)
        | Konst.KInt (v, bits) -> Util.Fnv.add_int64 (Util.Fnv.add_int h bits) v
        | Konst.KFloat (v, bits) ->
            Util.Fnv.add_int64 (Util.Fnv.add_int h bits) (Int64.bits_of_float v)
        | Konst.KNull -> Util.Fnv.add_int h 3)
      h spec_values
  in
  let h =
    match launch_bounds with
    | Some lb -> Util.Fnv.add_int h lb
    | None -> Util.Fnv.add_int h (-1)
  in
  { hash = Util.Fnv.to_hex h }

let to_string t = t.hash
let cache_filename t = Printf.sprintf "cache-jit-%s.o" t.hash

(* Content addressing for the multi-tenant service: a module id
   derived from the kernel's device IR bytes and the backend, not from
   the client's module name. Two tenants submitting byte-identical
   device IR to the same backend produce the same [content_mid], so
   their speckeys (and cache entries) collide on purpose — the shared
   store deduplicates the compile. Composed with [compute] (which
   folds in the spec values and launch bounds), the full artifact
   identity is hash(device IR, spec key, backend). *)
let content_mid ~(device_ir : string) ~(backend : string) : string =
  let h = Util.Fnv.offset_basis in
  let h = Util.Fnv.add_string h device_ir in
  let h = Util.Fnv.add_string h backend in
  "ca-" ^ Util.Fnv.to_hex h

(* Filter the specialization values a policy admits into the key.
   Returns the surviving (index, value) pairs plus how many were
   dropped. [recommended] is the SpecAdvisor ranking for the kernel
   (1-based argument indices); it is only consulted under
   [Spec_advise]. Dropping an argument can only *reduce* key
   cardinality: two launches differing only in a dropped value now
   share one cache entry. *)
let apply_policy ~(policy : Config.spec_policy) ~(recommended : int list)
    (spec_values : (int * Konst.t) list) : (int * Konst.t) list * int =
  match policy with
  | Config.Spec_all -> (spec_values, 0)
  | Config.Spec_none -> ([], List.length spec_values)
  | Config.Spec_advise ->
      let keep, drop =
        List.partition (fun (idx, _) -> List.mem idx recommended) spec_values
      in
      (keep, List.length drop)
