(* Two-level specialization-keyed code cache: a fast in-memory table
   populated afresh per run, backed by a persistent file-storage cache
   (cache-jit-<hash>.o) that survives across program runs.

   Size limits with LRU eviction are implemented on both levels (the
   paper's Sec. 3.4 describes this as in-development work; this
   reproduction includes it). Limits come from the constructor or the
   PROTEUS_MEM_CACHE_LIMIT / PROTEUS_DISK_CACHE_LIMIT knobs (bytes;
   0 or unset = unlimited).

   Multi-tenancy (DESIGN.md "Multi-tenant service"): every memory-tier
   entry carries an optional [owner] — the tenant whose launch paid
   for the artifact. A per-tenant byte quota (the [tenant_quota]
   constructor argument, from Config.tenant_quota) bounds how much of the
   shared memory tier any one owner can pin: when an insert pushes an
   owner over quota, that owner's own least-recently-used entries are
   evicted first, so a tenant with a pathological key stream evicts
   itself, never its neighbours. Global and per-tenant byte totals are
   running counters maintained by the single put/remove pair every
   mutation path (insert, LRU evict, quota evict, shrink) goes
   through, under the store mutex.

   Persistent entries are integrity-protected: each file carries a
   versioned header (magic, format version, two reserved words, payload
   length, CRC32) and is written atomically (.tmp + rename). A
   corrupt, truncated or undecodable file is deleted on lookup and
   reported as a Miss — the JIT recompiles and heals the cache;
   on-disk damage can never crash the host program.

   Concurrency (see DESIGN.md "Concurrency & recovery"):
   - every public operation serializes on an in-process mutex, so one
     store can be hammered from the whole domain pool; an insert's disk
     write runs outside it, so a wait on another process's entry lock
     stalls that insert alone, never another key's lookup;
   - writers additionally take a per-entry cross-process advisory lock
     (Unix.lockf on <entry>.lock, stamped with the holder's PID), so
     many processes can share one cache directory;
   - readers take no lock: rename atomicity guarantees a read sees
     whole old bytes or whole new bytes, and the CRC catches the rest;
   - [create] runs a recovery sweep that reaps .tmp/.lock litter left
     by crashed writers and deletes any entry that fails frame
     validation, so the store always starts clean;
   - [compile_once] is the store's one compile-once routine: a caller
     whose key another caller is compiling waits for that compile, then
     re-checks the memory tier, so every JIT sharing the store compiles
     each key once. A failed compile is not shared: the next waiter
     compiles the key itself, under its own stages and faults.

   A store created for one vendor serves only that vendor's objects
   from disk: AMD and NVIDIA builds of one program share cache keys,
   and an entry of the other kind is a Miss, overwritten by the
   recompile. *)

open Proteus_support
open Proteus_backend

(* [tcodes] is the decoded-code tier: threaded programs for kernels of
   this object, built lazily on first launch and kept with the entry so
   a memory hit skips both prepare and decode. It is not persisted -
   decode is cheap relative to compilation; only the object survives on
   disk. A re-insert over a resident key replaces the entry, so stale
   decoded code can never outlive the object it was decoded from. *)
type entry = {
  obj : Mach.obj;
  bytes : int;
  mutable last_used : int;
  mutable tcodes : (string * Proteus_gpu.Tcode.program) list;
  owner : string option;
      (* tenant that paid for this artifact; the unit per-tenant
         quotas are charged against. None for single-tenant use. *)
}

type t = {
  mem : (string, entry) Hashtbl.t;
  persistent_dir : string option;
  mem_limit : int; (* bytes; 0 = unlimited *)
  disk_limit : int;
  tenant_quota : int; (* bytes one owner may pin in memory; 0 = unlimited *)
  tenant_bytes : (string, int) Hashtbl.t;
      (* running per-owner byte totals, maintained by mem_put/mem_remove
         in lockstep with [mem_bytes] *)
  mutable tick : int; (* LRU clock *)
  mutable mem_bytes : int; (* running total of in-memory entry bytes *)
  mutable mem_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable evictions_mem : int;
  mutable evictions_disk : int;
  mutable evictions_quota : int; (* memory evictions forced by a tenant quota *)
  mutable corruptions : int; (* corrupt/truncated/unreadable entries discarded *)
  (* concurrency & recovery *)
  mu : Mutex.t; (* in-process: serializes all public operations *)
  faults : Fault.t option; (* injection hooks: cache-lock, disk-full *)
  lock_timeout_ms : float; (* bound on waiting for a cross-process entry lock *)
  mutable lock_waits : int; (* entry-lock acquisitions *)
  mutable lock_contended : int; (* acquisitions that had to wait *)
  mutable reaped_tmp : int; (* crashed writers' .tmp litter removed by the sweep *)
  mutable reaped_locks : int; (* stale .lock files removed by the sweep *)
  mutable disk_degrades : int; (* times the persistent tier was dropped under pressure *)
  mutable disk_disabled : bool; (* disk full: stop writing to disk *)
  mutable tick_hook : string -> unit;
      (* progress callback fired at labelled points inside persistent
         writes; the crash-torture harness uses it to kill the process
         mid-write at a chosen tick *)
  kind : Mach.vendor_obj option; (* the object kind this store serves; None = any *)
  compiling : (string, unit) Hashtbl.t; (* keys a [compile_once] caller is compiling *)
  compiled : Condition.t; (* signalled whenever one of them finishes *)
}

(* ---- in-process serialization ------------------------------------ *)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The lookup/insert path additionally fires the cache-lock injection
   point (before taking the mutex), so lock-acquisition failure is
   reproducible in tests without manufacturing real contention. *)
let locked_op t f =
  (match t.faults with Some fl -> Fault.hit fl Fault.Cache_lock | None -> ());
  locked t f

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

(* All in-memory insertions and removals go through these two helpers
   so [mem_bytes] and the per-owner totals stay running counters that
   an eviction or overwrite can never leave stale: a removed or
   replaced entry decrements both ledgers in the same critical section
   that takes it out of the table (the previous implementation
   re-folded the whole table on every insert to learn its size, which
   is O(entries) per store, and kept no per-owner ledger at all). *)
let charge_owner t owner delta =
  match owner with
  | None -> ()
  | Some o ->
      let cur = Option.value (Hashtbl.find_opt t.tenant_bytes o) ~default:0 in
      let nxt = cur + delta in
      if nxt <= 0 then Hashtbl.remove t.tenant_bytes o
      else Hashtbl.replace t.tenant_bytes o nxt

let mem_put t k e =
  (match Hashtbl.find_opt t.mem k with
  | Some old ->
      t.mem_bytes <- t.mem_bytes - old.bytes;
      charge_owner t old.owner (-old.bytes)
  | None -> ());
  Hashtbl.replace t.mem k e;
  t.mem_bytes <- t.mem_bytes + e.bytes;
  charge_owner t e.owner e.bytes

let mem_remove t k =
  match Hashtbl.find_opt t.mem k with
  | Some e ->
      Hashtbl.remove t.mem k;
      t.mem_bytes <- t.mem_bytes - e.bytes;
      charge_owner t e.owner (-e.bytes)
  | None -> ()

(* Evict least-recently-used in-memory entries until under the limit. *)
let enforce_mem_limit t =
  if t.mem_limit > 0 then
    while t.mem_bytes > t.mem_limit && Hashtbl.length t.mem > 1 do
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, e') when e'.last_used <= e.last_used -> acc
            | _ -> Some (k, e))
          t.mem None
      in
      match victim with
      | Some (k, _) ->
          mem_remove t k;
          t.evictions_mem <- t.evictions_mem + 1
      | None -> (* unreachable: the table has > 1 entries *) assert false
    done

(* Per-tenant quota: when [owner]'s resident bytes exceed the quota,
   evict that owner's own least-recently-used entries (and only that
   owner's) until back under — a tenant under memory pressure pays
   with its own working set, never a neighbour's. Like the global
   limit, an owner's single newest entry is never evicted: a quota
   smaller than one artifact degrades to "one entry resident". *)
let enforce_tenant_quota t (owner : string option) =
  match owner with
  | None -> ()
  | Some o when t.tenant_quota > 0 ->
      let resident () =
        Option.value (Hashtbl.find_opt t.tenant_bytes o) ~default:0
      in
      let owned () =
        Hashtbl.fold
          (fun _ e acc -> if e.owner = Some o then acc + 1 else acc)
          t.mem 0
      in
      while resident () > t.tenant_quota && owned () > 1 do
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              if e.owner <> Some o then acc
              else
                match acc with
                | Some (_, e') when e'.last_used <= e.last_used -> acc
                | _ -> Some (k, e))
            t.mem None
        in
        match victim with
        | Some (k, _) ->
            mem_remove t k;
            t.evictions_quota <- t.evictions_quota + 1
        | None -> (* unreachable: the owner holds > 1 entries *) assert false
      done
  | Some _ -> ()

(* Lock files and in-flight .tmp litter are bookkeeping, not cache
   contents: they are excluded from size accounting and eviction. *)
let is_entry_file f =
  (not (Filename.check_suffix f ".lock")) && not (Filename.check_suffix f ".tmp")

(* Evict oldest (by mtime) persistent cache files until under the limit. *)
let enforce_disk_limit t =
  match t.persistent_dir with
  | Some d when t.disk_limit > 0 && Sys.file_exists d ->
      let files =
        Sys.readdir d |> Array.to_list
        |> List.filter_map (fun f ->
               let p = Filename.concat d f in
               if is_entry_file f && Sys.is_regular_file p then
                 let st = Unix.stat p in
                 Some (p, st.Unix.st_size, st.Unix.st_mtime)
               else None)
      in
      let total = ref (List.fold_left (fun a (_, s, _) -> a + s) 0 files) in
      let by_age = List.sort (fun (_, _, a) (_, _, b) -> compare a b) files in
      List.iter
        (fun (p, s, _) ->
          if !total > t.disk_limit then begin
            Sys.remove p;
            total := !total - s;
            t.evictions_disk <- t.evictions_disk + 1
          end)
        by_age
  | _ -> ()

let path_for t (key : Speckey.t) =
  Option.map (fun d -> Filename.concat d (Speckey.cache_filename key)) t.persistent_dir

(* ---- persistent entry format ----
   magic "PJTC" | u32 format version | u32 reserved | u32 reserved |
   u64 payload length | u32 CRC32(payload) | payload
   (Mach.encode_obj bytes). The two reserved words once held a
   generation counter and a tier tag; they are written as 1 and ignored
   on read, so files written with either value still load. Files of
   another version fail validation and are healed by recompilation. *)

let magic = "PJTC"
let format_version = 3l
let header_bytes = 4 + 4 + 4 + 4 + 8 + 4

let encode_entry (payload : string) : string =
  let b = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_string b magic;
  let w = Util.Bytesio.W.create () in
  Util.Bytesio.W.u32 w format_version;
  Util.Bytesio.W.u32 w 1l;
  Util.Bytesio.W.u32 w 1l;
  Util.Bytesio.W.u64 w (Int64.of_int (String.length payload));
  Util.Bytesio.W.u32 w (Util.Crc32.string payload);
  Buffer.add_string b (Util.Bytesio.W.contents w);
  Buffer.add_string b payload;
  Buffer.contents b

(* Validate header + checksum; any violation raises (the caller maps
   it to a counted corruption + Miss). Returns the payload. *)
let decode_entry (data : string) : string =
  if String.length data < header_bytes then Util.failf "cache entry truncated header";
  if String.sub data 0 4 <> magic then Util.failf "cache entry bad magic";
  let r = Util.Bytesio.R.create (String.sub data 4 (header_bytes - 4)) in
  let version = Util.Bytesio.R.u32 r in
  if version <> format_version then
    Util.failf "cache entry format version %ld (want %ld)" version format_version;
  ignore (Util.Bytesio.R.u32 r : int32);
  ignore (Util.Bytesio.R.u32 r : int32);
  let len = Int64.to_int (Util.Bytesio.R.u64 r) in
  let crc = Util.Bytesio.R.u32 r in
  if len < 0 || String.length data - header_bytes <> len then
    Util.failf "cache entry truncated payload";
  let payload = String.sub data header_bytes len in
  if Util.Crc32.string payload <> crc then Util.failf "cache entry checksum mismatch";
  payload

let read_whole_file path : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Frame-validate one persistent entry file (magic, version, length,
   CRC) without decoding the object. Used by the recovery sweep and
   the crash-torture harness. *)
let validate_file (path : string) : bool =
  match decode_entry (read_whole_file path) with
  | _ -> true
  | exception _ -> false

(* ---- recovery sweep ---------------------------------------------- *)

let pid_alive pid =
  if pid <= 0 then false
  else
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception _ -> true (* EPERM: alive, just not ours *)

(* .tmp litter is named <entry>.<pid>.tmp; recover the writer's PID. *)
let tmp_owner f =
  match Filename.chop_suffix_opt ~suffix:".tmp" f with
  | None -> None
  | Some base -> (
      match Filename.extension base with
      | "" -> None
      | ext -> int_of_string_opt (String.sub ext 1 (String.length ext - 1)))

let read_lock_stamp p : int option =
  match read_whole_file p with
  | s -> int_of_string_opt (String.trim s)
  | exception _ -> None

(* Remove a lock file only after confirming no live holder: a trial
   exclusive lock succeeds iff the kernel released the previous
   holder's lock (it does so automatically when a process dies). *)
let try_reap_lock p : bool =
  match Unix.openfile p [ Unix.O_RDWR ] 0 with
  | fd ->
      let ok =
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            (try Sys.remove p with _ -> ());
            true
        | exception _ -> false
      in
      (try Unix.close fd with _ -> ());
      ok
  | exception _ -> ( try Sys.remove p; true with _ -> false)

(* Startup recovery: reap crashed writers' litter and delete any entry
   that fails frame validation, so every later lookup is either a
   valid hit or a clean miss. Validation does NOT preload entries into
   the memory tier - the first lookup still reports an honest
   Disk_hit. Live processes are respected: a .tmp whose owner PID is
   alive, or a .lock whose holder still holds it, is left alone. *)
let recover t =
  match t.persistent_dir with
  | None -> ()
  | Some d ->
      if Sys.file_exists d then
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if (try Sys.is_regular_file p with _ -> false) then
              if Filename.check_suffix f ".tmp" then begin
                let dead =
                  match tmp_owner f with
                  | Some pid -> not (pid_alive pid)
                  | None -> true
                in
                if dead then begin
                  (try Sys.remove p with _ -> ());
                  t.reaped_tmp <- t.reaped_tmp + 1
                end
              end
              else if Filename.check_suffix f ".lock" then begin
                let dead =
                  match read_lock_stamp p with
                  | Some pid -> not (pid_alive pid)
                  | None -> true
                in
                if dead && try_reap_lock p then
                  t.reaped_locks <- t.reaped_locks + 1
              end
              else if not (validate_file p) then begin
                (try Sys.remove p with _ -> ());
                t.corruptions <- t.corruptions + 1
              end)
          (Sys.readdir d)

let create ?(persistent_dir : string option) ?vendor ?mem_limit ?disk_limit ?(tenant_quota = 0)
    ?faults ?(lock_timeout_ms = 1000.0) () =
  (* Recursive, race-tolerant creation: a missing parent or a
     concurrent creator must not kill the host program. *)
  Option.iter Util.mkdir_p persistent_dir;
  let mem_limit = match mem_limit with Some l -> l | None -> Knob.get Knob.mem_cache_limit in
  let disk_limit = match disk_limit with Some l -> l | None -> Knob.get Knob.disk_cache_limit in
  let t =
    {
      mem = Hashtbl.create 32;
      persistent_dir;
      mem_limit;
      disk_limit;
      tenant_quota;
      tenant_bytes = Hashtbl.create 8;
      tick = 0;
      mem_bytes = 0;
      mem_hits = 0;
      disk_hits = 0;
      misses = 0;
      evictions_mem = 0;
      evictions_disk = 0;
      evictions_quota = 0;
      corruptions = 0;
      mu = Mutex.create ();
      faults;
      lock_timeout_ms;
      lock_waits = 0;
      lock_contended = 0;
      reaped_tmp = 0;
      reaped_locks = 0;
      disk_degrades = 0;
      disk_disabled = false;
      tick_hook = ignore;
      kind =
        Option.map
          (function Proteus_gpu.Device.Amd -> Mach.VGcn | Proteus_gpu.Device.Nvidia -> Mach.VSass)
          vendor;
      compiling = Hashtbl.create 8;
      compiled = Condition.create ();
    }
  in
  recover t;
  t

let set_tick_hook t hook = t.tick_hook <- hook

(* ---- lookup ------------------------------------------------------ *)

(* Look up a specialization. The result distinguishes memory hits
   (free), disk hits (object load cost) and misses (full compile). *)
type outcome = Mem_hit of entry | Disk_hit of entry | Miss

(* Read + decode one persistent entry; channel closed on every path.
   The reported size is the payload's (the in-memory object), not the
   file's: integrity framing doesn't count against cache limits. *)
let load_persistent path : Mach.obj * int =
  let payload = decode_entry (read_whole_file path) in
  (Mach.decode_obj payload, String.length payload)

let lookup ?owner t (key : Speckey.t) : outcome =
  locked_op t @@ fun () ->
  let k = Speckey.to_string key in
  match Hashtbl.find_opt t.mem k with
  | Some e ->
      t.mem_hits <- t.mem_hits + 1;
      touch t e;
      Mem_hit e
  | None -> (
      match path_for t key with
      | Some path when Sys.file_exists path -> (
          match load_persistent path with
          | obj, _ when t.kind <> None && t.kind <> Some obj.Mach.okind ->
              (* another vendor's object under the same key: not damage,
                 just not loadable here; the recompile overwrites it *)
              t.misses <- t.misses + 1;
              Miss
          | obj, len ->
              (* promotion from disk charges the promoting tenant: it is
                 the one re-pinning the artifact in the shared tier *)
              let e = { obj; bytes = len; last_used = 0; tcodes = []; owner } in
              touch t e;
              mem_put t k e;
              enforce_tenant_quota t owner;
              enforce_mem_limit t;
              t.disk_hits <- t.disk_hits + 1;
              Disk_hit e
          | exception _ ->
              (* corrupt, truncated or unreadable: drop the file so the
                 recompiled object can heal it, and report a miss *)
              t.corruptions <- t.corruptions + 1;
              (try Sys.remove path with _ -> ());
              t.misses <- t.misses + 1;
              Miss)
      | _ ->
          t.misses <- t.misses + 1;
          Miss)

(* Memory-tier-only probe that does not perturb hit/miss accounting. *)
let peek_mem t (key : Speckey.t) : entry option =
  locked t @@ fun () -> Hashtbl.find_opt t.mem (Speckey.to_string key)

(* Compile [key] at most once across every caller of this store. A
   caller waits while another caller compiles the key, then re-checks
   the memory tier (that compile, or one that finished between the
   caller's lookup and here, may have inserted it) and runs [f], which
   compiles and inserts, only when no entry is resident. [f] is the
   caller's own, so a failed compile raises in its caller alone and the
   next waiter compiles the key itself. Returns the entry and whether
   this call ran [f]. *)
let compile_once t (key : Speckey.t) (f : unit -> entry) : entry * bool =
  let k = Speckey.to_string key in
  Mutex.lock t.mu;
  while Hashtbl.mem t.compiling k do
    Condition.wait t.compiled t.mu
  done;
  match Hashtbl.find_opt t.mem k with
  | Some e ->
      Mutex.unlock t.mu;
      (e, false)
  | None ->
      Hashtbl.replace t.compiling k ();
      Mutex.unlock t.mu;
      Fun.protect
        ~finally:(fun () ->
          locked t @@ fun () ->
          Hashtbl.remove t.compiling k;
          Condition.broadcast t.compiled)
        (fun () -> (f (), true))

(* ---- persistent writes ------------------------------------------- *)

(* Disk-pressure degradation: a full disk (real ENOSPC-class errno or
   the injected disk-full point) drops the persistent tier for the
   rest of the run instead of failing the launch - the memory cache
   and the JIT keep working; the step is counted and logged once. *)
let degrade_disk t ~reason =
  if not t.disk_disabled then begin
    t.disk_disabled <- true;
    t.disk_degrades <- t.disk_degrades + 1;
    Printf.eprintf
      "proteus: persistent cache disabled (%s); continuing memory-only\n%!" reason
  end

let lock_path path = path ^ ".lock"

(* Cross-process writer lock for one entry: an advisory exclusive
   [Unix.lockf] on <entry>.lock, stamped with the holder's PID so the
   recovery sweep can tell a crashed holder (stamp names a dead
   process; the kernel released its lock at death) from a live one.
   The holder never unlinks the lock file - unlink-on-release races
   against a waiter that already opened the same path - only the sweep
   removes it, after a trial lock proves nobody holds it. Because the
   sweep can unlink between our open and lockf, we verify after
   locking that the path still names our inode and start over if not.
   Readers take no lock at all: entries are replaced by atomic rename,
   so a read sees whole old bytes or whole new bytes, never a mix. *)
let acquire_entry_lock t path : Unix.file_descr * bool =
  let lp = lock_path path in
  let t0 = Unix.gettimeofday () in
  let contended = ref false in
  let rec open_and_lock () =
    let fd = Unix.openfile lp [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    let rec try_lock () =
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          contended := true;
          let waited_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          if t.lock_timeout_ms > 0.0 && waited_ms > t.lock_timeout_ms then begin
            (try Unix.close fd with _ -> ());
            raise (Fault.Lock_timeout (lp, waited_ms))
          end;
          Unix.sleepf 0.001;
          try_lock ()
    in
    try_lock ();
    let same_file =
      match Unix.stat lp with
      | st ->
          let stf = Unix.fstat fd in
          st.Unix.st_ino = stf.Unix.st_ino && st.Unix.st_dev = stf.Unix.st_dev
      | exception _ -> false
    in
    if same_file then fd
    else begin
      (try Unix.close fd with _ -> ());
      open_and_lock ()
    end
  in
  let fd = open_and_lock () in
  (try
     ignore (Unix.lseek fd 0 Unix.SEEK_SET);
     Unix.ftruncate fd 0;
     let s = string_of_int (Unix.getpid ()) ^ "\n" in
     ignore (Unix.write_substring fd s 0 (String.length s))
   with _ -> () (* an unstampable lock still locks; the sweep trial-locks anyway *));
  (fd, !contended)

let release_entry_lock fd =
  (try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
  try Unix.close fd with _ -> ()

(* Writes go out in small flushed chunks so the crash-torture harness
   can kill the process with a genuinely partial .tmp on disk. *)
let write_chunk_bytes = 256

(* Writers of one entry path in this process, one at a time: [lockf]
   locks belong to the process and the .tmp name carries its pid, so
   two domains writing one path would share both. *)
let writers_mu = Mutex.create ()
let writer_done = Condition.create ()
let writing : (string, unit) Hashtbl.t = Hashtbl.create 8

let one_writer path f =
  Mutex.lock writers_mu;
  while Hashtbl.mem writing path do
    Condition.wait writer_done writers_mu
  done;
  Hashtbl.replace writing path ();
  Mutex.unlock writers_mu;
  Fun.protect f ~finally:(fun () ->
      Mutex.protect writers_mu @@ fun () ->
      Hashtbl.remove writing path;
      Condition.broadcast writer_done)

(* Atomic persistent write: all-or-nothing via .tmp + rename under the
   per-entry lock, so a crash mid-write can never leave a half-entry
   under the final name - only reapable .tmp/.lock litter. It runs
   outside the store mutex and takes it only for the store fields it
   updates. *)
let write_persistent t path (data : string) : unit =
  one_writer path @@ fun () ->
  let lockfd, contended = acquire_entry_lock t path in
  Fun.protect ~finally:(fun () -> release_entry_lock lockfd) @@ fun () ->
  locked t (fun () ->
      t.lock_waits <- t.lock_waits + 1;
      if contended then t.lock_contended <- t.lock_contended + 1);
  t.tick_hook "locked";
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let n = String.length data in
        let off = ref 0 in
        while !off < n do
          let len = min write_chunk_bytes (n - !off) in
          output_substring oc data !off len;
          flush oc;
          t.tick_hook "tmp-write";
          off := !off + len
        done);
    t.tick_hook "tmp-closed";
    Unix.rename tmp path;
    t.tick_hook "renamed"
  with
  | () -> locked t (fun () -> enforce_disk_limit t)
  | exception Unix.Unix_error ((Unix.ENOSPC | Unix.EFBIG), _, _) ->
      (try Sys.remove tmp with _ -> ());
      locked t (fun () -> degrade_disk t ~reason:"device full")
  | exception e ->
      (try Sys.remove tmp with _ -> ());
      raise e

(* A re-insert over a resident key replaces the entry, which starts
   with no decoded code. The memory tier is updated under the store
   mutex, the disk write after it. *)
let insert ?owner t (key : Speckey.t) (obj : Mach.obj) : entry =
  let k = Speckey.to_string key in
  let payload = Mach.encode_obj obj in
  let e = { obj; bytes = String.length payload; last_used = 0; tcodes = []; owner } in
  let write_to =
    locked_op t @@ fun () ->
    touch t e;
    mem_put t k e;
    enforce_tenant_quota t owner;
    enforce_mem_limit t;
    match path_for t key with
    | Some _ when t.disk_disabled -> None
    | Some _ when Option.fold ~none:false ~some:(fun fl -> Fault.fires fl Fault.Disk_full) t.faults ->
        degrade_disk t ~reason:"injected disk-full";
        None
    | path -> path
  in
  Option.iter (fun path -> write_persistent t path (encode_entry payload)) write_to;
  e

(* ---- sizes & maintenance ----------------------------------------- *)

(* Total size of the persistent cache on disk (Table 3): entry files
   only - lock files and write litter are bookkeeping, not cache. *)
let persistent_size t : int =
  match t.persistent_dir with
  | None -> 0
  | Some d ->
      if Sys.file_exists d then
        Array.fold_left
          (fun acc f ->
            let p = Filename.concat d f in
            if is_entry_file f && Sys.is_regular_file p then
              acc + (Unix.stat p).Unix.st_size
            else acc)
          0 (Sys.readdir d)
      else 0

let mem_size t = t.mem_bytes

(* Resident memory-tier bytes attributed to one owner, and the full
   owner ledger (sorted for deterministic reporting). *)
let tenant_size t (owner : string) : int =
  locked t @@ fun () ->
  Option.value (Hashtbl.find_opt t.tenant_bytes owner) ~default:0

let tenant_sizes t : (string * int) list =
  locked t @@ fun () ->
  Hashtbl.fold (fun o b acc -> (o, b) :: acc) t.tenant_bytes []
  |> List.sort compare

let tenant_quota t = t.tenant_quota

(* Clearing removes everything, locks and litter included: the caller
   is invalidating the directory wholesale. *)
let clear_persistent t =
  match t.persistent_dir with
  | None -> ()
  | Some d ->
      if Sys.file_exists d then
        Array.iter
          (fun f ->
            let p = Filename.concat d f in
            if Sys.is_regular_file p then Sys.remove p)
          (Sys.readdir d)
