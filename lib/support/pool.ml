(* Persistent domain pool: a fixed set of worker domains that execute
   indexed task batches. Spawning a domain costs ~10-100us, far too much
   to pay per kernel launch, so the pool is created once (lazily, on
   first parallel launch) and reused for the life of the process.

   Sizing: the caller passes the size; the executor's default is
   PROTEUS_EXEC_DOMAINS if set (>= 1), else
   Domain.recommended_domain_count, read once when this module is
   initialised (see [default_domains]). Size 1 means "no workers": [run]
   degenerates to a plain loop on the calling domain, so callers never
   need a separate serial code path for the 1-domain configuration.

   [run pool f n] executes f 0 .. f (n-1), each exactly once, across
   the calling domain plus the workers. Indices are handed out through
   an atomic counter, so the assignment of index to domain is dynamic
   (load-balanced) and NOT deterministic - tasks must not care which
   domain runs them, and any cross-task state must be merged by the
   caller afterwards. Exceptions raised by tasks are caught per index;
   [run] re-raises the one with the lowest index after all tasks have
   drained, so a failing batch still leaves the pool reusable. *)

type job = {
  fn : int -> unit;
  total : int;
  next : int Atomic.t; (* next index to claim *)
  pending : int Atomic.t; (* indices not yet finished *)
  mutable exns : (int * exn) list; (* protected by the pool mutex *)
}

type t = {
  size : int; (* total lanes of parallelism incl. the caller *)
  mutex : Mutex.t;
  have_job : Condition.t;
  job_done : Condition.t;
  mutable current : job option;
  mutable workers : unit Domain.t list; (* size - 1 spawned lazily *)
  mutable spawned : bool;
  mutable shutdown : bool;
}

(* Fixed at program start: module initialisation runs on the main
   domain before any other domain exists, so every later reader, on
   any domain, sees the one value without a lock or a [Lazy]. A
   launch that passes no domain count reads it, and a getenv per
   launch cost ~0.5 us, as much as a small kernel's whole set-up. *)
let default_domains =
  let n = Knob.get Knob.exec_domains in
  fun () -> n

let create ~size =
  {
    size;
    mutex = Mutex.create ();
    have_job = Condition.create ();
    job_done = Condition.create ();
    current = None;
    workers = [];
    spawned = false;
    shutdown = false;
  }

(* Claim and run indices of [j] until exhausted. Returns when every
   index this domain claimed has finished. *)
let drain t (j : job) =
  let rec go () =
    let i = Atomic.fetch_and_add j.next 1 in
    if i < j.total then begin
      (try j.fn i
       with e ->
         Mutex.lock t.mutex;
         j.exns <- (i, e) :: j.exns;
         Mutex.unlock t.mutex);
      if Atomic.fetch_and_add j.pending (-1) = 1 then begin
        (* last index finished: wake the submitter *)
        Mutex.lock t.mutex;
        Condition.broadcast t.job_done;
        Mutex.unlock t.mutex
      end;
      go ()
    end
  in
  go ()

let worker_loop t () =
  let rec wait_for_job () =
    Mutex.lock t.mutex;
    let rec await () =
      if t.shutdown then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match t.current with
        | Some j when Atomic.get j.next < j.total ->
            Mutex.unlock t.mutex;
            Some j
        | _ ->
            Condition.wait t.have_job t.mutex;
            await ()
    in
    match await () with
    | None -> ()
    | Some j ->
        drain t j;
        wait_for_job ()
  in
  wait_for_job ()

let ensure_workers t =
  if (not t.spawned) && t.size > 1 then begin
    t.spawned <- true;
    t.workers <- List.init (t.size - 1) (fun _ -> Domain.spawn (worker_loop t))
  end

let run t (fn : int -> unit) (n : int) : unit =
  if n <= 0 then ()
  else if t.size = 1 || n = 1 then
    (* serial degeneration: plain loop, bit-identical task order *)
    for i = 0 to n - 1 do
      fn i
    done
  else begin
    ensure_workers t;
    let j =
      { fn; total = n; next = Atomic.make 0; pending = Atomic.make n; exns = [] }
    in
    Mutex.lock t.mutex;
    t.current <- Some j;
    Condition.broadcast t.have_job;
    Mutex.unlock t.mutex;
    (* the calling domain participates *)
    drain t j;
    Mutex.lock t.mutex;
    while Atomic.get j.pending > 0 do
      Condition.wait t.job_done t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    match List.sort compare j.exns with (_, e) :: _ -> raise e | [] -> ()
  end

(* Process-wide pools, memoized by size: the GPU executor asks for one
   per configured domain count, and tests force small explicit sizes
   without disturbing the default pool. *)
let shared_tbl : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mu = Mutex.create ()

let shared ~size =
  let size = max 1 size in
  Mutex.lock shared_mu;
  let p =
    match Hashtbl.find_opt shared_tbl size with
    | Some p -> p
    | None ->
        let p = create ~size in
        Hashtbl.add shared_tbl size p;
        p
  in
  Mutex.unlock shared_mu;
  p
