(* Persistent domain pool: a fixed set of worker domains that execute
   indexed task batches. Spawning a domain costs ~10-100us, far too much
   to pay per kernel launch, so the pool is created once (lazily, on
   first parallel launch) and reused for the life of the process.

   Sizing: PROTEUS_EXEC_DOMAINS if set (>= 1), else
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
  (* async one-shot submissions (tier-up compiles): a FIFO of deferred
     thunks, drained at explicit boundaries rather than raced by the
     batch workers *)
  aqueue : (unit -> unit) Queue.t;
  mutable apending : int; (* submitted, not yet finished *)
  async_done : Condition.t;
}

(* Fixed at program start: module initialisation runs on the main
   domain before any other domain exists, so every later reader, on
   any domain, sees the one value without a lock or a [Lazy]. A
   launch that passes no domain count reads it, and a getenv per
   launch cost ~0.5 us, as much as a small kernel's whole set-up. *)
let default_domains =
  let n = Knob.get Knob.exec_domains in
  fun () -> n

let create ?size () =
  let size = max 1 (match size with Some n -> n | None -> default_domains ()) in
  {
    size;
    mutex = Mutex.create ();
    have_job = Condition.create ();
    job_done = Condition.create ();
    current = None;
    workers = [];
    spawned = false;
    shutdown = false;
    aqueue = Queue.create ();
    apending = 0;
    async_done = Condition.create ();
  }

let size t = t.size

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

(* ---- async one-shot submissions (tier-up compiles) ----------------

   [submit] enqueues a thunk; [drain_async] runs every enqueued thunk
   to completion and returns only when none remain in flight. Thunks
   execute on whichever domain drains - deferral takes the work off
   the submitting launch's critical path, and running it at an
   explicit boundary keeps execution deterministic (the batch workers
   never steal from this queue, so a thunk observes exactly the state
   present at its drain point). The queue is mutex-protected end to
   end: any number of domains may submit and drain concurrently (the
   resilience torture does), and a thunk started by one drainer is
   awaited by every other drainer before it returns.

   Thunks must contain their own failures (catch and record); an
   escaping exception is swallowed here so one bad submission can
   never poison the queue or the draining launch. *)

let submit t (fn : unit -> unit) : unit =
  Mutex.lock t.mutex;
  Queue.push fn t.aqueue;
  t.apending <- t.apending + 1;
  Mutex.unlock t.mutex

let async_pending t : int =
  Mutex.lock t.mutex;
  let n = t.apending in
  Mutex.unlock t.mutex;
  n

let drain_async t : unit =
  Mutex.lock t.mutex;
  let rec go () =
    if not (Queue.is_empty t.aqueue) then begin
      let fn = Queue.pop t.aqueue in
      Mutex.unlock t.mutex;
      (try fn () with _ -> ());
      Mutex.lock t.mutex;
      t.apending <- t.apending - 1;
      if t.apending = 0 then Condition.broadcast t.async_done;
      go ()
    end
    else if t.apending > 0 then begin
      (* another domain is mid-thunk: wait for it to finish *)
      Condition.wait t.async_done t.mutex;
      go ()
    end
  in
  go ();
  Mutex.unlock t.mutex

(* [run_collect pool f n] is [run] for tasks with results: executes
   f 0 .. f (n-1) across the pool and returns the results indexed by
   task. Each slot is written exactly once by whichever domain claimed
   the index, and [run]'s barrier orders those writes before the
   caller reads the array back. The multi-tenant serve loop uses this
   to fan tenant sessions out across domains and gather their
   per-session reports. *)
let run_collect (t : t) (fn : int -> 'a) (n : int) : 'a array =
  if n <= 0 then [||]
  else begin
    let out = Array.make n None in
    run t (fun i -> out.(i) <- Some (fn i)) n;
    Array.map
      (function Some v -> v | None -> Util.failf "Pool.run_collect: task dropped")
      out
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
        let p = create ~size () in
        Hashtbl.add shared_tbl size p;
        p
  in
  Mutex.unlock shared_mu;
  p

let get () = shared ~size:(default_domains ())
