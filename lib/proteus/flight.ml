(* Single-flight execution groups: concurrent calls that share a key
   coalesce onto one execution of the work function - the first caller
   (the leader) runs it, every other caller (a follower) blocks until
   the leader publishes its result, then shares it. Each code cache
   (Cachestore) owns one table and runs its [compile_once] through it,
   so there is at most one in-flight compile per specialization key
   across the domain pool: N identical concurrent launches cost one
   compile, not N.

   A group closes when its leader finishes: callers arriving after
   that start a fresh flight, which is correct for the code cache
   because the leader's artifact is in it by then (the leader re-checks
   the cache inside its flight - double-checked locking - so a fresh
   flight after a completed one finds a hit and compiles nothing).

   A leader's exception propagates to every follower of that flight:
   if the compile failed, every coalesced launch sees the same failure
   and takes the same contained AOT fallback.

   Flights are keyed by the key string alone: the synchronous miss and
   the tier-up compile both produce the one O3 artifact of a key, so
   either may coalesce onto the other. *)

type 'a flight = {
  mutable outcome : ('a, exn) result option; (* None while in flight *)
}

type 'a t = {
  mu : Mutex.t;
  closed : Condition.t; (* signalled whenever any flight closes *)
  inflight : (string, 'a flight) Hashtbl.t;
  mutable leads : int; (* calls that executed the work *)
  mutable suppressed : int; (* calls that coalesced onto a leader *)
}

let create () =
  {
    mu = Mutex.create ();
    closed = Condition.create ();
    inflight = Hashtbl.create 8;
    leads = 0;
    suppressed = 0;
  }

(* Which role a completed call played; the JIT accounts leaders and
   followers differently (a follower pays no compile cost). *)
type 'a outcome = Led of 'a | Coalesced of 'a

let run (t : 'a t) ~(key : string) (f : unit -> 'a) : 'a outcome =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.inflight key with
  | None ->
      (* leader: publish the flight, run the work unlocked, close *)
      let fl = { outcome = None } in
      Hashtbl.replace t.inflight key fl;
      t.leads <- t.leads + 1;
      Mutex.unlock t.mu;
      let res = try Ok (f ()) with e -> Error e in
      Mutex.lock t.mu;
      fl.outcome <- Some res;
      Hashtbl.remove t.inflight key;
      Condition.broadcast t.closed;
      Mutex.unlock t.mu;
      (match res with Ok v -> Led v | Error e -> raise e)
  | Some fl ->
      (* follower: wait for this flight (not any later one) to close *)
      t.suppressed <- t.suppressed + 1;
      let rec await () =
        match fl.outcome with
        | Some r -> r
        | None ->
            Condition.wait t.closed t.mu;
            await ()
      in
      let r = await () in
      Mutex.unlock t.mu;
      (match r with Ok v -> Coalesced v | Error e -> raise e)

let leads t = t.leads
let suppressed t = t.suppressed
