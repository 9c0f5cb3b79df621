(* Set-associative LRU L2 cache model. Only tags are modelled (data
   lives in the memory arena); the cache exists to produce hit ratios
   and miss counts for the timing model and rocprof-style counters. *)

type t = {
  sets : int;
  set_mask : int; (* sets - 1 when [sets] is a power of two, else -1 *)
  ways : int;
  line : int;
  tags : int array; (* set s, way w at [s * ways + w]: tag (-1 empty) *)
  stamp : int array; (* LRU timestamps, laid out like [tags] *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create (dev : Device.t) =
  let lines = dev.Device.l2_bytes / dev.Device.l2_line in
  let ways = dev.Device.l2_ways in
  let sets = max 1 (lines / ways) in
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    ways;
    line = dev.Device.l2_line;
    tags = Array.make (sets * ways) (-1);
    stamp = Array.make (sets * ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.hits <- 0;
  t.misses <- 0

(* Access one cache line by line id; returns true on hit. The
   multicore executor's trace replay uses this entry point directly so
   recorded line ids go through the exact same state transitions as
   addresses do. Line ids are non-negative, so masking equals [mod]. *)
let access_line t (line_addr : int) : bool =
  t.tick <- t.tick + 1;
  let set = if t.set_mask >= 0 then line_addr land t.set_mask else line_addr mod t.sets in
  let tag = line_addr in
  let tags = t.tags and st = t.stamp in
  let base = set * t.ways in
  let stop = base + t.ways in
  (* tags are unique within a set (insertion only overwrites), so the
     scan can stop at the first match *)
  let w = ref base in
  while !w < stop && Array.unsafe_get tags !w <> tag do
    incr w
  done;
  if !w < stop then begin
    Array.unsafe_set st !w t.tick;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU: the lowest stamp, the first way among equals *)
    let victim = ref base in
    for w = base + 1 to stop - 1 do
      if Array.unsafe_get st w < Array.unsafe_get st !victim then victim := w
    done;
    tags.(!victim) <- tag;
    st.(!victim) <- t.tick;
    false
  end

(* Access one cache line containing [addr]; returns true on hit. *)
let access t (addr : int64) : bool = access_line t (Int64.to_int addr / t.line)

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
