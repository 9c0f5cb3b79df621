(* Set-associative LRU L2 cache model. Only tags are modelled (data
   lives in the memory arena); the cache exists to produce hit ratios
   and miss counts for the timing model and rocprof-style counters. *)

type t = {
  sets : int;
  set_mask : int; (* sets - 1 when [sets] is a power of two, else -1 *)
  ways : int;
  line : int;
  tags : int array array; (* set -> way -> tag (-1 empty) *)
  stamp : int array array; (* LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let create (dev : Device.t) =
  let lines = dev.Device.l2_bytes / dev.Device.l2_line in
  let sets = max 1 (lines / dev.Device.l2_ways) in
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    ways = dev.Device.l2_ways;
    line = dev.Device.l2_line;
    tags = Array.make_matrix sets dev.Device.l2_ways (-1);
    stamp = Array.make_matrix sets dev.Device.l2_ways 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let reset t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) (-1)) t.tags;
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
  let row = t.tags.(set) and st = t.stamp.(set) in
  let ways = t.ways in
  (* tags are unique within a set (insertion only overwrites), so the
     scan can stop at the first match *)
  let w = ref 0 in
  while !w < ways && Array.unsafe_get row !w <> tag do
    incr w
  done;
  if !w < ways then begin
    Array.unsafe_set st !w t.tick;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (* evict LRU *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if Array.unsafe_get st w < Array.unsafe_get st !victim then victim := w
    done;
    row.(!victim) <- tag;
    st.(!victim) <- t.tick;
    false
  end

(* Access one cache line containing [addr]; returns true on hit. *)
let access t (addr : int64) : bool = access_line t (Int64.to_int addr / t.line)

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 1.0 else float_of_int t.hits /. float_of_int total
