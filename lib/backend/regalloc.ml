(* Linear-scan register allocation over the machine IR, with per-class
   physical register budgets and spilling to scratch slots.

   The budgets are where the paper's launch-bounds story plays out: the
   caller (GCN or ptxas) derives the vector-register cap from the
   kernel's launch bounds (or a conservative default assuming the
   maximum block size), and kernels whose pressure exceeds the cap pay
   for spill loads/stores through memory.

   Everything is indexed by int: blocks by their position, registers by
   a code that both classes share. One walk over the code lists finds
   every register's positions and each block's uses and definitions;
   liveness keeps one live-in bitset per block, intervals are put in
   visiting order by counting sorts over positions, the active set is
   a flat array ordered by interval end with a running pressure sum,
   and assignments, register units and spill slots are int arrays. The
   decisions are those of the list- and table-based allocator this
   replaced, kept as the reference in test/refalloc.ml; see DESIGN.md,
   "Register allocation". *)

open Proteus_ir

type config = {
  cap_v : int; (* vector registers available *)
  cap_s : int; (* scalar registers available *)
  rematerialize : bool; (* fold single-constant moves into their users *)
  reg_units : Types.ty -> int; (* register units a value of this type occupies *)
}

let n_reserved = 4 (* temps kept free for spill code *)

(* A register's code, the index of every per-register array below:
   vector register r is [2r + 1], scalar register r is [2r]. The
   registers of a class are the codes of one parity. *)
let[@inline] code (r : Mach.reg) = (2 * r.Mach.rid) + match r.Mach.rcls with Mach.CV -> 1 | Mach.CS -> 0
let[@inline] is_vector c = c land 1 = 1

(* [a] if it holds [n] items, else a copy of it at least [n] long, with
   [x] after [a]'s items. *)
let extend a n x =
  if n <= Array.length a then a
  else begin
    let b = Array.make (Int.max n (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Arrays by register code start at this length, from the register
   counts isel and the PTX parser leave in [f], and grow past it. *)
let code_bound (f : Mach.mfunc) = (2 * Int.max f.Mach.vregs f.Mach.sregs) + 2

(* ------------------------------------------------------------------ *)
(* Rematerialization: ptxas-style cleanup that removes constant moves,
   shortening live ranges before allocation. Only registers defined
   exactly once, by a move of a constant, qualify. *)

let rematerialize_consts (f : Mach.mfunc) : unit =
  let defs = ref (Array.make (code_bound f) 0) and konst = ref (Array.make (code_bound f) None) in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.dst with
          | Some d ->
              let c = code d in
              if c >= Array.length !defs then begin
                defs := extend !defs (c + 1) 0;
                konst := extend !konst (c + 1) None
              end;
              !defs.(c) <- !defs.(c) + 1;
              !konst.(c) <-
                (match (i.Mach.op, i.Mach.srcs) with
                | Mach.Omov _, [ Mach.Ki k ] -> Some k
                | _ -> None)
          | None -> ())
        b.Mach.code)
    f.Mach.blocks;
  let defs = !defs and konst = !konst in
  let remat (r : Mach.reg) =
    let c = code r in
    c < Array.length defs && defs.(c) = 1 && konst.(c) <> None
  in
  let subst (s : Mach.msrc) =
    match s with
    | Mach.Rs r when remat r -> ( match konst.(code r) with Some k -> Mach.Ki k | None -> s)
    | s -> s
  in
  (* the list itself when no operand changes *)
  let rec subst_all = function
    | [] -> []
    | s :: rest as l ->
        let s' = subst s and rest' = subst_all rest in
        if s' == s && rest' == rest then l else s' :: rest'
  in
  List.iter
    (fun (b : Mach.mblock) ->
      b.Mach.code <-
        List.filter_map
          (fun (i : Mach.minstr) ->
            match (i.Mach.op, i.Mach.dst) with
            | Mach.Omov _, Some d when remat d -> None
            | _ ->
                let srcs = subst_all i.Mach.srcs in
                Some (if srcs == i.Mach.srcs then i else { i with Mach.srcs }))
          b.Mach.code;
      b.Mach.term <-
        (match b.Mach.term with
        | Mach.Tcbr (c, t, e) -> Mach.Tcbr (subst c, t, e)
        | t -> t))
    f.Mach.blocks

(* ------------------------------------------------------------------ *)
(* Control flow by block index                                         *)

type graph = { blocks : Mach.mblock array; succ : int list array }

let graph (f : Mach.mfunc) : graph =
  let blocks = Array.of_list f.Mach.blocks in
  { blocks; succ = Array.init (Array.length blocks) (Mach.succ_indices blocks) }

(* Divergent-branch regions: for every conditional branch on a vector
   (per-lane) register, the blocks the SIMT engines may execute under a
   partial mask before reconverging at the branch block's immediate
   postdominator, plus that reconvergence block (-1 when the paths only
   meet at exit). *)
let divergent_regions (g : graph) : (int list * int) list =
  let n = Array.length g.blocks in
  let ipdom = Dom.ipostdoms n (Array.get g.succ) in
  let regions = ref [] in
  for i = n - 1 downto 0 do
    match g.blocks.(i).Mach.term with
    | Mach.Tcbr (Mach.Rs { Mach.rcls = Mach.CV; _ }, _, _) ->
        let stop = ipdom.(i) in
        (* all blocks reachable from the successors short of the
           reconvergence point (not just the postdominator chains) *)
        let seen = Array.make n false and region = ref [] in
        let rec go j =
          if j <> stop && not seen.(j) then begin
            seen.(j) <- true;
            region := j :: !region;
            List.iter go g.succ.(j)
          end
        in
        List.iter go g.succ.(i);
        regions := (!region, stop) :: !regions
    | _ -> ()
  done;
  !regions

(* ------------------------------------------------------------------ *)
(* Liveness and intervals                                              *)

(* The type whose register units a definition occupies. *)
let def_ty (f : Mach.mfunc) (i : Mach.minstr) : Types.ty =
  match i.Mach.op with
  | Mach.Obin (_, ty) | Mach.Osel ty | Mach.Omov ty | Mach.Old (_, ty) | Mach.Omath (_, ty) ->
      ty
  | Mach.Ocast (_, dty, _) -> dty
  | Mach.Ocmp _ -> Types.TBool
  | Mach.Oquery _ -> Types.i32
  | Mach.Oframe -> Types.i64
  | Mach.Oatomic _ -> Types.f64
  | Mach.Oarg k -> Option.value (List.nth_opt f.Mach.arg_tys k) ~default:Types.i64
  | _ -> Types.i64

(* What the walk over the code lists collects. Every instruction and
   every terminator has a position, in block order. By register code:
   the first and last positions touching it, its register units (from
   the type of its last definition) and the last block defining it.
   By block, its events in [events]: [c] for a read of register [c]
   before the block defines it, [lnot c] for the block's first
   definition of [c]. The arrays grow as the walk meets larger codes
   and more operands. *)
type walk = {
  mutable first : int array; (* max_int when never touched *)
  mutable last : int array;
  mutable units : int array;
  mutable def_in : int array;
  mutable n : int; (* one past the largest code met *)
  mutable events : int array;
  mutable ne : int;
}

let meet (w : walk) c =
  if c >= w.n then begin
    if c >= Array.length w.first then begin
      w.first <- extend w.first (c + 1) max_int;
      w.last <- extend w.last (c + 1) min_int;
      w.units <- extend w.units (c + 1) 1;
      w.def_in <- extend w.def_in (c + 1) (-1)
    end;
    w.n <- c + 1
  end

let[@inline] touch (w : walk) c pos =
  if pos < w.first.(c) then w.first.(c) <- pos;
  if pos > w.last.(c) then w.last.(c) <- pos

let event w e =
  if w.ne = Array.length w.events then w.events <- extend w.events (w.ne + 1) 0;
  w.events.(w.ne) <- e;
  w.ne <- w.ne + 1

(* [c] read in block [b] at [pos] *)
let read w b pos c =
  meet w c;
  touch w c pos;
  if w.def_in.(c) <> b then event w c

(* [c] written in block [b] at [pos], a value of [units] units *)
let write w b pos c units =
  meet w c;
  touch w c pos;
  if w.def_in.(c) <> b then begin
    w.def_in.(c) <- b;
    event w (lnot c)
  end;
  w.units.(c) <- units

(* Bitsets of [1 lsl lg] bits per int word; the live-in sets are one
   array of [nw] words per block, block [b] at [b*nw, b*nw+nw). *)
let lg = if Sys.int_size >= 63 then 5 else 4

let[@inline] bit_add (s : int array) o r =
  let k = o + (r lsr lg) in
  s.(k) <- s.(k) lor (1 lsl (r land ((1 lsl lg) - 1)))

let[@inline] bit_remove (s : int array) o r =
  let k = o + (r lsr lg) in
  s.(k) <- s.(k) land lnot (1 lsl (r land ((1 lsl lg) - 1)))

(* Apply [f] to every member of the set at [s.(o..o+nw-1)]. *)
let bit_iter (s : int array) o nw (f : int -> unit) =
  for k = 0 to nw - 1 do
    let x = ref s.(o + k) and r = ref (k lsl lg) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !r;
      x := !x lsr 1;
      incr r
    done
  done

(* The live intervals of every register, and the visiting order. *)
type intervals = {
  first : int array; (* by code; max_int when never touched *)
  last : int array;
  units : int array;
  order : int array; (* touched registers by (first, last, code) *)
}

(* The touched registers below [n] (those with a [first] position) by
   (first, last, code), positions lying in [0, num): a stable counting
   sort by last of the registers in code order, then one by first. Both
   counts are taken in one pass. *)
let visiting_order (first : int array) (last : int array) ~n ~num : int array =
  let by_first = Array.make (num + 1) 0 and by_last = Array.make (num + 1) 0 in
  for r = 0 to n - 1 do
    if first.(r) <> max_int then begin
      by_first.(first.(r) + 1) <- by_first.(first.(r) + 1) + 1;
      by_last.(last.(r) + 1) <- by_last.(last.(r) + 1) + 1
    end
  done;
  for p = 1 to num do
    by_first.(p) <- by_first.(p) + by_first.(p - 1);
    by_last.(p) <- by_last.(p) + by_last.(p - 1)
  done;
  let m = by_last.(num) in
  let sorted_by_last = Array.make m 0 in
  for r = 0 to n - 1 do
    if first.(r) <> max_int then begin
      let p = last.(r) in
      sorted_by_last.(by_last.(p)) <- r;
      by_last.(p) <- by_last.(p) + 1
    end
  done;
  let order = Array.make m 0 in
  for j = 0 to m - 1 do
    let r = sorted_by_last.(j) in
    let p = first.(r) in
    order.(by_first.(p)) <- r;
    by_first.(p) <- by_first.(p) + 1
  done;
  order

(* An interval spans every position where its register is live-in (the
   block start), live-out (the block end), read or written (the
   instruction's index) or read by a terminator (the block end).

   Any scalar register live-in anywhere inside a divergent-branch region
   (or at its reconvergence point) has its interval widened to cover the
   whole region. Scalar registers are warp-shared while the SIMT engines
   serialise the two sides of a divergent branch, so CFG liveness alone
   under-approximates their interference: a scalar read on the else
   side is clobbered by a same-register def on the then side even though
   no CFG path connects them (per-lane vector writes are masked and
   safe).

   Liveness is per register, so one fixpoint over both classes gives
   each register the sets it would get in a fixpoint of its class
   alone. *)
let intervals (f : Mach.mfunc) (g : graph) ~(reg_units : Types.ty -> int) : intervals =
  let nb = Array.length g.blocks in
  let size = code_bound f in
  let w : walk =
    {
      first = Array.make size max_int;
      last = Array.make size min_int;
      units = Array.make size 1;
      def_in = Array.make size (-1);
      n = 0;
      events = Array.make (2 * size) 0;
      ne = 0;
    }
  in
  (* the walk: block [b]'s positions are [start.(b)] to [start.(b+1) - 1],
     its terminator's the last, and its events [w.events.(at.(b))] to
     [w.events.(at.(b+1) - 1)] *)
  let start = Array.make (nb + 1) 0 and at = Array.make (nb + 1) 0 in
  let rec reads b pos = function
    | [] -> ()
    | Mach.Rs r :: rest ->
        read w b pos (code r);
        reads b pos rest
    | (Mach.Ki _ | Mach.Gs _) :: rest -> reads b pos rest
  in
  let rec instrs b pos = function
    | [] -> pos
    | (i : Mach.minstr) :: rest ->
        reads b pos i.Mach.srcs;
        (match i.Mach.dst with
        | Some d -> write w b pos (code d) (reg_units (def_ty f i))
        | None -> ());
        instrs b (pos + 1) rest
  in
  for b = 0 to nb - 1 do
    at.(b) <- w.ne;
    let blk = g.blocks.(b) in
    let term = instrs b start.(b) blk.Mach.code in
    (match blk.Mach.term with Mach.Tcbr (Mach.Rs r, _, _) -> read w b term (code r) | _ -> ());
    start.(b + 1) <- term + 1
  done;
  at.(nb) <- w.ne;
  (* Liveness numbers the touched registers densely, vector registers
     first: vector register r is r, scalar register r is [nv + r]. *)
  let n = w.n and first = w.first and last = w.last in
  let nv = ref 0 and ns = ref 0 in
  for c = 0 to n - 1 do
    if first.(c) <> max_int then if is_vector c then nv := (c lsr 1) + 1 else ns := (c lsr 1) + 1
  done;
  let nv = !nv and ns = !ns in
  let code_of k = if k < nv then (2 * k) + 1 else 2 * (k - nv) in
  let number c = if is_vector c then c lsr 1 else nv + (c lsr 1) in
  let events = w.events in
  for j = 0 to w.ne - 1 do
    let e = events.(j) in
    events.(j) <- (if e >= 0 then number e else lnot (number (lnot e)))
  done;
  let nw = (nv + ns + (1 lsl lg) - 1) lsr lg in
  (* backward liveness to the least fixpoint; only live-in is kept, a
     block's live-out is the union of its successors', built in the
     extra row at [out] *)
  let live_in = Array.make ((nb + 1) * nw) 0 and out = nb * nw in
  let live_out b =
    for k = 0 to nw - 1 do
      live_in.(out + k) <- 0
    done;
    List.iter
      (fun s ->
        for k = 0 to nw - 1 do
          live_in.(out + k) <- live_in.(out + k) lor live_in.((s * nw) + k)
        done)
      g.succ.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      live_out b;
      for j = at.(b) to at.(b + 1) - 1 do
        if events.(j) < 0 then bit_remove live_in out (lnot events.(j))
      done;
      for j = at.(b) to at.(b + 1) - 1 do
        if events.(j) >= 0 then bit_add live_in out events.(j)
      done;
      let o = b * nw in
      for k = 0 to nw - 1 do
        if live_in.(out + k) <> live_in.(o + k) then begin
          live_in.(o + k) <- live_in.(out + k);
          changed := true
        end
      done
    done
  done;
  for b = 0 to nb - 1 do
    let bstart = start.(b) and bend = start.(b + 1) - 1 in
    bit_iter live_in (b * nw) nw (fun k -> touch w (code_of k) bstart);
    live_out b;
    bit_iter live_in out nw (fun k -> touch w (code_of k) bend)
  done;
  (* without scalars (ptxas has folded them into vectors) there is
     nothing to widen *)
  if ns > 0 then
    List.iter
      (fun (region, join) ->
        let lo = ref max_int and hi = ref min_int in
        List.iter
          (fun b ->
            if start.(b) < !lo then lo := start.(b);
            if start.(b + 1) - 1 > !hi then hi := start.(b + 1) - 1)
          region;
        if !lo <= !hi then begin
          let widen k =
            if k >= nv && first.(code_of k) <> max_int then begin
              touch w (code_of k) !lo;
              touch w (code_of k) !hi
            end
          in
          List.iter (fun b -> bit_iter live_in (b * nw) nw widen) region;
          if join >= 0 then bit_iter live_in (join * nw) nw widen
        end)
      (divergent_regions g);
  { first; last; units = w.units; order = visiting_order first last ~n ~num:start.(nb) }

(* ------------------------------------------------------------------ *)
(* Linear scan                                                         *)

(* [asn.(r)]: a physical base register, [spilled], or [dead] for a
   register that never occurs *)
let spilled = -1
let dead = -2

type scan = {
  used : int; (* physical register units used *)
  pressure : int; (* maximum simultaneous units *)
  any_spill : bool;
}

(* Allocate the registers of one class, vector or scalar, in visiting
   order, into [asn]. *)
let scan (iv : intervals) ~vector ~(cap : int) ~(asn : int array) : scan =
  let avail = Int.max 1 (cap - (n_reserved * 2)) in
  let free = Bytes.make avail '\001' in
  let nfree = ref avail and lowest = ref 0 (* no free unit below *) in
  let take base units =
    for k = base to base + units - 1 do
      Bytes.unsafe_set free k '\000'
    done;
    nfree := !nfree - units;
    if base = !lowest then begin
      while !lowest < avail && Bytes.unsafe_get free !lowest = '\000' do
        incr lowest
      done
    end
  in
  let release base units =
    for k = base to base + units - 1 do
      Bytes.unsafe_set free k '\001'
    done;
    nfree := !nfree + units;
    if base < !lowest then lowest := base
  in
  (* first fit: the lowest base with [units] contiguous free units *)
  let find_free units =
    if units <= 0 then 0
    else if units > !nfree then -1
    else begin
      let run = ref 0 and i = ref !lowest and found = ref (-1) in
      while !found < 0 && !i < avail do
        if Bytes.unsafe_get free !i = '\001' then begin
          incr run;
          if !run = units then found := !i - units + 1
        end
        else run := 0;
        incr i
      done;
      !found
    end
  in
  (* The active registers at [act.(lo .. hi-1)], ordered by (end, reg):
     the next to expire at [lo], the steal candidate at [hi - 1]. An
     active register's base is its [asn] and its units its [units]. An
     insert shifts the shorter side, so an interval that ends before or
     after every active one moves nothing. The array starts empty in the
     middle and each insert grows one side by one, so it never
     overflows. *)
  let last = iv.last and units = iv.units in
  let cnt = Array.length iv.order in
  let act = Array.make ((2 * cnt) + 1) 0 in
  let lo = ref cnt and hi = ref cnt and sum = ref 0 in
  let insert r =
    let e = last.(r) in
    (* the first active position after (e, r) *)
    let p = ref !lo and q = ref !hi in
    while !p < !q do
      let m = (!p + !q) / 2 in
      let rm = act.(m) in
      if last.(rm) < e || (last.(rm) = e && rm < r) then p := m + 1 else q := m
    done;
    if !p - !lo < !hi - !p then begin
      for j = !lo to !p - 1 do
        act.(j - 1) <- act.(j)
      done;
      decr lo;
      act.(!p - 1) <- r
    end
    else begin
      for j = !hi - 1 downto !p do
        act.(j + 1) <- act.(j)
      done;
      incr hi;
      act.(!p) <- r
    end;
    sum := !sum + units.(r)
  in
  let used = ref 0 and pressure = ref 0 and any_spill = ref false in
  for j = 0 to cnt - 1 do
    let r = iv.order.(j) in
    if is_vector r = vector then begin
      let s = iv.first.(r) and e = last.(r) and u = units.(r) in
      while !lo < !hi && last.(act.(!lo)) < s do
        let x = act.(!lo) in
        release asn.(x) units.(x);
        sum := !sum - units.(x);
        incr lo
      done;
      if u + !sum > !pressure then pressure := u + !sum;
      let base = find_free u in
      if base >= 0 then begin
        take base u;
        asn.(r) <- base;
        if base + u > !used then used := base + u;
        insert r
      end
      else begin
        any_spill := true;
        let x = if !hi > !lo then act.(!hi - 1) else -1 in
        if x >= 0 && last.(x) > e && units.(x) >= u then begin
          (* steal the registers of the active interval ending last *)
          let base' = asn.(x) and u' = units.(x) in
          asn.(x) <- spilled;
          decr hi;
          sum := !sum - u';
          asn.(r) <- base';
          insert r;
          if u' > u then release (base' + u) (u' - u);
          if base' + u > !used then used := base' + u
        end
        else asn.(r) <- spilled
      end
    end
  done;
  { used = !used; pressure = !pressure; any_spill = !any_spill }

(* ------------------------------------------------------------------ *)
(* Rewrite with assignments and spill code                             *)

let apply (f : Mach.mfunc) (cfg : config) : unit =
  if cfg.rematerialize then rematerialize_consts f;
  let iv = intervals f (graph f) ~reg_units:cfg.reg_units in
  let asn = Array.make (Array.length iv.first) dead in
  let sv = scan iv ~vector:true ~cap:cfg.cap_v ~asn in
  let ss = scan iv ~vector:false ~cap:cfg.cap_s ~asn in
  (* spill slots are numbered in the order the rewrite first meets them *)
  let spill_base = ref 0 in
  let slots = if sv.any_spill || ss.any_spill then Array.make (Array.length asn) (-1) else [||] in
  let slot_for (r : Mach.reg) =
    let c = code r in
    if slots.(c) < 0 then begin
      slots.(c) <- !spill_base;
      incr spill_base
    end;
    slots.(c)
  in
  (* temp physical registers for spill traffic *)
  let temp_base_v = cfg.cap_v - (n_reserved * 2) in
  let temp_base_s = cfg.cap_s - (n_reserved * 2) in
  (* the physical register of each register given one, made once *)
  let phys = Array.make (Array.length asn) None in
  Array.iteri
    (fun c p ->
      if p >= 0 then
        phys.(c) <- Some { Mach.rid = p; rcls = (if is_vector c then Mach.CV else Mach.CS) })
    asn;
  let temp (r : Mach.reg) ntemp =
    { r with Mach.rid = (if r.Mach.rcls = Mach.CV then temp_base_v else temp_base_s) + (ntemp * 2) }
  in
  let out = ref [] and ntemp = ref 0 in
  let emit i = out := i :: !out in
  let map_src (s : Mach.msrc) : Mach.msrc =
    match s with
    | Mach.Rs r -> (
        match phys.(code r) with
        | Some p -> Mach.Rs p
        | None when asn.(code r) = spilled ->
            let slot = slot_for r in
            let t = temp r !ntemp in
            incr ntemp;
            emit { Mach.op = Mach.Ospill_ld slot; dst = Some t; srcs = [] };
            Mach.Rs t
        | None -> s)
    | s -> s
  in
  List.iter
    (fun (b : Mach.mblock) ->
      out := [];
      List.iter
        (fun (i : Mach.minstr) ->
          ntemp := 0;
          let srcs = List.map map_src i.Mach.srcs in
          match i.Mach.dst with
          | Some d -> (
              match phys.(code d) with
              | Some _ as dst -> emit { i with Mach.dst; srcs }
              | None when asn.(code d) = spilled ->
                  let slot = slot_for d in
                  let t = temp d !ntemp in
                  emit { i with Mach.dst = Some t; srcs };
                  emit { Mach.op = Mach.Ospill_st slot; dst = None; srcs = [ Mach.Rs t ] }
              | None -> emit { i with srcs })
          | None -> emit { i with srcs })
        b.Mach.code;
      (* terminator condition *)
      ntemp := 0;
      b.Mach.term <-
        (match b.Mach.term with
        | Mach.Tcbr (c, t, e) -> Mach.Tcbr (map_src c, t, e)
        | t -> t);
      b.Mach.code <- List.rev !out)
    f.Mach.blocks;
  f.Mach.spill_slots <- !spill_base;
  (* Spilling means the temps at the top of the file are in use too. *)
  f.Mach.vregs <- (if sv.any_spill then cfg.cap_v else sv.used);
  f.Mach.sregs <- (if ss.any_spill then cfg.cap_s else ss.used);
  f.Mach.max_pressure_v <- sv.pressure;
  f.Mach.max_pressure_s <- ss.pressure
