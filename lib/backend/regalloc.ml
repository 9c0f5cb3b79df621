(* Linear-scan register allocation over the machine IR, with per-class
   physical register budgets and spilling to scratch slots.

   The budgets are where the paper's launch-bounds story plays out: the
   caller (GCN or ptxas) derives the vector-register cap from the
   kernel's launch bounds (or a conservative default assuming the
   maximum block size), and kernels whose pressure exceeds the cap pay
   for spill loads/stores through memory.

   Everything is indexed by int: blocks by their position, registers by
   their id within a class. Liveness keeps one live-in bitset per block
   over the registers of a class, intervals are put in visiting order
   by counting sorts over positions, the active set is a flat array
   ordered by interval end with a running pressure sum, and
   assignments, register units and spill slots are int arrays. The
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

(* One past the largest register id of each class. *)
let reg_bounds (f : Mach.mfunc) : int * int =
  let nv = ref 0 and ns = ref 0 in
  let see (r : Mach.reg) =
    match r.Mach.rcls with
    | Mach.CV -> if r.Mach.rid >= !nv then nv := r.Mach.rid + 1
    | Mach.CS -> if r.Mach.rid >= !ns then ns := r.Mach.rid + 1
  in
  let see_src = function Mach.Rs r -> see r | Mach.Ki _ | Mach.Gs _ -> () in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          Option.iter see i.Mach.dst;
          List.iter see_src i.Mach.srcs)
        b.Mach.code;
      match b.Mach.term with Mach.Tcbr (c, _, _) -> see_src c | _ -> ())
    f.Mach.blocks;
  (!nv, !ns)

(* ------------------------------------------------------------------ *)
(* Rematerialization: ptxas-style cleanup that removes constant moves,
   shortening live ranges before allocation. Only registers defined
   exactly once, by a move of a constant, qualify. *)

let rematerialize_consts (f : Mach.mfunc) ~nv ~ns : unit =
  let defs_v = Array.make nv 0 and defs_s = Array.make ns 0 in
  let k_v = Array.make nv None and k_s = Array.make ns None in
  let defs (r : Mach.reg) = if r.Mach.rcls = Mach.CV then defs_v else defs_s in
  let konst (r : Mach.reg) = if r.Mach.rcls = Mach.CV then k_v else k_s in
  List.iter
    (fun (b : Mach.mblock) ->
      List.iter
        (fun (i : Mach.minstr) ->
          match i.Mach.dst with
          | Some d ->
              let n = defs d in
              n.(d.Mach.rid) <- n.(d.Mach.rid) + 1;
              (konst d).(d.Mach.rid) <-
                (match (i.Mach.op, i.Mach.srcs) with
                | Mach.Omov _, [ Mach.Ki k ] -> Some k
                | _ -> None)
          | None -> ())
        b.Mach.code)
    f.Mach.blocks;
  let remat (r : Mach.reg) = (defs r).(r.Mach.rid) = 1 && (konst r).(r.Mach.rid) <> None in
  let subst (s : Mach.msrc) =
    match s with
    | Mach.Rs r when remat r -> (
        match (konst r).(r.Mach.rid) with Some k -> Mach.Ki k | None -> s)
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

type layout = {
  blocks : Mach.mblock array;
  start : int array; (* linear index of each block's first instruction *)
  len : int array; (* instructions before the terminator *)
  succ : int list array;
  num : int; (* total instruction slots, one per terminator included *)
  slots : int; (* register operand slots at most: sources, destinations, conditions *)
}

let layout (f : Mach.mfunc) : layout =
  let blocks = Array.of_list f.Mach.blocks in
  let nb = Array.length blocks in
  let start = Array.make nb 0 and len = Array.make nb 0 in
  let pos = ref 0 and slots = ref 0 in
  Array.iteri
    (fun k (b : Mach.mblock) ->
      start.(k) <- !pos;
      List.iter
        (fun (i : Mach.minstr) ->
          incr pos;
          slots := !slots + 1 + List.length i.Mach.srcs)
        b.Mach.code;
      len.(k) <- !pos - start.(k);
      incr pos;
      incr slots)
    blocks;
  let succ = Mach.succ_indices blocks in
  { blocks; start; len; succ = Array.init nb succ; num = !pos; slots = !slots }

(* Divergent-branch regions: for every conditional branch on a vector
   (per-lane) register, the blocks the SIMT engines may execute under a
   partial mask before reconverging at the branch block's immediate
   postdominator, plus that reconvergence block (-1 when the paths only
   meet at exit). *)
let divergent_regions (l : layout) : (int list * int) list =
  let n = Array.length l.blocks in
  let ipdom = Dom.ipostdoms n (Array.get l.succ) in
  let regions = ref [] in
  for i = n - 1 downto 0 do
    match l.blocks.(i).Mach.term with
    | Mach.Tcbr (Mach.Rs { Mach.rcls = Mach.CV; _ }, _, _) ->
        let stop = ipdom.(i) in
        (* all blocks reachable from the successors short of the
           reconvergence point (not just the postdominator chains) *)
        let seen = Array.make n false and region = ref [] in
        let rec go j =
          if j <> stop && not seen.(j) then begin
            seen.(j) <- true;
            region := j :: !region;
            List.iter go l.succ.(j)
          end
        in
        List.iter go l.succ.(i);
        regions := (!region, stop) :: !regions
    | _ -> ()
  done;
  !regions

(* ------------------------------------------------------------------ *)
(* Liveness and intervals                                              *)

(* Bitsets of [1 lsl lg] bits per int word; a class's live-in sets are
   one array of [w] words per block, block [b] at [b*w, b*w+w). *)
let lg = if Sys.int_size >= 63 then 5 else 4

let[@inline] bit_add (s : int array) o r =
  let k = o + (r lsr lg) in
  s.(k) <- s.(k) lor (1 lsl (r land ((1 lsl lg) - 1)))

let[@inline] bit_remove (s : int array) o r =
  let k = o + (r lsr lg) in
  s.(k) <- s.(k) land lnot (1 lsl (r land ((1 lsl lg) - 1)))

(* Apply [f] to every member of the set at [s.(o..o+w-1)]. *)
let bit_iter (s : int array) o w (f : int -> unit) =
  for k = 0 to w - 1 do
    let x = ref s.(o + k) and r = ref (k lsl lg) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !r;
      x := !x lsr 1;
      incr r
    done
  done

(* The live intervals of one register class, in visiting order. *)
type intervals = {
  first : int array; (* by register id; max_int when never touched *)
  last : int array;
  units : int array; (* register units, from the type of the last definition *)
  order : int array; (* touched registers by (first, last, id) *)
}

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

(* [ids] stably reordered by [key], whose values lie in [0, range). *)
let counting_sort (ids : int array) (key : int array) range =
  let count = Array.make (range + 1) 0 in
  Array.iter (fun r -> count.(key.(r) + 1) <- count.(key.(r) + 1) + 1) ids;
  for k = 1 to range do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  let out = Array.make (Array.length ids) 0 in
  Array.iter
    (fun r ->
      let k = key.(r) in
      out.(count.(k)) <- r;
      count.(k) <- count.(k) + 1)
    ids;
  out

(* An interval spans every position where its register is live-in (the
   block start), live-out (the block end), read or written (the
   instruction's index) or read by a terminator (the block end).

   [regions] lists divergent-branch regions; any register of this class
   live-in anywhere inside a region (or at its reconvergence point) has
   its interval widened to cover the whole region. Scalar registers are
   warp-shared while the SIMT engines serialise the two sides of a
   divergent branch, so CFG liveness alone under-approximates their
   interference: a scalar read on the else side is clobbered by a
   same-register def on the then side even though no CFG path connects
   them (per-lane vector writes are masked and safe). *)
let intervals (f : Mach.mfunc) (l : layout) (cls : Mach.cls) ~n ~reg_units
    ~(regions : (int list * int) list) : intervals =
  let nb = Array.length l.blocks in
  let w = (n + (1 lsl lg) - 1) lsr lg in
  let units = Array.make n 1 in
  let first = Array.make n max_int and last = Array.make n min_int in
  let touch r pos =
    if pos < first.(r) then first.(r) <- pos;
    if pos > last.(r) then last.(r) <- pos
  in
  (* one walk over the code: the reads and writes, and each block's
     upward-exposed uses and definitions, listed at [uses.(use_at.(b))
     ..] and [defs.(def_at.(b)) ..] *)
  let uses = Array.make l.slots 0 and defs = Array.make l.slots 0 in
  let use_at = Array.make (nb + 1) 0 and def_at = Array.make (nb + 1) 0 in
  let nu = ref 0 and nd = ref 0 in
  let def_in = Array.make n (-1) (* the last block defining each register *) in
  let read b pos = function
    | Mach.Rs r when r.Mach.rcls = cls ->
        let r = r.Mach.rid in
        touch r pos;
        if def_in.(r) <> b then begin
          uses.(!nu) <- r;
          incr nu
        end
    | _ -> ()
  in
  let rec read_all b pos = function
    | [] -> ()
    | s :: rest ->
        read b pos s;
        read_all b pos rest
  in
  Array.iteri
    (fun b (blk : Mach.mblock) ->
      use_at.(b) <- !nu;
      def_at.(b) <- !nd;
      let pos = ref l.start.(b) in
      List.iter
        (fun (i : Mach.minstr) ->
          read_all b !pos i.Mach.srcs;
          (match i.Mach.dst with
          | Some d when d.Mach.rcls = cls ->
              let r = d.Mach.rid in
              touch r !pos;
              if def_in.(r) <> b then begin
                def_in.(r) <- b;
                defs.(!nd) <- r;
                incr nd
              end;
              units.(r) <- reg_units (def_ty f i)
          | _ -> ());
          incr pos)
        blk.Mach.code;
      match blk.Mach.term with Mach.Tcbr (c, _, _) -> read b !pos c | _ -> ())
    l.blocks;
  use_at.(nb) <- !nu;
  def_at.(nb) <- !nd;
  (* backward liveness to the least fixpoint; only live-in is kept, a
     block's live-out is the union of its successors' *)
  let live_in = Array.make (nb * w) 0 and out = Array.make w 0 in
  let live_out b =
    Array.fill out 0 w 0;
    List.iter
      (fun s ->
        for k = 0 to w - 1 do
          out.(k) <- out.(k) lor live_in.((s * w) + k)
        done)
      l.succ.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      live_out b;
      for j = def_at.(b) to def_at.(b + 1) - 1 do
        bit_remove out 0 defs.(j)
      done;
      for j = use_at.(b) to use_at.(b + 1) - 1 do
        bit_add out 0 uses.(j)
      done;
      let o = b * w in
      for k = 0 to w - 1 do
        if out.(k) <> live_in.(o + k) then begin
          live_in.(o + k) <- out.(k);
          changed := true
        end
      done
    done
  done;
  Array.iteri
    (fun b start ->
      let bend = start + l.len.(b) in
      bit_iter live_in (b * w) w (fun r -> touch r start);
      live_out b;
      bit_iter out 0 w (fun r -> touch r bend))
    l.start;
  List.iter
    (fun (region, join) ->
      let lo = ref max_int and hi = ref min_int in
      List.iter
        (fun b ->
          if l.start.(b) < !lo then lo := l.start.(b);
          let e = l.start.(b) + l.len.(b) in
          if e > !hi then hi := e)
        region;
      if !lo <= !hi then begin
        let widen r =
          if first.(r) <> max_int then begin
            touch r !lo;
            touch r !hi
          end
        in
        List.iter (fun b -> bit_iter live_in (b * w) w widen) region;
        if join >= 0 then bit_iter live_in (join * w) w widen
      end)
    regions;
  (* visiting order (first, last, id): the touched ids ascending, then
     two stable counting sorts over positions, by last and then first *)
  let touched = ref 0 in
  Array.iter (fun p -> if p <> max_int then incr touched) first;
  let ids = Array.make !touched 0 in
  let k = ref 0 in
  Array.iteri
    (fun r p ->
      if p <> max_int then begin
        ids.(!k) <- r;
        incr k
      end)
    first;
  let order = counting_sort (counting_sort ids last l.num) first l.num in
  { first; last; units; order }

(* ------------------------------------------------------------------ *)
(* Linear scan                                                         *)

(* [asn.(r)]: a physical base register, [spilled], or [dead] for an id
   that never occurs in this class *)
let spilled = -1
let dead = -2

type scan = {
  asn : int array;
  used : int; (* physical register units used *)
  pressure : int; (* maximum simultaneous units *)
  any_spill : bool;
}

let scan (iv : intervals) ~(cap : int) : scan =
  let avail = max 1 (cap - (n_reserved * 2)) in
  let asn = Array.make (Array.length iv.first) dead in
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
  done;
  { asn; used = !used; pressure = !pressure; any_spill = !any_spill }

(* ------------------------------------------------------------------ *)
(* Rewrite with assignments and spill code                             *)

let apply (f : Mach.mfunc) (cfg : config) : unit =
  let nv, ns = reg_bounds f in
  if cfg.rematerialize then rematerialize_consts f ~nv ~ns;
  let l = layout f in
  let reg_units = cfg.reg_units in
  let iv_v = intervals f l Mach.CV ~n:nv ~reg_units ~regions:[] in
  let iv_s =
    if ns = 0 then (* ptxas has folded its scalars into vectors *)
      { first = [||]; last = [||]; units = [||]; order = [||] }
    else intervals f l Mach.CS ~n:ns ~reg_units ~regions:(divergent_regions l)
  in
  let sv = scan iv_v ~cap:cfg.cap_v and ss = scan iv_s ~cap:cfg.cap_s in
  (* spill slots are numbered in the order the rewrite first meets them *)
  let spill_base = ref 0 in
  let slot_v = Array.make nv (-1) and slot_s = Array.make ns (-1) in
  let slot_for (r : Mach.reg) =
    let slots = if r.Mach.rcls = Mach.CV then slot_v else slot_s in
    let s = slots.(r.Mach.rid) in
    if s >= 0 then s
    else begin
      let s = !spill_base in
      incr spill_base;
      slots.(r.Mach.rid) <- s;
      s
    end
  in
  (* temp physical registers for spill traffic *)
  let temp_base_v = cfg.cap_v - (n_reserved * 2) in
  let temp_base_s = cfg.cap_s - (n_reserved * 2) in
  let asn (r : Mach.reg) = (if r.Mach.rcls = Mach.CV then sv.asn else ss.asn).(r.Mach.rid) in
  let temp (r : Mach.reg) ntemp =
    { r with Mach.rid = (if r.Mach.rcls = Mach.CV then temp_base_v else temp_base_s) + (ntemp * 2) }
  in
  let out = ref [] and ntemp = ref 0 in
  let emit i = out := i :: !out in
  let map_src (s : Mach.msrc) : Mach.msrc =
    match s with
    | Mach.Rs r ->
        let p = asn r in
        if p >= 0 then Mach.Rs { r with Mach.rid = p }
        else if p = spilled then begin
          let slot = slot_for r in
          let t = temp r !ntemp in
          incr ntemp;
          emit { Mach.op = Mach.Ospill_ld slot; dst = Some t; srcs = [] };
          Mach.Rs t
        end
        else s
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
          | Some d ->
              let p = asn d in
              if p >= 0 then emit { i with Mach.dst = Some { d with Mach.rid = p }; srcs }
              else if p = spilled then begin
                let slot = slot_for d in
                let t = temp d !ntemp in
                emit { i with Mach.dst = Some t; srcs };
                emit { Mach.op = Mach.Ospill_st slot; dst = None; srcs = [ Mach.Rs t ] }
              end
              else emit { i with srcs }
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
