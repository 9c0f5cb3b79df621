(* The control-flow graph of a function over block indices: block i is
   the i-th of [f.blocks]. Labels are converted at the edges, through
   [index] and [blocks]. *)

open Proteus_support

type t = {
  blocks : Ir.block array;         (* f.blocks, by position *)
  index : int Util.Stbl.t;         (* label -> position *)
  succ : int list array;           (* successors, in terminator order *)
  pred : int list array;           (* predecessors, reachable or not, in block order *)
  rpo : int list;                  (* blocks reachable from the entry, reverse postorder *)
  reachable : bool array;
}

(* The blocks, the label table and the successor lists. A branch to a
   label no block carries is not an edge. *)
let graph (f : Ir.func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Util.Stbl.create (2 * n) in
  (* the first block of a label wins, as in Ir.find_block *)
  for i = n - 1 downto 0 do
    Util.Stbl.replace index blocks.(i).Ir.label i
  done;
  (* [Ir.successors], each label resolved, without the label list *)
  let target l rest = match Util.Stbl.find_opt index l with Some s -> s :: rest | None -> rest in
  let succ =
    Array.map
      (fun (b : Ir.block) ->
        match b.term with
        | Ir.TBr l -> target l []
        | Ir.TCondBr (_, t, e) -> if t = e then target t [] else target t (target e [])
        | Ir.TRet _ | Ir.TUnreachable -> [])
      blocks
  in
  (blocks, index, succ)

(* Depth-first search over [0, n) from [root], following each [succ]
   list in order: the reverse postorder of the nodes it reaches, and
   the mask of those nodes. *)
let dfs n root (succ : int -> int list) =
  let seen = Array.make n false in
  let post = ref [] in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (succ v);
      post := v :: !post
    end
  in
  if n > 0 then go root;
  (!post, seen)

let build_fresh (f : Ir.func) =
  let blocks, index, succ = graph f in
  let n = Array.length blocks in
  let pred = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun s -> pred.(s) <- i :: pred.(s)) succ.(i)
  done;
  let rpo, reachable = dfs n 0 (Array.get succ) in
  { blocks; index; succ; pred; rpo; reachable }

(* Graph reuse inside one optimizer run. A graph's only inputs are the
   block list and each block's label and terminator, and nothing
   writes into a [t] once built: while all three are physically the
   ones a kept graph was built from, it is the graph [build_fresh]
   would return. Most pass runs change no block list, label or
   terminator, so the next pass run on the function reuses the graph,
   and the dominator tree [Dom] keeps beside it. *)

(* A dominator tree kept with its graph; [Dom] adds the constructor. *)
type tree = ..

type memo = {
  list : Ir.block list;
  labels : string array;
  terms : Ir.term array;
  graph : t;
  mutable tree : tree option;
}

(* One entry per function a pass sweeps over, up to [memo_size]; None
   outside [reusing]. *)
let memo_size = 8
let memos : memo list option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* [fn ()] with graph reuse on in this domain. The kept graphs are
   dropped when [fn] returns, so they hold no IR alive after it. *)
let reusing fn =
  let outer = Domain.DLS.get memos in
  Domain.DLS.set memos (Some []);
  Fun.protect ~finally:(fun () -> Domain.DLS.set memos outer) fn

let build (f : Ir.func) =
  let valid m =
    let rec same i =
      i < 0
      ||
      let b = m.graph.blocks.(i) in
      b.label == m.labels.(i) && b.term == m.terms.(i) && same (i - 1)
    in
    m.list == f.blocks && same (Array.length m.labels - 1)
  in
  match Domain.DLS.get memos with
  | None -> build_fresh f
  | Some ms -> (
      match List.find_opt valid ms with
      | Some m -> m.graph
      | None ->
          let t = build_fresh f in
          let labels = Array.map (fun (b : Ir.block) -> b.label) t.blocks
          and terms = Array.map (fun (b : Ir.block) -> b.term) t.blocks in
          let ms = List.filter (fun m -> m.list != f.blocks) ms in
          let entry = { list = f.blocks; labels; terms; graph = t; tree = None } in
          Domain.DLS.set memos (Some (entry :: List.filteri (fun i _ -> i < memo_size - 1) ms));
          t)

(* The entry that keeps [t], inside [reusing]. *)
let memo_of t =
  match Domain.DLS.get memos with
  | None -> None
  | Some ms -> List.find_opt (fun m -> m.graph == t) ms

(* Does some edge close a cycle? In reverse postorder every edge runs
   forward except the retreating ones, and the back edge of every
   natural loop retreats: a graph without one has no loops. *)
let has_cycle t =
  let pos = Array.make (Array.length t.blocks) (-1) in
  List.iteri (fun i b -> pos.(b) <- i) t.rpo;
  List.exists (fun b -> List.exists (fun s -> pos.(s) <= pos.(b)) t.succ.(b)) t.rpo

let index t l = Util.Stbl.find t.index l
let index_opt t l = Util.Stbl.find_opt t.index l
let label t i = t.blocks.(i).Ir.label

(* Drop the blocks [live] does not mark and the phi entries from them. *)
let drop (f : Ir.func) index live =
  f.blocks <- List.filteri (fun i _ -> live.(i)) f.blocks;
  let live_label l = match Util.Stbl.find_opt index l with Some i -> live.(i) | None -> false in
  List.iter
    (fun (b : Ir.block) ->
      b.insts <-
        List.map
          (function
            | Ir.IPhi (d, incoming) ->
                Ir.IPhi (d, List.filter (fun (l, _) -> live_label l) incoming)
            | i -> i)
          b.insts)
    f.blocks

(* Drop blocks not reachable from entry; prune stale phi entries. *)
let remove_unreachable (f : Ir.func) =
  let blocks, index, succ = graph f in
  let _, live = dfs (Array.length blocks) 0 (Array.get succ) in
  let changed = Array.exists not live in
  if changed then drop f index live;
  changed

(* [remove_unreachable f], then the graph of what is left. The graph
   that finds every block reachable is that graph, so a pass that
   starts with both builds one graph when nothing is dropped, which is
   nearly always. *)
let prune (f : Ir.func) : t =
  let t = build f in
  if Array.for_all Fun.id t.reachable then t
  else begin
    drop f t.index t.reachable;
    build f
  end
