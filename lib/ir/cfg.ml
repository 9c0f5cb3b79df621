(* The control-flow graph of a function over block indices: block i is
   the i-th of [f.blocks]. Labels are converted at the edges, through
   [index] and [blocks]. *)

type t = {
  blocks : Ir.block array;         (* f.blocks, by position *)
  index : (string, int) Hashtbl.t; (* label -> position *)
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
  let index = Hashtbl.create (2 * n) in
  (* the first block of a label wins, as in Ir.find_block *)
  for i = n - 1 downto 0 do
    Hashtbl.replace index blocks.(i).Ir.label i
  done;
  let succ =
    Array.map
      (fun (b : Ir.block) -> List.filter_map (Hashtbl.find_opt index) (Ir.successors b.term))
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

let build (f : Ir.func) =
  let blocks, index, succ = graph f in
  let n = Array.length blocks in
  let pred = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun s -> pred.(s) <- i :: pred.(s)) succ.(i)
  done;
  let rpo, reachable = dfs n 0 (Array.get succ) in
  { blocks; index; succ; pred; rpo; reachable }

let index t l = Hashtbl.find t.index l
let label t i = t.blocks.(i).Ir.label

(* Drop the blocks [live] does not mark and the phi entries from them. *)
let drop (f : Ir.func) index live =
  f.blocks <- List.filteri (fun i _ -> live.(i)) f.blocks;
  let live_label l = match Hashtbl.find_opt index l with Some i -> live.(i) | None -> false in
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
