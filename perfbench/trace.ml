(* Spans recorded by the traced run, kept in memory and written out as
   Chrome trace-event JSON when the run ends. Every span carries the id
   of the op it belongs to: an op span and the layer spans under it
   (launches, derived compile time, replayed layers) share that id.
   Times are monotonic nanoseconds. *)

let now () : int64 = Monotonic_clock.now ()
let since (t0 : int64) : int64 = Int64.sub (now ()) t0
let secs (ns : int64) : float = Int64.to_float ns *. 1e-9

type span = {
  op : int;
  name : string;
  lane : int; (* 0: the op as it ran; 1: layers replayed after it *)
  t0 : int64;
  t1 : int64;
}

type t = { mutable spans : span list; mutable count : int }

(* The cap bounds the file, not the metrics: spans past it are still
   measured, just not written. *)
let cap = 100_000
let create () = { spans = []; count = 0 }

let add t ~op ?(lane = 0) name t0 t1 =
  if t.count < cap then begin
    t.spans <- { op; name; lane; t0; t1 } :: t.spans;
    t.count <- t.count + 1
  end

let clear t =
  t.spans <- [];
  t.count <- 0

(* Chrome's "complete" events (ph = X), microsecond timestamps
   relative to the earliest span. *)
let write_chrome t (path : string) : unit =
  let spans = List.rev t.spans in
  let base = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int spans in
  let us ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %.3f, \
         \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"op\": %d}}"
        (if i = 0 then "" else ",\n")
        s.name (us s.t0)
        (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3)
        (s.lane + 1) s.op)
    spans;
  output_string oc "\n]}\n"
