(* General-purpose helpers shared across the Proteus stack. *)

let failf fmt = Format.kasprintf failwith fmt

(* FNV-1a 64-bit hashing; used for specialization keys and module ids.
   The folds keep the running hash in a local that no closure captures,
   so the native compiler holds it unboxed and each call boxes only its
   result. *)
module Fnv = struct
  let offset_basis = 0xcbf29ce484222325L
  let prime = 0x100000001b3L

  let add_string h s =
    let h = ref h in
    for i = 0 to String.length s - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          prime
    done;
    !h

  let[@inline] add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

  (* the 8 bytes of [x], least significant first, taken from its two
     32-bit halves as native ints *)
  let add_int64 h (x : int64) =
    let lo = Int64.to_int x land 0xffffffff in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    let h = add_byte h (lo land 0xff) in
    let h = add_byte h ((lo lsr 8) land 0xff) in
    let h = add_byte h ((lo lsr 16) land 0xff) in
    let h = add_byte h (lo lsr 24) in
    let h = add_byte h (hi land 0xff) in
    let h = add_byte h ((hi lsr 8) land 0xff) in
    let h = add_byte h ((hi lsr 16) land 0xff) in
    add_byte h (hi lsr 24)

  let add_int h x = add_int64 h (Int64.of_int x)

  let string s = add_string offset_basis s

  (* 16 lowercase hex digits, most significant first (= "%016Lx") *)
  let to_hex h =
    let b = Bytes.create 16 in
    let hi = Int64.to_int (Int64.shift_right_logical h 32) in
    let lo = Int64.to_int h land 0xffffffff in
    for i = 0 to 7 do
      let sh = 28 - (4 * i) in
      Bytes.unsafe_set b i (String.unsafe_get "0123456789abcdef" ((hi lsr sh) land 0xf));
      Bytes.unsafe_set b (i + 8) (String.unsafe_get "0123456789abcdef" ((lo lsr sh) land 0xf))
    done;
    Bytes.unsafe_to_string b
end

let hash_hex s = Fnv.to_hex (Fnv.string s)

(* CRC32 (IEEE 802.3 polynomial, reflected); used by the persistent
   code cache to detect corrupted or truncated entries on disk. *)
module Crc32 = struct
  (* eager: a lazy forced by several domains at once raises
     CamlinternalLazy.Undefined *)
  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let update (crc : int32) (s : string) : int32 =
    let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
    String.iter
      (fun ch ->
        let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
        c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
      s;
    Int32.logxor !c 0xFFFFFFFFl

  let string (s : string) : int32 = update 0l s
end

(* mkdir -p: create [dir] and any missing parents; racing creators and
   pre-existing directories are fine (EEXIST is swallowed). *)
let rec mkdir_p ?(perm = 0o755) dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p ~perm parent;
    try Unix.mkdir dir perm with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Growable array; the IR uses one for per-function register types. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create ?(capacity = 16) dummy =
    { data = Array.make (max capacity 1) dummy; len = 0; dummy }

  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then failf "Vec.get: index %d out of bounds %d" i v.len;
    v.data.(i)

  let set v i x =
    if i < 0 || i >= v.len then failf "Vec.set: index %d out of bounds %d" i v.len;
    v.data.(i) <- x

  let ensure v n =
    if n > Array.length v.data then begin
      let cap = ref (Array.length v.data) in
      while !cap < n do
        cap := !cap * 2
      done;
      let data = Array.make !cap v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end

  let push v x =
    ensure v (v.len + 1);
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_list v = List.init v.len (fun i -> v.data.(i))
  let of_list dummy l =
    let v = create dummy in
    List.iter (push v) l;
    v
  let iter f v =
    for i = 0 to v.len - 1 do
      f v.data.(i)
    done
  let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }
end

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* String-keyed tables that hash and compare as strings, not through
   the polymorphic hash and compare. *)
module Stbl = Hashtbl.Make (String)
module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* Little-endian byte encoding used by bitcode and device memory. *)
module Bytesio = struct
  module W = struct
    type t = Buffer.t

    let create () = Buffer.create 256
    let u8 b x = Buffer.add_char b (Char.unsafe_chr (x land 0xff))

    (* one word at a time, little-endian *)
    let u32 b (x : int32) = Buffer.add_int32_le b x
    let u64 b (x : int64) = Buffer.add_int64_le b x
    let int b x = Buffer.add_int64_le b (Int64.of_int x)
    let f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

    let str b s =
      int b (String.length s);
      Buffer.add_string b s

    let bool b x = u8 b (if x then 1 else 0)

    let list b f xs =
      int b (List.length xs);
      List.iter (f b) xs

    let option b f = function
      | None -> bool b false
      | Some x ->
          bool b true;
          f b x

    let contents b = Buffer.contents b
  end

  module R = struct
    type t = { s : string; mutable pos : int }

    let create s = { s; pos = 0 }

    (* A word is read whole, after one check that all its bytes are
       there; a short one fails as [u8] would on its first missing
       byte. *)
    let need r n =
      if r.pos + n > String.length r.s then failwith "Bytesio.R.u8: truncated input"

    let u8 r =
      need r 1;
      let x = Char.code (String.unsafe_get r.s r.pos) in
      r.pos <- r.pos + 1;
      x

    let u32 r =
      need r 4;
      let x = String.get_int32_le r.s r.pos in
      r.pos <- r.pos + 4;
      x

    let u64 r =
      need r 8;
      let x = String.get_int64_le r.s r.pos in
      r.pos <- r.pos + 8;
      x

    let int r =
      need r 8;
      let x = Int64.to_int (String.get_int64_le r.s r.pos) in
      r.pos <- r.pos + 8;
      x

    let f64 r = Int64.float_of_bits (u64 r)

    let str r =
      let n = int r in
      if r.pos + n > String.length r.s then failf "Bytesio.R.str: truncated input";
      let s = String.sub r.s r.pos n in
      r.pos <- r.pos + n;
      s

    let bool r = u8 r <> 0

    let list r f =
      let n = int r in
      List.init n (fun _ -> f r)

    let option r f = if bool r then Some (f r) else None
    let at_end r = r.pos >= String.length r.s
  end
end

(* Constant-time SWAR popcount; the SIMT executor calls this once per
   executed warp instruction, so it must not loop over 64 bits. *)
let popcount64 (x : int64) : int =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Float helpers: OCaml floats are doubles; f32 semantics round through
   the 32-bit representation. *)
let to_f32 (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let round_up x align = (x + align - 1) / align * align

let pow2_log2 (x : int64) =
  (* [Some k] if x = 2^k with k >= 0. *)
  if Int64.compare x 0L <= 0 then None
  else if Int64.logand x (Int64.pred x) <> 0L then None
  else begin
    let k = ref 0 and v = ref x in
    while Int64.compare !v 1L > 0 do
      v := Int64.shift_right_logical !v 1;
      incr k
    done;
    Some !k
  end

let list_index_of p l =
  let rec go i = function
    | [] -> None
    | x :: _ when p x -> Some i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 l

(* [List.filter keep l], with [keep] applied in order, that returns [l]
   itself when [keep] holds for every element: a pass that deletes
   nothing allocates nothing. *)
let filter_shared keep l =
  let rec go = function
    | [] -> []
    | x :: rest as l ->
        let k = keep x in
        let rest' = go rest in
        if not k then rest' else if rest' == rest then l else x :: rest'
  in
  go l

let human_bytes n =
  if n < 1024 then Printf.sprintf "%dB" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1fKB" (float_of_int n /. 1024.)
  else Printf.sprintf "%.1fMB" (float_of_int n /. (1024. *. 1024.))

(* Deterministic splitmix64 PRNG for workload generation. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    (* Uniform in [0, 1). *)
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits /. 9007199254740992.0

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))
end
