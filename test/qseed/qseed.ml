(* Deterministic seeding for the qcheck property suites.

   Every property runs from a fixed seed by default so test results are
   reproducible; set PROTEUS_QCHECK_SEED to explore other seeds (CI can
   rotate it) or to replay a failure. The active seed is printed when a
   property fails. *)

(* Read with the knob table's name, parser and default, but a malformed
   seed stops the suite (exit 2) instead of running a seed nobody asked
   for. *)
let seed =
  let k = Proteus_support.Knob.qcheck_seed in
  match Sys.getenv_opt k.name with
  | None -> k.default
  | Some s -> (
      match k.parse s with
      | Some n -> n
      | None ->
          Printf.eprintf "%s=%S is not an integer\n%!" k.name s;
          exit 2)

let qtest cell =
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) cell
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf
          "[qcheck] %s failed under seed %d (replay with PROTEUS_QCHECK_SEED=%d)\n%!"
          name seed seed;
        raise e )
