(* How fast the host's CPU runs at the moment. A virtual machine on a
   shared host shares its physical cores with other machines' work and
   goes through phases, from seconds to many minutes long, in which
   everything runs up to 1.7x more slowly, plain register arithmetic
   included. A run that falls inside such a phase reads slow on every
   op, and no choice among its own samples can undo that.

   So the benchmark times this fixed loop, which touches no memory,
   allocates nothing and so cannot be sped up or slowed down by the
   program under test, right before and right after each unit of work.
   A unit's host factor is the mean of its two probe times over
   [reference_s], and its times are divided by it (Pbstats.host_factor).
   Measured on 2 vCPUs of a shared Intel Xeon host over 25 runs of the
   three workloads, this took the spread of a run's ops_per_s between
   runs from 0.31 to 0.06 (serve-churn), 0.27 to 0.03 (hecbench-cold)
   and 0.05 to 0.02 (serve-hot). A probe that allocates, or one that
   walks a table, was measured too and followed the program less well.
   Time the hypervisor takes from the VM between two probes is not
   seen. *)

(* The probe's time in the host's fast phases (2 vCPUs of an Intel Xeon
   at 2.1 GHz). Corrected times are times at this speed; on another host
   they are all scaled by the same constant. *)
let reference_s = 0.85e-3

let probe () : float =
  let t0 = Trace.now () in
  let x = ref 0 in
  for i = 1 to 1_000_000 do
    x := !x lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !x);
  Trace.secs (Trace.since t0)
