(* The machine's speed, read off a fixed reference kernel.

   On a shared virtual machine a core runs at anywhere from full speed
   to half of it, in stretches of a fraction of a second to minutes, as
   the host's other tenants come and go; the guest sees no steal time,
   and CPU time equals wall time.  A time measured on such a core says
   as much about the neighbours as about the code: in calibration, raw
   times of 10 runs of one workload spread by 13-38% (interquartile
   range over median).

   So every end-to-end time the harness reports is scaled to reference
   speed: the time measured, times [nominal] over the time this kernel
   took on the same core right next to it.  A change that makes the
   program slower moves the measured time and not the kernel's, and
   shows in full; a slow stretch moves both and cancels.  The kernel is
   the benchmark's own code, a radix-2 FFT on unboxed float arrays
   (floating-point arithmetic, libm calls and strided loads, like the
   solvers' hot paths), so no change to the program can move it. *)

(* Seconds [kernel] takes on an uncontended core of the calibration
   machine (its fast stretches; see README.md).  Scaled times are what
   that core would have taken. *)
let nominal = 0.0008

let n = 2048
let re = Float.Array.make n 0.
let im = Float.Array.make n 0.

(* Three in-place radix-2 FFTs of [n] points: about 1 ms. *)
let kernel () =
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      Float.Array.set re i (float_of_int (i land 7));
      Float.Array.set im i 0.
    done;
    (* bit-reversal permutation; the input is real, so [im] stays 0 *)
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let t = Float.Array.get re i in
        Float.Array.set re i (Float.Array.get re !j);
        Float.Array.set re !j t
      end;
      let m = ref (n lsr 1) in
      while !m >= 1 && !j land !m <> 0 do
        j := !j lxor !m;
        m := !m lsr 1
      done;
      j := !j lor !m
    done;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let ang = -2. *. Float.pi /. float_of_int !len in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let wr = cos (ang *. float_of_int k) and wi = sin (ang *. float_of_int k) in
          let a = !i + k and b = !i + k + half in
          let xr = Float.Array.get re b and xi = Float.Array.get im b in
          let tr = (wr *. xr) -. (wi *. xi) and ti = (wr *. xi) +. (wi *. xr) in
          Float.Array.set re b (Float.Array.get re a -. tr);
          Float.Array.set im b (Float.Array.get im a -. ti);
          Float.Array.set re a (Float.Array.get re a +. tr);
          Float.Array.set im a (Float.Array.get im a +. ti)
        done;
        i := !i + !len
      done;
      len := !len * 2
    done
  done

(* One reading: the factor that scales a time measured on this core
   right now to reference speed (1 on the calibration machine's fast
   stretches, about 0.5 on its slow ones). *)
let factor () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  nominal /. (Unix.gettimeofday () -. t0)
