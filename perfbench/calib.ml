(* Host speed reference.

   On a shared virtual machine the speed of a vCPU swings between
   regimes that last seconds: on a 2-vCPU Xeon VM at 2.1 GHz the kernel
   below ran ~5.6k or ~8.8k times per second depending on the moment,
   and a host rate taken in plain wall time moved by a third between
   identical runs. The benchmark therefore times this fixed kernel —
   hash lookups, 4 KiB block copies, short-lived allocation and strided
   reads over 8 MiB, the mix the simulator's substrate spends its time
   in — right after each slice of work, and scales the slice's rate to
   a host that runs the kernel [reference] times per second.

   The kernel is part of the benchmark's definition: changing it makes
   scaled rates incomparable with those measured before. *)

let reference = 6000.0

let table = Hashtbl.create 4096
let () =
  for i = 0 to 4095 do
    Hashtbl.replace table (i * 7919) (string_of_int i)
  done

let src = Bytes.make 65536 'x'
let dst = Bytes.create 4096

(* outside the OCaml heap, so it does not count towards the heap the
   workloads grow *)
let strided =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  Bigarray.Array1.fill a 1;
  a

let kernel () =
  let acc = ref 0 and l = ref [] in
  for i = 0 to 2999 do
    (match Hashtbl.find_opt table ((i land 4095) * 7919) with
    | Some s -> acc := !acc + String.length s
    | None -> ());
    if i land 7 = 0 then Bytes.blit src (i land 1023) dst 0 4096;
    l := (i, !acc) :: (if i land 63 = 0 then [] else !l);
    acc :=
      !acc + Bigarray.Array1.get strided ((i * 104729) land ((1 lsl 20) - 1))
  done;
  ignore (Sys.opaque_identity (!acc, !l))

(* median rate of nine kernel runs on the calling domain, and the words
   they allocated *)
let measure () =
  let w0 = Gc.minor_words () in
  let rates =
    Array.init 9 (fun _ ->
        let t0 = Clock.now () in
        kernel ();
        1.0 /. (Clock.now () -. t0))
  in
  Array.sort compare rates;
  (rates.(4), Gc.minor_words () -. w0)

(* The kernel rate where the calling thread runs ([cpus] = 1), or that
   of the slowest of CPUs [0 .. cpus - 1] (a sharded round waits for its
   slowest shard), measured one CPU at a time with the thread pinned
   there; and the words the measurement allocated. *)
let speed ~cpus =
  if cpus <= 1 then measure ()
  else begin
    let r = ref infinity and w = ref 0.0 in
    for cpu = 0 to cpus - 1 do
      if Clock.pin cpu then begin
        let r', w' = measure () in
        r := min !r r';
        w := !w +. w'
      end
    done;
    ignore (Clock.pin (-1));
    if !r = infinity then measure () else (!r, !w)
  end
