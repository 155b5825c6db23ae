(* Benchmark-side trace spans. A span is one call the benchmark makes
   into a public entry point: name, host start and end, the span that
   caused it, the round it belongs to and the words the calling domain
   allocated meanwhile. Nothing inside the program is instrumented.

   Each OCaml domain that records owns one buffer, preallocated before
   the measured window, so recording never allocates or synchronises;
   the buffers are read only after every recording domain has been
   joined. *)

type buf = {
  id : int;
  ints : int array;  (** op, parent, round — three per span *)
  floats : float array;  (** start, stop, words — three per span *)
  mutable len : int;
  mutable dropped : int;  (** spans that did not fit *)
}

let none = -1

let create ~id ~capacity =
  {
    id;
    ints = Array.make (3 * capacity) 0;
    floats = Array.make (3 * capacity) 0.0;
    len = 0;
    dropped = 0;
  }

let capacity b = Array.length b.ints / 3

(* a span's identity across buffers, used as a child's [parent] *)
let ref_of b i = if i < 0 then none else (b.id lsl 32) lor i

let enter b ~op ~parent ~round =
  let i = b.len in
  if i >= capacity b then begin
    b.dropped <- b.dropped + 1;
    none
  end
  else begin
    b.len <- i + 1;
    b.ints.(3 * i) <- op;
    b.ints.((3 * i) + 1) <- parent;
    b.ints.((3 * i) + 2) <- round;
    b.floats.(3 * i) <- Clock.now ();
    b.floats.((3 * i) + 2) <- Gc.minor_words ();
    i
  end

let leave b i =
  if i >= 0 then begin
    b.floats.((3 * i) + 1) <- Clock.now ();
    b.floats.((3 * i) + 2) <- Gc.minor_words () -. b.floats.((3 * i) + 2)
  end

let op b i = b.ints.(3 * i)
let round b i = b.ints.((3 * i) + 2)
let start b i = b.floats.(3 * i)
let stop b i = b.floats.((3 * i) + 1)
let duration b i = stop b i -. start b i
let words b i = b.floats.((3 * i) + 2)

(* a child span covering exactly span [i]'s interval *)
let mark b i ~op =
  if i >= 0 then begin
    let j = enter b ~op ~parent:(ref_of b i) ~round:(round b i) in
    if j >= 0 then begin
      b.floats.(3 * j) <- start b i;
      b.floats.((3 * j) + 1) <- stop b i;
      b.floats.((3 * j) + 2) <- 0.0
    end
  end

(* One line per span; times are seconds from [origin]. *)
let write oc ~names ~origin bufs =
  output_string oc "buffer\tspan\tname\tstart_s\tend_s\tparent\tround\twords\n";
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let parent = b.ints.((3 * i) + 1) in
        Printf.fprintf oc "%d\t%d\t%s\t%.9f\t%.9f\t%s\t%d\t%.0f\n" b.id i
          names.(op b i)
          (start b i -. origin)
          (stop b i -. origin)
          (if parent = none then "-"
           else Printf.sprintf "%d:%d" (parent lsr 32) (parent land 0xFFFFFFFF))
          (round b i) (words b i)
      done)
    bufs
