(* Host time and CPU placement (clock_stubs.c). *)

(* monotonic seconds; allocation-free *)
external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

(* pin the calling thread to one CPU, or release it with a negative
   argument; false when the host refuses *)
external pin : int -> bool = "perfbench_pin"
