(* How the benchmark drives the program: seeded inputs, spans around
   each World entry-point call, and the per-context bookkeeping the
   output checks use. *)

open Twindrivers
module Ledger = Td_xen.Ledger

let now = Clock.now

(* ---- seeded inputs ---- *)

(* xorshift on OCaml's 63-bit ints; each use draws from its own stream,
   so the untraced, traced and reference runs replay identical choices *)
type rng = { mutable s : int }

let rng seed = { s = (seed * 0x9E3779B1) lxor 0x5DEECE66D lor 1 }

let next r =
  let x = r.s in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r.s <- x;
  x land max_int

let below r n = next r mod n
let random_bytes r len = String.init len (fun _ -> Char.chr (below r 256))

(* ---- spans around entry-point calls ---- *)

let op_names =
  [| "transmit"; "transmit_from"; "inject_rx"; "pump"; "tick"; "create_guest";
     "destroy_guest"; "shutdown"; "recover"; "mq.run"; "mq.job"; "mq.merge" |]

let op_transmit = 0
let op_transmit_from = 1
let op_inject_rx = 2
let op_pump = 3
let op_tick = 4
let op_create_guest = 5
let op_destroy_guest = 6
let op_shutdown = 7
let op_recover = 8
let op_mq_run = 9
let op_mq_job = 10
let op_mq_merge = 11
let world_ops = 8

type tracer = { on : bool; buf : Spans.buf }

(* spans of one run: the main domain's buffer and one per shard worker *)
type tracers = { main : tracer; shard : tracer array }

let untraced =
  let t = { on = false; buf = Spans.create ~id:0 ~capacity:0 } in
  { main = t; shard = [| t |] }

let shard_tracer trs q = trs.shard.(q mod Array.length trs.shard)

(* [f] receives the span's reference, the parent of spans it opens *)
let span tr ?(parent = Spans.none) ~round op f =
  if not tr.on then f Spans.none
  else begin
    let s = Spans.enter tr.buf ~op ~parent ~round in
    match f (Spans.ref_of tr.buf s) with
    | r ->
        Spans.leave tr.buf s;
        r
    | exception e ->
        Spans.leave tr.buf s;
        raise e
  end

(* A World entry point. A call during which World.recoveries rose gets a
   [recover] child span over the same interval. *)
let call tr ?(parent = Spans.none) ~round w op f =
  if not tr.on then f ()
  else begin
    let before = World.recoveries w in
    let s = Spans.enter tr.buf ~op ~parent ~round in
    let close () =
      Spans.leave tr.buf s;
      if World.recoveries w > before then Spans.mark tr.buf s ~op:op_recover
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* ---- per-context bookkeeping and output checks ---- *)

type tally = {
  mutable tx_offered : int;
  mutable tx_refused : int;  (** transmit returned false, or aborted *)
  mutable rx_injected : int;
  mutable rx_popped : int;
  mutable rx_foreign : int;  (** popped payloads that were not pending *)
  mutable aborts : int;  (** Driver_aborted / Nic_quarantined contained *)
  pending : (string, int) Hashtbl.t;  (** injected, not yet popped *)
  stamps : Ledger.t;
      (** twin-path sojourn samples on the ledger clock; the domU
          workloads read the I/O channel's own samples instead *)
  due : int array;  (** ledger clock at injection, per frame of a batch *)
}

let tally () =
  {
    tx_offered = 0;
    tx_refused = 0;
    rx_injected = 0;
    rx_popped = 0;
    rx_foreign = 0;
    aborts = 0;
    pending = Hashtbl.create 64;
    stamps = Ledger.create ();
    due = Array.make 64 0;
  }

let contained t f =
  try f ()
  with World.Driver_aborted _ | World.Nic_quarantined _ ->
    t.aborts <- t.aborts + 1

(* a single world's simulated clock: its ledger's running total *)
let clock w = Ledger.grand_total (World.ledger w)

let transmit tr ?parent ~round t w op f =
  t.tx_offered <- t.tx_offered + 1;
  match call tr ?parent ~round w op f with
  | true -> ()
  | false -> t.tx_refused <- t.tx_refused + 1
  | exception (World.Driver_aborted _ | World.Nic_quarantined _) ->
      t.aborts <- t.aborts + 1;
      t.tx_refused <- t.tx_refused + 1

let inject tr ?parent ~round t w ?guest ~nic payload =
  t.rx_injected <- t.rx_injected + 1;
  Hashtbl.replace t.pending payload
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pending payload));
  contained t (fun () ->
      call tr ?parent ~round w op_inject_rx (fun () ->
          World.inject_rx ?guest w ~nic ~payload))

(* pop everything delivered; each payload must be one still pending *)
let drain t w =
  let n = ref 0 in
  let rec go () =
    match World.rx_pop w with
    | None -> ()
    | Some p ->
        incr n;
        (match Hashtbl.find_opt t.pending p with
        | Some 1 -> Hashtbl.remove t.pending p
        | Some k -> Hashtbl.replace t.pending p (k - 1)
        | None -> t.rx_foreign <- t.rx_foreign + 1);
        go ()
  in
  go ();
  t.rx_popped <- t.rx_popped + !n;
  !n

let pump tr ?parent ~round t w =
  contained t (fun () ->
      call tr ?parent ~round w op_pump (fun () -> World.pump w))

let tick tr ?parent ~round t w =
  contained t (fun () ->
      call tr ?parent ~round w op_tick (fun () -> World.tick w))

let shutdown tr ?parent t w =
  pump tr ?parent ~round:(-1) t w;
  tick tr ?parent ~round:(-1) t w;
  contained t (fun () ->
      call tr ?parent ~round:(-1) w op_shutdown (fun () -> World.shutdown w));
  ignore (drain t w)

(* twin receive batch: inject, pump, and stamp each delivered frame with
   its sojourn from injection to the end of the pump that delivered it *)
let twin_rx_batch tr ~round t w payloads =
  let nics = World.nic_count w in
  Array.iteri
    (fun i p ->
      t.due.(i) <- clock w;
      inject tr ~round t w ~nic:(i mod nics) p)
    payloads;
  pump tr ~round t w;
  let done_at = clock w in
  let got = drain t w in
  for i = 0 to min got (Array.length payloads) - 1 do
    Ledger.note_latency t.stamps `Rx (done_at - t.due.(i))
  done
