(* perfbench: the repository benchmark (README.md in this directory).

     dune exec --root . --cache=disabled --display quiet -- \
       ./perfbench/main.exe --workload twin-netperf --seed 1 \
       --seconds 10 --trace 0

   A run sets the workload up several times (the median is setup_s),
   then drives it through the public World / Mq entry points in a closed
   loop for --seconds of host time. The first [sim_rounds] rounds form
   the simulated window: every simulated metric and the sim_digest are
   taken when it ends, so they depend on the seed alone. With --trace 1
   the run measures an untraced window, then sets up afresh and repeats
   the window with Td_obs enabled and a span around every entry-point
   call, and prints the per-layer metrics instead of the end-to-end
   ones.

   The last line of stdout is the result object; the line before it is
   the run record (host, seed, workload parameters, sim_digest, checks).
   A failed check is named on stderr and the exit code is 1. *)

open Twindrivers
open Drive
open Workloads

(* The process's peak resident set. Gc's top_heap_words is not a
   process-wide high-water mark once shard domains come and go, so the
   kernel's is used; it counts every domain's heap. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find (String.starts_with ~prefix:"VmHWM:")
      |> fun l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
    with Sys_error _ | Not_found | Scanf.Scan_failure _ | End_of_file -> 0
  in
  float_of_int kb /. 1024.0

(* ---- the simulated window ---- *)

type sim = {
  frames : int;  (** tx offered + rx injected *)
  failed : int;  (** tx not on the wire + rx not delivered *)
  tx_n : int;
  tx_p50 : float;
  tx_p99 : float;
  rx_n : int;
  rx_p99 : float;
  cycles : int;  (** ledger grand total *)
  elapsed : int;
  payload_bytes : int;  (** delivered payload, both directions *)
  peak_rss : float;
      (** peak resident MB when the simulated window ends: a fixed amount
          of work, where the host window's length depends on host speed *)
  digest : string;
}

(* the Ethernet header World wraps around every transmitted payload *)
let eth_header_bytes = 14

let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a

let sim_of wl inst trs =
  let led = inst.merged trs in
  let lat =
    if wl.twin then begin
      let l = Ledger.create () in
      Array.iter (fun t -> Ledger.merge_into ~into:l t.stamps) inst.tallies;
      l
    end
    else led
  in
  let pct dir p =
    Option.value ~default:0.0 (Ledger.latency_percentile lat dir p)
  in
  let ws = inst.worlds and ts = inst.tallies in
  let tx_offered = sum (fun t -> t.tx_offered) ts
  and rx_injected = sum (fun t -> t.rx_injected) ts
  and wire = sum World.wire_tx_frames ws
  and wire_bytes = sum World.wire_tx_bytes ws
  and rx = sum World.delivered_rx_frames ws
  and rx_bytes = sum World.delivered_rx_bytes ws in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  List.iter
    (fun (c, v) -> add "%s=%d;" (Ledger.category_name c) v)
    (Ledger.snapshot led);
  List.iter (fun (d, v) -> add "%s=%d;" d v) (Ledger.domain_snapshot led);
  List.iter
    (fun (tag, dir) ->
      add "%s:%d/%.0f/%.0f/%.0f;" tag (Ledger.latency_count lat dir)
        (pct dir 50.) (pct dir 99.) (pct dir 99.9))
    [ ("tx", `Tx); ("rx", `Rx) ];
  add "wire=%d/%d;rx=%d/%d;" wire wire_bytes rx rx_bytes;
  add "offered=%d;refused=%d;injected=%d;popped=%d;aborts=%d;" tx_offered
    (sum (fun t -> t.tx_refused) ts)
    rx_injected
    (sum (fun t -> t.rx_popped) ts)
    (sum (fun t -> t.aborts) ts);
  add "staged=%d;recoveries=%d;throttled=%d;faults=%d;elapsed=%d"
    (sum World.staged_frames ws) (sum World.recoveries ws)
    (sum World.quota_throttled ws) (sum World.fault_injected ws)
    (inst.elapsed ());
  {
    frames = tx_offered + rx_injected;
    failed = tx_offered - wire + (rx_injected - rx);
    tx_n = Ledger.latency_count lat `Tx;
    tx_p50 = pct `Tx 50.;
    tx_p99 = pct `Tx 99.;
    rx_n = Ledger.latency_count lat `Rx;
    rx_p99 = pct `Rx 99.;
    cycles = Ledger.grand_total led;
    elapsed = inst.elapsed ();
    payload_bytes =
      wire_bytes - (eth_header_bytes * wire) + rx_bytes;
    peak_rss = peak_rss_mb ();
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
  }

(* ---- counters read through public accessors ---- *)

(* Raw layer counters of an instance: the interpreter and SVM runtime of
   every world, World's own counters, the ledger, the obs registry and
   the GC. Per-layer metrics are differences across a window. *)
let obs_counters =
  [ "xen.hypercall"; "xen.world_switch"; "xen.virq"; "upcall.invocations";
    "grant.map"; "grant.copy_bytes"; "sched.slices"; "netio.doorbell_polls";
    "netio.ring_full"; "netio.rx_dropped"; "netio.rx_throttled"; "skb.alloc";
    "skb.pool.alloc"; "skb.pool.exhaustions"; "nic.irq"; "nic.dma.read_bytes";
    "nic.rx.dropped"; "stlb.hit"; "stlb.miss" ]

let layer_name = function
  | Ledger.Dom0 -> "dom0"
  | Ledger.DomU -> "domU"
  | Ledger.Xen -> "xen"
  | Ledger.Driver -> "driver"

let counters inst =
  let ws = inst.worlds in
  let f = float_of_int in
  let interp g = f (sum (fun w -> g (World.interp w)) ws) in
  let svm g =
    f (sum (fun w -> match World.svm w with Some rt -> g rt | None -> 0) ws)
  in
  let world g = f (sum g ws) in
  let gc = Gc.quick_stat () in
  let module I = Td_cpu.Interp in
  let module R = Td_svm.Runtime in
  [ ("interp.block_hits", interp I.block_hits);
    ("interp.block_misses", interp I.block_misses);
    ("interp.compiled_hits", interp I.compiled_hits);
    ("interp.compiled_bailouts", interp I.compiled_bailouts);
    ("interp.stlb_elided", interp I.stlb_elided);
    ("interp.invalidations", interp I.invalidations);
    ("interp.steps", world (fun w -> (World.cpu_state w).Td_cpu.State.steps));
    ("svm.misses", svm R.misses); ("svm.collisions", svm R.collisions);
    ("svm.faults", svm R.faults); ("svm.pages_mapped", svm R.pages_mapped);
    ("svm.window_reclaims", svm R.window_reclaims);
    ("netio.suppressed_hypercalls", world World.netio_suppressed_hypercalls);
    ("netio.mode_switches", world World.netio_mode_switches);
    ("world.rx_drops", world World.rx_drops);
    ("xen.quota_throttled", world World.quota_throttled);
    ("fault.injected", world World.fault_injected);
    ("fault.lost_frames", world World.fault_lost);
    ("fault.recoveries", world World.recoveries);
    ("fault.replayed", world World.replayed_frames);
    ("xen.guest_faults", f (Td_xen.Guest_fault.total ())) ]
  @ List.map
      (fun c ->
        ( "ledger." ^ layer_name c,
          world (fun w -> Ledger.total (World.ledger w) c) ))
      Ledger.categories
  @ List.map
      (fun n -> ("obs." ^ n, f (Td_obs.Metrics.counter_value n)))
      obs_counters
  @ [ ("gc.minor_collections", f gc.Gc.minor_collections);
      ("gc.major_collections", f gc.Gc.major_collections);
      ("gc.promoted_words", gc.Gc.promoted_words);
      ( "gc.words",
        gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words ) ]

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank, as Ledger.latency_percentile takes it *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank =
      int_of_float (ceil ((p /. 100. *. float_of_int n) -. 1e-9)) - 1
    in
    sorted.(max 0 (min (n - 1) rank))

(* ---- one measured window ---- *)

type window = {
  rounds : int;
  frames : int;  (** tx offered + rx injected over the host window *)
  failed : int;  (** tx not on the wire + rx not delivered, after drain *)
  wall : float;  (** host seconds, snapshot and calibration excluded *)
  rate : float;
      (** host frames/s: median over slices, scaled to the reference
          host speed (Calib) *)
  sim : sim;
  delta : string -> float;  (** layer counter change over the window *)
  checks : (string * bool) list;
  worlds : World.t array;
}

(* host rates are taken per ~0.1 s slice of the window and scaled by the
   host speed measured right after the slice (Calib) *)
let slice_s = 0.1

(* Run [inst] for [seconds] of host time, or for exactly [rounds] rounds
   (the traced run repeats the untraced run's work); snapshot the
   simulated window; drain, shut down and check. *)
let window wl trs ~seconds ?rounds (inst : instance) =
  Array.iter World.reset_measurement inst.worlds;
  let c0 = counters inst in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rounds_wanted = rounds in
  let rounds = ref 0 and snap = ref None and excluded = ref 0.0 in
  let moved () = sum (fun t -> t.tx_offered + t.rx_injected) inst.tallies in
  let limit = max wl.max_rounds (Option.value ~default:0 rounds_wanted) in
  let scaled = Array.make (1 + limit) 0.0 and slices = ref 0 in
  let cal_words = ref 0.0 in
  let slice_t = ref t0 and slice_frames = ref 0 in
  let more () =
    match rounds_wanted with
    | Some n -> !rounds < max n wl.sim_rounds
    | None ->
        !rounds < wl.sim_rounds
        || (!rounds < wl.max_rounds && now () < deadline)
  in
  (* time spent on the snapshot and on calibration is not window time *)
  let aside f =
    let s0 = now () in
    let r = f () in
    let d = now () -. s0 in
    excluded := !excluded +. d;
    slice_t := !slice_t +. d;
    r
  in
  while more () do
    inst.round trs !rounds;
    incr rounds;
    if !rounds = wl.sim_rounds then
      snap := Some (aside (fun () -> sim_of wl inst trs));
    let t = now () in
    if t -. !slice_t >= slice_s then begin
      let f = moved () in
      let rate = float_of_int (f - !slice_frames) /. (t -. !slice_t) in
      let speed, words = aside (fun () -> Calib.speed ~cpus:wl.host_domains) in
      cal_words := !cal_words +. words;
      scaled.(!slices) <- rate *. Calib.reference /. speed;
      incr slices;
      slice_t := now ();
      slice_frames := f
    end
  done;
  let wall = now () -. t0 -. !excluded in
  let scaled = Array.sub scaled 0 !slices in
  let c1 = counters inst in
  inst.finish trs;
  let ws = inst.worlds and ts = inst.tallies in
  let offered = sum (fun t -> t.tx_offered) ts
  and injected = sum (fun t -> t.rx_injected) ts
  and wire = sum World.wire_tx_frames ws
  and delivered = sum World.delivered_rx_frames ws in
  (* frames the transmit call accepted that never reached the wire: only
     a fault plan may lose them, and it counts each one it loses *)
  let tx_gap = offered - wire - sum (fun t -> t.tx_refused) ts in
  let checks =
    [ ( "tx_offered_eq_wire_plus_failed",
        if wl.faults then tx_gap >= 0 && tx_gap <= sum World.fault_lost ws
        else tx_gap = 0 );
      ("rx_payloads_match_injected", sum (fun t -> t.rx_foreign) ts = 0);
      ("rx_delivered_all_popped", sum (fun t -> t.rx_popped) ts = delivered);
      ("netio_conserved", Array.for_all World.netio_conserved ws);
      ("staged_zero_after_shutdown", sum World.staged_frames ws = 0);
      ("no_aborts_without_faults", wl.faults || sum (fun t -> t.aborts) ts = 0);
      ("no_nic_left_quarantined", Array.for_all World.all_serviceable ws) ]
  in
  inst.release ();
  let find l n = try List.assoc n l with Not_found -> invalid_arg n in
  {
    rounds = !rounds;
    frames = offered + injected;
    failed = offered - wire + (injected - delivered);
    wall;
    rate =
      (if Array.length scaled = 0 then float_of_int (offered + injected) /. wall
       else median (Array.to_list scaled));
    sim = Option.get !snap;
    delta =
      (fun n ->
        let d = find c1 n -. find c0 n in
        if n = "gc.words" then d -. !cal_words else d);
    checks;
    worlds = ws;
  }

(* ---- metrics ---- *)

let per x frames = if frames = 0 then 0.0 else x /. float_of_int frames
let ratio a b = if b = 0.0 then 0.0 else a /. b

let end_to_end ~setups (a : window) =
  let s = a.sim in
  let hz = float_of_int Td_cpu.Cost_model.frequency_hz in

  [ ("host_frames_per_s", "frames/s", a.rate);
    ("alloc_words_per_frame", "words", per (a.delta "gc.words") a.frames);
    ("peak_rss_mb", "MB", s.peak_rss);
    ("setup_s", "s", median setups);
    ("sim_cycles_per_frame", "cycles", per (float_of_int s.cycles) s.frames);
    ("sim_mbps", "Mb/s",
      float_of_int (8 * s.payload_bytes)
      /. (float_of_int s.elapsed /. hz) /. 1e6);
    ("sim_tx_p50_cycles", "cycles", s.tx_p50);
    ("sim_tx_p99_cycles", "cycles", s.tx_p99);
    ("sim_rx_p99_cycles", "cycles", s.rx_p99);
    ("delivered_frac", "ratio",
      1.0 -. per (float_of_int s.failed) s.frames) ]

(* per-op host statistics over every span buffer *)
let op_stats bufs =
  let n = Array.length op_names in
  let durs = Array.make n [] and words = Array.make n 0.0 in
  List.iter
    (fun (b : Spans.buf) ->
      for i = 0 to b.Spans.len - 1 do
        let o = Spans.op b i in
        durs.(o) <- Spans.duration b i :: durs.(o);
        words.(o) <- words.(o) +. Spans.words b i
      done)
    bufs;
  Array.mapi
    (fun o l ->
      let a = Array.of_list l in
      Array.sort compare a;
      (a, words.(o)))
    durs

(* shard balance from the mq.run spans (main buffer) and the mq.job
   spans each shard worker recorded in its own buffer; all 0 without
   shard buffers *)
let shard_stats main shards =
  let walls = Hashtbl.create 64 and busy = Hashtbl.create 64 in
  let workers = Array.length shards in
  for i = 0 to main.Spans.len - 1 do
    if Spans.op main i = op_mq_run then
      Hashtbl.replace walls (Spans.round main i) (Spans.duration main i)
  done;
  let total = Array.make workers 0.0 in
  Array.iteri
    (fun k (b : Spans.buf) ->
      for i = 0 to b.Spans.len - 1 do
        if Spans.op b i = op_mq_job then begin
          let r = Spans.round b i in
          let per_round =
            match Hashtbl.find_opt busy r with
            | Some a -> a
            | None ->
                let a = Array.make workers 0.0 in
                Hashtbl.replace busy r a;
                a
          in
          per_round.(k) <- per_round.(k) +. Spans.duration b i;
          total.(k) <- total.(k) +. Spans.duration b i
        end
      done)
    shards;
  let wall = Hashtbl.fold (fun _ d acc -> acc +. d) walls 0.0 in
  let overhead =
    Hashtbl.fold
      (fun r d acc ->
        let m =
          match Hashtbl.find_opt busy r with
          | Some a -> Array.fold_left max 0.0 a
          | None -> 0.0
        in
        acc +. (d -. m))
      walls 0.0
  in
  let all = Array.fold_left ( +. ) 0.0 total in
  let bmax = Array.fold_left max 0.0 total in
  let mean = if workers = 0 then 0.0 else all /. float_of_int workers in
  [ ("shard.busy_s_max", "s", bmax); ("shard.busy_s_mean", "s", mean);
    ("shard.imbalance", "ratio", ratio bmax mean);
    ("shard.parallel_eff", "ratio", ratio all (wall *. float_of_int workers));
    ("shard.overhead_s", "s", overhead) ]

let per_layer ~untraced_rate ~(b : window) ~main ~shards =
  let d = b.delta and frames = b.frames in
  let pf n = per (d n) frames in
  let stats = op_stats (main :: Array.to_list shards) in
  let world_op o =
    let a, words = stats.(o) in
    let calls = Array.length a in
    let name = "world." ^ op_names.(o) in
    [ (name ^ ".calls", "count", float_of_int calls);
      (name ^ ".busy_s", "s", Array.fold_left ( +. ) 0.0 a);
      (name ^ ".us_p50", "us", 1e6 *. nearest_rank a 50.);
      (name ^ ".us_p99", "us", 1e6 *. nearest_rank a 99.);
      (name ^ ".words_per_call", "words", per words calls) ]
  in
  let recover, _ = stats.(op_recover) in
  let merges, _ = stats.(op_mq_merge) in
  let lookups = d "interp.block_hits" +. d "interp.block_misses" in
  let hits = d "obs.stlb.hit" and misses = d "obs.stlb.miss" in
  List.concat (List.init world_ops world_op)
  @ [ ("world.recover.calls", "count", float_of_int (Array.length recover));
      ("world.recover.ms_p50", "ms", 1e3 *. nearest_rank recover 50.) ]
  @ shard_stats main shards
  @ [ ("mq.merge_s", "s",
        if Array.length merges = 0 then 0.0
        else
          Array.fold_left ( +. ) 0.0 merges
          /. float_of_int (Array.length merges));
      ("interp.block_hits", "count", d "interp.block_hits");
      ("interp.block_misses", "count", d "interp.block_misses");
      ("interp.compiled_hits", "count", d "interp.compiled_hits");
      ("interp.compiled_bailouts", "count", d "interp.compiled_bailouts");
      ("interp.stlb_elided", "count", d "interp.stlb_elided");
      ("interp.invalidations", "count", d "interp.invalidations");
      (* the per-instruction path looks every instruction up in the block
         cache; the block and compiled engines look up once per block *)
      ("interp.fast_path_ratio", "ratio",
        if d "interp.steps" = 0.0 then 0.0
        else 1.0 -. (lookups /. d "interp.steps"));
      ("svm.misses_per_frame", "count", pf "svm.misses");
      ("svm.collisions", "count", d "svm.collisions");
      ("svm.faults", "count", d "svm.faults");
      ("svm.pages_mapped", "count", d "svm.pages_mapped");
      ("svm.window_reclaims", "count", d "svm.window_reclaims");
      ("stlb.hit_ratio", "ratio", ratio hits (hits +. misses)) ]
  @ List.map
      (fun c ->
        let c = "ledger." ^ layer_name c in
        (c ^ "_cycles_per_frame", "cycles", pf c))
      Ledger.categories
  @ [ ("xen.hypercalls_per_frame", "count", pf "obs.xen.hypercall");
      ("xen.world_switches_per_frame", "count", pf "obs.xen.world_switch");
      ("xen.virqs_per_frame", "count", pf "obs.xen.virq");
      ("upcall.invocations_per_frame", "count", pf "obs.upcall.invocations");
      ("grant.maps_per_frame", "count", pf "obs.grant.map");
      ("grant.copy_bytes_per_frame", "bytes", pf "obs.grant.copy_bytes");
      ("xen.quota_throttled", "count", d "xen.quota_throttled");
      ("sched.slices_per_frame", "count", pf "obs.sched.slices");
      ("netio.suppressed_hypercalls_per_frame", "count",
        pf "netio.suppressed_hypercalls");
      ("netio.doorbell_polls_per_frame", "count",
        pf "obs.netio.doorbell_polls");
      ("netio.mode_switches", "count", d "netio.mode_switches");
      ("netio.ring_full", "count", d "obs.netio.ring_full");
      ("netio.rx_dropped", "count", d "obs.netio.rx_dropped");
      ("netio.rx_throttled", "count", d "obs.netio.rx_throttled");
      ("skb.allocs_per_frame", "count",
        per (d "obs.skb.alloc" +. d "obs.skb.pool.alloc") frames);
      ("skb.pool.exhaustions", "count", d "obs.skb.pool.exhaustions");
      ("world.rx_drops", "count", d "world.rx_drops");
      ("nic.irqs_per_frame", "count", pf "obs.nic.irq");
      ("nic.dma_read_bytes_per_frame", "bytes", pf "obs.nic.dma.read_bytes");
      ("nic.rx.dropped", "count", d "obs.nic.rx.dropped");
      ("fault.injected", "count", d "fault.injected");
      ("fault.recoveries", "count", d "fault.recoveries");
      ("fault.replayed", "count", d "fault.replayed");
      ("fault.lost_frames", "count", d "fault.lost_frames");
      ("xen.guest_faults", "count", d "xen.guest_faults");
      ("gc.minor_collections_per_kframe", "count",
        1000.0 *. pf "gc.minor_collections");
      ("gc.major_collections", "count", d "gc.major_collections");
      ("gc.promoted_words_per_frame", "words", pf "gc.promoted_words");
      ("sim.tx_latency_samples", "count", float_of_int b.sim.tx_n);
      ("sim.rx_latency_samples", "count", float_of_int b.sim.rx_n);
      ("trace.overhead_frac", "ratio",
        1.0 -. ratio b.rate untraced_rate) ]

(* ---- the run ---- *)

let setup_runs = 15

let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match read (".git/" ^ r) with
      | Some c -> c
      | None -> (
          let packed =
            Option.value ~default:"" (read ".git/packed-refs")
            |> String.split_on_char '\n'
            |> List.find_opt (String.ends_with ~suffix:(" " ^ r))
          in
          match packed with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown"))
  | Some h -> h

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map (fun mk -> (mk 1).name) workloads)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun mk -> (mk 1).name = !workload) workloads with
    | Some mk when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) ->
        mk !seed
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let traced = !trace = 1 and seconds = float_of_int !seconds in
  let setups = ref [] in
  let timed_setup trs =
    Gc.full_major ();
    let t0 = now () in
    let start = wl.setup trs in
    let dt = now () -. t0 in
    let speed, _ = Calib.speed ~cpus:1 in
    setups := (dt *. speed /. Calib.reference) :: !setups;
    start
  in
  let last = ref None in
  for _ = 1 to setup_runs do
    last := None;
    last := Some (timed_setup untraced)
  done;
  let start = Option.get !last in
  last := None;
  let a = window wl untraced ~seconds (start ()) in
  let checks = ref a.checks in
  let check name ok = checks := !checks @ [ (name, ok) ] in
  (* the 1-shard reference replays the simulated window *)
  Option.iter
    (fun mk ->
      Gc.full_major ();
      let r = window wl untraced ~seconds ~rounds:0 (mk ()) in
      check "sharded_digest_eq_1_shard" (r.sim.digest = a.sim.digest))
    wl.reference;
  let metrics, (result : window) =
    if not traced then (end_to_end ~setups:!setups a, a)
    else begin
      Gc.full_major ();
      Td_obs.Control.enable ();
      (* only the Mq workload runs shard workers, each with its own span
         buffer; Shard.run switches obs off around them *)
      let sharded = Option.is_some wl.reference in
      let capacity = 256 + (a.rounds * wl.spans_per_round) in
      let main = Spans.create ~id:0 ~capacity in
      let shards =
        if sharded then
          Array.init wl.host_domains (fun k ->
              Spans.create ~id:(k + 1) ~capacity)
        else [||]
      in
      let trs =
        {
          main = { on = true; buf = main };
          shard =
            (if sharded then Array.map (fun buf -> { on = true; buf }) shards
             else [| { on = true; buf = main } |]);
        }
      in
      let origin = now () in
      let b = window wl trs ~seconds ~rounds:a.rounds (timed_setup trs ()) in
      check "traced_digest_eq_untraced" (b.sim.digest = a.sim.digest);
      check "spans_fit_buffers"
        (List.for_all (fun (x : Spans.buf) -> x.Spans.dropped = 0)
           (main :: Array.to_list shards));
      if not sharded then begin
        (* Measure's cross-check: the registry mirrors equal the ledger *)
        let w = b.worlds.(0) in
        check "ledger_obs_cross_check"
          (List.for_all
             (fun c ->
               Td_obs.Metrics.counter_value (Ledger.metric_name c)
               = Ledger.total (World.ledger w) c)
             Ledger.categories)
      end;
      (try
         if Sys.file_exists "perfbench" then begin
           let dir = Filename.concat "perfbench" "traces" in
           if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
           Out_channel.with_open_text
             (Filename.concat dir (wl.name ^ ".tsv"))
             (fun oc ->
               Spans.write oc ~names:op_names ~origin
                 (main :: Array.to_list shards))
         end
       with Sys_error e ->
         prerr_endline ("perfbench: spans not written: " ^ e));
      (per_layer ~untraced_rate:a.rate ~b ~main ~shards, b)
    end
  in
  List.iter
    (fun (n, _, v) -> check ("finite:" ^ n) (Float.is_finite v))
    metrics;
  if not traced then
    List.iter (fun (n, _, v) -> check ("positive:" ^ n) (v > 0.0)) metrics;
  let correct = List.for_all snd !checks in
  let record =
    Td_obs.Json.(
      Obj
        [ ( "record",
            Obj
              [ ("workload", String wl.name); ("why", String wl.why);
                ("seed", Int !seed); ("seconds", Float seconds);
                ("trace", Int !trace);
                ("nproc", Int (Shard.available_parallelism ()));
                ("ocaml", String Sys.ocaml_version);
                ("commit", String (commit ()));
                ( "params",
                  Obj (List.map (fun (k, v) -> (k, String v)) wl.params) );
                ("sim_rounds", Int wl.sim_rounds);
                ("rounds", Int result.rounds);
                ("sim_frames", Int result.sim.frames);
                ("frames", Int result.frames);
                ("wall_s", Float result.wall);
                ( "wall_frames_per_s",
                  Float (float_of_int result.frames /. result.wall) );
                ("sim_digest", String result.sim.digest);
                ( "setup_s",
                  List (List.map (fun s -> Float s) (List.rev !setups)) );
                ( "checks",
                  Obj (List.map (fun (n, ok) -> (n, Bool ok)) !checks) ) ] ) ])
  in
  print_endline (Td_obs.Json.to_string record);
  List.iter
    (fun (n, ok) ->
      if not ok then prerr_endline ("perfbench: check failed: " ^ n))
    !checks;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct result.frames result.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
              (json_float (if Float.is_finite v then v else 0.0))
              u)
          metrics));
  exit (if correct then 0 else 1)
