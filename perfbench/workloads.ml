(* The workloads. Each builds its inputs from the seed before anything
   is timed and drives the program only through World / Mq entry points;
   a round is the unit the measured window repeats. *)

open Twindrivers
open Drive

type instance = {
  worlds : World.t array;
  tallies : tally array;
  round : tracers -> int -> unit;
  finish : tracers -> unit;  (** drain and shut down after the window *)
  merged : tracers -> Ledger.t;  (** the ledger of the whole instance *)
  elapsed : unit -> int;  (** simulated elapsed cycles *)
  release : unit -> unit;  (** undo process-global state (fault plan) *)
}

type workload = {
  name : string;
  why : string;
  params : (string * string) list;  (** recorded with each result *)
  sim_rounds : int;  (** rounds in the simulated window *)
  max_rounds : int;  (** cap on the host window, in rounds *)
  spans_per_round : int;  (** upper bound; sizes the span buffers *)
  host_domains : int;  (** OCaml domains (one per CPU) the window runs on *)
  twin : bool;  (** sojourn stamps instead of I/O-channel samples *)
  faults : bool;  (** a fault plan is armed: aborts and losses expected *)
  setup : tracers -> unit -> instance;
      (** the timed set-up; the function it returns starts the measured
          instance on what was set up *)
  reference : (unit -> instance) option;
      (** the Mq workload only: a 1-shard instance whose simulated window
          must digest equal *)
}

let single w t ~round =
  {
    worlds = [| w |];
    tallies = [| t |];
    round;
    finish = (fun tr -> shutdown tr.main t w);
    merged = (fun _ -> World.ledger w);
    elapsed = (fun () -> clock w);
    release = ignore;
  }

(* Figures 5/6 fast path: the rewritten driver in the hypervisor, SVM
   translation and hypercall entry. Seeded batches of 1..16 tx or rx
   frames, a pump per batch; a tx frame's sojourn runs from its batch's
   submission to its own completion. *)
let twin_netperf seed =
  let g = rng seed in
  let pool = Array.init 64 (fun _ -> random_bytes g 1500) in
  let instance w () =
    let t = tally () and r = rng (seed + 1) in
    let nics = World.nic_count w and nic = ref 0 in
    (* every 8 rounds hold 4 tx and 4 rx batches in seeded order, so the
       direction mix is the same for every seed *)
    let block = [| true; true; true; true; false; false; false; false |] in
    let round trs round =
      let tr = trs.main in
      if round land 7 = 0 then
        for i = 7 downto 1 do
          let j = below r (i + 1) in
          let x = block.(i) in
          block.(i) <- block.(j);
          block.(j) <- x
        done;
      let n = 1 + below r 16 in
      if block.(round land 7) then begin
        let t0 = clock w in
        for _ = 1 to n do
          let payload = pool.(below r 64) and q = !nic in
          transmit tr ~round t w op_transmit (fun () ->
              World.transmit w ~nic:q ~payload);
          Ledger.note_latency t.stamps `Tx (clock w - t0);
          nic := (q + 1) mod nics
        done;
        pump tr ~round t w
      end
      else
        twin_rx_batch tr ~round t w
          (Array.init n (fun _ -> pool.(below r 64)))
    in
    single w t ~round
  in
  {
    name = "twin-netperf";
    why =
      "paper fast path (figs 5/6): rewritten driver in the interpreter, SVM \
       translation, hypercall entry; netfront/netback idle";
    params =
      [ ("config", "Xen_twin"); ("nics", "5"); ("guests", "1");
        ("payload_bytes", "1500");
        ("batch", "seeded 1..16 frames; 4 tx and 4 rx batches per 8, seeded order");
        ("tuning", "default") ];
    sim_rounds = 1500;
    max_rounds = 20_000;
    spans_per_round = 18;
    host_domains = 1;
    twin = true;
    faults = false;
    setup = (fun _ -> instance (World.create ~nics:5 Config.Xen_twin));
    reference = None;
  }

(* The fleet: 64 domU guests on 4 NICs over netfront/netback, doorbell
   and quotas on, seeded churn. Per slot (slot mod 3): one 1500 B bulk
   tx, a 1-in-4 burst of 8 x 64 B RPC tx, or 2 x 128 B incast rx; every
   round ends with pump and tick. *)
let domu_fleet seed =
  let g = rng seed in
  let bulk = Array.init 16 (fun _ -> random_bytes g 1500)
  and rpc = Array.init 16 (fun _ -> random_bytes g 64)
  and incast = Array.init 64 (fun _ -> random_bytes g 128) in
  let nics = 4 and domains = 64 in
  let tuning =
    {
      Config.default_tuning with
      Config.doorbell = true;
      quota = Some { Td_xen.Quota.default_limits with grant_entries = 512 };
    }
  in
  let setup trs =
    let w = World.create ~nics ~guests:1 ~tuning Config.Xen_domU in
    for _ = 2 to domains do
      ignore
        (call trs.main ~round:(-1) w op_create_guest (fun () ->
             World.create_guest w))
    done;
    w
  in
  let instance w () =
    let t = tally () and r = rng (seed + 1) in
    (* a replacement guest takes over its victim's shape, so churn keeps
       the traffic mix fixed *)
    let shape = Array.init 256 (fun s -> s mod 3) in
    let round trs round =
      let tr = trs.main in
      for s = 0 to World.guest_slots w - 1 do
        if World.guest_alive w ~guest:s then
          match shape.(s) with
          | 0 ->
              let payload = bulk.(below r 16) in
              transmit tr ~round t w op_transmit_from (fun () ->
                  World.transmit_from w ~guest:s ~payload)
          | 1 ->
              if below r 4 = 0 then
                for _ = 1 to 8 do
                  let payload = rpc.(below r 16) in
                  transmit tr ~round t w op_transmit_from (fun () ->
                      World.transmit_from w ~guest:s ~payload)
                done
          | _ ->
              for _ = 1 to 2 do
                inject tr ~round t w ~guest:s ~nic:(s mod nics)
                  incast.(below r 64)
              done
      done;
      pump tr ~round t w;
      tick tr ~round t w;
      ignore (drain t w);
      (* churn while registry slots last (they are never reused) *)
      if below r 32 = 0 && World.guest_slots w < 256 then begin
        let live =
          List.filter
            (fun s -> s > 0 && World.guest_alive w ~guest:s)
            (List.init (World.guest_slots w) Fun.id)
        in
        let victim = List.nth live (below r (List.length live)) in
        call tr ~round w op_destroy_guest (fun () ->
            World.destroy_guest w ~guest:victim);
        let fresh =
          call tr ~round w op_create_guest (fun () -> World.create_guest w)
        in
        shape.(fresh) <- shape.(victim)
      end
    in
    single w t ~round
  in
  {
    name = "domU-fleet";
    why =
      "64 guests: netfront/netback, doorbell polling, bridge, grants, quotas \
       and registry churn with small frames; twin layers idle";
    params =
      [ ("config", "Xen_domU"); ("nics", "4"); ("guests", "64");
        ( "shapes",
          "boot slot mod 3: 1500 B bulk tx | 1-in-4 8 x 64 B RPC tx | 2 x \
           128 B incast rx" );
        ( "churn",
          "1-in-32 rounds while slots < 256; the replacement keeps the shape" );
        ("tuning", "default + doorbell, quota (grant_entries 512)") ];
    sim_rounds = 1000;
    max_rounds = 8000;
    (* 22 bulk + 22 x 8 rpc + 22 x 2 incast + pump, tick, churn *)
    spans_per_round = 250;
    host_domains = 1;
    twin = false;
    faults = false;
    setup = (fun trs -> instance (setup trs));
    reference = None;
  }

let fault_rate = 0.004

(* the recovery bench's per-site plan for one rate knob *)
let soak_plan seed =
  {
    Td_fault.seed;
    svm_wild_access = min 0.5 (fault_rate *. 50.0);
    interp_bitflip = fault_rate /. 500.0;
    nic_stuck_dma = fault_rate /. 4.0;
    nic_lost_irq = fault_rate;
    nic_corrupt_rx = fault_rate;
    upcall_fail = fault_rate;
  }

(* The twin transmit path while faulting: restart-replay supervision,
   spin_trylock demoted to an upcall, and the recovery bench's seeded
   plan at rate 0.004. A round is 16 tx frames with a tick after every
   second one, then one 64 B rx probe and a pump. *)
let twin_recovery seed =
  let g = rng seed in
  let tx = Array.init 16 (fun _ -> random_bytes g 1500)
  and probes = Array.init 16 (fun _ -> random_bytes g 64) in
  let tuning =
    { Config.default_tuning with Config.recovery = Config.Restart_replay }
  in
  let setup _ =
    (* boot is never perturbed: the plan is armed after creation *)
    Td_fault.Engine.clear ();
    World.create ~nics:5 ~upcall_set:[ "spin_trylock" ] ~tuning Config.Xen_twin
  in
  let instance w () =
    let t = tally () and r = rng (seed + 1) in
    let nics = World.nic_count w and nic = ref 0 in
    Td_fault.Engine.install (soak_plan seed);
    let round trs round =
      let tr = trs.main in
      let t0 = clock w in
      for i = 0 to 15 do
        let payload = tx.(below r 16) and q = !nic in
        transmit tr ~round t w op_transmit (fun () ->
            World.transmit w ~nic:q ~payload);
        Ledger.note_latency t.stamps `Tx (clock w - t0);
        nic := (q + 1) mod nics;
        if i land 1 = 1 then tick tr ~round t w
      done;
      twin_rx_batch tr ~round t w [| probes.(below r 16) |]
    in
    { (single w t ~round) with release = Td_fault.Engine.clear }
  in
  {
    name = "twin-recovery";
    why =
      "twin tx under a fault plan: supervisor recovery, image reload, \
       upcalls and the forced per-instruction interpreter path";
    params =
      [ ("config", "Xen_twin"); ("nics", "5"); ("guests", "1");
        ("payload_bytes", "1500 tx, 64 rx probe");
        ("round", "16 tx, tick every 2nd, 1 rx, pump");
        ("fault_rate", "0.004"); ("upcall_set", "spin_trylock");
        ("tuning", "default + recovery restart-replay") ];
    sim_rounds = 300;
    max_rounds = 2400;
    (* 16 tx + 8 ticks + inject + pump, each possibly with a recover mark *)
    spans_per_round = 52;
    host_domains = 1;
    twin = true;
    faults = true;
    setup = (fun trs -> instance (setup trs));
    reference = None;
  }

(* Mq over domU: 4 queues advanced by 2 shard domains (never more than
   the host has), each shard worker pinned to its own CPU. Each round is
   one Mq.run in which every queue transmits a seeded 192..319 frames of
   1500 B and receives one frame per 8 sent, on flows RSS steers to it;
   pump every 8 frames, tick every 64, as in the multiqueue bench. *)
let domu_mq seed =
  let queues = 4 and shards = min 2 (Shard.available_parallelism ()) in
  let tuning = { Config.default_tuning with Config.queues; shards } in
  let g = rng seed in
  let flow () =
    let p =
      Td_nic.Rss.ipv4_udp_payload ~len:1500
        {
          Td_nic.Rss.src_ip = 0x0a000002;
          dst_ip = 0x0a000001;
          src_port = 1024 + below g 60_000;
          dst_port = 80;
        }
    in
    (* distinct bodies behind the 28-byte header, so the rx check can
       tell frames apart; RSS reads only the header *)
    String.sub p 0 28 ^ random_bytes g (1500 - 28)
  in
  let flows = Array.init 64 (fun _ -> flow ()) in
  let create shards =
    Mq.create ~nics:1 ~tuning:{ tuning with Config.shards } Config.Xen_domU
  in
  let instance mq () =
    let worlds = Array.init queues (fun queue -> Mq.world mq ~queue) in
    let pools =
      Array.init queues (fun q ->
          match
            List.filter
              (fun p -> Mq.queue_of_payload mq p = q)
              (Array.to_list flows)
          with
          | [] -> failwith "domU-mq-sharded: a queue received no flow"
          | l -> Array.of_list l)
    in
    let tallies = Array.init queues (fun _ -> tally ()) in
    let rngs = Array.init queues (fun q -> rng (seed + 1 + q)) in
    let sent = Array.make queues 0 in
    let r = rng (seed + 100) in
    (* Shard.run gives job q to worker q mod workers; each worker is
       pinned to its own CPU *)
    let workers = max 1 (min (Mq.shards mq) queues) in
    let round trs round =
      let counts = Array.init queues (fun _ -> 192 + below r 128) in
      span trs.main ~round op_mq_run (fun run ->
          ignore
            (Mq.run mq ~job:(fun ~queue w ->
                 if workers > 1 then ignore (Clock.pin (queue mod workers));
                 let tr = shard_tracer trs queue in
                 let t = tallies.(queue) and qr = rngs.(queue) in
                 let pool = pools.(queue) in
                 span tr ~parent:run ~round op_mq_job (fun job ->
                     for _ = 1 to counts.(queue) do
                       let payload = pool.(below qr (Array.length pool)) in
                       transmit tr ~parent:job ~round t w op_transmit (fun () ->
                           World.transmit w ~nic:0 ~payload);
                       sent.(queue) <- sent.(queue) + 1;
                       if sent.(queue) land 7 = 0 then begin
                         inject tr ~parent:job ~round t w ~nic:0
                           pool.(below qr (Array.length pool));
                         pump tr ~parent:job ~round t w;
                         ignore (drain t w)
                       end;
                       if sent.(queue) land 63 = 0 then
                         tick tr ~parent:job ~round t w
                     done;
                     pump tr ~parent:job ~round t w;
                     ignore (drain t w)))))
    in
    let finish trs =
      ignore
        (Mq.run mq ~job:(fun ~queue w ->
             shutdown (shard_tracer trs queue) tallies.(queue) w))
    in
    {
      worlds;
      tallies;
      round;
      finish;
      merged =
        (fun trs ->
          span trs.main ~round:(-1) op_mq_merge (fun _ -> Mq.merged_ledger mq));
      elapsed = (fun () -> Mq.elapsed_cycles mq);
      release = ignore;
    }
  in
  {
    name = "domU-mq-sharded";
    why =
      "the only workload running Shard/Mq and cross-domain GC; substrate \
       (memory, copies, NIC DMA) dominates, compiled engine active";
    params =
      [ ("config", "Xen_domU"); ("api", "Mq"); ("queues", "4");
        ("shards", string_of_int shards); ("nics", "1");
        ("payload_bytes", "1500");
        ( "round",
          "one Mq.run; per queue seeded 192..319 tx, 1 rx per 8 tx, pump \
           every 8, tick every 64" );
        ("tuning", "default + queues 4, shards") ];
    sim_rounds = 40;
    max_rounds = 1000;
    (* per queue at most 319 tx + 40 rx + 41 pumps + 5 ticks + job, and
       each shard worker records the queues it runs *)
    spans_per_round = 410 * ((queues + shards - 1) / shards);
    host_domains = shards;
    twin = false;
    faults = false;
    setup = (fun _ -> instance (create shards));
    reference = Some (fun () -> instance (create 1) ());
  }

let workloads = [ twin_netperf; domu_fleet; twin_recovery; domu_mq ]
