(* Benchmark harness: one Bechamel test per reproduced artefact (figures,
   ordering, ablations, validation) plus substrate micro-benchmarks, then
   the regenerated tables themselves — the rows/series the paper reports.

   Run with: dune exec bench/main.exe *)

open Bechamel
module Systems = Fortress_model.Systems
module Step_level = Fortress_mc.Step_level
module Probe_level = Fortress_mc.Probe_level
module Figures = Fortress_exp.Figures
module Ablations = Fortress_exp.Ablations
module Validation = Fortress_exp.Validation
module Sha256 = Fortress_crypto.Sha256
module Exec = Fortress_par.Exec

(* ---- one Test.make per experiment artefact ---- *)

let test_figure1 =
  Test.make ~name:"figure1-analytic-rows"
    (Staged.stage (fun () -> ignore (Figures.figure1_rows ~points:7 ())))

let test_figure2 =
  Test.make ~name:"figure2-analytic-rows"
    (Staged.stage (fun () -> ignore (Figures.figure2_rows ~points:7 ())))

let test_ordering =
  Test.make ~name:"ordering-chain-check"
    (Staged.stage (fun () -> ignore (Figures.ordering ~points:5 ())))

let test_ablation_np =
  Test.make ~name:"ablation-np"
    (Staged.stage (fun () -> ignore (Ablations.proxy_count_table ~points:5 ())))

let test_ablation_chi =
  Test.make ~name:"ablation-chi"
    (Staged.stage (fun () ->
         ignore (Ablations.entropy_table ~chis:[ 256; 512 ] ~omega:8 ~trials:20 ())))

let test_ablation_launchpad =
  Test.make ~name:"ablation-launchpad"
    (Staged.stage (fun () -> ignore (Ablations.launchpad_table ())))

let test_ablation_kappa =
  Test.make ~name:"ablation-kappa-campaign"
    (Staged.stage (fun () -> ignore (Ablations.detection_table ~thresholds:[ 5 ] ~steps:5 ())))

let test_ablation_diversity =
  Test.make ~name:"ablation-diversity"
    (Staged.stage (fun () ->
         ignore
           (Ablations.limited_diversity_table ~candidate_counts:[ 1; 4 ] ~trials:100 ())))

let test_ablation_overhead =
  Test.make ~name:"ablation-overhead"
    (Staged.stage (fun () -> ignore (Ablations.overhead_table ~requests:20 ())))

let test_ablation_budget =
  Test.make ~name:"ablation-budget-split"
    (Staged.stage (fun () -> ignore (Ablations.budget_split_table ~kappas:[ 0.5 ] ())))

let test_degradation =
  Test.make ~name:"degradation-under-attack"
    (Staged.stage (fun () ->
         ignore (Fortress_exp.Degradation.run ~omegas:[ 0; 32 ] ~requests:30 ~horizon:10 ())))

let test_podc =
  Test.make ~name:"podc-claim-check"
    (Staged.stage (fun () -> ignore (Figures.podc_claim_holds ~points:5 ())))

let test_distributions =
  Test.make ~name:"distribution-shapes"
    (Staged.stage (fun () ->
         ignore
           (Fortress_exp.Distributions.profile ~trials:200 Systems.S1_PO ~alpha:0.01
              ~kappa:0.5)))

let test_validation =
  Test.make ~name:"validation-three-tier"
    (Staged.stage (fun () ->
         ignore
           (Validation.run ~chi:512 ~omega:8 ~trials:30
              ~systems:[ Systems.S1_PO; Systems.S2_PO ] ())))

let test_protocol_validation =
  Test.make ~name:"validation-packet-level-campaign"
    (Staged.stage (fun () -> ignore (Validation.protocol ~trials:10 ())))

(* ---- substrate micro-benchmarks ---- *)

let test_step_mc =
  Test.make ~name:"mc-step-s2po-1000-trials"
    (Staged.stage (fun () ->
         ignore
           (Step_level.estimate ~trials:1000 Systems.S2_PO
              { Step_level.default with alpha = 3e-3 })))

let test_probe_mc =
  Test.make ~name:"mc-probe-s2po-50-trials"
    (Staged.stage (fun () ->
         ignore
           (Probe_level.estimate ~trials:50 Systems.S2_PO
              { Probe_level.default with chi = 1024; omega = 8 })))

let test_markov =
  Test.make ~name:"model-s0so-inhomogeneous-chain"
    (Staged.stage (fun () -> ignore (Systems.s0_so ~alpha:1e-3)))

let test_sha256 =
  let payload = String.make 4096 'x' in
  Test.make ~name:"crypto-sha256-4KiB" (Staged.stage (fun () -> ignore (Sha256.digest payload)))

(* one signature over a reply-sized payload under a prepared key: the
   shape every request pays about 15 times *)
let test_hmac =
  let secret, _ = Fortress_crypto.Sign.generate (Fortress_util.Prng.create ~seed:1) in
  let payload = String.make 128 'x' in
  Test.make ~name:"crypto-hmac-128B"
    (Staged.stage (fun () -> ignore (Fortress_crypto.Sign.sign secret payload)))

(* one event folded into a trace digest: render the JSONL line, hash it *)
let test_digest_event =
  let sub, _ = Fortress_obs.Sink.digesting () in
  let ev = Fortress_obs.Event.Msg_delivered { src = 3; dst = 7 } in
  Test.make ~name:"obs-digest-event" (Staged.stage (fun () -> sub ~time:1234.5 ev))

let test_pb_deployment =
  Test.make ~name:"protocol-fortress-request-roundtrip"
    (Staged.stage (fun () ->
         let module Deployment = Fortress_core.Deployment in
         let module Client = Fortress_core.Client in
         let module Engine = Fortress_sim.Engine in
         let deployment = Deployment.create Deployment.default_config in
         let client = Deployment.new_client deployment ~name:"bench-client" in
         let served = ref 0 in
         for i = 1 to 10 do
           ignore
             (Client.submit client
                ~cmd:(Printf.sprintf "put k%d v" i)
                ~on_response:(fun _ -> incr served))
         done;
         Engine.run ~until:100.0 (Deployment.engine deployment);
         assert (!served = 10)))

let benchmark () =
  let tests =
    Test.make_grouped ~name:"fortress"
      [
        test_figure1;
        test_figure2;
        test_ordering;
        test_ablation_np;
        test_ablation_chi;
        test_ablation_launchpad;
        test_ablation_kappa;
        test_ablation_diversity;
        test_ablation_overhead;
        test_ablation_budget;
        test_degradation;
        test_podc;
        test_distributions;
        test_validation;
        test_protocol_validation;
        test_step_mc;
        test_probe_mc;
        test_markov;
        test_sha256;
        test_hmac;
        test_digest_event;
        test_pb_deployment;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) -> Printf.sprintf "%13.1f ns/run" e
           | Some [] | None -> "            n/a"
         in
         Printf.printf "  %-45s %s\n" name ns)

(* ---- wall-clock section timings and the machine-readable report ---- *)

let sections : (string * float) list ref = ref []

let section name f =
  Printf.printf "== %s ==\n" name;
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  sections := (name, dt) :: !sections;
  print_endline ""

(* Event throughput of the instrumented stack: one packet-level campaign
   with a counting subscriber attached. A single campaign is only a few
   tens of milliseconds, so the reported figure is the best of five
   passes measured in process CPU time — scheduler noise is additive and
   preemption by other tenants is invisible to CPU time, so the gate in
   bench_compare.py sees the stack's actual throughput, not the slowest
   interruption. *)
let measure_event_throughput () =
  let module Sink = Fortress_obs.Sink in
  let best_events = ref 0 and best_dt = ref infinity in
  for _ = 1 to 5 do
    let events = ref 0 in
    let sink = Sink.create () in
    ignore (Sink.attach sink (fun ~time:_ _ -> incr events));
    Gc.full_major ();
    let t0 = Sys.time () in
    ignore (Validation.campaign_lifetime ~sink ~chi:256 ~omega:8 ~kappa:0.5 ~seed:11 ());
    let dt = Sys.time () -. t0 in
    if dt < !best_dt then begin
      best_dt := dt;
      best_events := !events
    end
  done;
  (!best_events, !best_dt)

(* Interceptor overhead on the hot [Network.send] path: per-message cost of
   the fault layer in its three configurations — absent (no plan installed),
   installed but always [Pass], and the lossy built-in's link spec. Minor-
   heap words per message show what each layer allocates; the no-plan row is
   the pre-fault-subsystem send path, so pass/lossy deltas against it are
   the whole cost of the feature. *)
let measure_interceptor_overhead () =
  let module Engine = Fortress_sim.Engine in
  let module Network = Fortress_net.Network in
  let module Latency = Fortress_net.Latency in
  let module Injector = Fortress_faults.Injector in
  let module Plan = Fortress_faults.Plan in
  let messages = 200_000 in
  let run name config =
    let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:9) () in
    let net = Network.create ~latency:(Latency.constant 0.1) engine in
    let a = Network.register net ~name:"a" ~handler:(fun ~src:_ (_ : int) -> ()) in
    let b = Network.register net ~name:"b" ~handler:(fun ~src:_ (_ : int) -> ()) in
    (match config with
    | `No_plan -> ()
    | `Pass -> Network.set_interceptor net (Some (fun ~src:_ ~dst:_ _ -> Network.Pass))
    | `Lossy ->
        let stats = Injector.fresh_stats () in
        let prng = Injector.derive_prng ~seed:9 in
        Network.set_interceptor net
          (Some (Injector.link_interceptor ~engine ~prng ~stats Plan.lossy.Plan.link)));
    (* warm-up round so both paths are compiled and caches primed *)
    for i = 1 to 1_000 do
      Network.send net ~src:a ~dst:b i
    done;
    Engine.run engine;
    Gc.minor ();
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to messages do
      Network.send net ~src:a ~dst:b i;
      (* drain in batches so the event heap stays small and resident *)
      if i land 4095 = 0 then Engine.run engine
    done;
    Engine.run engine;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. words0) /. float_of_int messages in
    (name, dt /. float_of_int messages *. 1e9, words)
  in
  [ run "no-plan" `No_plan; run "pass-interceptor" `Pass; run "lossy-link" `Lossy ]

(* Profiler overhead at an instrumented call site, in its three
   configurations — disabled (the default), enabled, and enabled with the
   sample ring on. The workload allocates nothing itself, so the disabled
   row's minor-words column is the entire per-call allocation cost of
   compiling the profiler in: it must be zero (the guard is one bool read
   and no closure), which is what keeps seeded runs byte-identical whether
   or not fortress_prof is linked. *)
let measure_profiler_overhead () =
  let module Prof = Fortress_prof.Profiler in
  let phase = Prof.register "bench.overhead" in
  let calls = 1_000_000 in
  let acc = ref 0 in
  let work () = acc := Sys.opaque_identity (!acc + 1) in
  let run name config =
    (match config with
    | `Disabled ->
        Prof.disable ();
        Prof.set_sample_capacity 0
    | `Enabled ->
        Prof.reset ();
        Prof.set_sample_capacity 0;
        Prof.enable ()
    | `Sampling ->
        Prof.reset ();
        Prof.set_sample_capacity 4096;
        Prof.enable ());
    (* the guard below is the exact shape of every instrumented site *)
    let site () = if Prof.is_enabled () then Prof.record phase work else work () in
    for _ = 1 to 1_000 do
      site ()
    done;
    Gc.minor ();
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      site ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. words0) /. float_of_int calls in
    Prof.disable ();
    Prof.reset ();
    (name, dt /. float_of_int calls *. 1e9, words)
  in
  [ run "disabled" `Disabled; run "enabled" `Enabled; run "enabled+sampling" `Sampling ]

(* Domain-parallel Monte-Carlo speedup: the step-level sampler at a fixed
   operating point, fanned over 1, 2 and 4 lanes of the persistent domain
   pool. The runner guarantees bit-identical results at every job count
   (trials partitioned by index, per-trial PRNGs derived from the index,
   outcomes consumed in index order at the join), so the mean is asserted
   equal across rows and only the wall clock may differ. Speedup is
   relative to the jobs=1 row; the executor never runs more lanes than the
   machine has cores, so on a single-core box every row is ~1.0x — the
   report's [domains_available] field tells the CI gate whether the
   2x/1.3x floors are enforceable on this hardware. *)
let measure_parallel_speedup () =
  let trials = 3000 in
  let cfg = { Step_level.default with alpha = 3e-3 } in
  (* warm the pool first: worker domains are spawned once per process, and
     that one-time cost belongs to no timed row *)
  ignore (Step_level.estimate ~jobs:4 ~trials:200 ~seed:1 Systems.S2_PO cfg);
  let run jobs =
    (* best of three passes per row: a single pass is ~100 ms, where one
       scheduler preemption reads as a phantom 20% slowdown; noise is
       additive, so the min converges on true throughput *)
    let best_dt = ref infinity and mean = ref nan in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let res = Step_level.estimate ~jobs ~trials ~seed:42 Systems.S2_PO cfg in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_dt then best_dt := dt;
      mean := res.Fortress_mc.Trial.mean
    done;
    (jobs, !best_dt, !mean)
  in
  let rows = List.map run [ 1; 2; 4 ] in
  let base_mean = match rows with (_, _, m) :: _ -> m | [] -> nan in
  List.iter
    (fun (jobs, _, mean) ->
      if mean <> base_mean then
        failwith
          (Printf.sprintf
             "parallel determinism violated: jobs=%d mean %.17g <> jobs=1 mean %.17g" jobs
             mean base_mean))
    rows;
  let base_dt = match rows with (_, dt, _) :: _ -> dt | [] -> nan in
  List.map
    (fun (jobs, dt, mean) ->
      let tps = if dt > 0.0 then float_of_int trials /. dt else 0.0 in
      let speedup = if dt > 0.0 then base_dt /. dt else 0.0 in
      (jobs, tps, speedup, mean))
    rows

(* Shared discipline for the gated same-process overhead ratios: run the
   base and variant shapes interleaved [passes] times, assert the digests
   pairwise equal every pass, and gate on min(variant)/min(base).
   Scheduler noise is strictly additive — an interrupted pass reads
   slower, never faster — so the min across interleaved passes converges
   on the true cost of each shape, where both a one-shot ratio and the
   median of per-pass ratios still gate on jitter when a single pass is
   only a second or two. The order within a pass ALTERNATES (ABBA):
   sustained load makes throttled machines drift monotonically slower, so
   a fixed order would systematically tax whichever shape always runs
   second — alternation cancels linear drift out of both mins. The timed
   quantity is PROCESS CPU time, not wall clock: these sections are
   single-threaded, so CPU time measures the same work while being
   immune to preemption by other tenants of the machine — the dominant
   noise source on shared runners. *)
let paired_overhead ~passes ~mismatch base variant =
  let time f =
    (* collect before each timed region so neither shape pays the other's
       heap down during its own window *)
    Gc.full_major ();
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let base_seconds = ref infinity and variant_seconds = ref infinity in
  for pass = 1 to passes do
    let b_digest, b_dt, v_digest, v_dt =
      if pass land 1 = 1 then begin
        let b_digest, b_dt = time base in
        let v_digest, v_dt = time variant in
        (b_digest, b_dt, v_digest, v_dt)
      end
      else begin
        let v_digest, v_dt = time variant in
        let b_digest, b_dt = time base in
        (b_digest, b_dt, v_digest, v_dt)
      end
    in
    if b_digest <> v_digest then failwith (mismatch v_digest b_digest);
    base_seconds := Float.min !base_seconds b_dt;
    variant_seconds := Float.min !variant_seconds v_dt
  done;
  let ratio =
    if !base_seconds > 0.0 then !variant_seconds /. !base_seconds else 0.0
  in
  (!base_seconds, !variant_seconds, ratio)

(* Telemetry-plane overhead: the same seeded packet-level campaign twice,
   once with only a digesting subscriber and once with a Timeline plus
   streaming Signal detectors attached to the same sink (alarms not
   emitted, so the event stream is untouched). The plane is a pure
   observer — the digests are asserted equal, making the ratio an
   apples-to-apples measure of the subscriber cost alone. *)
let measure_timeline_overhead () =
  let module Sink = Fortress_obs.Sink in
  let module Timeline = Fortress_obs.Timeline in
  let module Signal = Fortress_obs.Signal in
  let pass ~telemetry () =
    let sink = Sink.create () in
    let sub, digest_of = Sink.digesting () in
    ignore (Sink.attach sink sub);
    let tl =
      if telemetry then begin
        let tl = Timeline.create ~width:100.0 () in
        ignore (Sink.attach sink (Timeline.subscriber tl));
        ignore (Signal.create tl);
        Some tl
      end
      else None
    in
    (* 16 campaigns per pass: the timed region must be long enough that
       the gate resolves the plane's few-percent cost above timer floor *)
    for seed = 11 to 26 do
      ignore (Validation.campaign_lifetime ~sink ~chi:256 ~omega:8 ~kappa:0.5 ~seed ())
    done;
    Option.iter Timeline.finish tl;
    digest_of ()
  in
  (* warm-up so both shapes are compiled before timing *)
  ignore (pass ~telemetry:false ());
  ignore (pass ~telemetry:true ());
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "telemetry subscriber perturbed the trace: %s <> %s" v b)
    (pass ~telemetry:false) (pass ~telemetry:true)

(* Adaptive-campaign overhead: the oblivious strategy runs the full
   observe–decide–act loop (symptom sampling, observation assembly, a
   boundary hook that always answers "unchanged") yet must stay
   byte-identical to the fixed-schedule path and within a few percent of
   its cost — that overhead is the price every legacy caller pays for the
   adaptive machinery existing at all. Both passes run in this process on
   the same paired seeds; the digests are asserted equal so the ratio
   compares identical work. *)
let measure_adaptive_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let module Adaptive = Fortress_attack.Adaptive in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  (* warm-up pass so both code paths are compiled and the minor heap is primed *)
  ignore (Inject.run_plan { config with trials = 2 } Plan.lossy);
  ignore
    (Inject.run_plan ~strategy:Adaptive.Strategy.oblivious { config with trials = 2 }
       Plan.lossy);
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "oblivious strategy diverged from the fixed schedule: %s <> %s" v b)
    (fun () -> (Inject.run_plan config Plan.lossy).Inject.digest)
    (fun () ->
      (Inject.run_plan ~strategy:Adaptive.Strategy.oblivious config Plan.lossy).Inject.digest)

(* Defender-controller overhead: the static strategy attaches the full
   sensing stack (an extra in-trial timeline + signal plane, observation
   assembly every boundary, a decide that always answers "unchanged") yet
   must stay byte-identical to the undefended path and within a few
   percent of its cost — the price the control loop charges when it never
   acts. Same paired-pass shape as measure_adaptive_overhead. *)
let measure_defender_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let module Controller = Fortress_defense.Controller in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  ignore (Inject.run_plan { config with trials = 2 } Plan.lossy);
  ignore
    (Inject.run_plan ~defender:Controller.Strategy.static { config with trials = 2 }
       Plan.lossy);
  paired_overhead ~passes:9
    ~mismatch:(fun v b ->
      Printf.sprintf "static defender diverged from the undefended run: %s <> %s" v b)
    (fun () -> (Inject.run_plan config Plan.lossy).Inject.digest)
    (fun () ->
      (Inject.run_plan ~defender:Controller.Strategy.static config Plan.lossy).Inject.digest)

(* Causal-tracing overhead: the same seeded chaos campaign three times
   per pass — tracing off, tracing on (span plumbing + latency extraction
   live), then off again. The GATED ratio is off2/off1: once the causal
   machinery has run, the disabled path must cost what it did before (the
   per-send [Engine.causal] check is one option read; no state lingers).
   Each pass times its three shapes back-to-back so ambient load drift
   hits them equally, and the gated ratio is min(off2)/min(off1) across
   the passes — a single off pass is well under a second, and scheduler
   noise is strictly additive, so the mins converge on true cost where
   any per-pass ratio gates on jitter (the same discipline as
   [paired_overhead], including the alternation: which of a pass's two
   off samples feeds the off1 vs off2 accumulator flips every pass, so
   monotone throttling drift cancels instead of always taxing the sample
   timed last). The traced ratio is reported for information — spans
   add real event volume, so a tight bound there would gate the feature's
   value, not a regression. The off-pass digests are asserted identical
   (byte-identity of the disabled path) and the traced run's EL is
   asserted equal to the plain one (tracing is a pure observer of the
   simulated world). *)
let measure_causal_overhead () =
  let module Inject = Fortress_exp.Inject in
  let module Plan = Fortress_faults.Plan in
  let config = { Inject.default_config with trials = 8; chi = 256; seed = 42 } in
  let traced_config = { config with causal = true } in
  (* process CPU time for the same reason as [paired_overhead]: immune to
     preemption, and the section is single-threaded *)
  let time f =
    Gc.full_major ();
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  ignore (Inject.run_plan { config with trials = 2 } Plan.chaos);
  ignore (Inject.run_plan { traced_config with trials = 2 } Plan.chaos);
  let passes = 7 in
  let off_digest = ref "" in
  let off1_seconds = ref infinity
  and off2_seconds = ref infinity
  and traced_seconds = ref infinity in
  for pass = 1 to passes do
    let off_a, off_a_dt = time (fun () -> Inject.run_plan config Plan.chaos) in
    let traced, traced_dt = time (fun () -> Inject.run_plan traced_config Plan.chaos) in
    let off_b, off_b_dt = time (fun () -> Inject.run_plan config Plan.chaos) in
    let (off1, off1_dt), (off2, off2_dt) =
      if pass land 1 = 1 then ((off_a, off_a_dt), (off_b, off_b_dt))
      else ((off_b, off_b_dt), (off_a, off_a_dt))
    in
    List.iter
      (fun (r : Inject.run) ->
        if !off_digest = "" then off_digest := r.Inject.digest
        else if r.Inject.digest <> !off_digest then
          failwith
            (Printf.sprintf "causal-off path not byte-identical across passes: %s <> %s"
               r.Inject.digest !off_digest))
      [ off1; off2 ];
    let el_off = Inject.mean_el config off1 in
    let el_on = Inject.mean_el traced_config traced in
    if el_off <> el_on then
      failwith
        (Printf.sprintf "causal tracing perturbed the simulation: EL %.17g <> %.17g" el_on
           el_off);
    off1_seconds := Float.min !off1_seconds off1_dt;
    off2_seconds := Float.min !off2_seconds off2_dt;
    traced_seconds := Float.min !traced_seconds traced_dt
  done;
  let ratio = if !off1_seconds > 0.0 then !off2_seconds /. !off1_seconds else 0.0 in
  let traced_ratio =
    if !off1_seconds > 0.0 then !traced_seconds /. !off1_seconds else 0.0
  in
  (!off1_seconds, !traced_seconds, ratio, traced_ratio)

(* Workload-plane throughput: a fixed closed-loop population driven
   through [Inject.run_plan] on the fortress stack. The logical request
   counts and virtual-time quantiles are deterministic (pinned exactly by
   bench_compare.py); only requests-per-second is a wall measurement, so
   it alone carries a tolerance. *)
let measure_workload_throughput () =
  let module Inject = Fortress_exp.Inject in
  let module Workload = Fortress_load.Workload in
  let module Plan = Fortress_faults.Plan in
  let spec =
    match Workload.spec_of_string "closed:clients=32,think=50" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let config = { Inject.default_config with trials = 6; load = Some spec } in
  let run () = Inject.run_plan config Plan.lossy in
  ignore (run ());
  let passes = 3 in
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to passes do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = run () in
    let dt = Unix.gettimeofday () -. t0 in
    (match !result with
    | Some (prev : Inject.run) ->
        if prev.Inject.digest <> r.Inject.digest then
          failwith
            (Printf.sprintf "workload passes not byte-identical: %s <> %s" r.Inject.digest
               prev.Inject.digest)
    | None -> ());
    if dt < !best then best := dt;
    result := Some r
  done;
  let r = Option.get !result in
  let stats = Option.get r.Inject.load in
  let requests_per_sec =
    if !best > 0.0 then float_of_int stats.Workload.issued /. !best else 0.0
  in
  let quantile q = Option.value ~default:0.0 (Workload.quantile stats q) in
  (requests_per_sec, stats.Workload.issued, stats.Workload.answered, quantile 0.5,
   quantile 0.99, Option.value ~default:0.0 r.Inject.availability)

(* The two long Monte-Carlo tables (A2, V1) run through the domain pool at
   [default_jobs]; their renders are asserted against FNV digests of the
   committed sequential output, so the bench itself is the first
   large-scale determinism gate for the pooled executor. *)
let assert_digest ~name ~expected rendered =
  let got = Fortress_obs.Sink.digest_lines [ rendered ] in
  if got <> expected then
    failwith
      (Printf.sprintf "%s changed under the pool: digest %s <> committed %s" name got
         expected)

let a2_expected_digest = "36332ece1ea6a53d"
let v1_expected_digest = "9c573d607d1c89d1"

let speedup_rows_json speedup =
  let module J = Fortress_obs.Json in
  J.List
    (List.map
       (fun (jobs, tps, sp, mean) ->
         J.Obj
           [
             ("jobs", J.Num (float_of_int jobs));
             ("trials_per_sec", J.Num tps);
             ("speedup_vs_1", J.Num sp);
             ("mean_el", J.Num mean);
           ])
       speedup)

let write_json ~path json =
  let oc = open_out path in
  output_string oc (Fortress_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

let print_speedup_rows speedup =
  Printf.printf "== domain-parallel Monte-Carlo speedup (step-level, 3000 trials) ==\n";
  List.iter
    (fun (jobs, tps, sp, mean) ->
      Printf.printf "jobs=%d  %10.0f trials/sec  %5.2fx vs jobs=1  (mean EL %.6g)\n" jobs tps
        sp mean)
    speedup;
  Printf.printf "means bit-identical across job counts: yes (asserted)\n\n"

let write_bench_json ~path ~wall_seconds ~events ~event_seconds ~interceptor ~profiler
    ~speedup ~adaptive ~defender ~timeline ~causal ~workload =
  let module J = Fortress_obs.Json in
  let secs =
    List.rev_map
      (fun (name, dt) -> J.Obj [ ("name", J.Str name); ("seconds", J.Num dt) ])
      !sections
  in
  let json =
    J.Obj
      [
        ("benchmark", J.Str "fortress");
        ("wall_seconds", J.Num wall_seconds);
        ("domains_available", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("events_emitted", J.Num (float_of_int events));
        ("event_seconds", J.Num event_seconds);
        ( "events_per_sec",
          J.Num (if event_seconds > 0.0 then float_of_int events /. event_seconds else 0.0) );
        ( "interceptor_overhead",
          J.List
            (List.map
               (fun (name, ns, words) ->
                 J.Obj
                   [
                     ("config", J.Str name);
                     ("ns_per_message", J.Num ns);
                     ("minor_words_per_message", J.Num words);
                   ])
               interceptor) );
        ( "profiler_overhead",
          J.List
            (List.map
               (fun (name, ns, words) ->
                 J.Obj
                   [
                     ("config", J.Str name);
                     ("ns_per_call", J.Num ns);
                     ("minor_words_per_call", J.Num words);
                   ])
               profiler) );
        ("parallel_speedup", speedup_rows_json speedup);
        ( "adaptive_overhead",
          (let fixed_s, obl_s, ratio = adaptive in
           J.Obj
             [
               ("fixed_seconds", J.Num fixed_s);
               ("oblivious_seconds", J.Num obl_s);
               ("ratio", J.Num ratio);
             ]) );
        ( "defender_overhead",
          (let plain_s, static_s, ratio = defender in
           J.Obj
             [
               ("plain_seconds", J.Num plain_s);
               ("static_seconds", J.Num static_s);
               ("ratio", J.Num ratio);
             ]) );
        ( "timeline_overhead",
          (let base_s, sub_s, ratio = timeline in
           J.Obj
             [
               ("baseline_seconds", J.Num base_s);
               ("subscriber_seconds", J.Num sub_s);
               ("ratio", J.Num ratio);
             ]) );
        ( "causal_overhead",
          (let plain_s, traced_s, ratio, traced_ratio = causal in
           J.Obj
             [
               ("plain_seconds", J.Num plain_s);
               ("traced_seconds", J.Num traced_s);
               ("ratio", J.Num ratio);
               ("traced_ratio", J.Num traced_ratio);
             ]) );
        ( "workload_throughput",
          (let rps, issued, answered, p50, p99, avail = workload in
           J.Obj
             [
               ("requests_per_sec", J.Num rps);
               ("logical_requests", J.Num (float_of_int issued));
               ("answered", J.Num (float_of_int answered));
               ("p50_vt", J.Num p50);
               ("p99_vt", J.Num p99);
               ("availability", J.Num avail);
             ]) );
        ("sections", J.List secs);
      ]
  in
  write_json ~path json

(* --speedup-only: just the pooled-speedup section and its slice of the
   report — fast enough for every PR, where the full bench is push/nightly
   material. bench_compare.py consumes the same keys either way. *)
let speedup_only () =
  let t_start = Unix.gettimeofday () in
  let module J = Fortress_obs.Json in
  let speedup = measure_parallel_speedup () in
  print_speedup_rows speedup;
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let path = "BENCH_fortress.json" in
  write_json ~path
    (J.Obj
       [
         ("benchmark", J.Str "fortress-speedup");
         ("wall_seconds", J.Num wall_seconds);
         ("domains_available", J.Num (float_of_int (Domain.recommended_domain_count ())));
         ("parallel_speedup", speedup_rows_json speedup);
       ]);
  Printf.printf "total wall time: %.2f s; speedup report written to %s\n" wall_seconds path

let full_bench () =
  let t_start = Unix.gettimeofday () in
  section "micro-benchmarks (bechamel, monotonic clock)" benchmark;
  section "Figure 1: expected lifetime comparison (analytic, kappa = 0.5)" (fun () ->
      print_string (Fortress_util.Table.render (Figures.figure1_table ~points:13 ())));
  section "Figure 2: S2PO expected lifetime as kappa varies" (fun () ->
      print_string (Fortress_util.Table.render (Figures.figure2_table ~points:13 ())));
  section "Ordering check (paper section 6 summary chain)" (fun () ->
      print_string (Fortress_util.Table.render (Figures.ordering_table ~points:7 ())));
  section "Ablation A1: proxy count" (fun () ->
      print_string (Fortress_util.Table.render (Ablations.proxy_count_table ~points:5 ())));
  section "Ablation A2: key entropy under SO (probe-level)" (fun () ->
      let rendered =
        Fortress_util.Table.render
          (Ablations.entropy_table ~trials:100 ~jobs:(Exec.default_jobs ()) ())
      in
      print_string rendered;
      assert_digest ~name:"A2 entropy table" ~expected:a2_expected_digest rendered);
  section "Ablation A3: launch-pad discipline (alpha = 0.005)" (fun () ->
      print_string (Fortress_util.Table.render (Ablations.launchpad_table ())));
  section "Ablation A4: proxy detection threshold -> effective kappa" (fun () ->
      print_string (Fortress_util.Table.render (Ablations.detection_table ())));
  section "Ablation A5: limited diversity (candidate-set size)" (fun () ->
      print_string
        (Fortress_util.Table.render (Ablations.limited_diversity_table ~trials:1000 ())));
  section "Ablation A6: proxy overhead on the request path" (fun () ->
      print_string (Fortress_util.Table.render (Ablations.overhead_table ())));
  section "Ablation A7: optimizing attacker budget split" (fun () ->
      print_string (Fortress_util.Table.render (Ablations.budget_split_table ())));
  section "Service quality under attack (degradation)" (fun () ->
      print_string
        (Fortress_util.Table.render
           (Fortress_exp.Degradation.table (Fortress_exp.Degradation.run ()))));
  section "PODC 2009 claim: fortified PB vs SMR with proactive recovery" (fun () ->
      print_string (Fortress_util.Table.render (Figures.podc_claim_table ~points:7 ())));
  section "Lifetime distribution shapes (alpha = 0.002, kappa = 0.5)" (fun () ->
      let shape_profiles =
        List.map
          (fun s -> Fortress_exp.Distributions.profile ~trials:2000 s ~alpha:0.002 ~kappa:0.5)
          [ Systems.S1_PO; Systems.S2_PO; Systems.S1_SO; Systems.S0_SO ]
      in
      print_string
        (Fortress_util.Table.render (Fortress_exp.Distributions.table shape_profiles)));
  section "Threat matrix (paper section 2.1)" (fun () ->
      let module Threat = Fortress_defense.Threat in
      let module Keyspace = Fortress_defense.Keyspace in
      let ks = Keyspace.pax_aslr_32bit in
      print_string
        (Fortress_util.Table.render
           (Threat.matrix_table
              [ []; [ Threat.W_xor_x ]; [ Threat.W_xor_x; Threat.Isr ks ];
                [ Threat.Aslr ks ]; [ Threat.W_xor_x; Threat.Aslr ks ];
                [ Threat.W_xor_x; Threat.Aslr ks; Threat.Got_randomization ks ] ])));
  section "Sensitivity: elasticities at alpha = 1e-3, kappa = 0.5" (fun () ->
      print_string (Fortress_util.Table.render (Fortress_exp.Sensitivity.table ())));
  section "Validation V1: analytic vs step-level vs probe-level" (fun () ->
      let lines = Validation.run ~trials:200 ~jobs:(Exec.default_jobs ()) () in
      let rendered = Fortress_util.Table.render (Validation.table lines) in
      print_string rendered;
      assert_digest ~name:"V1 validation table" ~expected:v1_expected_digest rendered;
      Printf.printf "max |step-MC - analytic| / analytic = %.3f\n"
        (Validation.max_relative_error lines));
  section "Validation V2: full packet-level stack vs the models" (fun () ->
      let line = Validation.protocol ~trials:60 () in
      print_string (Fortress_util.Table.render (Validation.protocol_table line));
      Printf.printf "stack agreement: %s\n"
        (if Validation.protocol_agrees line then "holds" else "FAILS"));
  section "Fault-injection campaign: EL under the built-in plan ladder" (fun () ->
      let module Inject = Fortress_exp.Inject in
      let module Plan = Fortress_faults.Plan in
      let config = { Inject.default_config with trials = 6 } in
      let report =
        Inject.run ~config ~plans:[ Plan.lossy; Plan.partition; Plan.crashy; Plan.chaos ] ()
      in
      print_string (Fortress_util.Table.render (Inject.table report));
      Printf.printf "escalation ordering (EL non-increasing): %s\n"
        (if Inject.monotone_non_increasing report then "holds" else "FAILS"));
  let events, event_seconds = measure_event_throughput () in
  Printf.printf "== observability throughput ==\n";
  Printf.printf "instrumented campaign emitted %d events in %.3f s cpu (%.0f events/sec)\n\n" events
    event_seconds
    (if event_seconds > 0.0 then float_of_int events /. event_seconds else 0.0);
  let interceptor = measure_interceptor_overhead () in
  Printf.printf "== fault interceptor overhead (hot Network.send path) ==\n";
  List.iter
    (fun (name, ns, words) ->
      Printf.printf "%-18s %8.1f ns/message  %6.1f minor words/message\n" name ns words)
    interceptor;
  (match interceptor with
  | (_, _, base_words) :: rest ->
      let worst =
        List.fold_left (fun acc (_, _, w) -> Float.max acc (w -. base_words)) 0.0 rest
      in
      Printf.printf
        "no-plan path allocates nothing for the fault layer; worst configured delta %+.1f \
         words/message\n\n"
        worst
  | [] -> print_newline ());
  let profiler = measure_profiler_overhead () in
  Printf.printf "== phase profiler overhead (per instrumented call) ==\n";
  List.iter
    (fun (name, ns, words) ->
      Printf.printf "%-18s %8.1f ns/call  %6.1f minor words/call\n" name ns words)
    profiler;
  (match profiler with
  | ("disabled", _, words) :: _ ->
      Printf.printf "disabled path allocates %s per call\n\n"
        (if words < 0.5 then "nothing" else Printf.sprintf "%.1f words (REGRESSION)" words)
  | _ -> print_newline ());
  let speedup = measure_parallel_speedup () in
  print_speedup_rows speedup;
  let adaptive = measure_adaptive_overhead () in
  let fixed_s, obl_s, ratio = adaptive in
  Printf.printf "== adaptive campaign overhead (oblivious strategy vs fixed schedule) ==\n";
  Printf.printf
    "fixed schedule  %8.3f s cpu\noblivious loop  %8.3f s cpu  (%.2fx min of paired passes)\n"
    fixed_s obl_s ratio;
  Printf.printf "digests bit-identical across the two paths: yes (asserted)\n\n";
  let defender = measure_defender_overhead () in
  let plain_s, static_s, def_ratio = defender in
  Printf.printf "== defender controller overhead (static strategy vs no controller) ==\n";
  Printf.printf
    "no controller   %8.3f s cpu\nstatic defender %8.3f s cpu  (%.2fx min of paired passes)\n"
    plain_s static_s def_ratio;
  Printf.printf "digests bit-identical across the two paths: yes (asserted)\n\n";
  let timeline = measure_timeline_overhead () in
  let base_s, sub_s, tl_ratio = timeline in
  Printf.printf "== telemetry plane overhead (timeline + signal subscriber) ==\n";
  Printf.printf
    "digest only       %8.3f s cpu\ntimeline+signals  %8.3f s cpu  (%.2fx min of paired passes)\n"
    base_s sub_s tl_ratio;
  Printf.printf "trace digest bit-identical with the plane attached: yes (asserted)\n\n";
  let causal = measure_causal_overhead () in
  let plain_s, traced_s, causal_ratio, traced_ratio = causal in
  Printf.printf "== causal tracing overhead (chaos campaign, spans + latency extraction) ==\n";
  Printf.printf
    "tracing off     %8.3f s cpu\ntracing on      %8.3f s cpu  (%.2fx, informational)\noff again       \
     %.2fx of the first off pass (min of paired passes, gated)\n"
    plain_s traced_s traced_ratio causal_ratio;
  Printf.printf
    "off-pass digests bit-identical and EL unchanged by tracing: yes (asserted)\n\n";
  let workload = measure_workload_throughput () in
  let rps, issued, answered, p50, p99, avail = workload in
  Printf.printf "== workload plane: closed-loop throughput (32 clients, think 50, lossy) ==\n";
  Printf.printf
    "%8.0f logical requests/sec wall  (%d issued, %d answered, availability %.3f)\n" rps
    issued answered avail;
  Printf.printf "latency quantiles (virtual time): p50 %.2f  p99 %.2f\n" p50 p99;
  Printf.printf "pass digests bit-identical: yes (asserted)\n\n";
  let wall_seconds = Unix.gettimeofday () -. t_start in
  let path = "BENCH_fortress.json" in
  write_bench_json ~path ~wall_seconds ~events ~event_seconds ~interceptor ~profiler ~speedup
    ~adaptive ~defender ~timeline ~causal ~workload;
  Printf.printf "total wall time: %.2f s; per-section timings written to %s\n" wall_seconds path

let () =
  if Array.exists (String.equal "--speedup-only") Sys.argv then speedup_only ()
  else full_bench ()
