(* The repository benchmark: four workloads timed through the public APIs
   [Inject.run_plan], [Inject.run_smr_plan], [Trial.run] over
   [Probe_level.lifetime] / [Step_level.sampler], and [Knowledge].

   One invocation runs one workload (or [all] of them in turn) for a fixed
   number of wall seconds. With [--trace 0] it prints the end-to-end
   metrics of an untraced pass. With [--trace 1] it runs an untraced pass,
   replays exactly the same blocks with the profiler and a counting sink
   attached, and prints the per-layer metrics; the ratio of the two passes'
   host time is [obs.trace_overhead]. Metric names and units are checked
   against BENCHMARK.json on every run, so the two cannot drift apart.

   Host time is process CPU time ([Sys.time]); wall time is printed beside
   it, never instead of it. The last line of standard output is one JSON
   object with the keys correct / attempted / failed / metrics, and the
   run exits 1 when a correctness check fails. README.md defines every
   metric. *)

module Inject = Fortress_exp.Inject
module Stack_driver = Fortress_exp.Stack_driver
module Plan = Fortress_faults.Plan
module Injector = Fortress_faults.Injector
module Workload = Fortress_load.Workload
module Trial = Fortress_mc.Trial
module Probe_level = Fortress_mc.Probe_level
module Step_level = Fortress_mc.Step_level
module Systems = Fortress_model.Systems
module Knowledge = Fortress_attack.Knowledge
module Keyspace = Fortress_defense.Keyspace
module Prng = Fortress_util.Prng
module Stats = Fortress_util.Stats
module Profiler = Fortress_prof.Profiler
module Sink = Fortress_obs.Sink
module Metrics = Fortress_obs.Metrics
module Event = Fortress_obs.Event
module Json = Fortress_obs.Json

let host_time = Sys.time

(* The benchmark's own profiler phase around each public call it makes, so
   the traced run separates the benchmark loop from the layers below. *)
let call_phase = Profiler.register "bench.call"

(* {1 Timed calls} *)

type sample = { host_s : float; minor_words : float; major_collections : int }

(* Gc deltas and host time around one public call. *)
let timed f =
  let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
  let h0 = host_time () in
  let r = f () in
  let h1 = host_time () in
  let m1 = Gc.minor_words () and c1 = (Gc.quick_stat ()).Gc.major_collections in
  ( r,
    {
      host_s = h1 -. h0;
      minor_words = m1 -. m0;
      major_collections = c1 - c0;
    } )

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function [] -> 0.0 | xs -> Stats.median (Array.of_list xs)

(* The mean of the middle half of the samples (all of them when fewer
   than four). *)
let interquartile_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let lo, hi = if n < 4 then (0, n) else (n / 4, n - (n / 4)) in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

(* The highest order statistic with at least ten samples beyond it, and
   the percentile it sits at; the maximum when there are ten or fewer. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else
    let i = if n > 10 then n - 11 else n - 1 in
    (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n)

(* {1 Correctness checks} *)

let checks = ref []

let check name ok detail =
  checks := ok :: !checks;
  Printf.printf "check %-24s %s  %s\n%!" name (if ok then "ok" else "FAILED") detail

(* {1 Workloads}

   A workload runs numbered blocks. Block [i] is a pure function of the run
   seed and [i], so the traced pass replays exactly the blocks the untraced
   pass ran, and the two passes' fingerprints must agree. *)

type block = {
  samples : sample list;  (** one per timed public call (campaign or Monte-Carlo trial) *)
  calls : int;
  failed : int;  (** calls that raised *)
  answered : int;  (** logical requests answered before their timeout *)
  steps : int;  (** simulated attack time-steps; a censored trial counts its horizon *)
  result : Trial.result option;
  load : Workload.stats option;
  faults : int;
  fingerprint : string;  (** digest of the block's simulated outcome *)
  call_host_s : float;  (** host time of the whole block, set by the pass *)
}

type workload = {
  setup : unit -> unit;  (** input generation and the first object the calls use *)
  block : ?sink:Sink.t -> int -> block;
  verify : block list -> unit;  (** workload-specific checks over a finished pass *)
  sweep_scale : int;  (** divisor applied to the knowledge-sweep key spaces *)
}

let block_seed ~seed i = Prng.int (Prng.split_nth (Prng.create ~seed) (i + 1)) ~bound:(1 lsl 30)

let steps_of_result ~max_steps (r : Trial.result) =
  Array.fold_left (fun acc l -> acc + int_of_float l) 0 r.Trial.lifetimes
  + (r.Trial.censored * max_steps)

(* pb-closed-lossy / smr-closed-none: one block is one [Inject] call of one
   campaign trial under the closed-loop client population. *)
let service ~stack ~plan ~tiny ~seed =
  let spec () =
    match Workload.spec_of_string "closed:clients=32,think=50" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let config i =
    {
      Inject.default_config with
      trials = 1;
      jobs = 1;
      seed = block_seed ~seed i;
      load = Some (spec ());
      max_steps = (if tiny then 10 else Inject.default_config.Inject.max_steps);
    }
  in
  let run_plan, make =
    match stack with
    | `Pb -> (Inject.run_plan, fun ~chi ~seed -> ignore (Stack_driver.Fortress.make ~chi ~seed))
    | `Smr -> (Inject.run_smr_plan, fun ~chi ~seed -> ignore (Stack_driver.Smr.make ~chi ~seed))
  in
  let setup () =
    let cfg = config 0 in
    make ~chi:cfg.Inject.chi ~seed:cfg.Inject.seed
  in
  let block ?sink i =
    let cfg = config i in
    let r, s = timed (fun () -> Profiler.record call_phase (fun () -> run_plan ?sink cfg plan)) in
    let l = Option.get r.Inject.load in
    if l.Workload.answered + l.Workload.timed_out > l.Workload.issued then
      check (Printf.sprintf "accounting block %d" i) false
        (Printf.sprintf "answered %d + timed out %d > issued %d" l.Workload.answered
           l.Workload.timed_out l.Workload.issued);
    {
      samples = [ s ];
      calls = 1;
      failed = 0;
      answered = l.Workload.answered;
      steps = steps_of_result ~max_steps:cfg.Inject.max_steps r.Inject.el;
      result = Some r.Inject.el;
      load = Some l;
      faults = Injector.stats_total r.Inject.faults + r.Inject.faults.Injector.timeline_fired;
      fingerprint = r.Inject.digest;
      call_host_s = 0.0;
    }
  in
  let verify = function
    | [] -> ()
    | first :: _ ->
        let again = block 0 in
        check "same-seed Inject digest" (again.fingerprint = first.fingerprint)
          (Printf.sprintf "block 0 twice: %s / %s" first.fingerprint again.fingerprint)
  in
  { setup; block; verify; sweep_scale = (if tiny then 16 else 1) }

let fingerprint_of (r : Trial.result) =
  Sink.digest_lines
    (string_of_int r.Trial.censored :: Array.to_list (Array.map (Printf.sprintf "%h") r.Trial.lifetimes))

(* How far the Monte-Carlo mean may sit from the analytic expected
   lifetime beyond its own 95% interval, as a share of the analytic value:
   at the full-size trial counts this keeps a spurious failure below about
   one run in ten thousand. *)
let mean_slack = 0.05

(* probe-mc-so / step-mc-po: one block is one [Trial.run] call of
   [per_block] trials, each sampler call timed by the benchmark's own span.
   [estimate] is the library's entry point for the same trials, which the
   span-wrapped run must reproduce exactly. *)
let monte_carlo ~per_block ~max_steps ~expected ~sampler ~estimate ~setup ~tiny ~seed =
  let block ?sink i =
    let samples = ref [] in
    let wrapped prng =
      let r, s = timed (fun () -> sampler prng) in
      samples := s :: !samples;
      r
    in
    let r =
      Profiler.record call_phase (fun () ->
          Trial.run ?sink ~jobs:1 ~trials:per_block ~seed:(block_seed ~seed i) ~sampler:wrapped ())
    in
    {
      samples = List.rev !samples;
      calls = per_block;
      failed = 0;
      answered = 0;
      steps = steps_of_result ~max_steps r;
      result = Some r;
      load = None;
      faults = 0;
      fingerprint = fingerprint_of r;
      call_host_s = 0.0;
    }
  in
  let verify = function
    | [] -> ()
    | first :: _ as blocks ->
        let reference = estimate ~trials:per_block ~seed:(block_seed ~seed 0) in
        check "Trial.run = estimate" (fingerprint_of reference = first.fingerprint)
          (Printf.sprintf "block 0: %s / %s" first.fingerprint (fingerprint_of reference));
        let lifetimes = Stats.create () in
        List.iter
          (fun b -> Option.iter (fun r -> Array.iter (Stats.add lifetimes) r.Trial.lifetimes) b.result)
          blocks;
        let mean = Stats.mean lifetimes in
        let lo, hi = Stats.confidence_interval lifetimes in
        let half = (hi -. lo) /. 2.0 in
        check "mean vs analytic EL"
          (Float.abs (mean -. expected) <= half +. (mean_slack *. expected))
          (Printf.sprintf "mean %.2f, analytic %.2f, ci95 half-width %.2f + %.0f%%, %d trials" mean
             expected half (100.0 *. mean_slack) (Stats.count lifetimes))
  in
  { setup; block; verify; sweep_scale = (if tiny then 16 else 1) }

let probe_mc ~tiny ~seed =
  let cfg =
    {
      Probe_level.default with
      chi = (if tiny then 256 else 4096);
      omega = 16;
      kappa = 0.5;
      mode = Probe_level.SO;
    }
  in
  let expected () =
    Systems.expected_lifetime Systems.S1_SO ~alpha:(Probe_level.alpha_of cfg) ~kappa:cfg.kappa
  in
  monte_carlo ~per_block:10 ~max_steps:cfg.Probe_level.max_steps
    ~expected:(expected ())
    ~sampler:(Probe_level.lifetime Systems.S1_SO cfg)
    ~estimate:(fun ~trials ~seed -> Probe_level.estimate ~jobs:1 ~trials ~seed Systems.S1_SO cfg)
    ~setup:(fun () ->
      ignore (block_seed ~seed 0);
      ignore (Knowledge.create (Keyspace.of_size cfg.Probe_level.chi));
      ignore (expected ()))
    ~tiny ~seed

let step_mc ~tiny ~seed =
  let cfg = { Step_level.default with alpha = (if tiny then 1e-2 else 1e-3); kappa = 0.5 } in
  let expected () = Systems.expected_lifetime Systems.S0_PO ~alpha:cfg.alpha ~kappa:cfg.kappa in
  monte_carlo ~per_block:32 ~max_steps:cfg.Step_level.max_steps
    ~expected:(expected ())
    ~sampler:(Step_level.sampler Systems.S0_PO cfg)
    ~estimate:(fun ~trials ~seed -> Step_level.estimate ~jobs:1 ~trials ~seed Systems.S0_PO cfg)
    ~setup:(fun () ->
      ignore (block_seed ~seed 0);
      ignore (expected ()))
    ~tiny ~seed

let workload_names = [ "pb-closed-lossy"; "smr-closed-none"; "probe-mc-so"; "step-mc-po" ]

let make_workload ~tiny ~seed = function
  | "pb-closed-lossy" -> service ~stack:`Pb ~plan:Plan.lossy ~tiny ~seed
  | "smr-closed-none" -> service ~stack:`Smr ~plan:Plan.none ~tiny ~seed
  | "probe-mc-so" -> probe_mc ~tiny ~seed
  | "step-mc-po" -> step_mc ~tiny ~seed
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)

(* {1 Passes} *)

let sum f blocks = List.fold_left (fun acc b -> acc + f b) 0 blocks
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let run_block w ?sink i =
  try w.block ?sink i
  with e ->
    check (Printf.sprintf "block %d" i) false (Printexc.to_string e);
    { samples = []; calls = 1; failed = 1; answered = 0; steps = 0; result = None; load = None;
      faults = 0; fingerprint = "raised"; call_host_s = 0.0 }

(* {2 Calibration}

   On a shared host, other tenants slow memory-heavy code down by up to
   1.9x for seconds at a time, in CPU time as much as in wall time, and the
   baseline drifts between runs. A fixed allocating kernel, run before the
   first block and after every block, tracks that speed, so a pass's host
   times are rescaled to the speed at which the kernel takes
   [reference_kernel_s], using the median kernel time over the pass. The
   kernel belongs to the benchmark and calls nothing in the repository, so
   a change to the program moves calibrated and raw figures alike.
   README.md has the measurements behind this. *)

let reference_kernel_s = 0.005

(* Short-lived allocation that stays within the minor heap, so the kernel
   leaves no garbage for the next block's major collector. *)
let calibration_kernel () =
  let total = ref 0 in
  for _ = 1 to 40 do
    let l = List.init 5_000 (fun i -> (i, float_of_int i)) in
    total := !total + List.length l
  done;
  !total

let kernel_time () =
  let h0 = host_time () in
  ignore (Sys.opaque_identity (calibration_kernel ()));
  host_time () -. h0

let calibrated ~kernel_s host_s = host_s *. reference_kernel_s /. kernel_s

type pass = {
  blocks : block list;
  kernel_s : float;  (** median calibration kernel time over the pass *)
  wall_s : float;
}

(* Blocks 0, 1, ... until [`Seconds s] of wall time have passed (at least
   one block) or [`Blocks n] have run, with a kernel run before the first
   block and after every block. *)
let pass w ?sink until =
  let w0 = Unix.gettimeofday () in
  let kernels = ref [ kernel_time () ] in
  let rec go i acc =
    let h0 = host_time () in
    let b = run_block w ?sink i in
    let acc = { b with call_host_s = host_time () -. h0 } :: acc in
    kernels := kernel_time () :: !kernels;
    let finished =
      match until with
      | `Seconds s -> Unix.gettimeofday () -. w0 >= s
      | `Blocks n -> i + 1 >= n
    in
    if finished then List.rev acc else go (i + 1) acc
  in
  let blocks = go 0 [] in
  { blocks; kernel_s = median !kernels; wall_s = Unix.gettimeofday () -. w0 }

let pass_host p = fsum (fun b -> b.call_host_s) p.blocks
let pass_calibrated p = calibrated ~kernel_s:p.kernel_s (pass_host p)

let samples_of blocks = List.concat_map (fun b -> b.samples) blocks

let merged_load blocks =
  match List.filter_map (fun b -> b.load) blocks with
  | [] -> None
  | ls ->
      let acc = Workload.fresh_stats () in
      List.iter (Workload.accumulate acc) ls;
      Some acc

(* {1 Metrics} *)

type metric = { m_name : string; m_unit : string; m_value : float; m_n : int; m_note : string }

let metric ?(n = 1) m_name m_unit m_value = { m_name; m_unit; m_value; m_n = n; m_note = "" }

(* A trial is the unit of useful work on the Monte-Carlo workloads; an
   answered request is the unit on the service workloads. *)
let units blocks =
  match merged_load blocks with
  | Some _ -> sum (fun b -> b.answered) blocks
  | None -> sum (fun b -> b.calls - b.failed) blocks

let setup_repetitions = 7

(* Process start-up in a fresh process: this executable started with
   [--startup] prints the host time it had used when [main] began. *)
let startup_host_s () =
  let ic =
    Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--startup" |]
  in
  let line = input_line ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string line
  | _ -> failwith "start-up probe failed"

(* The median process start-up of [setup_repetitions] fresh processes plus
   the median of as many repetitions of the workload's set-up, calibrated by
   the kernel runs right after. *)
let measure_setup w =
  let startups = List.init setup_repetitions (fun _ -> startup_host_s ()) in
  let reps =
    List.init setup_repetitions (fun _ ->
        let h0 = host_time () in
        w.setup ();
        host_time () -. h0)
  in
  let raw = median startups +. median reps in
  Gc.compact ();
  (* the first kernel run grows the heap; calibrate with warm runs *)
  let kernel_s = median (List.init 4 (fun _ -> kernel_time ()) |> List.tl) in
  Printf.printf
    "setup: median start-up %.6f s + median set-up %.6f s (n=%d) = %.6f s raw, kernel %.6f s\n"
    (median startups) (median reps) setup_repetitions raw kernel_s;
  calibrated ~kernel_s raw

(* The end-to-end metrics of an untraced pass: the gated ones, which every
   workload reports and BENCHMARK.json bounds, and report-only ones that
   exist on some workloads or move with the seed's simulated outcome more
   than a bound could absorb. *)
let end_to_end ~setup_s p =
  let blocks = p.blocks in
  let samples = samples_of blocks in
  let per_trial = List.map (fun s -> 1000.0 *. s.host_s) samples in
  let n = List.length samples in
  let tail_ms, tail_pct = tail per_trial in
  let calls = sum (fun b -> b.calls) blocks and failed = sum (fun b -> b.failed) blocks in
  let answered = sum (fun b -> b.answered) blocks in
  let per x host = if host > 0.0 then float_of_int x /. host else 0.0 in
  let raw = pass_host p and cal = pass_calibrated p in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let service, failed_frac =
    match merged_load blocks with
    | Some l ->
        ( true,
          metric ~n:l.Workload.issued "failed_frac" "ratio"
            (if l.Workload.issued = 0 then 0.0
             else float_of_int (l.Workload.issued - l.Workload.answered) /. float_of_int l.Workload.issued) )
    | None ->
        (false, metric ~n:calls "failed_frac" "ratio" (if calls = 0 then 0.0 else float_of_int failed /. float_of_int calls))
  in
  let useful b = if service then b.answered else b.steps in
  (* On the service workloads, the interquartile mean of the campaign
     trials' own goodput: SMR answers a near-constant number of requests per
     trial before it wedges while its host time grows with the trial's
     length, and the rare trial that never wedges answers thousands, so a
     pooled ratio would follow a seed's few longest or healthiest trials.
     On the Monte-Carlo workloads, pooled over every trial: a trial's cost
     is what the estimator pays, and the expensive trials are the ones a
     robust statistic would hide. *)
  let goodput =
    if service then
      interquartile_mean
        (List.map (fun b -> per (useful b) (calibrated ~kernel_s:p.kernel_s b.call_host_s)) blocks)
    else per (sum useful blocks) cal
  in
  let gated =
    [
      metric ~n:setup_repetitions "setup_s" "s" setup_s;
      metric ~n:(List.length blocks) "goodput_per_s" "1/s" goodput;
    ]
  in
  let report_only =
    [
      metric ~n:calls "goodput_pooled_per_s" "1/s" (per (sum useful blocks) cal);
      metric ~n:calls "goodput_raw_per_s" "1/s" (per (sum useful blocks) raw);
    ]
    @ (if service then [ metric ~n:calls "goodput_rps" "1/s" (per answered raw) ] else [])
    @ [
        failed_frac;
        metric ~n "trials_per_s" "1/s" (per calls raw);
        metric ~n "trial_p50_ms" "ms" (median per_trial);
        { (metric ~n "trial_tail_ms" "ms" tail_ms) with m_note = Printf.sprintf " at p%.1f" tail_pct };
        metric "peak_heap_mb" "MB" (float_of_int (heap * (Sys.word_size / 8)) /. 1048576.0);
      ]
  in
  (gated, report_only)

(* [Knowledge] driven by its public API alone: guess, observe the crash,
   repeat until the key space is exhausted. Every key must come out exactly
   once. *)
let knowledge_sweep ~chi ~seed =
  let k = Knowledge.create (Keyspace.of_size chi) in
  let prng = Prng.create ~seed in
  let seen = Bytes.make chi '\000' in
  let guesses = ref 0 and repeats = ref 0 in
  let (), s =
    timed (fun () ->
        let rec go () =
          match Knowledge.next_guess k prng with
          | None -> ()
          | Some g ->
              if Bytes.get seen g <> '\000' then incr repeats;
              Bytes.set seen g '\001';
              incr guesses;
              Knowledge.observe_crash k ~guess:g;
              go ()
        in
        go ())
  in
  check
    (Printf.sprintf "knowledge sweep chi=%d" chi)
    (!guesses = chi && !repeats = 0)
    (Printf.sprintf "%d guesses, %d repeated, %.1f ms, %.0f minor words" !guesses !repeats
       (1000.0 *. s.host_s) s.minor_words);
  1000.0 *. s.host_s

let repl_kinds =
  [ "ack_timeout"; "divergence"; "suspect"; "sync"; "sync_timeout"; "reload"; "restore";
    "transfer_retry"; "resync"; "view_demand" ]

(* Counts come from the traced pass; rates and Gc figures from the
   untraced pass over the same blocks. *)
let per_layer w ~seed ~untraced ~traced ~prof ~counters ~repl =
  let untraced_host = pass_host untraced in
  let blocks = untraced.blocks in
  let entry name = List.find_opt (fun e -> e.Profiler.name = name) prof in
  let count name = match entry name with Some e -> float_of_int e.Profiler.count | None -> 0.0 in
  let self name = match entry name with Some e -> e.Profiler.self_s | None -> 0.0 in
  let words name = match entry name with Some e -> e.Profiler.self_minor_words | None -> 0.0 in
  let counter name = float_of_int (Metrics.find_counter counters name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let answers = float_of_int (sum (fun b -> b.answered) blocks) in
  let per_answer name = ratio (count name) answers in
  let trials = float_of_int (sum (fun b -> b.calls) blocks) in
  let steps = float_of_int (sum (fun b -> b.steps) blocks) in
  let samples = samples_of blocks in
  let load_metrics =
    let l = Option.value (merged_load blocks) ~default:(Workload.fresh_stats ()) in
    let q p = Option.value ~default:0.0 (Workload.quantile l p) in
    let issued = float_of_int l.Workload.issued in
    [
      metric "load.issued" "count" issued;
      metric "load.answered" "count" (float_of_int l.Workload.answered);
      metric "load.timed_out" "count" (float_of_int l.Workload.timed_out);
      metric "load.p50_vt" "vt" (q 0.5);
      metric "load.p99_vt" "vt" (q 0.99);
      metric "load.failed_frac" "ratio" (ratio (issued -. float_of_int l.Workload.answered) issued);
      metric "faults.injected" "count" (float_of_int (sum (fun b -> b.faults) blocks));
    ]
  in
  let sweep chi = metric (Printf.sprintf "attack.knowledge_sweep_ms.chi%d" chi) "ms"
      (knowledge_sweep ~chi:(chi / w.sweep_scale) ~seed)
  in
  [
    metric "sim.events_per_answer" "count" (per_answer "engine.fire");
    metric "sim.fire_self_s" "s" (self "engine.fire");
    metric "sim.events_per_s" "1/s" (ratio (count "engine.fire") untraced_host);
    metric "net.sends_per_answer" "count" (per_answer "net.send");
    metric "net.send_self_s" "s" (self "net.send");
    metric "net.deliver_self_s" "s" (self "net.deliver");
    metric "net.dropped" "count" (counter "events.msg_dropped");
    metric "crypto.sha256_per_answer" "count" (per_answer "crypto.sha256");
    metric "crypto.hmacs_per_answer" "count" (per_answer "crypto.hmac");
    metric "crypto.sha256_self_s" "s" (self "crypto.sha256");
    metric "crypto.hmac_self_s" "s" (self "crypto.hmac");
    metric "crypto.words_per_sha256" "words" (ratio (words "crypto.sha256") (count "crypto.sha256"));
    metric "replication.failovers" "count" (counter "events.failover");
  ]
  @ List.map
      (fun k ->
        metric ("replication.repl." ^ k) "count"
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt repl k))))
      repl_kinds
  @ [
      metric "core.requests_submitted" "count" (counter "events.request_submitted");
      metric "core.replies_rejected" "count" (counter "events.reply_rejected");
      metric "core.rekeys" "count" (counter "events.rekey");
      metric "core.recovers" "count" (counter "events.recover");
    ]
  @ List.map
      (fun (name, key) -> metric ("attack.probes." ^ name) "count" (counter ("probe." ^ key)))
      [ ("direct", "direct"); ("indirect", "indirect"); ("launchpad", "launchpad");
        ("crashed", "crash"); ("intruded", "intrusion"); ("blocked", "blocked") ]
  @ [ metric "attack.probe_self_s" "s" (self "attack.probe"); sweep 4096; sweep 16384 ]
  @ [
      metric "mc.steps_per_trial" "count" (ratio steps trials);
      metric "mc.ns_per_step" "ns" (ratio (1e9 *. untraced_host) steps);
      metric "mc.trial_self_s" "s" (self "mc.trial");
    ]
  @ load_metrics
  @ [
      metric "gc.minor_words_per_op" "words"
        (ratio (List.fold_left (fun acc s -> acc +. s.minor_words) 0.0 samples)
           (float_of_int (units blocks)));
      metric "gc.major_collections" "count"
        (float_of_int (List.fold_left (fun acc s -> acc + s.major_collections) 0 samples));
      metric "obs.trace_overhead" "ratio" (ratio (pass_calibrated traced) (pass_calibrated untraced));
    ]

(* {1 BENCHMARK.json} *)

(* (name, unit) of every metric BENCHMARK.json lists under [key]. *)
let declared ~spec key =
  let text = In_channel.with_open_bin spec In_channel.input_all in
  let fail why = failwith (Printf.sprintf "%s: %s" spec why) in
  let field name m =
    match Option.bind (Json.member name m) Json.str with
    | Some s -> s
    | None -> fail (Printf.sprintf "a %s entry has no %S" key name)
  in
  match Json.parse text with
  | Error e -> fail e
  | Ok j -> (
      match Option.bind (Json.member key j) Json.list with
      | Some ms -> List.map (fun m -> (field "name" m, field "unit" m)) ms
      | None -> fail (Printf.sprintf "no %S list" key))

(* The measured metrics in BENCHMARK.json's order; any name missing from
   either side or any unit that disagrees is a program error. *)
let against_declared ~spec key measured =
  let names = List.map (fun m -> m.m_name) measured in
  let wanted = declared ~spec key in
  List.iter
    (fun n ->
      if not (List.mem_assoc n wanted) then
        failwith (Printf.sprintf "metric %s is measured but not declared under %s" n key))
    names;
  List.map
    (fun (n, u) ->
      match List.find_opt (fun m -> m.m_name = n) measured with
      | None -> failwith (Printf.sprintf "metric %s is declared under %s but not measured" n key)
      | Some m when m.m_unit <> u ->
          failwith (Printf.sprintf "metric %s is measured in %s but declared in %s" n m.m_unit u)
      | Some m -> m)
    wanted

let json_number v =
  if not (Float.is_finite v) then failwith "non-finite metric value"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Json.to_string (Json.Str m.m_name))
              (json_number m.m_value)
              (Json.to_string (Json.Str m.m_unit)))
          metrics))

(* {1 One workload} *)

(* Digests and simulated statistics are printed, never pinned: a change
   that re-pins a random stream still passes, and any movement is visible. *)
let report_simulated name blocks =
  let digest = Sink.digest_lines (List.map (fun b -> b.fingerprint) blocks) in
  Printf.printf "digest %s over %d blocks (block 0: %s)\n" digest (List.length blocks)
    (match blocks with b :: _ -> b.fingerprint | [] -> "-");
  Printf.printf "simulated %s: %d steps" name (sum (fun b -> b.steps) blocks);
  (match merged_load blocks with
  | Some l ->
      Printf.printf ", issued %d answered %d timed out %d, %d faults injected" l.Workload.issued
        l.Workload.answered l.Workload.timed_out (sum (fun b -> b.faults) blocks)
  | None -> ());
  print_newline ()

let counting_sink () =
  let counters = Metrics.create () in
  let repl = Hashtbl.create 16 in
  let sink = Sink.create () in
  ignore (Sink.attach sink (Sink.counting counters));
  ignore
    (Sink.attach sink (fun ~time:_ -> function
       | Event.Repl { kind; _ } ->
           Hashtbl.replace repl kind (1 + Option.value ~default:0 (Hashtbl.find_opt repl kind))
       | _ -> ()));
  (sink, counters, repl)

let print_pass label p =
  Printf.printf "pass %-8s %d blocks, %d calls, host %.3f s (%.3f s calibrated, kernel %.6f s), wall %.3f s\n"
    label (List.length p.blocks) (sum (fun b -> b.calls) p.blocks) (pass_host p) (pass_calibrated p)
    p.kernel_s p.wall_s

let run_workload ~spec ~seed ~seconds ~trace ~tiny name =
  checks := [];
  let w = make_workload ~tiny ~seed name in
  Printf.printf "workload %s seed %d seconds %g trace %d%s\n%!" name seed seconds trace
    (if tiny then " (tiny sizes)" else "");
  let setup_s = measure_setup w in
  let blocks, metrics =
    if trace = 0 then begin
      let p = pass w (`Seconds seconds) in
      let blocks = p.blocks in
      print_pass "untraced" p;
      let gated, report_only = end_to_end ~setup_s p in
      List.iter
        (fun (kind, ms) ->
          List.iter
            (fun m ->
              Printf.printf "metric %-20s %.6g %s (n=%d%s)%s\n" m.m_name m.m_value m.m_unit m.m_n
                m.m_note kind)
            ms)
        [ (" gated", gated); ("", report_only) ];
      report_simulated name blocks;
      w.verify blocks;
      (blocks, against_declared ~spec "end_to_end" gated)
    end
    else begin
      let untraced = pass w (`Seconds (seconds /. 2.0)) in
      let sink, counters, repl = counting_sink () in
      Profiler.reset ();
      Profiler.enable ();
      let traced = pass w ~sink (`Blocks (List.length untraced.blocks)) in
      Profiler.disable ();
      let prof = Profiler.snapshot () in
      print_pass "untraced" untraced;
      print_pass "traced" traced;
      report_simulated name untraced.blocks;
      let fingerprints p = List.map (fun b -> b.fingerprint) p.blocks in
      check "traced = untraced" (fingerprints traced = fingerprints untraced)
        "blocks replayed with the profiler and a counting sink attached";
      w.verify untraced.blocks;
      let metrics = per_layer w ~seed ~untraced ~traced ~prof ~counters ~repl in
      List.iter (fun m -> Printf.printf "layer %-36s %.6g %s\n" m.m_name m.m_value m.m_unit) metrics;
      Printf.printf
        "note: replication, core, load and defense have no profiler phase of their own; their self \
         time is inside sim.fire_self_s\n";
      (untraced.blocks @ traced.blocks, against_declared ~spec "per_layer" metrics)
    end
  in
  let attempted = sum (fun b -> b.calls) blocks and failed = sum (fun b -> b.failed) blocks in
  let correct = List.for_all Fun.id !checks && failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  correct

let () =
  (* the start-up probe: by now the runtime and every library's module
     initialisation have run *)
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--startup" then begin
    Printf.printf "%.17g\n" (host_time ());
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let tiny = ref false and spec = ref "BENCHMARK.json" in
  let usage =
    "main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny] [--spec BENCHMARK.json]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workload_names ^ ", or all");
      ("--seed", Arg.Set_int seed, "N seed every input is derived from");
      ("--seconds", Arg.Set_float seconds, "S wall seconds the measured pass runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--tiny", Arg.Set tiny, " smoke-test sizes (not comparable with full-size runs)");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json holding the metric names and units");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let names = if !workload = "all" then workload_names else [ !workload ] in
  if (not (List.for_all (fun n -> List.mem n workload_names) names)) || (!trace <> 0 && !trace <> 1)
     || !seconds < 0.0
  then begin
    prerr_endline usage;
    exit 2
  end;
  (* read BENCHMARK.json before any work, so a missing file fails fast *)
  ignore (declared ~spec:!spec "end_to_end");
  let results =
    List.map
      (fun name ->
        run_workload ~spec:!spec ~seed:!seed ~seconds:!seconds ~trace:!trace ~tiny:!tiny name)
      names
  in
  if not (List.for_all Fun.id results) then exit 1
