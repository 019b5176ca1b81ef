(* fortress_faults: plan validation, injector determinism, wiring of
   timeline actions into a live deployment, and the end-to-end properties
   the inject subcommand reports — trace-digest determinism and the EL
   escalation ordering of the built-in plan ladder. *)

module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Plan = Fortress_faults.Plan
module Injector = Fortress_faults.Injector
module Wiring = Fortress_faults.Wiring
module Deployment = Fortress_core.Deployment
module Obfuscation = Fortress_core.Obfuscation
module Instance = Fortress_defense.Instance
module Inject = Fortress_exp.Inject

(* ---- plans ---- *)

let test_builtins_validate () =
  List.iter Plan.validate Plan.builtins;
  Alcotest.(check int) "four hostile plans plus none" 5 (List.length Plan.builtins)

let test_find () =
  (match Plan.find "chaos" with
  | Some p -> Alcotest.(check string) "found by name" "chaos" p.Plan.name
  | None -> Alcotest.fail "chaos not found");
  Alcotest.(check bool) "unknown plan" true (Plan.find "zen" = None)

let invalid name f = Alcotest.check_raises name (Invalid_argument "probe") f

let expect_invalid name plan =
  match Plan.validate plan with
  | () -> Alcotest.fail (name ^ ": accepted")
  | exception Invalid_argument _ -> ()

let _ = invalid

let test_validation_rejects () =
  expect_invalid "drop rate above 1"
    { Plan.none with name = "bad"; link = { Plan.calm with drop = 1.5 } };
  expect_invalid "negative jitter"
    { Plan.none with name = "bad"; link = { Plan.calm with jitter = -0.1 } };
  expect_invalid "empty name" { Plan.none with name = "" };
  expect_invalid "entry in the past"
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:(-1.0) Plan.Heal_all ] };
  expect_invalid "non-positive period"
    {
      Plan.none with
      name = "bad";
      timeline = [ Plan.repeat ~at:1.0 ~every:0.0 Plan.Heal_all ];
    };
  expect_invalid "nameserver partition"
    {
      Plan.none with
      name = "bad";
      timeline = [ Plan.once ~at:1.0 (Plan.Partition (Plan.Nameserver, Plan.Server 0)) ];
    };
  expect_invalid "non-positive slowdown"
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:1.0 (Plan.Slowdown 0.0) ] }

(* ---- injector ---- *)

let verdict_repr = function
  | Network.Pass -> "pass"
  | Network.Drop r -> "drop:" ^ r
  | Network.Deliver ds ->
      String.concat ";"
        (List.map
           (fun d ->
             Printf.sprintf "%g%s" d.Network.extra_delay (if d.Network.corrupt then "!" else ""))
           ds)

let interceptor_trace ~seed n =
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:0) () in
  let stats = Injector.fresh_stats () in
  let prng = Injector.derive_prng ~seed in
  let icpt = Injector.link_interceptor ~engine ~prng ~stats Plan.lossy.Plan.link in
  let a = Address.make 1 and b = Address.make 2 in
  List.init n (fun i -> verdict_repr (icpt ~src:a ~dst:b i))

let test_injector_deterministic () =
  let t1 = interceptor_trace ~seed:7 200 and t2 = interceptor_trace ~seed:7 200 in
  Alcotest.(check (list string)) "same seed, same verdicts" t1 t2;
  let t3 = interceptor_trace ~seed:8 200 in
  Alcotest.(check bool) "different seed diverges" true (t1 <> t3)

let test_injector_certain_drop () =
  let engine = Engine.create ~prng:(Fortress_util.Prng.create ~seed:0) () in
  let stats = Injector.fresh_stats () in
  let prng = Injector.derive_prng ~seed:1 in
  let icpt =
    Injector.link_interceptor ~engine ~prng ~stats { Plan.calm with drop = 1.0 }
  in
  let a = Address.make 1 and b = Address.make 2 in
  for i = 1 to 50 do
    match icpt ~src:a ~dst:b i with
    | Network.Drop _ -> ()
    | _ -> Alcotest.fail "drop = 1.0 let a message through"
  done;
  Alcotest.(check int) "stats count every drop" 50 stats.Injector.dropped;
  Alcotest.(check int) "drops are link faults" 50 (Injector.stats_total stats)

(* ---- wiring into a deployment ---- *)

let small_deployment seed =
  Deployment.create
    {
      Deployment.default_config with
      seed;
      keyspace = Fortress_defense.Keyspace.of_size 64;
    }

let test_wiring_none_is_inert () =
  let d = small_deployment 3 in
  let h = Wiring.install Plan.none ~deployment:d ~seed:3 () in
  let c = Deployment.new_client d ~name:"c0" in
  for _ = 1 to 20 do
    ignore (Fortress_core.Client.submit c ~cmd:"get x" ~on_response:(fun _ -> ()))
  done;
  Engine.run ~until:50.0 (Deployment.engine d);
  Alcotest.(check int) "no injected link faults" 0 (Injector.stats_total (Wiring.stats h));
  Wiring.uninstall h

let test_wiring_unknown_target_rejected () =
  let d = small_deployment 3 in
  let plan =
    { Plan.none with name = "bad"; timeline = [ Plan.once ~at:1.0 (Plan.Crash (Plan.Server 9)) ] }
  in
  match Wiring.install plan ~deployment:d ~seed:3 () with
  | _ -> Alcotest.fail "accepted a target outside the deployment"
  | exception Invalid_argument _ -> ()

let test_wiring_crash_restart_timeline () =
  let d = small_deployment 3 in
  let plan =
    {
      Plan.none with
      name = "flap";
      timeline =
        [ Plan.once ~at:10.0 (Plan.Crash (Plan.Server 0)); Plan.once ~at:20.0 (Plan.Restart (Plan.Server 0)) ];
    }
  in
  let h = Wiring.install plan ~deployment:d ~seed:3 () in
  let engine = Deployment.engine d in
  let net = Deployment.network d in
  let s0 = (Deployment.server_addresses d).(0) in
  Engine.run ~until:15.0 engine;
  Alcotest.(check bool) "down after the crash entry" false (Network.is_up net s0);
  Engine.run ~until:25.0 engine;
  Alcotest.(check bool) "up after the restart entry" true (Network.is_up net s0);
  Alcotest.(check int) "both actions fired" 2 (Wiring.stats h).Injector.timeline_fired;
  Wiring.uninstall h

let test_rekey_skips_down_server () =
  let d = small_deployment 3 in
  let insts = Deployment.server_instances d in
  let crashed_key = Instance.key insts.(0) in
  Deployment.crash_server d 0;
  Deployment.rekey d;
  Alcotest.(check int) "down server kept its stale key" crashed_key (Instance.key insts.(0));
  Alcotest.(check bool) "up server was rekeyed" true (Instance.key insts.(1) <> crashed_key);
  Deployment.restart_server d 0;
  Deployment.rekey d;
  Alcotest.(check int) "rejoins the shared key after restart" (Instance.key insts.(1))
    (Instance.key insts.(0))

let test_stall_skips_boundaries () =
  let d = small_deployment 3 in
  let o = Obfuscation.attach d ~mode:Obfuscation.PO ~period:10.0 in
  Obfuscation.set_stalled o true;
  Engine.run ~until:35.0 (Deployment.engine d);
  Alcotest.(check int) "no boundary completed" 0 (Obfuscation.steps_completed o);
  Alcotest.(check int) "three boundaries skipped" 3 (Obfuscation.skipped_boundaries o);
  Obfuscation.set_stalled o false;
  Engine.run ~until:45.0 (Deployment.engine d);
  Alcotest.(check int) "resumes after unwedging" 1 (Obfuscation.steps_completed o);
  Obfuscation.detach o

(* ---- the S0 fold: one plan, a single replica tier ----

   Driven through [Stack_driver.Smr] so the test exercises exactly the
   fault path the inject loop uses on S0 (n = 4 replicas). *)

module Smr_driver = Fortress_exp.Stack_driver.Smr
module Sink = Fortress_obs.Sink
module Event = Fortress_obs.Event

let smr_stack () =
  let t = Smr_driver.make ~chi:64 ~seed:3 in
  Smr_driver.start_obfuscation t ~period:100.0;
  let sub, read = Sink.memory () in
  ignore (Sink.attach (Engine.sink (Smr_driver.engine t)) sub);
  (t, read)

let one_action action = { Plan.none with name = "fold"; timeline = [ Plan.once ~at:1.0 action ] }

let faults read =
  List.filter_map
    (fun (_, ev) ->
      match ev with
      | Event.Fault { action; target; _ } -> Some (action ^ ":" ^ target)
      | _ -> None)
    (read ())

let fold_faults action =
  let t, read = smr_stack () in
  let stats = Smr_driver.install_plan t (one_action action) ~seed:3 () in
  Engine.run ~until:2.0 (Smr_driver.engine t);
  Alcotest.(check int) "the entry fired" 1 stats.Injector.timeline_fired;
  (t, faults read)

let test_smr_fold_proxy_to_tail () =
  let _, fs = fold_faults (Plan.Crash (Plan.Proxy 0)) in
  Alcotest.(check (list string)) "proxy 0 folds onto replica n-1"
    [ "plan_installed:fold"; "crash:replica3" ] fs

let test_smr_fold_server_and_replica () =
  let _, by_server = fold_faults (Plan.Crash (Plan.Server 1)) in
  let _, by_replica = fold_faults (Plan.Crash (Plan.Replica 1)) in
  Alcotest.(check (list string)) "server 1 hits replica 1"
    [ "plan_installed:fold"; "crash:replica1" ] by_server;
  Alcotest.(check (list string)) "replica 1 hits replica 1" by_server by_replica

let test_smr_fold_nameserver_skipped () =
  (* every replica crash emits a crash event, so its absence means no
     replica went down *)
  let _, fs = fold_faults (Plan.Crash Plan.Nameserver) in
  Alcotest.(check (list string)) "exactly one skip, no crash"
    [ "plan_installed:fold"; "skip:nameserver" ] fs

let test_smr_fold_out_of_range_rejected () =
  let t, read = smr_stack () in
  (* a certain-drop link layer: had the interceptor been installed, no
     request could be answered afterwards *)
  let plan =
    {
      (one_action (Plan.Crash (Plan.Server 4))) with
      link = { Plan.calm with drop = 1.0 };
    }
  in
  (match Smr_driver.install_plan t plan ~seed:3 () with
  | _ -> Alcotest.fail "accepted a target that folds onto no replica"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string)) "no event emitted" [] (faults read);
  let c = Smr_driver.new_client t ~name:"c0" in
  let answered = ref false in
  ignore (Smr_driver.submit c ~cmd:"get x" ~on_response:(fun _ -> answered := true));
  Engine.run ~until:50.0 (Smr_driver.engine t);
  Alcotest.(check bool) "no interceptor: the request is answered" true !answered

(* ---- pinned inject digests on both stacks ----

   The safety net for refactors of the fault, staging and adaptive
   planes: one adaptive attacker and one acting defender on the two
   plans that exercise every timeline action but resume, corruption and
   the S0 nameserver skip. A pure refactor moves none of these numbers. *)

let test_pinned_digests () =
  let cfg = { Inject.default_config with trials = 4; max_steps = 120 } in
  let strategy = Option.get (Fortress_attack.Adaptive.Strategy.find "partition-follower") in
  let defender = Option.get (Inject.find_defender "alarm-rekey") in
  let fortress plan = Inject.run_plan ~strategy ~defender cfg plan in
  let smr plan = Inject.run_smr_plan ~strategy ~defender cfg plan in
  List.iter
    (fun (what, run, plan, digest, attacker, defended, fired) ->
      let r : Inject.run = run plan in
      Alcotest.(check string) (what ^ " digest") digest r.Inject.digest;
      Alcotest.(check int) (what ^ " attacker directives") attacker r.Inject.directives;
      Alcotest.(check int) (what ^ " defender directives") defended
        r.Inject.defender_directives;
      Alcotest.(check int) (what ^ " timeline fired") fired
        r.Inject.faults.Injector.timeline_fired)
    [
      ("fortress crashy", fortress, Plan.crashy, "a55c876ea5ef1643", 85, 0, 1074);
      ("fortress chaos", fortress, Plan.chaos, "dc2fb3246442b14d", 25, 7, 324);
      ("smr crashy", smr, Plan.crashy, "056237adc9673c93", 8, 460, 4156);
      ("smr chaos", smr, Plan.chaos, "cc9dfa114df55951", 33, 389, 3714);
    ]

(* ---- end-to-end: determinism and the escalation ladder ---- *)

let quick_config = { Inject.default_config with trials = 2; max_steps = 80; seed = 5 }

let test_digest_deterministic () =
  let r1 = Inject.run_plan quick_config Plan.chaos in
  let r2 = Inject.run_plan quick_config Plan.chaos in
  Alcotest.(check string) "same seed+plan, same digest" r1.Inject.digest r2.Inject.digest;
  let r3 = Inject.run_plan { quick_config with seed = 6 } Plan.chaos in
  Alcotest.(check bool) "different seed, different digest" true
    (r1.Inject.digest <> r3.Inject.digest);
  let r4 = Inject.run_plan quick_config Plan.lossy in
  Alcotest.(check bool) "different plan, different digest" true
    (r1.Inject.digest <> r4.Inject.digest)

let test_escalation_ordering () =
  let config = { Inject.default_config with trials = 6; seed = 42 } in
  let report =
    Inject.run ~config ~plans:[ Plan.lossy; Plan.partition; Plan.crashy; Plan.chaos ] ()
  in
  Alcotest.(check bool) "EL non-increasing along the ladder" true
    (Inject.monotone_non_increasing report);
  (* link-level noise must not decorrelate the runs: with the key stream
     and the attacker stream decoupled from the network, lossy and
     partition are pathwise identical to the baseline at this operating
     point *)
  match Inject.el_means report with
  | (_, base) :: (_, lossy) :: (_, part) :: _ ->
      Alcotest.(check (float 1e-9)) "lossy ties baseline exactly" base lossy;
      Alcotest.(check (float 1e-9)) "partition ties baseline exactly" base part
  | _ -> Alcotest.fail "report shape"

(* ---- causal tracing through inject ---- *)

module Latency = Fortress_obs.Latency

let causal_config = { quick_config with causal = true }

let run_causal ~jobs =
  let sink = Sink.create () in
  let sub, read = Sink.memory () in
  ignore (Sink.attach sink sub);
  let r = Inject.run_plan ~sink { causal_config with jobs } Plan.chaos in
  (r, read ())

let test_causal_off_digest_unchanged () =
  let plain = Inject.run_plan quick_config Plan.chaos in
  let traced = Inject.run_plan causal_config Plan.chaos in
  Alcotest.(check bool) "latency present iff causal" true
    (plain.Inject.latency = None && traced.Inject.latency <> None);
  (* causal tracing is a pure observer: the simulated world is unchanged *)
  Alcotest.(check (float 1e-9)) "EL unchanged by tracing"
    (Inject.mean_el quick_config plain) (Inject.mean_el causal_config traced)

let test_causal_jobs_invariant () =
  let r1, ev1 = run_causal ~jobs:1 in
  let r4, ev4 = run_causal ~jobs:4 in
  Alcotest.(check string) "digest identical at jobs 1 vs 4" r1.Inject.digest r4.Inject.digest;
  Alcotest.(check int) "same pooled event count" (List.length ev1) (List.length ev4);
  let lines evs = List.map (fun (t, e) -> Sink.line ~time:t e) evs in
  Alcotest.(check bool) "pooled stream byte-identical" true (lines ev1 = lines ev4);
  let canon (r : Inject.run) =
    match r.Inject.latency with
    | None -> Alcotest.fail "latency missing"
    | Some l -> List.map (fun k -> (Latency.chains l k, Latency.censored l k)) Latency.kinds
  in
  Alcotest.(check bool) "latency chains identical" true (canon r1 = canon r4)

let test_causal_stream_carries_spans_and_chains () =
  let r, events = run_causal ~jobs:1 in
  let count name =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with
           | Fortress_obs.Event.Span_finished { name = n; _ } -> n = name
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "net.send spans present" true (count "net.send" > 0);
  Alcotest.(check bool) "net.deliver spans present" true (count "net.deliver" > 0);
  Alcotest.(check bool) "client.request spans present" true (count "client.request" > 0);
  match r.Inject.latency with
  | None -> Alcotest.fail "latency missing"
  | Some l ->
      (* chaos stalls the rekeyer and crashes servers: detection chains
         must open (closed or censored) *)
      Alcotest.(check bool) "detection chains observed" true
        (Latency.total l + Latency.censored l Latency.Detection > 0);
      Alcotest.(check bool) "latency table renders" true
        (Inject.latency_table r <> None)

let () =
  Alcotest.run "fortress_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "builtins validate" `Quick test_builtins_validate;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "validation rejects" `Quick test_validation_rejects;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic verdicts" `Quick test_injector_deterministic;
          Alcotest.test_case "certain drop" `Quick test_injector_certain_drop;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "none plan is inert" `Quick test_wiring_none_is_inert;
          Alcotest.test_case "unknown target rejected" `Quick test_wiring_unknown_target_rejected;
          Alcotest.test_case "crash/restart timeline" `Quick test_wiring_crash_restart_timeline;
          Alcotest.test_case "rekey skips down server" `Quick test_rekey_skips_down_server;
          Alcotest.test_case "stall skips boundaries" `Quick test_stall_skips_boundaries;
        ] );
      ( "smr-fold",
        [
          Alcotest.test_case "proxy folds onto the tail" `Quick test_smr_fold_proxy_to_tail;
          Alcotest.test_case "server and replica agree" `Quick
            test_smr_fold_server_and_replica;
          Alcotest.test_case "nameserver skipped" `Quick test_smr_fold_nameserver_skipped;
          Alcotest.test_case "out of range rejected" `Quick
            test_smr_fold_out_of_range_rejected;
        ] );
      ( "pinned",
        [ Alcotest.test_case "inject digests on both stacks" `Quick test_pinned_digests ] );
      ( "inject",
        [
          Alcotest.test_case "trace digest deterministic" `Slow test_digest_deterministic;
          Alcotest.test_case "escalation ordering" `Slow test_escalation_ordering;
        ] );
      ( "causal",
        [
          Alcotest.test_case "off-path digest and EL unchanged" `Slow
            test_causal_off_digest_unchanged;
          Alcotest.test_case "jobs invariant" `Slow test_causal_jobs_invariant;
          Alcotest.test_case "stream carries spans and chains" `Slow
            test_causal_stream_carries_spans_and_chains;
        ] );
    ]
