open Fortress_mc
module Systems = Fortress_model.Systems
module Prng = Fortress_util.Prng

(* ---- Trial runner ---- *)

let test_trial_deterministic_sampler () =
  let r = Trial.run ~trials:100 ~seed:1 ~sampler:(fun _ -> Some 7) () in
  Alcotest.(check (float 1e-9)) "mean" 7.0 r.Trial.mean;
  Alcotest.(check int) "censored" 0 r.Trial.censored;
  Alcotest.(check int) "trials" 100 r.Trial.trials

let test_trial_censoring () =
  let count = ref 0 in
  let sampler _ =
    incr count;
    if !count mod 2 = 0 then None else Some 3
  in
  let r = Trial.run ~trials:10 ~seed:1 ~sampler () in
  Alcotest.(check int) "half censored" 5 r.Trial.censored;
  Alcotest.(check int) "observed" 5 (Array.length r.Trial.lifetimes)

let test_trial_reproducible () =
  let sampler prng = Some (1 + Prng.int prng ~bound:100) in
  let a = Trial.run ~trials:50 ~seed:9 ~sampler () in
  let b = Trial.run ~trials:50 ~seed:9 ~sampler () in
  Alcotest.(check (array (float 0.0))) "same lifetimes" a.Trial.lifetimes b.Trial.lifetimes;
  let c = Trial.run ~trials:50 ~seed:10 ~sampler () in
  Alcotest.(check bool) "different seed differs" false (a.Trial.lifetimes = c.Trial.lifetimes)

let test_trial_invalid () =
  Alcotest.check_raises "no trials" (Invalid_argument "Trial.run: trials must be positive")
    (fun () -> ignore (Trial.run ~trials:0 ~seed:1 ~sampler:(fun _ -> Some 1) ()))

(* ---- step-level vs analytic ---- *)

let within_tolerance ~tol analytic mc = Float.abs (mc -. analytic) /. analytic < tol

let check_step_agreement system ~alpha ~kappa ~tol =
  let cfg = { Step_level.default with alpha; kappa } in
  let r = Step_level.estimate ~trials:4000 ~seed:7 system cfg in
  let analytic = Systems.expected_lifetime system ~alpha ~kappa in
  Alcotest.(check bool)
    (Printf.sprintf "%s: MC %.1f vs analytic %.1f" (Systems.system_to_string system) r.Trial.mean
       analytic)
    true
    (within_tolerance ~tol analytic r.Trial.mean)

let test_step_s1po () = check_step_agreement Systems.S1_PO ~alpha:5e-3 ~kappa:0.5 ~tol:0.06
let test_step_s0po () = check_step_agreement Systems.S0_PO ~alpha:2e-2 ~kappa:0.5 ~tol:0.08
let test_step_s1so () = check_step_agreement Systems.S1_SO ~alpha:5e-3 ~kappa:0.5 ~tol:0.05
let test_step_s0so () = check_step_agreement Systems.S0_SO ~alpha:5e-3 ~kappa:0.5 ~tol:0.05
let test_step_s2po () = check_step_agreement Systems.S2_PO ~alpha:5e-3 ~kappa:0.5 ~tol:0.08

let test_step_s2po_kappa_one_worse_than_s1po () =
  let cfg = { Step_level.default with alpha = 5e-3; kappa = 1.0 } in
  let s2 = Step_level.estimate ~trials:3000 ~seed:3 Systems.S2_PO cfg in
  let s1 = Step_level.estimate ~trials:3000 ~seed:4 Systems.S1_PO cfg in
  Alcotest.(check bool) "launch pads make kappa=1 strictly worse" true
    (s2.Trial.mean < s1.Trial.mean)

let test_step_censoring_horizon () =
  let cfg = { Step_level.default with alpha = 1e-6; max_steps = 10 } in
  let r = Step_level.estimate ~trials:50 ~seed:5 Systems.S1_PO cfg in
  Alcotest.(check int) "all censored at tiny horizon" 50 r.Trial.censored

(* alpha = 0 never compromises and must not consume the stream; alpha = 1
   compromises in the first step. A NaN alpha is rejected up front. *)
let test_step_po_edge_alphas () =
  List.iter
    (fun system ->
      let name = Systems.system_to_string system in
      let prng = Prng.create ~seed:3 in
      let before = Prng.copy prng in
      let zero = Step_level.sampler system { Step_level.default with alpha = 0.0 } prng in
      Alcotest.(check (option int)) (name ^ " alpha=0 censors") None zero;
      Alcotest.(check int64) (name ^ " alpha=0 draws nothing") (Prng.bits64 before)
        (Prng.bits64 prng);
      let one = Step_level.sampler system { Step_level.default with alpha = 1.0 } prng in
      Alcotest.(check (option int)) (name ^ " alpha=1 falls at once") (Some 1) one;
      Alcotest.check_raises (name ^ " alpha=nan") (Invalid_argument "Step_level: alpha in [0,1]")
        (fun () ->
          ignore (Step_level.sampler system { Step_level.default with alpha = Float.nan } prng)))
    [ Systems.S0_PO; Systems.S1_PO ]

let test_step_invalid_config () =
  Alcotest.check_raises "alpha range" (Invalid_argument "Step_level: alpha in [0,1]") (fun () ->
      ignore
        (Step_level.sampler Systems.S1_PO { Step_level.default with alpha = 1.5 }
           (Prng.create ~seed:1)))

(* ---- law acceptance ----

   Dvoretzky-Kiefer-Wolfowitz: for n i.i.d. draws from any law F (discrete
   ones included), P(sup_k |F_n(k) - F(k)| > eps) <= 2 exp(-2 n eps^2).
   Rejecting above eps = sqrt(ln(2/delta) / 2n) has false-alarm rate at
   most delta = 1e-6, so a fixed seed does not flake, while a sampler whose
   CDF is off by more than eps = 0.043 anywhere fails at n = 4000. *)

let dkw_delta = 1e-6
let dkw_bound n = sqrt (log (2.0 /. dkw_delta) /. (2.0 *. float_of_int n))

(* sup over k = 0..upto of |F_n(k) - F(k)|, with F(k) = 1 - survival.(k).
   Censored trials count toward F_n at no k, like lifetimes beyond upto. *)
let sup_distance survival (r : Trial.result) =
  let sorted = Array.copy r.Trial.lifetimes in
  Array.sort Float.compare sorted;
  let n = float_of_int r.Trial.trials in
  let seen = ref 0 and d = ref 0.0 in
  Array.iteri
    (fun k sk ->
      while !seen < Array.length sorted && sorted.(!seen) <= float_of_int k do
        incr seen
      done;
      d := Float.max !d (Float.abs ((float_of_int !seen /. n) -. (1.0 -. sk))))
    survival;
  !d

(* The exact law out to 15 EL: beyond it both CDFs are within e^-15 of 1
   (PO), or the SO support has ended. *)
let exact_survival system ~alpha =
  let kappa = Step_level.default.Step_level.kappa in
  let el = Systems.expected_lifetime system ~alpha ~kappa in
  Systems.survival system ~alpha ~kappa ~upto:(int_of_float (Float.ceil (15.0 *. el)))

let law_trials = 4000

let check_law name ~survival r =
  let d = sup_distance survival r and eps = dkw_bound r.Trial.trials in
  Alcotest.(check bool) (Printf.sprintf "%s: sup |F_n - F| = %.4f <= %.4f" name d eps) true
    (d <= eps)

let test_law_step_level () =
  List.iter
    (fun system ->
      List.iter
        (fun alpha ->
          let cfg = { Step_level.default with alpha } in
          let r = Step_level.estimate ~trials:law_trials ~seed:7 system cfg in
          check_law
            (Printf.sprintf "step %s alpha=%g" (Systems.system_to_string system) alpha)
            ~survival:(exact_survival system ~alpha) r)
        [ 0.2; 1e-3 ])
    [ Systems.S0_PO; Systems.S1_PO; Systems.S2_PO; Systems.S1_SO; Systems.S0_SO ]

(* At the probe level alpha = omega / chi is emergent: one step of omega
   guesses without replacement finds a fresh key w.p. exactly omega / chi
   (PO), and a key that is never re-drawn falls uniformly within chi / omega
   steps (SO), which is the so_hazard product. *)
let test_law_probe_level () =
  let cfg = { Probe_level.default with chi = 256; omega = 8 } in
  let alpha = Probe_level.alpha_of cfg in
  List.iter
    (fun system ->
      let r = Probe_level.estimate ~trials:law_trials ~seed:7 system cfg in
      check_law
        (Printf.sprintf "probe %s chi=256 omega=8" (Systems.system_to_string system))
        ~survival:(exact_survival system ~alpha) r)
    [ Systems.S1_SO; Systems.S1_PO ]

(* The checker must have power: a sampler whose every lifetime is one step
   late is off by P(T = 1) = s0_po_step 0.2 = 0.18 at k = 1. *)
let test_law_rejects_shifted_sampler () =
  let alpha = 0.2 in
  let sampler = Step_level.sampler Systems.S0_PO { Step_level.default with alpha } in
  let r =
    Trial.run ~trials:law_trials ~seed:7 ~sampler:(fun prng -> Option.map succ (sampler prng)) ()
  in
  let d = sup_distance (exact_survival Systems.S0_PO ~alpha) r in
  Alcotest.(check bool)
    (Printf.sprintf "shifted: sup |F_n - F| = %.4f > %.4f" d (dkw_bound law_trials))
    true
    (d > dkw_bound law_trials)

(* ---- probe-level ---- *)

let test_probe_alpha_of () =
  let cfg = { Probe_level.default with chi = 1000; omega = 10 } in
  Alcotest.(check (float 1e-12)) "omega/chi" 0.01 (Probe_level.alpha_of cfg)

let test_probe_s1_po_matches_analytic () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let alpha = Probe_level.alpha_of cfg in
  let r = Probe_level.estimate ~trials:800 ~seed:11 Systems.S1_PO cfg in
  let analytic = Systems.s1_po ~alpha in
  Alcotest.(check bool)
    (Printf.sprintf "probe MC %.1f vs analytic %.1f" r.Trial.mean analytic)
    true
    (within_tolerance ~tol:0.1 analytic r.Trial.mean)

let test_probe_s1_so_matches_analytic () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let alpha = Probe_level.alpha_of cfg in
  let r = Probe_level.estimate ~trials:800 ~seed:13 Systems.S1_SO cfg in
  let analytic = Systems.s1_so ~alpha in
  Alcotest.(check bool)
    (Printf.sprintf "probe MC %.1f vs analytic %.1f" r.Trial.mean analytic)
    true
    (within_tolerance ~tol:0.1 analytic r.Trial.mean)

let test_probe_s1_so_never_censors_past_chi () =
  (* without replacement the key must fall within chi/omega steps *)
  let cfg = { Probe_level.default with chi = 256; omega = 8; max_steps = 64 } in
  let r = Probe_level.estimate ~trials:200 ~seed:17 Systems.S1_SO cfg in
  Alcotest.(check int) "exhaustive search always terminates" 0 r.Trial.censored;
  Array.iter
    (fun l -> Alcotest.(check bool) "within chi/omega steps" true (l <= 32.0))
    r.Trial.lifetimes

let test_probe_s0_so_before_s1_so () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8 } in
  let s0 = Probe_level.estimate ~trials:600 ~seed:19 Systems.S0_SO cfg in
  let s1 = Probe_level.estimate ~trials:600 ~seed:19 Systems.S1_SO cfg in
  Alcotest.(check bool) "S1SO outlives S0SO at probe level" true
    (s1.Trial.mean > s0.Trial.mean)

let test_probe_s2_po_beats_s1_po_at_half_kappa () =
  let cfg = { Probe_level.default with chi = 1024; omega = 8; kappa = 0.5 } in
  let s2 = Probe_level.estimate ~trials:600 ~seed:23 Systems.S2_PO cfg in
  let s1 = Probe_level.estimate ~trials:600 ~seed:23 Systems.S1_PO cfg in
  Alcotest.(check bool) "proxies pay off" true (s2.Trial.mean > s1.Trial.mean)

let test_probe_s2_so_collapses () =
  (* permanent launch pads: S2SO dies much faster than S2PO *)
  let cfg = { Probe_level.default with chi = 1024; omega = 8; kappa = 0.5 } in
  let po = Probe_level.estimate ~trials:400 ~seed:29 Systems.S2_PO cfg in
  let so = Probe_level.estimate ~trials:400 ~seed:29 Systems.S2_SO cfg in
  Alcotest.(check bool) "SO collapses" true (so.Trial.mean < po.Trial.mean /. 2.0)

let test_probe_invalid_config () =
  Alcotest.check_raises "chi too small" (Invalid_argument "Probe_level: chi must be >= 2")
    (fun () ->
      ignore
        (Probe_level.lifetime Systems.S1_PO { Probe_level.default with chi = 1 }
           (Prng.create ~seed:1)))

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"step sampler lifetimes are positive" ~count:100
      (pair (float_range 0.001 0.05) small_int)
      (fun (alpha, seed) ->
        let cfg = { Step_level.default with alpha } in
        match Step_level.sampler Systems.S2_PO cfg (Prng.create ~seed) with
        | Some steps -> steps >= 1
        | None -> true);
    Test.make ~name:"probe lifetime bounded by key exhaustion for S1SO" ~count:50
      small_int
      (fun seed ->
        let cfg = { Probe_level.default with chi = 128; omega = 4; max_steps = 1000 } in
        match Probe_level.lifetime Systems.S1_SO cfg (Prng.create ~seed) with
        | Some steps -> steps <= 32
        | None -> false);
  ]

let () =
  Alcotest.run "fortress_mc"
    [
      ( "trial",
        [
          Alcotest.test_case "deterministic sampler" `Quick test_trial_deterministic_sampler;
          Alcotest.test_case "censoring" `Quick test_trial_censoring;
          Alcotest.test_case "reproducible" `Quick test_trial_reproducible;
          Alcotest.test_case "invalid trials" `Quick test_trial_invalid;
        ] );
      ( "step-level",
        [
          Alcotest.test_case "s1po agrees" `Slow test_step_s1po;
          Alcotest.test_case "s0po agrees" `Slow test_step_s0po;
          Alcotest.test_case "s1so agrees" `Slow test_step_s1so;
          Alcotest.test_case "s0so agrees" `Slow test_step_s0so;
          Alcotest.test_case "s2po agrees" `Slow test_step_s2po;
          Alcotest.test_case "kappa=1 worse than s1po" `Slow
            test_step_s2po_kappa_one_worse_than_s1po;
          Alcotest.test_case "censoring horizon" `Quick test_step_censoring_horizon;
          Alcotest.test_case "PO edge alphas" `Quick test_step_po_edge_alphas;
          Alcotest.test_case "invalid config" `Quick test_step_invalid_config;
        ] );
      ( "law",
        [
          Alcotest.test_case "step-level samplers follow the exact laws" `Slow
            test_law_step_level;
          Alcotest.test_case "probe-level samplers follow the exact laws" `Slow
            test_law_probe_level;
          Alcotest.test_case "checker rejects a shifted sampler" `Quick
            test_law_rejects_shifted_sampler;
        ] );
      ( "probe-level",
        [
          Alcotest.test_case "alpha_of" `Quick test_probe_alpha_of;
          Alcotest.test_case "s1po matches analytic" `Slow test_probe_s1_po_matches_analytic;
          Alcotest.test_case "s1so matches analytic" `Slow test_probe_s1_so_matches_analytic;
          Alcotest.test_case "s1so exhaustive termination" `Quick
            test_probe_s1_so_never_censors_past_chi;
          Alcotest.test_case "s0so falls before s1so" `Slow test_probe_s0_so_before_s1_so;
          Alcotest.test_case "s2po beats s1po" `Slow test_probe_s2_po_beats_s1_po_at_half_kappa;
          Alcotest.test_case "s2so collapses" `Slow test_probe_s2_so_collapses;
          Alcotest.test_case "invalid config" `Quick test_probe_invalid_config;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
