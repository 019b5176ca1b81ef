open Fortress_model
module Matrix = Fortress_util.Matrix
module Prng = Fortress_util.Prng

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ---- Markov chains ---- *)

let two_state p =
  (* safe -> compromised with probability p per step *)
  Markov.create ~labels:[| "safe"; "compromised" |] ~absorbing:[| false; true |]
    (Matrix.of_rows [| [| 1.0 -. p; p |]; [| 0.0; 1.0 |] |])

let test_markov_geometric () =
  let chain = two_state 0.25 in
  check_close 1e-9 "EL = 1/p" 4.0 (Markov.expected_steps chain ~start:0)

let test_markov_absorbing_start () =
  let chain = two_state 0.25 in
  check_float "already absorbed" 0.0 (Markov.expected_steps chain ~start:1)

let test_markov_validation () =
  Alcotest.check_raises "rows must sum to 1"
    (Invalid_argument "Markov.create: row does not sum to 1") (fun () ->
      ignore
        (Markov.create ~labels:[| "a"; "b" |] ~absorbing:[| false; true |]
           (Matrix.of_rows [| [| 0.5; 0.4 |]; [| 0.0; 1.0 |] |])));
  Alcotest.check_raises "absorbing must self-loop"
    (Invalid_argument "Markov.create: absorbing state must self-loop") (fun () ->
      ignore
        (Markov.create ~labels:[| "a"; "b" |] ~absorbing:[| false; true |]
           (Matrix.of_rows [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |] |])))

let test_markov_three_state () =
  (* gambler's chain: 0 -> 1 -> absorbed, each w.p. 1/2, no skipping *)
  let chain =
    Markov.create ~labels:[| "s0"; "s1"; "done" |] ~absorbing:[| false; false; true |]
      (Matrix.of_rows
         [| [| 0.5; 0.5; 0.0 |]; [| 0.0; 0.5; 0.5 |]; [| 0.0; 0.0; 1.0 |] |])
  in
  (* E[steps from s0] = E[geom(1/2)] + E[geom(1/2)] = 4 *)
  check_close 1e-9 "additive stages" 4.0 (Markov.expected_steps chain ~start:0);
  check_close 1e-9 "one stage left" 2.0 (Markov.expected_steps chain ~start:1)

let test_markov_absorption_probabilities () =
  (* two absorbing outcomes, equally likely *)
  let chain =
    Markov.create ~labels:[| "s"; "a"; "b" |] ~absorbing:[| false; true; true |]
      (Matrix.of_rows
         [| [| 0.0; 0.5; 0.5 |]; [| 0.0; 1.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |])
  in
  let probs = Markov.absorption_probabilities chain ~start:0 in
  check_float "p(a)" 0.5 probs.(1);
  check_float "p(b)" 0.5 probs.(2);
  check_float "transient position zero" 0.0 probs.(0)

let test_markov_simulation_agrees () =
  let chain = two_state 0.2 in
  let prng = Prng.create ~seed:1 in
  let acc = Fortress_util.Stats.create () in
  for _ = 1 to 20_000 do
    match Markov.simulate chain ~start:0 ~prng ~max_steps:10_000 with
    | Some steps -> Fortress_util.Stats.add acc (float_of_int steps)
    | None -> Alcotest.fail "should absorb"
  done;
  let analytic = Markov.expected_steps chain ~start:0 in
  let mc = Fortress_util.Stats.mean acc in
  Alcotest.(check bool) "simulation within 3%" true (Float.abs (mc -. analytic) /. analytic < 0.03)

let test_markov_inhomogeneous_constant_matches () =
  (* a constant-hazard inhomogeneous chain must equal the homogeneous one *)
  let p = 0.1 in
  let step_matrix _ = Matrix.of_rows [| [| 1.0 -. p; p |] |] in
  let el = Markov.expected_steps_inhomogeneous ~transient:1 ~start:0 ~step_matrix () in
  check_close 1e-6 "matches 1/p" 10.0 el

let test_markov_inhomogeneous_deterministic () =
  (* certain absorption at step 3 *)
  let step_matrix k =
    if k < 3 then Matrix.of_rows [| [| 1.0; 0.0 |] |] else Matrix.of_rows [| [| 0.0; 1.0 |] |]
  in
  let el = Markov.expected_steps_inhomogeneous ~transient:1 ~start:0 ~step_matrix () in
  check_float "absorbs at 3" 3.0 el

let test_markov_reproduces_po_closed_forms () =
  (* build the two-state absorbing chain from each PO one-step law and
     verify the fundamental-matrix lifetime equals the closed form — the
     chain machinery and the formulas must be two views of one model *)
  let alpha = 4e-3 and kappa = 0.6 in
  List.iter
    (fun (label, p, closed_form) ->
      let chain = two_state p in
      let via_chain = Markov.expected_steps chain ~start:0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: chain %.4g vs closed form %.4g" label via_chain closed_form)
        true
        (Float.abs (via_chain -. closed_form) /. closed_form < 1e-9))
    [
      ("s1po", Systems.s1_po_step ~alpha, Systems.s1_po ~alpha);
      ("s0po", Systems.s0_po_step ~alpha, Systems.s0_po ~alpha);
      ("s2po", Systems.s2_po_step ~alpha ~kappa (), Systems.s2_po ~alpha ~kappa ());
    ]

(* ---- hazards ---- *)

let test_so_hazard_monotone () =
  let alpha = 1e-3 in
  let prev = ref 0.0 in
  for i = 1 to 900 do
    let h = Systems.so_hazard ~alpha i in
    Alcotest.(check bool) "non-decreasing" true (h >= !prev);
    Alcotest.(check bool) "in [0,1]" true (h >= 0.0 && h <= 1.0);
    prev := h
  done

let test_so_hazard_first_step () =
  check_float "step 1 is alpha" 1e-3 (Systems.so_hazard ~alpha:1e-3 1)

let test_so_hazard_exhaustion () =
  (* by step ~1/alpha the key space is gone and the hazard saturates *)
  check_float "saturates at 1" 1.0 (Systems.so_hazard ~alpha:0.01 101)

(* ---- one-step laws ---- *)

let test_s1_po_step () = check_float "identity" 0.004 (Systems.s1_po_step ~alpha:0.004)

let test_s0_po_step_formula () =
  let alpha = 0.01 in
  let expected =
    1.0 -. ((1.0 -. alpha) ** 4.0) -. (4.0 *. alpha *. ((1.0 -. alpha) ** 3.0))
  in
  check_close 1e-12 "binomial >= 2 of 4" expected (Systems.s0_po_step ~alpha)

let test_s2_po_step_kappa_zero_next_step () =
  (* with kappa = 0 and no launch pad, only the all-proxies event remains *)
  let alpha = 0.01 in
  let p = Systems.s2_po_step ~launchpad:Systems.Next_step ~alpha ~kappa:0.0 () in
  check_close 1e-12 "alpha^3" (alpha ** 3.0) p

let test_s2_po_step_monotone_kappa () =
  let alpha = 0.005 in
  let prev = ref 0.0 in
  List.iter
    (fun kappa ->
      let p = Systems.s2_po_step ~alpha ~kappa () in
      Alcotest.(check bool) "increasing in kappa" true (p >= !prev);
      prev := p)
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let test_s2_po_step_launchpad_ordering () =
  let alpha = 0.01 and kappa = 0.5 in
  let p lp = Systems.s2_po_step ~launchpad:lp ~alpha ~kappa () in
  Alcotest.(check bool) "Full is the upper bound" true (p Systems.Full >= p Systems.Remaining);
  Alcotest.(check bool) "Next_step is the lower bound" true
    (p Systems.Remaining >= p Systems.Next_step)

(* ---- expected lifetimes ---- *)

let test_el_geometric_consistency () =
  let alpha = 2e-3 in
  check_close 1e-6 "S1PO = 1/alpha" (1.0 /. alpha) (Systems.s1_po ~alpha);
  check_close 1e-6 "S0PO = 1/p" (1.0 /. Systems.s0_po_step ~alpha) (Systems.s0_po ~alpha)

(* ---- survival laws ---- *)

let law_systems = List.filter (fun s -> s <> Systems.S2_SO) Systems.all_systems

(* EL = sum over k >= 0 of P(T > k). The sum runs to 40 EL: PO tails are
   then below e^-40 and SO supports (at most ~1/alpha steps) are covered. *)
let test_survival_sums_to_el () =
  let kappa = 0.5 in
  List.iter
    (fun system ->
      List.iter
        (fun alpha ->
          let el = Systems.expected_lifetime system ~alpha ~kappa in
          let upto = int_of_float (Float.ceil (40.0 *. el)) in
          let s = Systems.survival system ~alpha ~kappa ~upto in
          let total = Array.fold_left ( +. ) 0.0 s in
          Alcotest.(check bool)
            (Printf.sprintf "%s alpha=%g: sum %.12g vs EL %.12g"
               (Systems.system_to_string system) alpha total el)
            true
            (Float.abs (total -. el) /. el < 1e-9))
        [ 0.3; 0.1; 0.02; 5e-3 ])
    law_systems

let test_survival_shape () =
  List.iter
    (fun system ->
      let s = Systems.survival system ~alpha:0.05 ~kappa:0.5 ~upto:200 in
      Alcotest.(check (float 0.0)) "P(T > 0) = 1" 1.0 s.(0);
      Array.iteri
        (fun k v ->
          if k > 0 then
            Alcotest.(check bool) "non-increasing, in [0, 1]" true (v <= s.(k - 1) && v >= 0.0))
        s)
    law_systems;
  (* SO exhausts the key space: S1SO survives k steps w.p. 1 - k alpha *)
  let s = Systems.survival Systems.S1_SO ~alpha:0.125 ~kappa:0.5 ~upto:10 in
  check_close 1e-12 "S1SO linear" 0.625 s.(3);
  check_close 0.0 "S1SO exhausted" 0.0 s.(8);
  Alcotest.check_raises "S2SO has no exact law"
    (Invalid_argument "Systems.survival: S2SO has no exact law (path-dependent server hazard)")
    (fun () -> ignore (Systems.survival Systems.S2_SO ~alpha:0.05 ~kappa:0.5 ~upto:3))

let test_s1_so_approximation () =
  (* sampling without replacement: the key is uniform over 1/alpha steps of
     exposure, so EL ~ 1/(2 alpha) *)
  let alpha = 1e-3 in
  let el = Systems.s1_so ~alpha in
  check_close 10.0 "about half the horizon" 500.0 el

let test_s0_so_below_s1_so () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool) "S1SO outlives S0SO" true
        (Systems.s1_so ~alpha > Systems.s0_so ~alpha))
    [ 1e-4; 1e-3; 1e-2 ]

let test_paper_trend_po_beats_so () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool) "S1PO outlives S1SO" true
        (Systems.s1_po ~alpha > Systems.s1_so ~alpha);
      Alcotest.(check bool) "S2PO outlives S1SO" true
        (Systems.s2_po ~alpha ~kappa:0.5 () > Systems.s1_so ~alpha))
    [ 1e-4; 1e-3; 1e-2 ]

let test_paper_trend_s2po_vs_s1po () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool) "S2PO outlives S1PO at kappa 0.5" true
        (Systems.s2_po ~alpha ~kappa:0.5 () > Systems.s1_po ~alpha);
      Alcotest.(check bool) "S2PO loses at kappa 1" true
        (Systems.s2_po ~alpha ~kappa:1.0 () < Systems.s1_po ~alpha))
    [ 1e-4; 1e-3; 1e-2 ]

let test_paper_trend_s0po_dominates () =
  List.iter
    (fun alpha ->
      List.iter
        (fun kappa ->
          Alcotest.(check bool) "S0PO outlives S2PO for kappa > 0" true
            (Systems.s0_po ~alpha > Systems.s2_po ~alpha ~kappa ()))
        [ 0.1; 0.5; 1.0 ])
    [ 1e-4; 1e-3; 1e-2 ]

let test_s2po_kappa_zero_near_unbeatable () =
  (* at kappa = 0 with Next_step only alpha^np remains: S2PO ~ S0PO scale *)
  let alpha = 1e-3 in
  let el = Systems.s2_po ~launchpad:Systems.Next_step ~alpha ~kappa:0.0 () in
  Alcotest.(check bool) "huge lifetime" true (el > 1e8)

let test_s2_so_below_s2_po () =
  List.iter
    (fun alpha ->
      Alcotest.(check bool) "re-randomization helps FORTRESS too" true
        (Systems.s2_po ~alpha ~kappa:0.5 () > Systems.s2_so ~alpha ~kappa:0.5 ()))
    [ 1e-3; 1e-2 ]

let test_el_monotone_alpha () =
  let els sys = List.map (fun alpha -> Systems.expected_lifetime sys ~alpha ~kappa:0.5) in
  List.iter
    (fun sys ->
      let values = els sys [ 1e-4; 1e-3; 1e-2 ] in
      match values with
      | [ a; b; c ] ->
          Alcotest.(check bool) "decreasing in alpha" true (a > b && b > c)
      | _ -> assert false)
    Systems.all_systems

let test_budgeted_attacker_concentrates () =
  let total = 256.0 and chi = 65536.0 in
  (* with a usable indirect channel, proxy capture (an O(alpha^2) route) is
     a waste of budget: the optimum is all-indirect *)
  let x_half, _ = Systems.s2_po_worst_case ~total ~chi ~kappa:0.5 () in
  Alcotest.(check bool) "all-indirect at kappa 0.5" true (x_half < 0.05);
  (* with kappa = 0 the indirect channel is dead: all-direct *)
  let x_zero, _ = Systems.s2_po_worst_case ~total ~chi ~kappa:0.0 () in
  Alcotest.(check bool) "all-direct at kappa 0" true (x_zero > 0.95)

let test_budgeted_attacker_beats_per_channel_model () =
  (* concentrating one budget is at least as strong as splitting it evenly
     across np+1 fixed channels *)
  let total = 256.0 and chi = 65536.0 in
  let alpha = total /. 4.0 /. chi in
  List.iter
    (fun kappa ->
      let _, worst = Systems.s2_po_worst_case ~total ~chi ~kappa () in
      Alcotest.(check bool) "worst-case is at most the per-channel EL" true
        (worst <= Systems.s2_po ~alpha ~kappa () +. 1e-6))
    [ 0.0; 0.25; 0.5; 1.0 ]

let test_budgeted_step_bounds () =
  List.iter
    (fun x ->
      let p =
        Systems.s2_po_budgeted_step ~total:100.0 ~chi:4096.0 ~kappa:0.7 ~direct_fraction:x ()
      in
      Alcotest.(check bool) "probability" true (p >= 0.0 && p <= 1.0))
    [ 0.0; 0.3; 0.7; 1.0 ];
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Systems.s2_po_budgeted_step: direct_fraction in [0,1]") (fun () ->
      ignore
        (Systems.s2_po_budgeted_step ~total:10.0 ~chi:100.0 ~kappa:0.5 ~direct_fraction:1.5 ()))

let test_s2_smr_dominates_everything () =
  (* fortifying the SMR tier composes the two defences: the attacker needs
     f+1 simultaneous intrusions AND each one is attenuated by kappa *)
  List.iter
    (fun alpha ->
      List.iter
        (fun kappa ->
          let composed = Systems.s2_smr_po ~alpha ~kappa () in
          Alcotest.(check bool) "beats bare S0PO" true
            (composed >= Systems.s0_po ~alpha *. 0.99);
          Alcotest.(check bool) "beats FORTRESS-over-PB" true
            (composed > Systems.s2_po ~alpha ~kappa ()))
        [ 0.1; 0.5; 0.9 ])
    [ 1e-4; 1e-3; 1e-2 ]

let test_s2_smr_kappa_scaling () =
  (* EL ~ S0PO / kappa^2 while the indirect channel dominates *)
  let alpha = 1e-3 in
  let at kappa = Systems.s2_smr_po ~alpha ~kappa () in
  let ratio = at 0.5 /. at 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "halving kappa quadruples the lifetime (ratio %.2f)" ratio)
    true
    (ratio > 3.5 && ratio < 4.5)

let test_s2_smr_matches_s0po_at_kappa_one () =
  let alpha = 1e-3 in
  let composed = Systems.s2_smr_po ~launchpad:Systems.Next_step ~alpha ~kappa:1.0 () in
  let bare = Systems.s0_po ~alpha in
  Alcotest.(check bool) "kappa=1, no launch pads: proxies buy nothing" true
    (Float.abs (composed -. bare) /. bare < 0.01)

let test_s2_smr_validation () =
  Alcotest.check_raises "bad shape" (Invalid_argument "Systems.s2_smr_po_step: bad tier shape")
    (fun () -> ignore (Systems.s2_smr_po_step ~f:4 ~n:4 ~alpha:1e-3 ~kappa:0.5 ()))

let test_system_string_roundtrip () =
  List.iter
    (fun sys ->
      match Systems.system_of_string (Systems.system_to_string sys) with
      | Some s -> Alcotest.(check bool) "round-trips" true (s = sys)
      | None -> Alcotest.fail "missing system name")
    Systems.all_systems;
  Alcotest.(check bool) "unknown rejected" true (Systems.system_of_string "zzz" = None)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"s2_po_step within [0,1]" ~count:300
      (pair (float_range 0.0 0.05) (float_range 0.0 1.0))
      (fun (alpha, kappa) ->
        let p = Systems.s2_po_step ~alpha ~kappa () in
        p >= 0.0 && p <= 1.0);
    Test.make ~name:"next-step: more proxies live at least as long" ~count:100
      (pair (float_range 1e-4 0.01) (float_range 0.0 1.0))
      (fun (alpha, kappa) ->
        Systems.s2_po ~launchpad:Systems.Next_step ~np:4 ~alpha ~kappa ()
        >= Systems.s2_po ~launchpad:Systems.Next_step ~np:3 ~alpha ~kappa () -. 1e-6);
    Test.make ~name:"within-step: more proxies are more attack surface" ~count:100
      (pair (float_range 1e-4 0.01) (float_range 0.0 1.0))
      (fun (alpha, kappa) ->
        Systems.s2_po ~launchpad:Systems.Remaining ~np:4 ~alpha ~kappa ()
        <= Systems.s2_po ~launchpad:Systems.Remaining ~np:3 ~alpha ~kappa () +. 1e-6);
    Test.make ~name:"markov geometric equals closed form" ~count:50
      (float_range 0.01 0.9)
      (fun p ->
        let chain = two_state p in
        Float.abs (Markov.expected_steps chain ~start:0 -. (1.0 /. p)) < 1e-6);
  ]

let () =
  Alcotest.run "fortress_model"
    [
      ( "markov",
        [
          Alcotest.test_case "geometric chain" `Quick test_markov_geometric;
          Alcotest.test_case "absorbing start" `Quick test_markov_absorbing_start;
          Alcotest.test_case "validation" `Quick test_markov_validation;
          Alcotest.test_case "three-state chain" `Quick test_markov_three_state;
          Alcotest.test_case "absorption probabilities" `Quick test_markov_absorption_probabilities;
          Alcotest.test_case "simulation agrees" `Slow test_markov_simulation_agrees;
          Alcotest.test_case "inhomogeneous constant" `Quick
            test_markov_inhomogeneous_constant_matches;
          Alcotest.test_case "inhomogeneous deterministic" `Quick
            test_markov_inhomogeneous_deterministic;
          Alcotest.test_case "reproduces PO closed forms" `Quick
            test_markov_reproduces_po_closed_forms;
        ] );
      ( "hazards",
        [
          Alcotest.test_case "SO hazard monotone" `Quick test_so_hazard_monotone;
          Alcotest.test_case "SO hazard first step" `Quick test_so_hazard_first_step;
          Alcotest.test_case "SO hazard exhaustion" `Quick test_so_hazard_exhaustion;
        ] );
      ( "step laws",
        [
          Alcotest.test_case "s1po identity" `Quick test_s1_po_step;
          Alcotest.test_case "s0po binomial" `Quick test_s0_po_step_formula;
          Alcotest.test_case "s2po kappa 0 next-step" `Quick test_s2_po_step_kappa_zero_next_step;
          Alcotest.test_case "s2po monotone in kappa" `Quick test_s2_po_step_monotone_kappa;
          Alcotest.test_case "launchpad ordering" `Quick test_s2_po_step_launchpad_ordering;
        ] );
      ( "lifetimes",
        [
          Alcotest.test_case "geometric consistency" `Quick test_el_geometric_consistency;
          Alcotest.test_case "s1so half horizon" `Quick test_s1_so_approximation;
          Alcotest.test_case "s1so beats s0so" `Quick test_s0_so_below_s1_so;
          Alcotest.test_case "PO beats SO" `Quick test_paper_trend_po_beats_so;
          Alcotest.test_case "s2po vs s1po crossover" `Quick test_paper_trend_s2po_vs_s1po;
          Alcotest.test_case "s0po dominates" `Quick test_paper_trend_s0po_dominates;
          Alcotest.test_case "s2po kappa 0" `Quick test_s2po_kappa_zero_near_unbeatable;
          Alcotest.test_case "s2so below s2po" `Quick test_s2_so_below_s2_po;
          Alcotest.test_case "EL monotone in alpha" `Quick test_el_monotone_alpha;
          Alcotest.test_case "budgeted attacker concentrates" `Quick
            test_budgeted_attacker_concentrates;
          Alcotest.test_case "budgeted beats per-channel" `Quick
            test_budgeted_attacker_beats_per_channel_model;
          Alcotest.test_case "budgeted step bounds" `Quick test_budgeted_step_bounds;
          Alcotest.test_case "fortified SMR dominates" `Quick test_s2_smr_dominates_everything;
          Alcotest.test_case "fortified SMR kappa scaling" `Quick test_s2_smr_kappa_scaling;
          Alcotest.test_case "fortified SMR at kappa 1" `Quick
            test_s2_smr_matches_s0po_at_kappa_one;
          Alcotest.test_case "fortified SMR validation" `Quick test_s2_smr_validation;
          Alcotest.test_case "system names round-trip" `Quick test_system_string_roundtrip;
          Alcotest.test_case "survival sums to EL" `Quick test_survival_sums_to_el;
          Alcotest.test_case "survival shape" `Quick test_survival_shape;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
