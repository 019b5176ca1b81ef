module Probability = Fortress_util.Probability
module Matrix = Fortress_util.Matrix

type launchpad = Remaining | Full | Next_step

let clamp = Probability.clamp01

(* Sampling without replacement: after i-1 steps, (i-1) * omega of the chi
   keys are eliminated, so the step-i hazard is
   omega / (chi - (i-1) omega) = alpha / (1 - (i-1) alpha). *)
let so_hazard ~alpha i =
  let denom = 1.0 -. (float_of_int (i - 1) *. alpha) in
  if denom <= alpha then 1.0 else clamp (alpha /. denom)

(* ---- one-step compromise laws under PO ---- *)

let s0_po_step ~alpha =
  (* two of the four diversely keyed replicas must fall in the same step *)
  Probability.at_least ~k:2 ~p:alpha ~n:4

let s1_po_step ~alpha = clamp alpha

(* FORTRESS one-step law. Condition on each proxy independently: it falls
   during the step with probability alpha, at a uniformly distributed
   instant U; a fallen proxy's launch pad then attacks the server with the
   remaining budget, succeeding w.p. (1-U) alpha (Remaining), a full
   alpha (Full), or not at all this step (Next_step; under PO the rekey at
   the boundary evicts the intruder before the next step starts).

   Per proxy, P(no server hit via this proxy) =
     (1 - alpha) + alpha * lp_fail     with lp_fail = E[1 - (1-U) alpha].
   The system survives the step iff the indirect attack missed, no launch
   pad hit the server, and not all np proxies fell:

     P(survive) = (1 - kappa alpha)
                  * [ ((1-alpha) + alpha lp_fail)^np - (alpha lp_fail)^np ]
                  + 0 * (all-fell configurations)

   where the subtracted term removes the all-fell-but-launchpads-missed
   configurations that the product wrongly counts as survival. *)
let s2_po_step ?(launchpad = Remaining) ?(np = 3) ~alpha ~kappa () =
  if np <= 0 then invalid_arg "Systems.s2_po_step: np must be positive";
  let alpha = clamp alpha and kappa = clamp kappa in
  let lp_fail =
    match launchpad with
    | Remaining -> 1.0 -. (alpha /. 2.0)
    | Full -> 1.0 -. alpha
    | Next_step -> 1.0
  in
  let per_proxy_quiet = (1.0 -. alpha) +. (alpha *. lp_fail) in
  let all_fell_quiet = alpha *. lp_fail in
  let survive =
    (1.0 -. (kappa *. alpha))
    *. ((per_proxy_quiet ** float_of_int np) -. (all_fell_quiet ** float_of_int np))
  in
  clamp (1.0 -. survive)

(* ---- expected lifetimes ---- *)

let s0_po ~alpha = Probability.geometric_lifetime (s0_po_step ~alpha)
let s1_po ~alpha = Probability.geometric_lifetime (s1_po_step ~alpha)

let s2_po ?(launchpad = Remaining) ?(np = 3) ~alpha ~kappa () =
  Probability.geometric_lifetime (s2_po_step ~launchpad ~np ~alpha ~kappa ())

let s1_so ~alpha = Probability.expected_lifetime (so_hazard ~alpha)

(* S0 under SO: two transient states — 0 or 1 of the four keys uncovered.
   At step i each still-hidden key is uncovered with the without-replacement
   hazard h_i (independently across the four distinct keys); absorption is
   reaching two uncovered keys in total. *)
let s0_so_step ~alpha i =
  let h = so_hazard ~alpha i in
  let q = 1.0 -. h in
  (* (stay in 0, 0 -> 1, stay in 1) *)
  (q ** 4.0, 4.0 *. h *. (q ** 3.0), q ** 3.0)

let s0_so ~alpha =
  let step_matrix i =
    let stay0, to1, stay1 = s0_so_step ~alpha i in
    let absorb0 = clamp (1.0 -. stay0 -. to1) in
    let absorb1 = clamp (1.0 -. stay1) in
    Matrix.of_rows [| [| stay0; to1; absorb0 |]; [| 0.0; stay1; absorb1 |] |]
  in
  Markov.expected_steps_inhomogeneous ~transient:2 ~start:0 ~step_matrix ()

(* S2 under SO (an extension; the paper evaluates only S2PO). Under SO a
   proxy whose key the attacker has learned stays capturable after every
   recovery, so it is a permanent launch pad whose whole per-step budget
   turns on the server. State: j = number of proxy keys learned. The server
   key's eliminated mass grows with the indirect stream (rate kappa alpha)
   plus one full stream per captured proxy; we track its expectation as a
   scalar — exact per-state tracking would couple the dimensions without
   changing the shape. *)
let s2_so ?(launchpad = Remaining) ?(np = 3) ~alpha ~kappa () =
  ignore launchpad;
  if np <= 0 then invalid_arg "Systems.s2_so: np must be positive";
  let alpha = clamp alpha and kappa = clamp kappa in
  let dist = Array.make (np + 1) 0.0 in
  dist.(0) <- 1.0;
  let eliminated = ref 0.0 (* expected eliminated fraction of the server key space *) in
  let el = ref 0.0 in
  let alive = ref 1.0 in
  let i = ref 1 in
  let eps = 1e-12 in
  let max_steps = 10_000_000 in
  let finished = ref false in
  while not !finished do
    let hp = so_hazard ~alpha !i in
    let server_hazard j =
      let rate = (kappa +. float_of_int j) *. alpha in
      let denom = 1.0 -. !eliminated in
      if denom <= rate then 1.0 else clamp (rate /. denom)
    in
    let next = Array.make (np + 1) 0.0 in
    let absorbed = ref 0.0 in
    let mean_j = ref 0.0 in
    for j = 0 to np do
      if dist.(j) > 0.0 then begin
        mean_j := !mean_j +. (float_of_int j *. dist.(j));
        let hs = server_hazard j in
        let survive_server = dist.(j) *. (1.0 -. hs) in
        absorbed := !absorbed +. (dist.(j) *. hs);
        (* new proxy keys found this step: Binomial(np - j, hp) *)
        for dj = 0 to np - j do
          let pdj = Probability.binomial_pmf ~k:dj ~p:hp ~n:(np - j) in
          if pdj > 0.0 then begin
            let j' = j + dj in
            if j' = np then
              (* all proxies captured: the system is compromised *)
              absorbed := !absorbed +. (survive_server *. pdj)
            else next.(j') <- next.(j') +. (survive_server *. pdj)
          end
        done
      end
    done;
    el := !el +. (float_of_int !i *. !absorbed);
    alive := !alive -. !absorbed;
    let live_mass = Array.fold_left ( +. ) 0.0 next in
    let mean_j = if live_mass > 0.0 then !mean_j /. (live_mass +. !absorbed) else 0.0 in
    eliminated := min 0.999999 (!eliminated +. ((kappa +. mean_j) *. alpha));
    Array.blit next 0 dist 0 (np + 1);
    if !alive < eps then finished := true
    else if !i >= max_steps then begin
      let hazard = if !alive > 0.0 then !absorbed /. (!alive +. !absorbed) else 1.0 in
      el :=
        !el
        +. (if hazard <= 0.0 then infinity
            else !alive *. (float_of_int !i +. ((1.0 -. hazard) /. hazard)));
      finished := true
    end
    else incr i
  done;
  !el

(* ---- FORTRESS over an SMR tier ---- *)

(* One step under PO. The diversely keyed server tier needs more than f
   simultaneous intrusions: each server falls to the attenuated indirect
   channel with probability kappa alpha, and each captured proxy
   contributes one extra launch-pad kill attempt against a fresh server
   (success alpha/2 for `Remaining`, alpha for `Full`, none for
   `Next_step`). Kills from the two sources convolve; losing all np proxies
   is still fatal on its own. The all-proxies overlap is treated as
   independent — an O(alpha^(np+f+1)) error. *)
let s2_smr_po_step ?(launchpad = Remaining) ?(np = 3) ?(n = 4) ?(f = 1) ~alpha ~kappa () =
  if np <= 0 || n <= 0 || f < 0 || f >= n then
    invalid_arg "Systems.s2_smr_po_step: bad tier shape";
  let alpha = clamp alpha and kappa = clamp kappa in
  let p_indirect = clamp (kappa *. alpha) in
  let lp_kill =
    match launchpad with
    | Remaining -> alpha *. (alpha /. 2.0)
    | Full -> alpha *. alpha
    | Next_step -> 0.0
  in
  (* P(total kills >= f+1), kills = Bin(n, p_indirect) + Bin(np, lp_kill) *)
  let p_tier_falls =
    let acc = ref 0.0 in
    for i = 0 to n do
      for j = 0 to np do
        if i + j >= f + 1 then
          acc :=
            !acc
            +. (Probability.binomial_pmf ~k:i ~p:p_indirect ~n
               *. Probability.binomial_pmf ~k:j ~p:lp_kill ~n:np)
      done
    done;
    clamp !acc
  in
  let p_all_proxies = alpha ** float_of_int np in
  clamp (1.0 -. ((1.0 -. p_tier_falls) *. (1.0 -. p_all_proxies)))

let s2_smr_po ?(launchpad = Remaining) ?(np = 3) ?(n = 4) ?(f = 1) ~alpha ~kappa () =
  Probability.geometric_lifetime (s2_smr_po_step ~launchpad ~np ~n ~f ~alpha ~kappa ())

(* ---- optimizing attacker ---- *)

let s2_po_budgeted_step ?(np = 3) ~total ~chi ~kappa ~direct_fraction () =
  if total <= 0.0 then invalid_arg "Systems.s2_po_budgeted_step: total must be positive";
  if chi <= 1.0 then invalid_arg "Systems.s2_po_budgeted_step: chi must exceed 1";
  if direct_fraction < 0.0 || direct_fraction > 1.0 then
    invalid_arg "Systems.s2_po_budgeted_step: direct_fraction in [0,1]";
  let kappa = clamp kappa in
  let q = direct_fraction *. total /. float_of_int np in
  let r = (1.0 -. direct_fraction) *. total in
  let p_proxy = clamp (q /. chi) in
  let p_indirect = clamp (kappa *. r /. chi) in
  (* a proxy that falls mid-stream spends its remaining ~q/2 probes on the
     server key *)
  let lp_fail = 1.0 -. clamp (q /. (2.0 *. chi)) in
  let per_proxy_quiet = (1.0 -. p_proxy) +. (p_proxy *. lp_fail) in
  let all_fell_quiet = p_proxy *. lp_fail in
  let survive =
    (1.0 -. p_indirect)
    *. ((per_proxy_quiet ** float_of_int np) -. (all_fell_quiet ** float_of_int np))
  in
  clamp (1.0 -. survive)

let s2_po_worst_case ?(np = 3) ~total ~chi ~kappa () =
  let p x = s2_po_budgeted_step ~np ~total ~chi ~kappa ~direct_fraction:x () in
  (* coarse grid to find the basin, then golden-section refinement *)
  let best = ref (0.0, p 0.0) in
  for i = 0 to 100 do
    let x = float_of_int i /. 100.0 in
    let v = p x in
    if v > snd !best then best := (x, v)
  done;
  let lo = ref (Float.max 0.0 (fst !best -. 0.01)) in
  let hi = ref (Float.min 1.0 (fst !best +. 0.01)) in
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  for _ = 1 to 60 do
    let a = !hi -. (phi *. (!hi -. !lo)) in
    let b = !lo +. (phi *. (!hi -. !lo)) in
    if p a < p b then lo := a else hi := b
  done;
  let x_star = (!lo +. !hi) /. 2.0 in
  (x_star, Probability.geometric_lifetime (p x_star))

type system = S0_SO | S1_SO | S0_PO | S1_PO | S2_PO | S2_SO

let all_systems = [ S0_SO; S1_SO; S0_PO; S1_PO; S2_PO; S2_SO ]

let system_to_string = function
  | S0_SO -> "s0so"
  | S1_SO -> "s1so"
  | S0_PO -> "s0po"
  | S1_PO -> "s1po"
  | S2_PO -> "s2po"
  | S2_SO -> "s2so"

let system_of_string = function
  | "s0so" -> Some S0_SO
  | "s1so" -> Some S1_SO
  | "s0po" -> Some S0_PO
  | "s1po" -> Some S1_PO
  | "s2po" -> Some S2_PO
  | "s2so" -> Some S2_SO
  | _ -> None

let expected_lifetime ?(launchpad = Remaining) ?(np = 3) system ~alpha ~kappa =
  match system with
  | S0_SO -> s0_so ~alpha
  | S1_SO -> s1_so ~alpha
  | S0_PO -> s0_po ~alpha
  | S1_PO -> s1_po ~alpha
  | S2_PO -> s2_po ~launchpad ~np ~alpha ~kappa ()
  | S2_SO -> s2_so ~launchpad ~np ~alpha ~kappa ()

(* ---- survival laws ---- *)

let survival system ~alpha ~kappa ~upto =
  if upto < 0 then invalid_arg "Systems.survival: upto must be >= 0";
  let constant h = Probability.survival (fun _ -> h) ~upto in
  match system with
  | S0_PO -> constant (s0_po_step ~alpha)
  | S1_PO -> constant (s1_po_step ~alpha)
  | S2_PO -> constant (s2_po_step ~alpha ~kappa ())
  | S1_SO -> Probability.survival (so_hazard ~alpha) ~upto
  | S0_SO ->
      (* forward propagation of (P(0 keys found), P(1 key found)) *)
      let s = Array.make (upto + 1) 1.0 in
      let d0 = ref 1.0 and d1 = ref 0.0 in
      for k = 1 to upto do
        let stay0, to1, stay1 = s0_so_step ~alpha k in
        let n0 = !d0 *. stay0 and n1 = (!d0 *. to1) +. (!d1 *. stay1) in
        d0 := n0;
        d1 := n1;
        s.(k) <- n0 +. n1
      done;
      s
  | S2_SO ->
      invalid_arg "Systems.survival: S2SO has no exact law (path-dependent server hazard)"
