module Prng = Fortress_util.Prng
module Systems = Fortress_model.Systems

type config = {
  alpha : float;
  kappa : float;
  np : int;
  launchpad : Systems.launchpad;
  max_steps : int;
}

let default =
  { alpha = 1e-3; kappa = 0.5; np = 3; launchpad = Systems.Remaining; max_steps = 10_000_000 }

let bern = Prng.bernoulli

(* S0 under PO: four diversely keyed replicas, all state reset each step;
   compromise = two falls in one step. Every step repeats the same
   experiment, so the run of quiet steps (no replica falls) before the
   next eventful one is Geometric(p_event), p_event = 1 - (1-alpha)^4, and
   costs one draw. At an eventful step the first fallen replica j has P(j)
   proportional to (1-alpha)^(j-1) alpha (inverse CDF over the cumulative
   masses); replicas j+1..4 are then plain Bernoulli(alpha), and one more
   fall compromises. *)
let s0_po cfg prng =
  let a = cfg.alpha in
  if a <= 0.0 || cfg.max_steps < 1 then None
  else if a >= 1.0 then Some 1
  else begin
    let l = Float.log1p (-.a) in
    (* cdf.(j-1) = P(some replica among 1..j falls) = 1 - (1-alpha)^j *)
    let cdf = Array.init 4 (fun j -> -.Float.expm1 (float_of_int (j + 1) *. l)) in
    let p_event = cdf.(3) in
    let first_fall () =
      let u = Prng.float prng *. p_event in
      if u < cdf.(0) then 1 else if u < cdf.(1) then 2 else if u < cdf.(2) then 3 else 4
    in
    let rec second_fall k = k <= 4 && (bern prng ~p:a || second_fall (k + 1)) in
    (* [i] is the first step not yet played *)
    let rec run i =
      let quiet = Prng.geometric prng ~p:p_event in
      if quiet > cfg.max_steps - i then None
      else begin
        let e = i + quiet in
        if second_fall (first_fall () + 1) then Some e
        else if e = cfg.max_steps then None
        else run (e + 1)
      end
    in
    run 1
  end

(* S1 under PO: the shared key falls w.p. alpha each step, so the lifetime
   is 1 + Geometric(alpha). *)
let s1_po cfg prng =
  let a = cfg.alpha in
  if a <= 0.0 || cfg.max_steps < 1 then None
  else if a >= 1.0 then Some 1
  else begin
    let quiet = Prng.geometric prng ~p:a in
    if quiet > cfg.max_steps - 1 then None else Some (quiet + 1)
  end

(* S2 under PO: per step, draw each proxy's fate and fall instant, the
   indirect attack, and each captured proxy's launch-pad conversion. *)
let s2_po cfg prng =
  let rec step i =
    if i > cfg.max_steps then None
    else begin
      let fallen = ref 0 in
      let server_hit = ref (bern prng ~p:(cfg.kappa *. cfg.alpha)) in
      for _ = 1 to cfg.np do
        if bern prng ~p:cfg.alpha then begin
          incr fallen;
          let convert =
            match cfg.launchpad with
            | Systems.Remaining ->
                let u = Prng.float prng in
                bern prng ~p:((1.0 -. u) *. cfg.alpha)
            | Systems.Full -> bern prng ~p:cfg.alpha
            | Systems.Next_step -> false (* the boundary rekey evicts first *)
          in
          if convert then server_hit := true
        end
      done;
      if !server_hit || !fallen = cfg.np then Some i else step (i + 1)
    end
  in
  step 1

let s1_so cfg prng =
  let rec step i =
    if i > cfg.max_steps then None
    else begin
      let h = Systems.so_hazard ~alpha:cfg.alpha i in
      if bern prng ~p:h then Some i else step (i + 1)
    end
  in
  step 1

(* S0 under SO: uncovered keys accumulate across steps. *)
let s0_so cfg prng =
  let rec step i found =
    if i > cfg.max_steps then None
    else begin
      let h = Systems.so_hazard ~alpha:cfg.alpha i in
      let new_finds = ref 0 in
      for _ = 1 to 4 - found do
        if bern prng ~p:h then incr new_finds
      done;
      let found = found + !new_finds in
      if found >= 2 then Some i else step (i + 1) found
    end
  in
  step 1 0

(* S2 under SO: a learned proxy key is permanent (recovery does not change
   keys), so captured proxies are standing launch pads with a full budget.
   The server key's eliminated mass grows with every stream aimed at it. *)
let s2_so cfg prng =
  let rec step i known eliminated =
    if i > cfg.max_steps then None
    else begin
      let hp = Systems.so_hazard ~alpha:cfg.alpha i in
      let rate = (cfg.kappa +. float_of_int known) *. cfg.alpha in
      let hs =
        let denom = 1.0 -. eliminated in
        if denom <= rate then 1.0 else rate /. denom
      in
      if bern prng ~p:hs then Some i
      else begin
        let new_known = ref 0 in
        for _ = 1 to cfg.np - known do
          if bern prng ~p:hp then incr new_known
        done;
        let known = known + !new_known in
        if known >= cfg.np then Some i
        else step (i + 1) known (min 0.999999 (eliminated +. rate))
      end
    end
  in
  step 1 0 0.0

let sampler system cfg =
  if not (cfg.alpha >= 0.0 && cfg.alpha <= 1.0) then invalid_arg "Step_level: alpha in [0,1]";
  if cfg.kappa < 0.0 || cfg.kappa > 1.0 then invalid_arg "Step_level: kappa in [0,1]";
  if cfg.np <= 0 then invalid_arg "Step_level: np must be positive";
  match system with
  | Systems.S0_PO -> s0_po cfg
  | Systems.S1_PO -> s1_po cfg
  | Systems.S2_PO -> s2_po cfg
  | Systems.S1_SO -> s1_so cfg
  | Systems.S0_SO -> s0_so cfg
  | Systems.S2_SO -> s2_so cfg

let estimate ?sink ?monitor ?early_stop ?jobs ?(trials = 2000) ?(seed = 42) system cfg =
  (* step-level trials cost microseconds, so floor the chunk size: a short
     run must not pay per-chunk hand-off larger than the chunk's work.
     The floor only coarsens the partition — results are index-structural
     and stay bit-identical at every (jobs, min_chunk). *)
  Trial.run ?sink ?monitor ?early_stop ?jobs ~min_chunk:32 ~trials ~seed
    ~sampler:(sampler system cfg) ()
