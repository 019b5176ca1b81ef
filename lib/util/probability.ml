let clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

let complement_product ps =
  let log_surv =
    List.fold_left
      (fun acc p ->
        let p = clamp01 p in
        if p >= 1.0 then neg_infinity else acc +. log1p (-.p))
      0.0 ps
  in
  1.0 -. exp log_surv

let binomial_pmf ~k ~p ~n =
  if k < 0 || n < 0 then invalid_arg "Probability.binomial_pmf: negative argument";
  if k > n then 0.0
  else begin
    let p = clamp01 p in
    (* log-space binomial coefficient to avoid overflow for larger n *)
    let log_choose =
      let acc = ref 0.0 in
      for i = 1 to k do
        acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
      done;
      !acc
    in
    if p = 0.0 then (if k = 0 then 1.0 else 0.0)
    else if p = 1.0 then (if k = n then 1.0 else 0.0)
    else exp (log_choose +. (float_of_int k *. log p) +. (float_of_int (n - k) *. log1p (-.p)))
  end

let at_least ~k ~p ~n =
  if k < 0 || n < 0 then invalid_arg "Probability.at_least: negative argument";
  if k = 0 then 1.0
  else if k > n then 0.0
  else begin
    (* sum the smaller tail for accuracy *)
    let below = ref 0.0 in
    for j = 0 to k - 1 do
      below := !below +. binomial_pmf ~k:j ~p ~n
    done;
    clamp01 (1.0 -. !below)
  end

let geometric_lifetime p = if p <= 0.0 then infinity else 1.0 /. p

let expected_lifetime ?(eps = 1e-12) ?(max_steps = 100_000_000) hazard =
  let rec go k surv acc =
    if surv < eps then acc
    else if k > max_steps then
      (* bound the tail by treating the hazard as constant from here on *)
      let h = clamp01 (hazard k) in
      if h <= 0.0 then infinity else acc +. (surv *. (float_of_int k +. ((1.0 -. h) /. h)))
    else begin
      let h = clamp01 (hazard k) in
      if h <= 0.0 && surv = 1.0 && k > 1_000_000 then infinity
      else
        let acc = acc +. (surv *. h *. float_of_int k) in
        go (k + 1) (surv *. (1.0 -. h)) acc
    end
  in
  go 1 1.0 0.0

let survival hazard ~upto =
  let s = Array.make (upto + 1) 1.0 in
  for k = 1 to upto do
    s.(k) <- s.(k - 1) *. (1.0 -. clamp01 (hazard k))
  done;
  s
