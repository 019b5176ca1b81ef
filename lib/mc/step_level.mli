(** Step-level Monte-Carlo samplers for every system class.

    These samplers draw the {e events} of each unit time-step explicitly —
    which nodes fall, when within the step a proxy falls, whether its
    launch pad converts — from the per-node alpha, rather than using the
    closed-form one-step laws from {!Fortress_model.Systems}. Agreement
    between the two is therefore a meaningful cross-validation (exercised
    against {!Fortress_model.Systems.survival} in the test suite and in
    the validation experiment), not a tautology.

    Under PO every step repeats the same experiment, so S0PO and S1PO skip
    quiet steps: one geometric draw covers the run of steps in which no
    node falls. Eventful steps are still drawn event by event: for S0PO,
    which replica falls first and then whether any later replica falls
    too. The lifetime law is unchanged, the random stream is not. S2PO and
    the SO samplers step one unit time-step at a time. *)

type config = {
  alpha : float;  (** per-node, per-step direct success probability *)
  kappa : float;  (** indirect coefficient (S2 only) *)
  np : int;  (** proxies (S2 only) *)
  launchpad : Fortress_model.Systems.launchpad;
  max_steps : int;  (** censoring horizon *)
}

val default : config
(** alpha 1e-3, kappa 0.5, np 3, Remaining, horizon 10^7. *)

val sampler :
  Fortress_model.Systems.system -> config -> Fortress_util.Prng.t -> int option
(** One lifetime draw; [None] when censored at [max_steps]. *)

val estimate :
  ?sink:Fortress_obs.Sink.t ->
  ?monitor:Fortress_prof.Convergence.t ->
  ?early_stop:bool ->
  ?jobs:int ->
  ?trials:int ->
  ?seed:int ->
  Fortress_model.Systems.system ->
  config ->
  Trial.result
(** [trials] defaults to 2000, [seed] to 42. [sink] receives per-trial
    progress events; [monitor]/[early_stop]/[jobs] are passed through to
    {!Trial.run} — estimates are bit-identical for every job count. *)
