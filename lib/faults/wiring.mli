(** Bind a fault plan to a live deployment of either stack.

    Installs the link interceptor and the stack's message corrupter on the
    deployment's network, schedules every timeline entry on the engine
    (via absolute [schedule_at], so the fault timeline itself is exempt
    from its own slowdown), and routes crash / restart / stall actions
    into the deployment and its obfuscation schedule. The body is written
    once; the two entry points supply only what differs per stack — the
    corrupter, target resolution, crash / restart and the stall toggle.

    On the FORTRESS stack ({!install}) every target must exist, and
    [Replica] targets are rejected. On the 1-tier SMR stack S0
    ({!install_smr}) the plan is folded onto the single replica tier:

    - [Server i] and [Replica i] map to replica [i],
    - [Proxy i] (the plan's front tier) folds onto the tail end,
      [Replica (n - 1 - i)], so a partition plan that separates the front
      from the back on S2 isolates a minority on S0, and
    - crashing or restarting the [Nameserver] is {e skipped} with a
      visible [Fault] event (S0 has no directory), not rejected. *)

type handle

val install :
  Plan.t ->
  deployment:Fortress_core.Deployment.t ->
  ?obfuscation:Fortress_core.Obfuscation.t ->
  seed:int ->
  unit ->
  handle
(** Validates the plan (including that every named node exists in this
    deployment) before touching anything. [seed] drives the injector's own
    salted PRNG — it does not perturb the engine's stream, so a faulted run
    samples the same organic randomness as the baseline. Pass
    [?obfuscation] to let [Stall_obfuscation] actions reach the rekey
    daemon; without it they emit their events but wedge nothing. *)

val install_smr :
  Plan.t ->
  deployment:Fortress_core.Smr_deployment.t ->
  ?schedule:Fortress_core.Smr_deployment.schedule ->
  seed:int ->
  unit ->
  handle
(** {!install} on S0: rejects targets that do not fold onto a replica
    before touching anything; [?schedule] plays the role of
    [?obfuscation]. *)

val stats : handle -> Injector.stats

val uninstall : handle -> unit
(** Remove the interceptors, restore engine speed, unwedge the daemon and
    stop future timeline firings (in-flight scheduled entries become
    no-ops). Already-applied crashes and partitions are {e not} undone. *)
