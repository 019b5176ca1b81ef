(** The experiment loop's view of a stack: {!Fortress_core.Stack_intf.S}
    plus the five construction hooks {!Inject} needs to run one trial —
    build at a key-space size, start the obfuscation schedule, fold a
    fault plan on, arm a defender, and run the attack campaign. The two
    implementations pin down everything stack-specific that used to live
    in duplicated per-stack trial functions; {!Inject} is written once
    against [S]. *)

module type S = sig
  include Fortress_core.Stack_intf.S

  val make : chi:int -> seed:int -> t
  (** A fresh deployment at key-space size [chi], engine seeded with
      [seed]. *)

  val start_obfuscation : t -> period:float -> unit
  (** Attach the stack's proactive-obfuscation schedule (PO mode) — the
      fortress {!Fortress_core.Obfuscation} daemon, or the SMR batched
      schedule. Must run before {!install_plan}. *)

  val install_plan : t -> Fortress_faults.Plan.t -> seed:int -> unit -> Fortress_faults.Injector.stats
  (** Fold the fault plan onto the stack; the returned thunk reads the
      injector's statistics (call it after the run). *)

  val attach_defense :
    t -> Fortress_defense.Controller.Strategy.t -> Fortress_defense.Controller.t

  val default_workload : bool
  (** Whether {!Inject} arms its periodic health-probe client on this
      stack (the historical fortress behaviour; the SMR path measures EL
      only unless an explicit [--load] workload is attached). *)

  val run_campaign :
    ?strategy:Fortress_attack.Adaptive.Strategy.t ->
    t ->
    omega:int ->
    kappa:float ->
    period:float ->
    seed:int ->
    max_steps:int ->
    Fortress_attack.Campaign_intf.Stats.t
  (** Run the stack's attack campaign to compromise or [max_steps] and
      return its statistics: [compromised_at_step] is the lifetime and
      [directives_applied] counts adaptive directives. [kappa] is ignored
      by stacks without an indirect-probe channel (SMR). *)
end

module Fortress : S
module Smr : S
