(** The shared campaign surface.

    Both campaign flavours — the fixed-schedule FORTRESS {!Campaign} and
    the SMR {!Smr_campaign} — implement {!Adaptable}: launch on a
    deployment, drive to compromise or a horizon, report one {!Stats}
    record, and accept the observe–decide–act plumbing the {!Adaptive}
    wrapper drives. Experiments program against these signatures instead
    of pattern-matching on concrete modules. *)

module Stats = struct
  type t = {
    compromised_at_step : int option;
        (** 1-based step at which the system fell; [None] while it stands *)
    direct_probes_sent : int;
    indirect_probes_sent : int;
    indirect_probes_blocked : int;
    launchpad_probes_sent : int;
    sources_burned : int;  (** attacker addresses blocked by proxies *)
    exhausted_slots : int;
        (** probe slots skipped for want of untried keys in the epoch *)
    intrusions : int;  (** individual node compromises, evicted or not *)
    directives_applied : int;
        (** adaptive directives that actually changed a setting; 0 for
            fixed-schedule campaigns *)
  }

  let zero =
    {
      compromised_at_step = None;
      direct_probes_sent = 0;
      indirect_probes_sent = 0;
      indirect_probes_blocked = 0;
      launchpad_probes_sent = 0;
      sources_burned = 0;
      exhausted_slots = 0;
      intrusions = 0;
      directives_applied = 0;
    }

  let probes_sent s = s.direct_probes_sent + s.indirect_probes_sent + s.launchpad_probes_sent

  let pp ppf s =
    Format.fprintf ppf
      "direct %d, indirect %d (%d blocked), launchpad %d, burned %d, intrusions %d%s"
      s.direct_probes_sent s.indirect_probes_sent s.indirect_probes_blocked
      s.launchpad_probes_sent s.sources_burned s.intrusions
      (match s.compromised_at_step with
      | Some step -> Printf.sprintf ", compromised at step %d" step
      | None -> "")
end

module type S = sig
  type t
  type deployment
  type config

  val launch : deployment -> config -> t
  (** Arm the campaign on the deployment's engine; run the engine to make
      it progress. *)

  val run_until_compromise : t -> max_steps:int -> int option
  (** Drive the engine until the system is compromised or [max_steps]
      whole steps have elapsed. Returns the 1-based step of compromise. *)

  val stats : t -> Stats.t
end

(** A campaign the adaptive wrapper can drive: {!S} plus the
    observe–decide–act plumbing. *)
module type Adaptable = sig
  include S

  val default_kappa : config -> float
  (** The configured indirect split a strategy restores when it lifts an
      override; 0 on a stack without an indirect channel. *)

  val set_boundary_hook : t -> name:string -> (Observation.t -> unit) -> unit
  val stage : t -> Directive.t -> unit
end
