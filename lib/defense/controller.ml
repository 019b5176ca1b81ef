module Engine = Fortress_sim.Engine
module Signal = Fortress_obs.Signal

type defaults = { rekey_period : float; threshold : int }

type actuator = {
  set_rekey_period : float -> unit;
  set_threshold : int -> unit;
  rekey_now : unit -> unit;
  recover_now : unit -> unit;
}

let null_actuator =
  {
    set_rekey_period = (fun _ -> ());
    set_threshold = (fun _ -> ());
    rekey_now = (fun () -> ());
    recover_now = (fun () -> ());
  }

module Strategy = struct
  type decide = Defense_observation.t -> Defense_directive.t

  type t = {
    name : string;
    describe : string;
    make : defaults:defaults -> decide;
        (** build a fresh decide function (with fresh internal state) for
            one deployment; [defaults] are the configured settings to
            restore when an override is lifted *)
  }

  let static =
    {
      name = "static";
      describe = "observes but never acts; bit-identical to the fixed schedule";
      make = (fun ~defaults:_ _obs -> Defense_directive.unchanged);
    }

  (* While staleness or probe-rate alarms fire, halve the rekey period and
     force an immediate rekey — the obfuscation epoch is provably behind
     (or the attacker is hammering), so fresh keys are cheap insurance.
     Restore the configured period after two quiet boundaries. *)
  let alarm_rekey =
    {
      name = "alarm-rekey";
      describe = "halves the rekey period (and rekeys at once) while staleness/probe-rate alarms fire";
      make =
        (fun ~defaults ->
          let shrunk = ref false and quiet = ref 0 in
          fun obs ->
            let firing =
              obs.Defense_observation.alarms_staleness > 0
              || obs.Defense_observation.alarms_invalid > 0
            in
            if firing then begin
              quiet := 0;
              if !shrunk then
                (* already shrunk: keep forcing boundaries while stale *)
                if obs.Defense_observation.alarms_staleness > 0 then
                  Defense_directive.make ~boost:Defense_directive.Rekey_now ()
                else Defense_directive.unchanged
              else begin
                shrunk := true;
                Defense_directive.make
                  ~rekey_period:(defaults.rekey_period /. 2.0)
                  ~boost:Defense_directive.Rekey_now ()
              end
            end
            else if !shrunk then begin
              incr quiet;
              if !quiet >= 2 then begin
                shrunk := false;
                quiet := 0;
                Defense_directive.make ~rekey_period:defaults.rekey_period ()
              end
              else Defense_directive.unchanged
            end
            else Defense_directive.unchanged);
    }

  (* Under blocked-source or invalid-probe bursts, drop the proxy
     suspicion threshold to 1 — sources are burned after two invalids in a
     window, cutting the attacker's effective kappa hard. Relax back to
     the configured threshold after three quiet boundaries (the cost of a
     tight threshold is false positives on legitimate bursty clients). *)
  let threshold_tightener =
    {
      name = "threshold-tightener";
      describe = "drops the proxy suspicion threshold under blocked/invalid bursts; relaxes on quiet";
      make =
        (fun ~defaults ->
          let tightened = ref false and quiet = ref 0 in
          fun obs ->
            let burst =
              obs.Defense_observation.alarms_blocked > 0
              || obs.Defense_observation.alarms_invalid > 0
            in
            if burst then begin
              quiet := 0;
              if !tightened then Defense_directive.unchanged
              else begin
                tightened := true;
                Defense_directive.make ~threshold:(min 1 defaults.threshold) ()
              end
            end
            else if !tightened then begin
              incr quiet;
              if !quiet >= 3 then begin
                tightened := false;
                quiet := 0;
                Defense_directive.make ~threshold:defaults.threshold ()
              end
              else Defense_directive.unchanged
            end
            else Defense_directive.unchanged);
    }

  let builtins = [ static; alarm_rekey; threshold_tightener ]
  let names = List.map (fun s -> s.name) builtins
  let find name = List.find_opt (fun s -> s.name = name) builtins
end

(* The live settings the actuator has been driven to. They start as copies
   of the defaults and move only when a staged directive is applied at a
   boundary, so a controller that never stages anything behaves — to the
   byte — like no controller at all. *)
type settings = { mutable rekey_period : float; mutable threshold : int }

type t = {
  signal : Signal.t;
  name : string;
  defaults : defaults;
  actuator : actuator;
  eff : settings;
  decide : Strategy.decide;
  staging : Defense_directive.t Fortress_sim.Staging.t;
  mutable step : int;  (** completed controller boundaries *)
  mutable alarm_cursor : int;
}

let stage t directive = Fortress_sim.Staging.stage t.staging directive

(* Fold the staged directive (if any) into the live settings and drive the
   actuator. Runs only at boundaries; a boost always counts as a move. *)
let apply_staged t =
  Fortress_sim.Staging.apply t.staging ~step:t.step (fun d ->
      let move = Fortress_sim.Staging.move in
      let period =
        move
          (Option.map (Float.max 1.0) d.Defense_directive.rekey_period)
          ~current:t.eff.rekey_period
          ~set:(fun p ->
            t.eff.rekey_period <- p;
            t.actuator.set_rekey_period p)
          (Printf.sprintf "rekey-period=%g")
      in
      let threshold =
        move
          (Option.map (max 1) d.Defense_directive.threshold)
          ~current:t.eff.threshold
          ~set:(fun k ->
            t.eff.threshold <- k;
            t.actuator.set_threshold k)
          (Printf.sprintf "threshold=%d")
      in
      let boost =
        match d.Defense_directive.boost with
        | Some b ->
            (match b with
            | Defense_directive.Rekey_now -> t.actuator.rekey_now ()
            | Defense_directive.Recover_now -> t.actuator.recover_now ());
            [ Defense_directive.boost_to_string b ]
        | None -> []
      in
      period @ threshold @ boost)

(* observe -> decide -> stage -> apply, mirroring the attacker campaign's
   boundary mechanics: externally staged directives (tests, manual
   operators) merge with the strategy's own and everything lands at once. *)
let boundary t =
  let obs, cursor =
    Defense_observation.assemble ~step:(t.step + 1) ~alarm_cursor:t.alarm_cursor t.signal
  in
  t.alarm_cursor <- cursor;
  stage t (t.decide obs);
  t.step <- t.step + 1;
  apply_staged t

let launch ~engine ~signal ~period ~defaults ~actuator (strategy : Strategy.t) =
  if period <= 0.0 then invalid_arg "Controller.launch: period must be positive";
  let t =
    {
      signal;
      name = strategy.Strategy.name;
      defaults;
      actuator;
      eff = { rekey_period = defaults.rekey_period; threshold = defaults.threshold };
      decide = strategy.Strategy.make ~defaults;
      staging =
        Fortress_sim.Staging.create engine ~label:("defender:" ^ strategy.Strategy.name)
          ~unchanged:Defense_directive.unchanged ~merge:Defense_directive.merge;
      step = 0;
      alarm_cursor = 0;
    }
  in
  ignore (Engine.every engine ~period (fun () -> boundary t));
  t

let name t = t.name
let defaults t = t.defaults
let settings t = { rekey_period = t.eff.rekey_period; threshold = t.eff.threshold }
let effective_rekey_period t = t.eff.rekey_period
let effective_threshold t = t.eff.threshold
let steps_completed t = t.step
let directives_applied t = Fortress_sim.Staging.applied t.staging
