module Engine = Fortress_sim.Engine
module Event = Fortress_obs.Event

type t = {
  deployment : Smr_deployment.t;
  mutable schedule : Smr_deployment.schedule option;
}

(* The raw Smr_deployment client emits no events (it predates the shared
   workload plane); the wrapper adds the Request_submitted /
   Request_completed pair the fortress Client emits, so workload
   accounting — timelines, goodput windows — reads one event stream on
   either stack. *)
type client = { c : Smr_deployment.client; c_engine : Engine.t }

let of_parts ?schedule deployment = { deployment; schedule }
let deployment t = t.deployment
let schedule t = t.schedule
let set_schedule t s = t.schedule <- Some s

let sched t =
  match t.schedule with
  | Some s -> s
  | None -> invalid_arg "Smr_stack: no obfuscation schedule attached"

let name = "smr"
let engine t = Smr_deployment.engine t.deployment

let symptoms t = Smr_deployment.symptoms t.deployment
let rekey_period t = Smr_deployment.schedule_period (sched t)
let set_rekey_period t p = Smr_deployment.set_schedule_period (sched t) p

(* S0 has no proxy tier; the threshold knob is a graceful no-op and the
   default is the constant Defense_control has always used. *)
let default_threshold _ = 1
let set_threshold _ _ = ()
let rekey_now t = Smr_deployment.force_boundary (sched t)
let recover_now t = Smr_deployment.force_boundary (sched t)
let system_compromised t = Smr_deployment.system_compromised t.deployment

let new_client t ~name =
  { c = Smr_deployment.new_client t.deployment ~name; c_engine = engine t }

let submit cl ~cmd ~on_response =
  (* the id is minted inside Smr_deployment.submit, so the submitted event
     lands just after the fan-out sends; replies only arrive via scheduled
     network deliveries, never synchronously, so the completion callback
     always sees the id filled in *)
  let id_ref = ref "" in
  let id =
    Smr_deployment.submit cl.c ~cmd ~on_response:(fun response ->
        Engine.emit cl.c_engine (Event.Request_completed { id = !id_ref; accepted = true });
        on_response response)
  in
  id_ref := id;
  Engine.emit cl.c_engine (Event.Request_submitted { id });
  id

let client_accepted cl = Smr_deployment.client_accepted cl.c
