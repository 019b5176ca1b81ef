type t = {
  deployment : Deployment.t;
  mutable obfuscation : Obfuscation.t option;
}

type client = Client.t

let of_parts ?obfuscation deployment = { deployment; obfuscation }
let deployment t = t.deployment
let obfuscation t = t.obfuscation
let set_obfuscation t o = t.obfuscation <- Some o

let obf t =
  match t.obfuscation with
  | Some o -> o
  | None -> invalid_arg "Fortress_stack: no obfuscation schedule attached"

let name = "fortress"
let engine t = Deployment.engine t.deployment

let symptoms t = Deployment.symptoms t.deployment
let rekey_period t = Obfuscation.period (obf t)
let set_rekey_period t p = Obfuscation.set_period (obf t) p

let default_threshold t =
  (Deployment.config t.deployment).Deployment.proxy.Proxy.detection_threshold

let set_threshold t k =
  Array.iter (fun p -> Proxy.set_detection_threshold p k) (Deployment.proxies t.deployment)

let rekey_now t = Deployment.rekey t.deployment
let recover_now t = Deployment.recover t.deployment
let system_compromised t = Deployment.system_compromised t.deployment
let new_client t ~name = Deployment.new_client t.deployment ~name
let submit = Client.submit
let client_accepted = Client.accepted
