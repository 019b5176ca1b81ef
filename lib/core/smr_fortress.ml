module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Latency = Fortress_net.Latency
module Address = Fortress_net.Address
module Sign = Fortress_crypto.Sign
module Nonce = Fortress_crypto.Nonce
module Smr = Fortress_replication.Smr
module Dsm = Fortress_replication.Dsm
module Keyspace = Fortress_defense.Keyspace
module Instance = Fortress_defense.Instance
module Prng = Fortress_util.Prng

type msg =
  | Server of Smr.msg
  | Client_request of { id : string; cmd : string; client : Address.t }
  | Client_reply of {
      reply : Smr.reply;
      proxy_index : int;
      proxy_signature : Sign.signature;
    }

let over_sign_payload ~reply ~proxy_index =
  Printf.sprintf "fortress-smr-oversign|%s|%s|%d|%d|%s|%d" reply.Smr.request_id
    reply.Smr.response reply.Smr.server_index reply.Smr.view
    (Sign.signature_to_hex reply.Smr.signature)
    proxy_index

type config = {
  np : int;
  n : int;
  f : int;
  service : Dsm.t;
  keyspace : Keyspace.t;
  smr : Smr.config;
  proxy_detection_window : float;
  proxy_detection_threshold : int;
  latency : Latency.t;
  seed : int;
}

let default_config =
  {
    np = 3;
    n = 4;
    f = 1;
    service = Fortress_replication.Services.kv;
    keyspace = Keyspace.pax_aslr_32bit;
    smr = Smr.default_config;
    proxy_detection_window = 100.0;
    proxy_detection_threshold = 10;
    latency = Latency.constant 0.5;
    seed = 0;
  }

(* A proxy's view of one outstanding request. *)
type pending = { mutable waiting : Address.t list; mutable answered : bool }

type proxy = {
  p_index : int;
  p_secret : Sign.secret_key;
  p_self : Address.t;
  voter : Smr.Voter.t;
  p_pending : (string, pending) Hashtbl.t;
  invalid_log : (Address.t, float Queue.t) Hashtbl.t;
  blocked : (Address.t, unit) Hashtbl.t;
  mutable invalid_total : int;
  mutable p_relayed : int;
  mutable p_compromised : bool;
}

type t = {
  cfg : config;
  engine : Engine.t;
  net : msg Network.t;
  replicas : Smr.replica array;
  proxies : proxy array;
  proxy_instances : Instance.t array;
  server_instances : Instance.t array;
  server_addresses : Address.t array;
  proxy_addresses : Address.t array;
  server_comp : bool array;
  proxy_comp : bool array;
}

let diverse_instances ks prng count =
  let used = ref [] in
  Array.init count (fun _ ->
      let inst = Instance.create ks prng in
      let k = Keyspace.distinct_key ks prng ~avoid:!used in
      used := k :: !used;
      Instance.set_key inst k;
      inst)

(* ---- proxy behaviour ---- *)

let note_invalid t proxy src =
  proxy.invalid_total <- proxy.invalid_total + 1;
  let now = Engine.now t.engine in
  let q =
    match Hashtbl.find_opt proxy.invalid_log src with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace proxy.invalid_log src q;
        q
  in
  Queue.push now q;
  while
    (not (Queue.is_empty q)) && Queue.peek q < now -. t.cfg.proxy_detection_window
  do
    ignore (Queue.pop q)
  done;
  if Queue.length q > t.cfg.proxy_detection_threshold then Hashtbl.replace proxy.blocked src ()

let proxy_handle_request t proxy ~src ~id ~cmd ~client =
  if not (Hashtbl.mem proxy.blocked src) then begin
    if Message.is_probe_command cmd then note_invalid t proxy src;
    if not (Hashtbl.mem proxy.blocked src) then begin
      let entry =
        match Hashtbl.find_opt proxy.p_pending id with
        | Some p -> p
        | None ->
            let p = { waiting = []; answered = false } in
            Hashtbl.replace proxy.p_pending id p;
            p
      in
      if not (List.mem client entry.waiting) then entry.waiting <- client :: entry.waiting;
      Array.iter
        (fun dst ->
          Network.send t.net ~src:proxy.p_self ~dst
            (Server (Smr.Request { id; cmd; reply_to = proxy.p_self })))
        t.server_addresses
    end
  end

let proxy_handle_reply t proxy (reply : Smr.reply) =
  (* the vote both authenticates and masks up to f intruded replicas *)
  match Smr.Voter.offer proxy.voter reply with
  | None -> ()
  | Some _agreed -> (
      match Hashtbl.find_opt proxy.p_pending reply.Smr.request_id with
      | None -> ()
      | Some entry ->
          if not entry.answered then begin
            entry.answered <- true;
            let proxy_signature =
              Sign.sign proxy.p_secret
                (over_sign_payload ~reply ~proxy_index:proxy.p_index)
            in
            List.iter
              (fun client ->
                proxy.p_relayed <- proxy.p_relayed + 1;
                Network.send t.net ~src:proxy.p_self ~dst:client
                  (Client_reply { reply; proxy_index = proxy.p_index; proxy_signature }))
              entry.waiting;
            entry.waiting <- []
          end)

let proxy_handler t proxy ~src msg =
  if not proxy.p_compromised then
    match msg with
    | Client_request { id; cmd; client } -> proxy_handle_request t proxy ~src ~id ~cmd ~client
    | Server (Smr.Reply reply) -> proxy_handle_reply t proxy reply
    | Server _ | Client_reply _ -> ()

(* ---- construction ---- *)

let create cfg =
  if cfg.np < 1 then invalid_arg "Smr_fortress.create: np must be >= 1";
  let engine = Engine.create ~prng:(Prng.create ~seed:cfg.seed) () in
  let prng = Engine.prng engine in
  let net = Network.create ~latency:cfg.latency engine in
  let server_addresses =
    Array.init cfg.n (fun i ->
        Network.register net ~name:(Printf.sprintf "smr-server%d" i)
          ~handler:(fun ~src:_ _ -> ()))
  in
  let proxy_addresses =
    Array.init cfg.np (fun i ->
        Network.register net ~name:(Printf.sprintf "smr-proxy%d" i)
          ~handler:(fun ~src:_ _ -> ()))
  in
  let server_instances = diverse_instances cfg.keyspace prng cfg.n in
  let proxy_instances = diverse_instances cfg.keyspace prng cfg.np in
  let smr_config = { cfg.smr with Smr.n = cfg.n; f = cfg.f } in
  let replicas =
    Array.init cfg.n (fun i ->
        let secret, _ = Sign.generate prng in
        Smr.create ~engine ~config:smr_config ~index:i ~service:cfg.service ~secret
          ~self:server_addresses.(i) ~addresses:server_addresses
          ~send:(fun ~dst msg -> Network.send net ~src:server_addresses.(i) ~dst (Server msg)))
  in
  Array.iteri
    (fun i addr ->
      Network.set_handler net addr (fun ~src msg ->
          match msg with
          | Server m -> Smr.handle replicas.(i) ~src m
          | Client_request _ | Client_reply _ -> ()))
    server_addresses;
  Array.iter Smr.start replicas;
  let server_keys = Array.map Smr.public_key replicas in
  let proxies =
    Array.init cfg.np (fun i ->
        let secret, _ = Sign.generate prng in
        {
          p_index = i;
          p_secret = secret;
          p_self = proxy_addresses.(i);
          voter = Smr.Voter.create ~f:cfg.f ~public_keys:server_keys;
          p_pending = Hashtbl.create 32;
          invalid_log = Hashtbl.create 16;
          blocked = Hashtbl.create 16;
          invalid_total = 0;
          p_relayed = 0;
          p_compromised = false;
        })
  in
  let t =
    {
      cfg;
      engine;
      net;
      replicas;
      proxies;
      proxy_instances;
      server_instances;
      server_addresses;
      proxy_addresses;
      server_comp = Array.make cfg.n false;
      proxy_comp = Array.make cfg.np false;
    }
  in
  Array.iteri
    (fun i addr ->
      Network.set_handler net addr (fun ~src msg -> proxy_handler t t.proxies.(i) ~src msg))
    proxy_addresses;
  t

let engine t = t.engine
let replicas t = t.replicas
let proxy_instances t = t.proxy_instances
let server_instances t = t.server_instances
let proxy_invalid_observed t i = t.proxies.(i).invalid_total
let proxy_is_blocked t i src = Hashtbl.mem t.proxies.(i).blocked src
let proxy_relayed t i = t.proxies.(i).p_relayed

(* ---- client ---- *)

type client = {
  c_net : msg Network.t;
  c_self : Address.t;
  c_proxy_addresses : Address.t array;
  c_proxy_keys : Sign.public_key array;
  c_server_keys : Sign.public_key array;
  nonce_source : Nonce.source;
  callbacks : (string, string -> unit) Hashtbl.t;
  mutable c_accepted : int;
  mutable c_rejected : int;
}

let new_client t ~name =
  let self = Network.register t.net ~name ~handler:(fun ~src:_ _ -> ()) in
  let client =
    {
      c_net = t.net;
      c_self = self;
      c_proxy_addresses = t.proxy_addresses;
      c_proxy_keys = Array.map (fun p -> Sign.public_of_secret p.p_secret) t.proxies;
      c_server_keys = Array.map Smr.public_key t.replicas;
      nonce_source = Nonce.source (Prng.split (Engine.prng t.engine));
      callbacks = Hashtbl.create 16;
      c_accepted = 0;
      c_rejected = 0;
    }
  in
  Network.set_handler t.net self (fun ~src:_ msg ->
      match msg with
      | Client_reply { reply; proxy_index; proxy_signature } ->
          let proxy_ok =
            proxy_index >= 0
            && proxy_index < Array.length client.c_proxy_keys
            && Sign.verify
                 client.c_proxy_keys.(proxy_index)
                 ~msg:(over_sign_payload ~reply ~proxy_index)
                 proxy_signature
          in
          let server_ok =
            reply.Smr.server_index >= 0
            && reply.Smr.server_index < Array.length client.c_server_keys
            && Smr.verify_reply client.c_server_keys.(reply.Smr.server_index) reply
          in
          if proxy_ok && server_ok then (
            match Hashtbl.find_opt client.callbacks reply.Smr.request_id with
            | Some k ->
                Hashtbl.remove client.callbacks reply.Smr.request_id;
                client.c_accepted <- client.c_accepted + 1;
                k reply.Smr.response
            | None -> () (* duplicate from another proxy *))
          else client.c_rejected <- client.c_rejected + 1
      | Server _ | Client_request _ -> ());
  client

let submit c ~cmd ~on_response =
  let id = Nonce.to_string (Nonce.fresh c.nonce_source) in
  Hashtbl.replace c.callbacks id on_response;
  Array.iter
    (fun dst ->
      Network.send c.c_net ~src:c.c_self ~dst (Client_request { id; cmd; client = c.c_self }))
    c.c_proxy_addresses;
  id

let client_accepted c = c.c_accepted
let client_rejected c = c.c_rejected

(* ---- obfuscation ---- *)

let rekey_proxies t =
  let prng = Engine.prng t.engine in
  let used = ref [] in
  Array.iteri
    (fun i inst ->
      let k = Keyspace.distinct_key t.cfg.keyspace prng ~avoid:!used in
      used := k :: !used;
      Instance.set_key inst k;
      t.proxy_comp.(i) <- false;
      t.proxies.(i).p_compromised <- false)
    t.proxy_instances

let cycle_server t i ~fresh_key =
  let replica = t.replicas.(i) in
  Smr.stop replica;
  Network.set_down t.net t.server_addresses.(i);
  (if fresh_key then begin
     let others = List.filteri (fun j _ -> j <> i) (Array.to_list t.server_instances) in
     Instance.set_key t.server_instances.(i)
       (Keyspace.distinct_key t.cfg.keyspace (Engine.prng t.engine)
          ~avoid:(List.map Instance.key others))
   end
   else Instance.recover t.server_instances.(i));
  t.server_comp.(i) <- false;
  Smr.set_compromised replica false;
  ignore
    (Engine.schedule t.engine ~delay:0.5 (fun () ->
         Network.set_up t.net t.server_addresses.(i);
         Smr.restart replica;
         Smr.begin_state_transfer replica))

let rekey_server_batch t batch = List.iter (fun i -> cycle_server t i ~fresh_key:true) batch

let batches t =
  let rec chunk acc current count = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | i :: rest ->
        if count = t.cfg.f then chunk (List.rev current :: acc) [ i ] 1 rest
        else chunk acc (i :: current) (count + 1) rest
  in
  chunk [] [] 0 (List.init t.cfg.n Fun.id)

let attach_schedule t ~mode ~period =
  let bs = batches t in
  let nb = List.length bs in
  let spacing = period /. float_of_int (nb + 1) in
  ignore
    (Engine.every t.engine ~period (fun () ->
         (match mode with
         | Obfuscation.PO -> rekey_proxies t
         | Obfuscation.SO ->
             Array.iter Instance.recover t.proxy_instances;
             Array.iteri
               (fun i p ->
                 t.proxy_comp.(i) <- false;
                 p.p_compromised <- false)
               t.proxies);
         List.iteri
           (fun bi batch ->
             ignore
               (Engine.schedule t.engine ~delay:(spacing *. float_of_int bi) (fun () ->
                    List.iter
                      (fun i ->
                        cycle_server t i
                          ~fresh_key:(match mode with Obfuscation.PO -> true | Obfuscation.SO -> false))
                      batch)))
           bs))

(* ---- compromise bookkeeping ---- *)

let compromise_server t i =
  t.server_comp.(i) <- true;
  Smr.set_compromised t.replicas.(i) true

let compromise_proxy t i =
  t.proxy_comp.(i) <- true;
  t.proxies.(i).p_compromised <- true

let system_compromised t =
  let servers_down = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.server_comp in
  let proxies_down = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.proxy_comp in
  servers_down > t.cfg.f || proxies_down = t.cfg.np
