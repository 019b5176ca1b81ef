module Engine = Fortress_sim.Engine
module Network = Fortress_net.Network
module Address = Fortress_net.Address
module Deployment = Fortress_core.Deployment
module Smr_deployment = Fortress_core.Smr_deployment
module Message = Fortress_core.Message
module Obfuscation = Fortress_core.Obfuscation
module Smr = Fortress_replication.Smr
module Event = Fortress_obs.Event

(* What one stack contributes to a plan; everything else is shared. *)
type 'msg stack = {
  engine : Engine.t;
  net : 'msg Network.t;
  corrupter : 'msg -> 'msg option;
  address : Plan.target -> Address.t;
      (** raises [Invalid_argument] for a target the stack does not have *)
  crash : Plan.target -> unit;
  restart : Plan.target -> unit;
  set_stalled : bool -> unit;
}

type handle = { stats : Injector.stats; mutable active : bool; release : unit -> unit }

let fault engine ~action ~target ~detail =
  Engine.emit engine (Event.Fault { action; target; detail })

let apply_action s (stats : Injector.stats) action =
  stats.Injector.timeline_fired <- stats.Injector.timeline_fired + 1;
  match action with
  | Plan.Crash t -> s.crash t
  | Plan.Restart t -> s.restart t
  | Plan.Partition (a, b) ->
      Network.partition s.net (s.address a) (s.address b);
      fault s.engine ~action:"partition"
        ~target:(Printf.sprintf "%s|%s" (Plan.target_to_string a) (Plan.target_to_string b))
        ~detail:""
  | Plan.Heal_all ->
      Network.heal_all s.net;
      fault s.engine ~action:"heal" ~target:"network" ~detail:"all"
  | Plan.Stall_obfuscation ->
      s.set_stalled true;
      fault s.engine ~action:"stall" ~target:"obfuscation" ~detail:"daemon wedged"
  | Plan.Resume_obfuscation ->
      s.set_stalled false;
      fault s.engine ~action:"resume" ~target:"obfuscation" ~detail:""
  | Plan.Slowdown f ->
      Engine.set_delay_interceptor s.engine (if f = 1.0 then None else Some (fun d -> d *. f));
      fault s.engine ~action:"slowdown" ~target:"engine" ~detail:(Printf.sprintf "x%g" f)

let schedule_entry s h (e : Plan.entry) =
  let rec arm time =
    ignore
      (Engine.schedule_at s.engine ~time (fun () ->
           if h.active then begin
             apply_action s h.stats e.Plan.action;
             match e.Plan.every with
             | Some period -> arm (Engine.now s.engine +. period)
             | None -> ()
           end))
  in
  if e.Plan.at >= Engine.now s.engine then arm e.Plan.at
  else invalid_arg "Wiring: timeline entry scheduled in the past"

let install_on s plan ~seed =
  Plan.validate plan;
  (* fail before touching anything if the plan names absent nodes; the
     nameserver is not a network node, so crash/restart alone may name it *)
  let check = function Plan.Nameserver -> () | t -> ignore (s.address t) in
  List.iter
    (fun (e : Plan.entry) ->
      match e.Plan.action with
      | Plan.Crash t | Plan.Restart t -> check t
      | Plan.Partition (a, b) ->
          check a;
          check b
      | Plan.Heal_all | Plan.Stall_obfuscation | Plan.Resume_obfuscation | Plan.Slowdown _ -> ())
    plan.Plan.timeline;
  let release () =
    Network.set_interceptor s.net None;
    Network.set_corrupter s.net None;
    Engine.set_delay_interceptor s.engine None;
    s.set_stalled false;
    fault s.engine ~action:"plan_uninstalled" ~target:"deployment" ~detail:""
  in
  let h = { stats = Injector.fresh_stats (); active = true; release } in
  let prng = Injector.derive_prng ~seed in
  Injector.install_link ~engine:s.engine ~net:s.net ~prng ~stats:h.stats plan.Plan.link;
  if plan.Plan.link.Plan.corrupt > 0.0 then Network.set_corrupter s.net (Some s.corrupter);
  List.iter (schedule_entry s h) plan.Plan.timeline;
  fault s.engine ~action:"plan_installed" ~target:plan.Plan.name
    ~detail:(Printf.sprintf "%d timeline entries" (List.length plan.Plan.timeline));
  h

let indexed what addresses i =
  if i < 0 || i >= Array.length addresses then
    invalid_arg (Printf.sprintf "Wiring: no %s %d in this deployment" what i);
  addresses.(i)

(* Corrupting a client request mangles the command in flight; the proxy
   still parses the frame and forwards garbage (our proxies log, they do
   not deep-inspect). Protocol-internal messages and signed replies fail
   their integrity checks instead, which the network models as a drop. *)
let fortress_corrupter = function
  | Message.Client_request { id; cmd; client } ->
      Some (Message.Client_request { id; cmd = "corrupt:" ^ cmd; client })
  | Message.Server _ | Message.Client_reply _ -> None

let install plan ~deployment ?obfuscation ~seed () =
  let d = deployment in
  let no_replica () = invalid_arg "Wiring: a FORTRESS deployment has no SMR replicas" in
  install_on
    {
      engine = Deployment.engine d;
      net = Deployment.network d;
      corrupter = fortress_corrupter;
      address =
        (function
        | Plan.Server i -> indexed "server" (Deployment.server_addresses d) i
        | Plan.Proxy i -> indexed "proxy" (Deployment.proxy_addresses d) i
        | Plan.Replica _ -> no_replica ()
        | Plan.Nameserver -> invalid_arg "Wiring: the nameserver is not a network node");
      crash =
        (function
        | Plan.Server i -> Deployment.crash_server d i
        | Plan.Proxy i -> Deployment.crash_proxy d i
        | Plan.Nameserver -> Deployment.crash_nameserver d
        | Plan.Replica _ -> no_replica ());
      restart =
        (function
        | Plan.Server i -> Deployment.restart_server d i
        | Plan.Proxy i -> Deployment.restart_proxy d i
        | Plan.Nameserver -> Deployment.restart_nameserver d
        | Plan.Replica _ -> no_replica ());
      set_stalled = (fun b -> Option.iter (fun o -> Obfuscation.set_stalled o b) obfuscation);
    }
    plan ~seed

(* On S0 a corrupted client request is executed as garbage by the replica;
   every protocol-internal message is signed or checksummed, so corruption
   there fails the integrity check — the network models that as a drop. *)
let smr_corrupter = function
  | Smr.Request { id; cmd; reply_to } -> Some (Smr.Request { id; cmd = "corrupt:" ^ cmd; reply_to })
  | _ -> None

(* S0 has one tier of n replicas, so every plan target folds onto it:
   servers map index-for-index, proxies (the plan's front tier) fold onto
   the tail end — [Proxy i -> Replica (n-1-i)] — so a partition plan that
   separates the front from the back on S2 isolates a minority on S0.
   The nameserver has no S0 counterpart; crashing or restarting it is
   skipped with a visible event rather than rejected, so one plan drives
   both stacks. *)
let install_smr plan ~deployment ?schedule ~seed () =
  let d = deployment in
  let engine = Smr_deployment.engine d in
  let replica = function
    | Plan.Server i | Plan.Replica i -> i
    | Plan.Proxy i -> Array.length (Smr_deployment.instances d) - 1 - i
    | Plan.Nameserver -> -1
  in
  let node ~what act = function
    | Plan.Nameserver ->
        fault engine ~action:"skip" ~target:"nameserver"
          ~detail:(Printf.sprintf "S0 has no nameserver; %s skipped" what)
    | t -> act d (replica t)
  in
  install_on
    {
      engine;
      net = Smr_deployment.network d;
      corrupter = smr_corrupter;
      address =
        (fun t ->
          let i = replica t and a = Smr_deployment.addresses d in
          if i < 0 || i >= Array.length a then
            invalid_arg
              (Printf.sprintf "Wiring: %s does not fold onto an S0 replica"
                 (Plan.target_to_string t));
          a.(i));
      crash = node ~what:"crash" Smr_deployment.crash_replica;
      restart = node ~what:"restart" Smr_deployment.restart_replica;
      set_stalled = (fun b -> Option.iter (fun s -> Smr_deployment.set_stalled s b) schedule);
    }
    plan ~seed

let stats h = h.stats

let uninstall h =
  if h.active then begin
    h.active <- false;
    h.release ()
  end
