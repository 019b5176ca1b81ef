type subscriber = time:float -> Event.t -> unit
type handle = int

type t = {
  mutable subs : (handle * subscriber) list;  (** attachment order *)
  mutable next_handle : int;
  mutable emitted : int;
}

let create () = { subs = []; next_handle = 0; emitted = 0 }

let attach t sub =
  t.next_handle <- t.next_handle + 1;
  t.subs <- t.subs @ [ (t.next_handle, sub) ];
  t.next_handle

let detach t handle = t.subs <- List.filter (fun (h, _) -> h <> handle) t.subs
let subscriber_count t = List.length t.subs

let emit t ~time ev =
  t.emitted <- t.emitted + 1;
  List.iter (fun (_, sub) -> sub ~time ev) t.subs

let emitted t = t.emitted
let forward downstream ~time ev = emit downstream ~time ev

(* ---- stock subscribers ---- *)

let counting metrics =
  (* cache handles so the steady state is one Hashtbl lookup per event *)
  let by_label = Hashtbl.create 16 in
  let counter_for name =
    match Hashtbl.find_opt by_label name with
    | Some c -> c
    | None ->
        let c = Metrics.counter metrics name in
        Hashtbl.replace by_label name c;
        c
  in
  fun ~time:_ ev ->
    Metrics.incr (counter_for ("events." ^ Event.label ev));
    match ev with
    | Event.Probe { kind; outcome; _ } ->
        Metrics.incr (counter_for ("probe." ^ Event.kind_to_string kind));
        Metrics.incr (counter_for ("probe." ^ Event.outcome_to_string outcome))
    | _ -> ()

let memory ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Sink.memory: capacity must be positive";
  let ring = Array.make capacity None in
  let next = ref 0 in
  let stored = ref 0 in
  let sub ~time ev =
    ring.(!next) <- Some (time, ev);
    next := (!next + 1) mod capacity;
    incr stored
  in
  let read () =
    let retained = min !stored capacity in
    let start = if !stored <= capacity then 0 else !next in
    List.init retained (fun i ->
        match ring.((start + i) mod capacity) with
        | Some e -> e
        | None -> assert false)
  in
  (sub, read)

let line ~time ev =
  let buf = Buffer.create 128 in
  Event.add_jsonl buf ~time ev;
  Buffer.contents buf

let jsonl write ~time ev = write (line ~time ev)

(* Channel writers render into one buffer per subscriber, reused line to
   line. *)
let jsonl_channel oc =
  let buf = Buffer.create 256 in
  fun ~time ev ->
    Buffer.clear buf;
    Event.add_jsonl buf ~time ev;
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf

let file path =
  let oc = open_out path in
  let write = jsonl_channel oc in
  let closed = ref false in
  let sub ~time ev = if not !closed then write ~time ev in
  let close () =
    if not !closed then begin
      closed := true;
      flush oc;
      close_out oc
    end
  in
  (sub, close)

(* FNV-1a 64-bit, kept here (not in crypto) so determinism checks need no
   extra deps. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* A plain loop over a local accumulator, so the Int64 stays unboxed. *)
let fnv_bytes h bytes len =
  let acc = ref h in
  for i = 0 to len - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (Bytes.unsafe_get bytes i))))
        fnv_prime
  done;
  !acc

let fnv_newline h = Int64.mul (Int64.logxor h 0x0AL) fnv_prime

let fnv_line h s =
  fnv_newline (fnv_bytes h (Bytes.unsafe_of_string s) (String.length s))

let fnv_hex h = Printf.sprintf "%016Lx" h

let digesting () =
  (* FNV-1a over the JSONL rendering of every event, newline included, so
     the digest equals a hash of the equivalent trace file. Each line is
     rendered into a reused buffer and hashed from a reused copy of its
     bytes; no per-event string is built. *)
  let buf = Buffer.create 256 in
  let bytes = ref (Bytes.create 256) in
  let h = ref fnv_offset in
  let sub ~time ev =
    Buffer.clear buf;
    Event.add_jsonl buf ~time ev;
    let len = Buffer.length buf in
    if Bytes.length !bytes < len then bytes := Bytes.create (2 * len);
    Buffer.blit buf 0 !bytes 0 len;
    h := fnv_newline (fnv_bytes !h !bytes len)
  in
  (sub, fun () -> fnv_hex !h)

let digest_lines lines = fnv_hex (List.fold_left fnv_line fnv_offset lines)

let buffered ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Sink.buffered: capacity must be positive";
  (* growable arena, not a cons list: parallel joins replay thousands of
     these per campaign, and list-cons + List.rev churned two cells per
     event. The backing array is only allocated on the first event, so an
     attached-but-silent recorder costs one ref. *)
  let buf = ref [||] in
  let count = ref 0 in
  let sub ~time ev =
    let cap = Array.length !buf in
    if !count = cap then begin
      let grown = Array.make (if cap = 0 then capacity else 2 * cap) None in
      Array.blit !buf 0 grown 0 cap;
      buf := grown
    end;
    !buf.(!count) <- Some (time, ev);
    incr count
  in
  let replay downstream =
    for i = 0 to !count - 1 do
      match !buf.(i) with
      | Some (time, ev) -> emit downstream ~time ev
      | None -> assert false
    done
  in
  (sub, replay)

let parse_line s =
  match Json.parse s with
  | Error e -> Error e
  | Ok json -> (
      match Event.of_json json with
      | Error e -> Error e
      | Ok ev ->
          let time =
            Option.value ~default:0.0 (Option.bind (Json.member "t" json) Json.num)
          in
          Ok (time, ev))
