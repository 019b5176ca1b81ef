open Fortress_sim
module Sink = Fortress_obs.Sink
module Event = Fortress_obs.Event
module Metrics = Fortress_obs.Metrics

(* A trace tail as the CLI keeps one: the last [capacity] `Info events of
   the engine's sink. *)
let info_tail ?capacity e =
  let keep, read = Sink.memory ?capacity () in
  ignore
    (Sink.attach (Engine.sink e) (fun ~time ev ->
         if Event.verbosity ev = `Info then keep ~time ev));
  read

(* ---- Heap ---- *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~priority:3.0 ~seq:1 "c";
  Heap.push h ~priority:1.0 ~seq:2 "a";
  Heap.push h ~priority:2.0 ~seq:3 "b";
  let pop () = match Heap.pop h with Some (_, _, v) -> v | None -> "empty" in
  Alcotest.(check string) "min first" "a" (pop ());
  Alcotest.(check string) "then" "b" (pop ());
  Alcotest.(check string) "then" "c" (pop ());
  Alcotest.(check string) "empty" "empty" (pop ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~priority:1.0 ~seq:10 "first";
  Heap.push h ~priority:1.0 ~seq:20 "second";
  Heap.push h ~priority:1.0 ~seq:30 "third";
  let pop () = match Heap.pop h with Some (_, _, v) -> v | None -> "empty" in
  Alcotest.(check string) "fifo" "first" (pop ());
  Alcotest.(check string) "fifo" "second" (pop ());
  Alcotest.(check string) "fifo" "third" (pop ())

let test_heap_large_random () =
  let p = Fortress_util.Prng.create ~seed:99 in
  let h = Heap.create () in
  for i = 1 to 1000 do
    Heap.push h ~priority:(Fortress_util.Prng.float p) ~seq:i i
  done;
  Alcotest.(check int) "length" 1000 (Heap.length h);
  let last = ref neg_infinity in
  let ok = ref true in
  for _ = 1 to 1000 do
    match Heap.pop h with
    | Some (pr, _, _) ->
        if pr < !last then ok := false;
        last := pr
    | None -> ok := false
  done;
  Alcotest.(check bool) "sorted drain" true !ok

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h ~priority:5.0 ~seq:1 "x";
  (match Heap.peek h with
  | Some (p, _, v) ->
      Alcotest.(check (float 0.0)) "peek priority" 5.0 p;
      Alcotest.(check string) "peek value" "x" v
  | None -> Alcotest.fail "expected an element");
  Alcotest.(check int) "peek does not remove" 1 (Heap.length h)

(* ---- Engine ---- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> order := "b" :: !order));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := "a" :: !order));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> order := "c" :: !order));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> order := 2 :: !order));
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at same time" [ 1; 2 ] (List.rev !order)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "handle reports cancelled" true (Engine.is_cancelled h)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~delay:0.5 (fun () -> times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested event time" [ 1.0; 1.5 ] (List.rev !times)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> incr count));
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "only first fired" 1 !count;
  Alcotest.(check (float 0.0)) "clock advanced to limit" 5.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "second fires later" 2 !count

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1.0) (fun () -> ())))

let test_engine_schedule_at_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 (fun () -> ())))

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~period:1.0 (fun () -> incr count) in
  ignore (Engine.schedule e ~delay:5.5 (fun () -> Engine.cancel h));
  Engine.run ~until:20.0 e;
  Alcotest.(check int) "fires until cancelled" 5 !count

let test_engine_every_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.every e ~period:1.0 ~until:3.5 (fun () -> incr count));
  Engine.run e;
  Alcotest.(check int) "bounded series" 3 !count

let test_engine_pending () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:1.0 (fun () -> ()) in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel h1;
  Alcotest.(check int) "one live after cancel" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "none after run" 0 (Engine.pending e)

let test_engine_step () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count));
  Alcotest.(check bool) "stepped" true (Engine.step e);
  Alcotest.(check int) "event ran" 1 !count;
  Alcotest.(check bool) "empty" false (Engine.step e)

let test_engine_determinism () =
  let run_once seed =
    let e = Engine.create ~prng:(Fortress_util.Prng.create ~seed) () in
    let log = ref [] in
    for i = 1 to 20 do
      let delay = Fortress_util.Prng.float (Engine.prng e) *. 10.0 in
      ignore (Engine.schedule e ~delay (fun () -> log := (i, Engine.now e) :: !log))
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check bool) "same seed, same execution" true (run_once 5 = run_once 5);
  Alcotest.(check bool) "different seed, different execution" true (run_once 5 <> run_once 6)

let test_engine_cancel_periodic_mid_series () =
  let e = Engine.create () in
  let count = ref 0 in
  let h = Engine.every e ~period:2.0 (fun () -> incr count) in
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "two firings by t=5" 2 !count;
  Engine.cancel h;
  Engine.run ~until:50.0 e;
  Alcotest.(check int) "no firings after cancel" 2 !count

let test_engine_every_invalid_period () =
  let e = Engine.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Engine.every: period must be positive")
    (fun () -> ignore (Engine.every e ~period:0.0 (fun () -> ())))

let test_engine_zero_delay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:0.0 (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "zero-delay event fires" true !fired;
  Alcotest.(check (float 0.0)) "clock unchanged" 0.0 (Engine.now e)

let test_engine_record_reaches_trace () =
  let e = Engine.create () in
  let tail = info_tail e in
  ignore (Engine.schedule e ~delay:3.0 (fun () -> Engine.record e ~label:"evt" "hello"));
  Engine.run e;
  Alcotest.(check int) "counted" 1 (Metrics.find_counter (Engine.metrics e) "events.evt");
  match tail () with
  | [ (time, ev) ] ->
      Alcotest.(check string) "label" "evt" (Event.label ev);
      Alcotest.(check string) "detail" "hello" (Event.detail ev);
      Alcotest.(check (float 0.0)) "stamped at fire time" 3.0 time
  | _ -> Alcotest.fail "expected exactly one entry"

let test_engine_run_until_exact_boundary () =
  (* an event exactly at the limit is executed, not stranded *)
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := true));
  Engine.run ~until:10.0 e;
  Alcotest.(check bool) "boundary event fires" true !fired

(* ---- Trace: the engine's sink, read through Sink.memory and counted
   into the engine's metrics ---- *)

let note e ~time label detail = Sink.emit (Engine.sink e) ~time (Event.Note { label; detail })
let details tail = List.map (fun (_, ev) -> Event.detail ev) (tail ())

let test_trace_record () =
  let e = Engine.create () in
  let tail = info_tail e in
  note e ~time:1.0 "a" "first";
  Sink.emit (Engine.sink e) ~time:1.5 (Event.Msg_delivered { src = 0; dst = 1 });
  note e ~time:2.0 "b" "second";
  match tail () with
  | [ (_, e1); (_, e2) ] ->
      Alcotest.(check string) "order" "a" (Event.label e1);
      Alcotest.(check string) "order" "b" (Event.label e2)
  | l -> Alcotest.failf "expected the two `Info entries, got %d" (List.length l)

let test_trace_ring_eviction () =
  let e = Engine.create () in
  let tail = info_tail ~capacity:3 e in
  for i = 1 to 5 do
    note e ~time:(float_of_int i) "t" (string_of_int i)
  done;
  Alcotest.(check int) "emitted" 5 (Sink.emitted (Engine.sink e));
  Alcotest.(check (list string)) "last three retained" [ "3"; "4"; "5" ] (details tail)

let test_trace_counters () =
  let e = Engine.create () in
  Engine.record e ~label:"probes" "";
  Engine.record e ~label:"probes" "";
  Engine.record e ~label:"crashes" "";
  let count name = Metrics.find_counter (Engine.metrics e) name in
  Alcotest.(check int) "probes" 2 (count "events.probes");
  Alcotest.(check int) "crashes" 1 (count "events.crashes");
  Alcotest.(check int) "missing" 0 (count "events.nothing")

let test_trace_wraparound_ordering () =
  (* after several full wraps, entries still come back oldest first *)
  let e = Engine.create () in
  let tail = info_tail ~capacity:4 e in
  for i = 1 to 11 do
    note e ~time:(float_of_int i) "w" (string_of_int i)
  done;
  Alcotest.(check (list string)) "oldest-to-newest across the wrap"
    [ "8"; "9"; "10"; "11" ] (details tail);
  let times = List.map fst (tail ()) in
  Alcotest.(check bool) "times non-decreasing" true (List.sort compare times = times)

let test_trace_counters_survive_eviction () =
  (* the tail forgets, the counters do not *)
  let e = Engine.create () in
  let tail = info_tail ~capacity:2 e in
  for i = 1 to 50 do
    note e ~time:(float_of_int i) "probe" "sent"
  done;
  Alcotest.(check int) "only capacity entries retained" 2 (List.length (tail ()));
  Alcotest.(check int) "all records counted" 50
    (Metrics.find_counter (Engine.metrics e) "events.probe")

let test_trace_dump_limit () =
  let e = Engine.create () in
  let tail = info_tail ~capacity:2 e in
  for i = 1 to 10 do
    note e ~time:(float_of_int i) "x" (string_of_int i)
  done;
  Alcotest.(check (list string)) "last two lines, fixed layout"
    [ "[    9.0000] x                  9"; "[   10.0000] x                  10" ]
    (List.map (fun (time, ev) -> Event.text_line ~time ev) (tail ()))

let () =
  Alcotest.run "fortress_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "large random drain" `Quick test_heap_large_random;
          Alcotest.test_case "peek" `Quick test_heap_peek;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo at same instant" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancellation" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at past rejected" `Quick test_engine_schedule_at_past;
          Alcotest.test_case "periodic events" `Quick test_engine_every;
          Alcotest.test_case "periodic with until" `Quick test_engine_every_until;
          Alcotest.test_case "pending count" `Quick test_engine_pending;
          Alcotest.test_case "single step" `Quick test_engine_step;
          Alcotest.test_case "seeded determinism" `Quick test_engine_determinism;
          Alcotest.test_case "cancel periodic mid-series" `Quick
            test_engine_cancel_periodic_mid_series;
          Alcotest.test_case "every invalid period" `Quick test_engine_every_invalid_period;
          Alcotest.test_case "zero delay" `Quick test_engine_zero_delay;
          Alcotest.test_case "record reaches trace" `Quick test_engine_record_reaches_trace;
          Alcotest.test_case "run until exact boundary" `Quick
            test_engine_run_until_exact_boundary;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record and read" `Quick test_trace_record;
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
          Alcotest.test_case "counters" `Quick test_trace_counters;
          Alcotest.test_case "wraparound ordering" `Quick test_trace_wraparound_ordering;
          Alcotest.test_case "counters survive eviction" `Quick
            test_trace_counters_survive_eviction;
          Alcotest.test_case "dump limit" `Quick test_trace_dump_limit;
        ] );
    ]
