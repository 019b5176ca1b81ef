module Keyspace = Fortress_defense.Keyspace
module Prng = Fortress_util.Prng

(* The tried set starts as a hash set, so creating or voiding knowledge
   allocates nothing chi-sized. Once a sixteenth of the keys are ruled out
   it becomes a byte per key plus a Fenwick tree over the untried indicator:
   [fenwick.(i)] (1-based) counts the untried keys in [i - (i land -i), i),
   and [top], the largest power of two [<= n], is where the top-down
   descent to the j-th untried key starts. *)
type tried =
  | Sparse of (int, unit) Hashtbl.t
  | Dense of { bitmap : Bytes.t; fenwick : int array; top : int }

type t = {
  ks : Keyspace.t;
  n : int;
  mutable tried : tried;
  mutable eliminated : int;
  mutable key : int option;
}

let dense_fraction = 16
let fresh_tried () = Sparse (Hashtbl.create 64)

let create ks =
  { ks; n = Keyspace.size ks; tried = fresh_tried (); eliminated = 0; key = None }

let keyspace t = t.ks
let eliminated t = t.eliminated
let remaining t = t.n - t.eliminated
let known_key t = t.key

let is_tried t g =
  match t.tried with
  | Sparse h -> Hashtbl.mem h g
  | Dense d -> Bytes.unsafe_get d.bitmap g <> '\000'

let densify n h =
  let bitmap = Bytes.make n '\000' in
  Hashtbl.iter (fun g () -> Bytes.set bitmap g '\001') h;
  let fenwick = Array.make (n + 1) 0 in
  for i = 1 to n do
    if Bytes.get bitmap (i - 1) = '\000' then fenwick.(i) <- fenwick.(i) + 1;
    let parent = i + (i land -i) in
    if parent <= n then fenwick.(parent) <- fenwick.(parent) + fenwick.(i)
  done;
  let rec top p = if 2 * p <= n then top (2 * p) else p in
  Dense { bitmap; fenwick; top = top 1 }

(* The j-th untried key in ascending order (0-based), found as the largest
   [pos] with at most [j] untried keys below it — what walking the key
   space and skipping [j] untried keys returns. Needs [j < remaining]. *)
let rec descend fenwick n pos j step =
  if step = 0 then pos
  else
    let next = pos + step in
    if next <= n && fenwick.(next) <= j then
      descend fenwick n next (j - fenwick.(next)) (step lsr 1)
    else descend fenwick n pos j (step lsr 1)

(* Take key [i - 1] out of the untried counts. *)
let rec mark_tried fenwick n i =
  if i <= n then begin
    fenwick.(i) <- fenwick.(i) - 1;
    mark_tried fenwick n (i + (i land -i))
  end

let rec draw_untried t prng =
  let g = Prng.int prng ~bound:t.n in
  if is_tried t g then draw_untried t prng else g

let next_guess t prng =
  match t.key with
  | Some _ as k -> k
  | None ->
      let n = t.n in
      let left = remaining t in
      if left <= 0 then
        (* every key eliminated with none confirmed: only possible when the
           target changed keys under us (e.g. missed a rekey signal under
           faults) — the attacker is exhausted, not the program wrong *)
        None
      else if left > n / 2 then
        (* rejection sampling is cheap while most keys are untried *)
        Some (draw_untried t prng)
      else
        (* few keys left: the j-th untried key. More than n/16 keys are
           eliminated by now, so the set is dense. *)
        match t.tried with
        | Dense d -> Some (descend d.fenwick n 0 (Prng.int prng ~bound:left) d.top)
        | Sparse _ -> assert false

let check_guess t name guess =
  if guess < 0 || guess >= t.n then
    invalid_arg
      (Printf.sprintf "Knowledge.%s: guess %d outside the key space [0, %d)" name guess t.n)

let observe_crash t ~guess =
  check_guess t "observe_crash" guess;
  match t.tried with
  | Sparse h ->
      if not (Hashtbl.mem h guess) then begin
        Hashtbl.replace h guess ();
        t.eliminated <- t.eliminated + 1;
        if t.eliminated * dense_fraction >= t.n then t.tried <- densify t.n h
      end
  | Dense d ->
      if Bytes.unsafe_get d.bitmap guess = '\000' then begin
        Bytes.unsafe_set d.bitmap guess '\001';
        t.eliminated <- t.eliminated + 1;
        mark_tried d.fenwick t.n (guess + 1)
      end

let observe_intrusion t ~guess =
  check_guess t "observe_intrusion" guess;
  t.key <- Some guess

let on_target_rekeyed t =
  t.tried <- fresh_tried ();
  t.eliminated <- 0;
  t.key <- None

let on_target_recovered _ = ()
