(** What an adaptive strategy asks the campaign to change.

    A directive is a sparse override: [None] fields leave the current
    setting alone. Directives are {e staged} when decided and {e applied}
    only at the next step boundary, so a mid-step decision can never
    perturb the probes already scheduled for the step — the property that
    keeps adaptive trials deterministic and job-count invariant. *)

type launchpad = Within_step | Next_step

let launchpad_to_string = function Within_step -> "within-step" | Next_step -> "next-step"

type t = {
  kappa : float option;  (** new indirect split of the omega budget, in [0,1] *)
  exclude : Fortress_model.Node_id.t list option;
      (** nodes to steer probes away from; [Some []] clears all exclusions *)
  pacing : Pacing.t option;
  launchpad : launchpad option;
}

let unchanged = { kappa = None; exclude = None; pacing = None; launchpad = None }
let is_unchanged d = d = unchanged

let make ?kappa ?exclude ?pacing ?launchpad () = { kappa; exclude; pacing; launchpad }

(* [merge prev next]: field-wise, [next] wins where it is [Some] *)
let merge prev next =
  let pick n p = match n with Some _ -> n | None -> p in
  {
    kappa = pick next.kappa prev.kappa;
    exclude = pick next.exclude prev.exclude;
    pacing = pick next.pacing prev.pacing;
    launchpad = pick next.launchpad prev.launchpad;
  }

(* The tier mask an [exclude] list asks for over [n] nodes, [index]
   picking out the nodes of that tier. Never excludes everything: an
   attacker with no targets left falls back to the full set. *)
let exclusion_mask ~n index nodes =
  let mask = Array.make (max n 1) false in
  List.iter
    (fun node -> match index node with Some i when i >= 0 && i < n -> mask.(i) <- true | _ -> ())
    nodes;
  if Array.for_all Fun.id mask then Array.fill mask 0 (Array.length mask) false;
  mask

(* ["exclude=none"], or e.g. ["exclude=proxy0+proxy2"] *)
let exclusion_detail ~tier mask =
  let named = ref [] in
  for i = Array.length mask - 1 downto 0 do
    if mask.(i) then named := (tier ^ string_of_int i) :: !named
  done;
  if !named = [] then "exclude=none" else "exclude=" ^ String.concat "+" !named

let to_string d =
  if is_unchanged d then "unchanged"
  else
    String.concat ", "
      (List.concat
         [
           (match d.kappa with Some k -> [ Printf.sprintf "kappa=%g" k ] | None -> []);
           (match d.exclude with
           | Some [] -> [ "exclude=none" ]
           | Some nodes ->
               [
                 "exclude="
                 ^ String.concat "+" (List.map Fortress_model.Node_id.to_string nodes);
               ]
           | None -> []);
           (match d.pacing with Some p -> [ "pacing=" ^ Pacing.to_string p ] | None -> []);
           (match d.launchpad with
           | Some l -> [ "launchpad=" ^ launchpad_to_string l ]
           | None -> []);
         ])
