(** Boundary-staged control: the one kernel behind both observe–decide–act
    loops (the attacker's campaigns and the defender's controller).

    A directive is a sparse override. Directives are {e staged} whenever
    they are decided, merged field-wise with the later stage winning, and
    {e applied} only at the next decision boundary, so a mid-step decision
    can never perturb the schedule already armed for the step — the
    property that keeps adaptive runs deterministic and job-count
    invariant. Applying emits one {!Fortress_obs.Event.Directive} when,
    and only when, a setting actually moved, so a loop that never acts
    leaves the event trace byte-identical. *)

type 'd t

val create : Engine.t -> label:string -> unchanged:'d -> merge:('d -> 'd -> 'd) -> 'd t
(** [label] tags emitted events (the [strategy] field). [merge prev next]
    must let [next] win wherever it sets a field; [unchanged] is its
    identity. *)

val set_label : 'd t -> string -> unit

val stage : 'd t -> 'd -> unit
(** Queue a directive for the next boundary. Staging [unchanged] is a
    no-op. *)

val apply : 'd t -> step:int -> ('d -> string list) -> unit
(** At a boundary: take the staged directive (if any) and hand it to the
    act function, which moves the live settings and returns one detail
    per setting that moved. When it returns any, count an applied
    directive and emit one [Directive] event at [step]. *)

val move : 'a option -> current:'a -> set:('a -> unit) -> ('a -> string) -> string list
(** [move requested ~current ~set show] — the act step for one plain
    setting: set it when [requested] differs from [current] and return
    its detail, otherwise return nothing. *)

val applied : 'd t -> int
(** Boundaries at which a staged directive moved at least one setting. *)
