type 'd t = {
  engine : Engine.t;
  mutable label : string;
  unchanged : 'd;
  merge : 'd -> 'd -> 'd;
  mutable staged : 'd;
  mutable applied : int;
}

let create engine ~label ~unchanged ~merge =
  { engine; label; unchanged; merge; staged = unchanged; applied = 0 }

let set_label t label = t.label <- label
let stage t d = if d <> t.unchanged then t.staged <- t.merge t.staged d

let apply t ~step act =
  let d = t.staged in
  if d <> t.unchanged then begin
    t.staged <- t.unchanged;
    match act d with
    | [] -> ()
    | moved ->
        t.applied <- t.applied + 1;
        Engine.emit t.engine
          (Fortress_obs.Event.Directive
             { step; strategy = t.label; detail = String.concat ", " moved })
  end

let move requested ~current ~set show =
  match requested with
  | Some v when v <> current ->
      set v;
      [ show v ]
  | _ -> []

let applied t = t.applied
