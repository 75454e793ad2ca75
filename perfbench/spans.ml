(* The benchmark's own in-memory trace: one span per call into a layer,
   timed from outside the program.  Spans carry a parent and a request
   id; a layer's self time is a span's duration minus the part of it its
   children cover, summed over the layer's spans.  Everything is written
   out once, at the end of the run. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  req : int;  (** request or rep the span belongs to *)
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable kids : (int, span list) Hashtbl.t option;  (** parent index *)
}

let create () = { spans = []; next = 0; kids = None }

let add t ~parent ~req ~layer name t0 t1 =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; req; name; layer; t0; t1 } :: t.spans;
  t.kids <- None;
  id

(* Reserve an id for a span whose end is not known yet, so children can
   name it as their parent; [close] records it. *)
let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

let close t ~id ~parent ~req ~layer name t0 t1 =
  t.spans <- { id; parent; req; name; layer; t0; t1 } :: t.spans;
  t.kids <- None

let timed t ~parent ~req ~layer name f =
  let t0 = Util.now () in
  let r = f () in
  ignore (add t ~parent ~req ~layer name t0 (Util.now ()));
  r

let children t id =
  let idx =
    match t.kids with
    | Some idx -> idx
    | None ->
        let idx = Hashtbl.create 256 in
        List.iter
          (fun s ->
            Hashtbl.replace idx s.parent
              (s :: Option.value (Hashtbl.find_opt idx s.parent) ~default: []))
          t.spans;
        t.kids <- Some idx;
        idx
  in
  Option.value (Hashtbl.find_opt idx id) ~default: []

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. Float.max a reach), b))
      (0., neg_infinity) clipped
  in
  total

let self_time t s =
  let kids = children t s.id |> List.map (fun c -> (c.t0, c.t1)) in
  s.t1 -. s.t0 -. covered ~lo: s.t0 ~hi: s.t1 kids

let rec subtree t s = s :: List.concat_map (subtree t) (children t s.id)

(* Self time per layer over the subtree rooted at [root]. *)
let layer_self t root =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt acc s.layer) ~default: 0. in
      Hashtbl.replace acc s.layer (prev +. self_time t s))
    (subtree t root);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

(* How far the layer self times of one traced rep or request may sum
   away from its wall time before the run counts as failed. *)
let tolerance = 0.02

(* Reconciliation: |Σ layer self − wall| / wall.  Children that overlap
   each other or spill out of their parent make the sum fall short of
   the wall, so this checks clocks read in different places (the
   benchmark's callbacks and the runtime's own timeline) against each
   other. *)
let error_of ~wall layers =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  if wall <= 0. then 0. else Float.abs (total -. wall) /. wall

let reconcile_err t root = error_of ~wall: (root.t1 -. root.t0) (layer_self t root)

let find t id = List.find (fun s -> s.id = id) t.spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write t path =
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity t.spans
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%s,\"layer\":%s,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f}\n"
            (if i = 0 then " " else ",")
            s.id s.parent s.req (json_string s.name) (json_string s.layer)
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. base) *. 1e6)
            (self_time t s *. 1e6))
        (List.rev t.spans);
      output_string oc "]\n")

(* Self time per layer along one path of a parallel fan-out: [root]
   counts only [child] as covering it (its other children ran
   concurrently), plus [child]'s whole subtree.  This is how a traced
   rep splits along its slowest rank. *)
let layer_self_path t root child =
  let c = find t child in
  let root_self =
    root.t1 -. root.t0 -. covered ~lo: root.t0 ~hi: root.t1 [ (c.t0, c.t1) ]
  in
  let acc = Hashtbl.create 8 in
  Hashtbl.replace acc root.layer root_self;
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt acc s.layer) ~default: 0. in
      Hashtbl.replace acc s.layer (prev +. self_time t s))
    (subtree t c);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

