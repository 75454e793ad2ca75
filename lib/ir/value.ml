(* SSA values.  Identity is the numeric id; the type travels with the value so
   that, per the paper's design, any operation using stencil-related types can
   read bounds information directly off its operands. *)

type t = { id : int; ty : Typesys.ty }

(* Process-wide id source.  Atomic because several domains build IR at
   once (the compile daemon's connection domains and its batch worker):
   a plain [ref] let two of them mint the same id, and the id-keyed tables
   of the lowerings then conflate distinct values. *)
let counter = Atomic.make 0

let fresh ty = { id = Atomic.fetch_and_add counter 1 + 1; ty }

(* Used only by the parser, which must materialize values with the ids
   appearing in the source text.  The counter only ever moves up (a
   CAS-max), so a concurrent [fresh] never hands out [id] afterwards. *)
let with_id id ty =
  let rec bump () =
    let cur = Atomic.get counter in
    if id > cur && not (Atomic.compare_and_set counter cur id) then bump ()
  in
  bump ();
  { id; ty }

let id v = v.id
let ty v = v.ty
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash v = v.id

let pp fmt v = Format.fprintf fmt "%%%d" v.id
let pp_typed fmt v = Format.fprintf fmt "%%%d : %a" v.id Typesys.pp_ty v.ty

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
