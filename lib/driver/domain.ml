(* Host-side domain decomposition helpers: scatter a global field into
   rank-local buffers (halos included) and gather rank interiors back.  Used
   by examples, tests and benchmarks to set up and check distributed runs. *)

open Ir

let rank_coords ~grid rank =
  let strides = Core.Dmp_to_mpi.grid_strides grid in
  List.map2 (fun g s -> rank / s mod g) grid strides

module R = Interp.Rtval

(* Copy the box of [src]'s logical coordinates [start, start + size) to
   [dst] at [start + shift]: the box is bounds-checked once on both sides
   (out of range raises [Runtime_error], before anything is written), then
   copied with one [Array.blit] per innermost row. *)
let copy_box ~(src : R.buffer) ~(dst : R.buffer) ~start ~size ~shift =
  let rank = Array.length size in
  let dims (b : R.buffer) what =
    let shape = Array.of_list b.R.shape and lo = Array.of_list b.R.lo in
    if Array.length shape <> rank || Array.length lo <> rank then
      R.error "%s: rank %d buffer for a rank %d box" what (Array.length shape)
        rank;
    (shape, lo)
  in
  let sshape, slo = dims src "gather/scatter source" in
  let dshape, dlo = dims dst "gather/scatter destination" in
  if Array.for_all (fun n -> n > 0) size then begin
    let offset shape lo (c : int array) name =
      let st =
        Array.of_list (Core.Dmp_to_mpi.grid_strides (Array.to_list shape))
      in
      let off = ref 0 in
      for d = 0 to rank - 1 do
        let i = c.(d) - lo.(d) in
        if i < 0 || i + size.(d) > shape.(d) then
          R.error
            "%s box [%d, %d) out of bounds [%d, %d) in dimension %d" name
            c.(d) (c.(d) + size.(d)) lo.(d) (lo.(d) + shape.(d)) d;
        off := !off + (i * st.(d))
      done;
      (!off, st)
    in
    let src_off, src_strides = offset sshape slo start "source" in
    let dst_off, dst_strides =
      offset dshape dlo (Array.map2 ( + ) start shift) "destination"
    in
    R.blit_strided ~src ~dst ~sizes: size ~src_off ~src_strides ~dst_off
      ~dst_strides
  end

(* Allocate the local buffer for [rank] of a field with [local_bounds],
   filling every point (interior and halo) from the global buffer where the
   corresponding global coordinate exists, and 0 elsewhere. *)
let scatter_field ~(global : R.buffer) ~grid
    ~(local_bounds : Typesys.bound list) ~rank : R.buffer =
  let coords = rank_coords ~grid rank in
  (* Ghost margins are symmetric ([lo, hi) = [-m, n_loc + m)), so the local
     interior extent per dimension is hi + lo. *)
  let interior =
    List.map
      (fun (b : Typesys.bound) -> b.Typesys.hi + b.Typesys.lo)
      local_bounds
  in
  let shape = List.map Typesys.bound_size local_bounds in
  let lo = List.map (fun (b : Typesys.bound) -> b.Typesys.lo) local_bounds in
  let local = R.alloc_buffer ~lo shape global.R.elt in
  let offset = Array.of_list (List.map2 (fun c n -> c * n) coords interior) in
  (* The part of the local box whose global coordinates exist, in global
     coordinates: the local box shifted by the rank's offset, clipped to
     the global one. *)
  let clip l s gl gs o = (max (l + o) gl, min (l + o + s) (gl + gs)) in
  let ranges =
    Array.of_list
      (List.mapi
         (fun d ((l, s), (gl, gs)) -> clip l s gl gs offset.(d))
         (List.combine
            (List.combine lo shape)
            (List.combine global.R.lo global.R.shape)))
  in
  copy_box ~src: global ~dst: local
    ~start: (Array.map fst ranges)
    ~size: (Array.map (fun (a, b) -> b - a) ranges)
    ~shift: (Array.map ( ~- ) offset);
  local

(* Copy the interior [0, interior) of [local] into the global buffer at this
   rank's offset.  [origin] shifts local coordinates for buffers whose
   logical origin was rebased to zero after lowering (pass the halo width
   per dimension). *)
let gather_interior ?origin ~(global : R.buffer) ~(local : R.buffer) ~grid
    ~(interior : int list) ~rank () : unit =
  let coords = rank_coords ~grid rank in
  let offset = List.map2 (fun c n -> c * n) coords interior in
  let origin =
    match origin with Some o -> o | None -> List.map (fun _ -> 0) interior
  in
  copy_box ~src: local ~dst: global ~start: (Array.of_list origin)
    ~size: (Array.of_list interior)
    ~shift: (Array.of_list (List.map2 ( - ) offset origin))

(* Local bounds of a distributed function's field arguments, read straight
   off the (already localized) types. *)
let field_arg_bounds (fop : Op.t) : Typesys.bound list list =
  let arg_tys, _ = Dialects.Func.signature_of fop in
  List.filter_map Typesys.bounds_of arg_tys

(* After full lowering the signature's field types have been converted to
   memrefs, so the localized bounds are no longer recoverable from the
   types alone; the distribution pass preserves them in the
   dmp.local_fields attribute.  Fall back to the signature for modules
   that still carry field types (e.g. a distributed-but-unlowered module). *)
let local_field_bounds (fop : Op.t) : Typesys.bound list list =
  match Op.attr fop "dmp.local_fields" with
  | Some (Typesys.Type_attr (Typesys.Fn (arg_tys, _))) ->
      List.filter_map Typesys.bounds_of arg_tys
  | _ -> field_arg_bounds fop

let topology_of (fop : Op.t) : int list =
  match Op.attr fop "dmp.topology" with
  | Some (Typesys.Grid_attr g) -> g
  | _ -> Op.ill_formed "function has no dmp.topology attribute"
