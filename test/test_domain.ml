(* Edge-case tests for the host-side scatter/gather decomposition helpers
   (Driver.Domain): non-divisible extents, 1-cell slabs, 3D grids,
   boundary halos and rebased gathers. *)

open Ir

let check = Alcotest.check
let float_c = Alcotest.float 1e-12

(* A global buffer with symmetric ghost margins [margin] and interior
   [extents], filled with a coordinate-identifying pattern.  Logical
   coordinates run [-margin, extent + margin) per dimension. *)
let make_global ~margin ~extents =
  let lo = List.map (fun _ -> -margin) extents in
  let shape = List.map (fun n -> n + (2 * margin)) extents in
  let b = Interp.Rtval.alloc_buffer ~lo shape Typesys.f64 in
  Interp.Rtval.fill b (fun i -> float_of_int i *. 0.5);
  b

let local_bounds ~margin ~interior ~grid =
  List.map2
    (fun n parts -> Typesys.{ lo = -margin; hi = (n / parts) + margin })
    interior grid

(* Scatter to every rank, then gather every interior back into a zeroed
   copy; the interiors must round-trip exactly. *)
let roundtrip ~margin ~extents ~grid =
  let global = make_global ~margin ~extents in
  let lb = local_bounds ~margin ~interior: extents ~grid in
  let interior = List.map2 (fun n parts -> n / parts) extents grid in
  let back =
    Interp.Rtval.alloc_buffer ~lo: global.Interp.Rtval.lo
      global.Interp.Rtval.shape global.Interp.Rtval.elt
  in
  let ranks = List.fold_left ( * ) 1 grid in
  for rank = 0 to ranks - 1 do
    let local =
      Driver.Domain.scatter_field ~global ~grid ~local_bounds: lb ~rank
    in
    Driver.Domain.gather_interior ~global: back ~local ~grid ~interior ~rank ()
  done;
  (global, back, interior)

let check_interior_equal ~what (global, back, _interior) ~extents =
  let rec nest dims coords =
    match dims with
    | [] ->
        let c = List.rev coords in
        check float_c
          (Printf.sprintf "%s %s" what
             (String.concat "," (List.map string_of_int c)))
          (Interp.Rtval.as_float (Interp.Rtval.get global c))
          (Interp.Rtval.as_float (Interp.Rtval.get back c))
    | n :: rest ->
        for i = 0 to n - 1 do
          nest rest (i :: coords)
        done
  in
  nest extents []

let test_roundtrip_2d () =
  let extents = [ 8; 8 ] in
  check_interior_equal ~what: "2x2"
    (roundtrip ~margin: 1 ~extents ~grid: [ 2; 2 ])
    ~extents

let test_roundtrip_3d () =
  (* A full 3D decomposition: 2x2x2 ranks over an 8x4x6 box. *)
  let extents = [ 8; 4; 6 ] in
  check_interior_equal ~what: "2x2x2"
    (roundtrip ~margin: 2 ~extents ~grid: [ 2; 2; 2 ])
    ~extents

let test_one_cell_slabs () =
  (* Grid 4 over extent 4: every rank owns a single 1-cell-wide slab, so
     each local buffer is pure halo except one line. *)
  let extents = [ 4; 6 ] in
  check_interior_equal ~what: "1-cell slab"
    (roundtrip ~margin: 1 ~extents ~grid: [ 4; 1 ])
    ~extents

let test_non_divisible_rejected () =
  (* The decomposition is compile-time-bounds based: extents that do not
     divide evenly across the grid are rejected, not silently truncated. *)
  (try
     ignore (Core.Decomposition.local_interior ~interior: [ 10; 16 ] ~grid: [ 3; 2 ]);
     Alcotest.fail "expected Ill_formed"
   with Op.Ill_formed msg ->
     check Alcotest.bool "names the extent"
       true
       (String.length msg > 0));
  (* And end-to-end through the distribution pass. *)
  let m = Programs.heat2d_timeloop_module ~nx: 15 ~ny: 16 ~steps: 1 in
  match
    Core.Distribute.run
      (Core.Distribute.options ~ranks: 4 ~strategy: Core.Decomposition.Slice2d ())
      m
  with
  | _ -> Alcotest.fail "expected Ill_formed from distribution"
  | exception Op.Ill_formed _ -> ()

let test_boundary_halo_zero () =
  (* Halo cells that fall outside the global domain are zero-filled;
     halo cells inside it take the neighbour's values. *)
  let extents = [ 4; 4 ] in
  let global = make_global ~margin: 0 ~extents in
  let lb = local_bounds ~margin: 1 ~interior: extents ~grid: [ 2; 1 ] in
  let local0 =
    Driver.Domain.scatter_field ~global ~grid: [ 2; 1 ] ~local_bounds: lb
      ~rank: 0
  in
  (* Rank 0's low-side halo row (-1) is outside the global buffer. *)
  check float_c "outside halo is zero" 0.
    (Interp.Rtval.as_float (Interp.Rtval.get local0 [ -1; 0 ]));
  (* Its high-side halo row (2) is rank 1's first interior row. *)
  check float_c "interior halo from neighbour"
    (Interp.Rtval.as_float (Interp.Rtval.get global [ 2; 0 ]))
    (Interp.Rtval.as_float (Interp.Rtval.get local0 [ 2; 0 ]))

let test_rebased_gather_origin () =
  (* Lowered code rebases locals to lo = 0; gather_interior's [origin]
     shifts coordinates back by the halo width. *)
  let extents = [ 4; 4 ] in
  let global = make_global ~margin: 0 ~extents in
  let lb = local_bounds ~margin: 1 ~interior: extents ~grid: [ 2; 2 ] in
  let interior = [ 2; 2 ] in
  let back =
    Interp.Rtval.alloc_buffer ~lo: global.Interp.Rtval.lo
      global.Interp.Rtval.shape global.Interp.Rtval.elt
  in
  for rank = 0 to 3 do
    let local =
      Driver.Domain.scatter_field ~global ~grid: [ 2; 2 ] ~local_bounds: lb
        ~rank
    in
    (* Rebase: same data, logical origin moved to 0. *)
    let rebased =
      { local with Interp.Rtval.lo = List.map (fun _ -> 0) local.Interp.Rtval.lo }
    in
    Driver.Domain.gather_interior ~origin: [ 1; 1 ] ~global: back
      ~local: rebased ~grid: [ 2; 2 ] ~interior ~rank ()
  done;
  check_interior_equal ~what: "rebased" (global, back, interior) ~extents

(* --- property: row-blit scatter/gather == the per-element definition --- *)

module R = Interp.Rtval

(* Every logical coordinate of a box, row-major. *)
let box_coords ~lo ~shape =
  List.fold_right
    (fun (l, n) acc ->
      List.concat_map (fun i -> List.map (fun c -> i :: c) acc)
        (List.init n (fun k -> l + k)))
    (List.combine lo shape) [ [] ]

(* The per-element definitions the bulk copies must agree with. *)
let scatter_ref ~(global : R.buffer) ~grid
    ~(local_bounds : Typesys.bound list) ~rank =
  let interior = List.map (fun (b : Typesys.bound) -> b.hi + b.lo) local_bounds in
  let offset = List.map2 ( * ) (Driver.Domain.rank_coords ~grid rank) interior in
  let lo = List.map (fun (b : Typesys.bound) -> b.lo) local_bounds in
  let shape = List.map Typesys.bound_size local_bounds in
  let local = R.alloc_buffer ~lo shape global.R.elt in
  List.iter
    (fun c ->
      let g = List.map2 ( + ) c offset in
      if List.for_all2 (fun x (l, n) -> x >= l && x < l + n) g
           (List.combine global.R.lo global.R.shape)
      then R.set local c (R.get global g))
    (box_coords ~lo ~shape);
  local

let gather_ref ~origin ~(global : R.buffer) ~(local : R.buffer) ~grid
    ~interior ~rank =
  let offset = List.map2 ( * ) (Driver.Domain.rank_coords ~grid rank) interior in
  List.iter
    (fun c ->
      R.set global (List.map2 ( + ) c offset)
        (R.get local (List.map2 ( + ) c origin)))
    (box_coords ~lo: (List.map (fun _ -> 0) interior) ~shape: interior)

let same_buffer (a : R.buffer) (b : R.buffer) =
  a.R.shape = b.R.shape && a.R.lo = b.R.lo && a.R.data = b.R.data

let copy_buffer (b : R.buffer) =
  let data =
    match b.R.data with
    | R.F a -> R.F (Array.copy a)
    | R.I a -> R.I (Array.copy a)
  in
  { b with R.data }

(* A decomposition case: per dimension (ranks, local interior, halo
   margin, how far the global buffer's lo sits below 0, extra global
   cells past the interior), element type, and whether locals are
   rebased to a zero origin as after lowering. *)
let gen_case =
  QCheck.Gen.(
    let dim = map (fun (((g, n), m), (below, extra)) -> (g, n, m, below, extra))
        (pair (pair (pair (1 -- 3) (1 -- 4)) (0 -- 2)) (pair (0 -- 3) (0 -- 2))) in
    triple (1 -- 3 >>= fun d -> list_repeat d dim) bool bool)

let scatter_gather_prop =
  QCheck.Test.make ~count: 150
    ~name: "scatter/gather row blits == per-element reference"
    (QCheck.make gen_case)
    (fun (dims, floats, rebase) ->
      let grid = List.map (fun (g, _, _, _, _) -> g) dims in
      let interior = List.map (fun (_, n, _, _, _) -> n) dims in
      let extents = List.map2 ( * ) grid interior in
      let local_bounds =
        List.map (fun (_, n, m, _, _) -> Typesys.{ lo = -m; hi = n + m }) dims
      in
      let glo = List.map (fun (_, _, _, below, _) -> -below) dims in
      let gshape =
        List.map2 (fun (_, _, _, below, extra) e -> e + below + extra) dims extents
      in
      let elt = if floats then Typesys.f64 else Typesys.Index in
      let global = R.alloc_buffer ~lo: glo gshape elt in
      R.fill global (fun i -> float_of_int ((i * 7) + 1) *. 0.5);
      let back = R.alloc_buffer ~lo: glo gshape elt in
      let back_ref = R.alloc_buffer ~lo: glo gshape elt in
      let ranks = List.fold_left ( * ) 1 grid in
      let ok = ref true in
      for rank = 0 to ranks - 1 do
        let local = Driver.Domain.scatter_field ~global ~grid ~local_bounds ~rank in
        let expected = scatter_ref ~global ~grid ~local_bounds ~rank in
        if not (same_buffer local expected) then ok := false;
        let local, origin =
          if rebase then
            ( { local with R.lo = List.map (fun _ -> 0) local.R.lo },
              List.map (fun (_, _, m, _, _) -> m) dims )
          else (local, List.map (fun _ -> 0) dims)
        in
        Driver.Domain.gather_interior ~origin ~global: back ~local ~grid
          ~interior ~rank ();
        gather_ref ~origin ~global: back_ref ~local ~grid ~interior ~rank
      done;
      (* Same writes as the reference, and the interior round-trips. *)
      let interior_equal =
        List.for_all
          (fun c -> R.get back c = R.get global c)
          (box_coords ~lo: (List.map (fun _ -> 0) extents) ~shape: extents)
      in
      !ok && same_buffer back back_ref && interior_equal)

(* A gather whose interior box leaves the local buffer or the global one
   raises, and writes nothing first. *)
let test_gather_out_of_range () =
  let extents = [ 4; 4 ] and grid = [ 2; 2 ] in
  let global = make_global ~margin: 0 ~extents in
  let lb = local_bounds ~margin: 1 ~interior: extents ~grid in
  let local = Driver.Domain.scatter_field ~global ~grid ~local_bounds: lb ~rank: 3 in
  List.iter
    (fun (what, global, interior) ->
      let before = copy_buffer global in
      (match
         Driver.Domain.gather_interior ~global ~local ~grid ~interior ~rank: 3 ()
       with
      | () -> Alcotest.failf "%s: expected Runtime_error" what
      | exception R.Runtime_error _ -> ());
      check Alcotest.bool (what ^ ": nothing written") true
        (same_buffer before global))
    [
      ("interior wider than the local buffer", copy_buffer global, [ 2; 4 ]);
      ( "rank offset past the global buffer",
        R.alloc_buffer [ 3; 4 ] Typesys.f64,
        [ 2; 2 ] );
    ]

let suite =
  [
    Alcotest.test_case "2D round-trip" `Quick test_roundtrip_2d;
    Alcotest.test_case "3D 2x2x2 round-trip" `Quick test_roundtrip_3d;
    Alcotest.test_case "1-cell slabs" `Quick test_one_cell_slabs;
    Alcotest.test_case "non-divisible extents rejected" `Quick
      test_non_divisible_rejected;
    Alcotest.test_case "boundary halo zero-fill" `Quick test_boundary_halo_zero;
    Alcotest.test_case "rebased gather origin" `Quick test_rebased_gather_origin;
    QCheck_alcotest.to_alcotest scatter_gather_prop;
    Alcotest.test_case "out-of-range gather raises" `Quick
      test_gather_out_of_range;
  ]
