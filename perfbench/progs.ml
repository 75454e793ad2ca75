(* Programs of the paper's four workloads, built through the frontends'
   public entry points: Devito's [Operator.operator] (heat, wave) and
   PSyclone's [Codegen.compile] (pw advection, tracer advection). *)

type kind = Heat | Wave | Pw | Traadv

let kind_name = function
  | Heat -> "heat2d"
  | Wave -> "wave2d"
  | Pw -> "pw"
  | Traadv -> "traadv"

(* [shape] is the global grid; [timesteps] only matters to the Devito
   operators (the PSyclone kernels run one iteration). *)
let build kind ~shape ~timesteps ~so =
  match kind with
  | Heat ->
      let g = Devito.Symbolic.grid ~dt: 0.1 shape in
      let u = Devito.Symbolic.function_ ~space_order: so "u" g in
      let eqn =
        Devito.Symbolic.eq (Devito.Symbolic.Dt u)
          Devito.Symbolic.(f 0.5 *: laplace u)
      in
      snd (Devito.Operator.operator ~name: "heat" ~timesteps eqn)
  | Wave ->
      let g = Devito.Symbolic.grid ~dt: 0.02 shape in
      let u = Devito.Symbolic.function_ ~space_order: so ~time_order: 2 "u" g in
      let eqn =
        Devito.Symbolic.eq (Devito.Symbolic.Dt2 u)
          Devito.Symbolic.(f 2.25 *: laplace u)
      in
      snd (Devito.Operator.operator ~name: "wave" ~timesteps eqn)
  | Pw -> Psyclone.Codegen.compile (Psyclone.Benchkernels.pw_advection ~shape)
  | Traadv ->
      Psyclone.Codegen.compile
        (Psyclone.Benchkernels.tracer_advection ~iterations: 1 ~shape ())

let target ~ranks ~tiles ~overlap =
  Core.Pipeline.Distributed_cpu
    {
      ranks;
      strategy = Core.Decomposition.Slice2d;
      mode = Core.Decomposition.Faces;
      tiles;
      overlap;
    }

let executor = Exec_compile.executor

(* The seven core passes of the distributed pipeline and the four shared
   cleanup passes, named as [Core.Pipeline.pipeline_for] names them.
   The benchmark refuses to run when the pipeline's pass list drifts from
   these, since the per-layer metric names are derived from them. *)
let core_passes =
  [
    "stencil-shape-inference";
    "distribute-stencil";
    "eliminate-redundant-swaps";
    "overlap-communication";
    "convert-stencil-to-loops";
    "convert-dmp-to-mpi";
    "convert-mpi-to-func";
  ]

let transform_passes = [ "canonicalize"; "cse"; "loop-invariant-code-motion"; "dce" ]

let layer_of_pass name =
  if List.mem name transform_passes then "transforms"
  else if List.mem name core_passes then "core"
  else failwith ("pipeline has a pass the benchmark does not know: " ^ name)

(* Per-pass totals accumulated over every pass-by-pass compile. *)
type pass_acc = { mutable ms : float; mutable ops_out : int }

let pass_table () : (string, pass_acc) Hashtbl.t = Hashtbl.create 16

let acc_of tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
      let a = { ms = 0.; ops_out = 0 } in
      Hashtbl.replace tbl name a;
      a

(* Compile [m] pass by pass, one span per pass, then verify exactly as
   [Core.Pipeline.compile] does (accumulated under "verify").  Returns
   the lowered module. *)
let compile_by_pass spans ~parent ~req (tbl : (string, pass_acc) Hashtbl.t)
    target m =
  let passes = (Core.Pipeline.pipeline_for target).Ir.Pass.passes in
  let out =
    List.fold_left
      (fun m (p : Ir.Pass.t) ->
        let layer = layer_of_pass p.Ir.Pass.name in
        let t0 = Util.now () in
        let m' = p.Ir.Pass.run m in
        let t1 = Util.now () in
        ignore (Spans.add spans ~parent ~req ~layer p.Ir.Pass.name t0 t1);
        let acc = acc_of tbl p.Ir.Pass.name in
        acc.ms <- acc.ms +. ((t1 -. t0) *. 1000.);
        acc.ops_out <- acc.ops_out + Ir.Op.count_ops m';
        m')
      m passes
  in
  let t0 = Util.now () in
  Ir.Verifier.verify ~checks: Core.Registry.checks out;
  let t1 = Util.now () in
  ignore (Spans.add spans ~parent ~req ~layer: "core" "verify" t0 t1);
  let v = acc_of tbl "verify" in
  v.ms <- v.ms +. ((t1 -. t0) *. 1000.);
  out

(* Per-layer pass metrics: mean milliseconds per compile ([compiles] of
   them went through [compile_by_pass]) and total ops after each pass. *)
let set_pass_metrics set tbl ~compiles =
  let per = float_of_int (max 1 compiles) in
  Hashtbl.iter
    (fun name a ->
      if name = "verify" then set "core.verify_ms" (a.ms /. per)
      else begin
        let layer = layer_of_pass name in
        set (Printf.sprintf "%s.%s.ms" layer name) (a.ms /. per);
        set (Printf.sprintf "%s.%s.ops_out" layer name) (float_of_int a.ops_out)
      end)
    tbl

let canonical_digest m = Digest.to_hex (Digest.string (Ir.Printer.canonical_module_string m))
