(* Measured executor comparison: the tree-walking reference interpreter
   vs the ahead-of-time closure compiler (Exec_compile) on the same fully
   lowered modules.

   Two settings per workload:
   - serial: the cpu-sequential lowering of heat/wave, run single-rank on
     each executor with identically initialized inputs; results must agree
     bitwise (max abs diff exactly 0 — both executors perform the same
     float operations in the same order).
   - par4: the full distributed harness (mpi_par, 4 ranks) with each
     executor driving the rank bodies; both runs are compared against the
     interpreted serial oracle and against each other.

   Serial rows also record the compiled run's minor-heap allocation per
   point-update ([alloc_words_per_update]).  It is machine-independent;
   the regression gate holds it under a fixed ceiling, since the
   slot-direct kernels allocate nothing per point.

   Results are also written to BENCH_exec.json.  The compiled executor is
   the default for stencilc --run-par/--run-sim; this section is the
   regression guard for the speedup that justifies that default. *)

type row = {
  workload : string;
  mode : string;  (* "serial", "par4" or "par4-nooverlap" *)
  overlap : bool option;  (* None for serial rows *)
  interp_s : float;
  compiled_s : float;
  speedup : float;  (* interp / compiled wall *)
  host_cores : int;
  oversubscribed : bool;  (* ranks > host_cores: timing ratios are noise *)
  max_abs_diff : float;  (* compiled vs interpreted results *)
  alloc_words_per_update : float option;  (* compiled serial runs only *)
}

(* Fresh identically-initialized zero-based arguments for the lowered
   module: executions mutate their input buffers, so every measured run
   gets its own copy. *)
let make_args field_specs =
  List.map
    (fun spec ->
      Interp.Rtval.Rbuf (Driver.Harness.rebase (Driver.Harness.global_field ~seed: 0 spec)))
    field_specs

let buffers_of rvs =
  List.filter_map
    (function Interp.Rtval.Rbuf b -> Some b | _ -> None)
    rvs

(* All buffers an execution produced or mutated: results plus arguments. *)
let observable args results = buffers_of results @ buffers_of args

let max_diff_all a b =
  if List.length a <> List.length b then infinity
  else List.fold_left2 (fun acc x y -> Float.max acc (Driver.Simulate.max_abs_diff x y)) 0. a b

let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* Best-of-[reps] wall time; returns the last run's observable buffers. *)
let measure ~reps runf args_of =
  let best = ref infinity and obs = ref [] in
  for _ = 1 to reps do
    let args = args_of () in
    let dt, results = time_run (fun () -> runf args) in
    best := Float.min !best dt;
    obs := observable args results
  done;
  (!best, !obs)

(* Minor-heap words one run allocates per point-update, on this domain
   (serial runs execute entirely on the calling domain). *)
let alloc_per_update ~updates runf args =
  let w0 = Gc.minor_words () in
  ignore (runf args);
  (Gc.minor_words () -. w0) /. updates

let run_serial ~reps (name, m, updates) : row =
  let func = Driver.Harness.default_func m in
  let specs = Driver.Harness.field_args m func in
  let lowered = Core.Pipeline.compile ~verify: false Core.Pipeline.Cpu_sequential m in
  let prep (e : Interp.Executor.t) = e.Interp.Executor.prepare lowered func in
  let interp_run = prep Interp.Executor.interpreter in
  let compiled_run = prep Exec_compile.executor in
  let interp_s, interp_obs =
    measure ~reps interp_run (fun () -> make_args specs)
  in
  let compiled_s, compiled_obs =
    measure ~reps compiled_run (fun () -> make_args specs)
  in
  let alloc =
    alloc_per_update ~updates compiled_run (make_args specs)
  in
  {
    workload = name;
    mode = "serial";
    overlap = None;
    interp_s;
    compiled_s;
    speedup = interp_s /. compiled_s;
    host_cores = Bench_par.host_cores ();
    oversubscribed = false;
    max_abs_diff = max_diff_all interp_obs compiled_obs;
    alloc_words_per_update = Some alloc;
  }

(* Best-of-[reps] distributed run: wall times of domain runs on a shared
   host are noisy, so keep the fastest wall clock (correctness fields
   are identical across reps — the runs are deterministic). *)
let best_distributed ~reps run =
  let first = run () in
  let best = ref first in
  for _ = 2 to reps do
    let r = run () in
    if r.Driver.Harness.wall_s < !best.Driver.Harness.wall_s then best := r
  done;
  !best

let run_par ~reps ~ranks ~overlap (name, m, _) : row =
  let interp =
    best_distributed ~reps (fun () ->
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Par ~ranks
          ~overlap m)
  in
  let compiled =
    best_distributed ~reps (fun () ->
        Driver.Harness.run_distributed ~substrate: Driver.Harness.Par ~ranks
          ~overlap ~executor: Exec_compile.executor m)
  in
  let host_cores = Bench_par.host_cores () in
  {
    workload = name;
    mode =
      Printf.sprintf "par%d%s" ranks (if overlap then "" else "-nooverlap");
    overlap = Some overlap;
    interp_s = interp.Driver.Harness.wall_s;
    compiled_s = compiled.Driver.Harness.wall_s;
    speedup = interp.Driver.Harness.wall_s /. compiled.Driver.Harness.wall_s;
    host_cores;
    oversubscribed = ranks > host_cores;
    max_abs_diff =
      Float.max
        (Driver.Harness.max_result_diff interp compiled)
        (Float.max interp.Driver.Harness.max_diff_vs_serial
           compiled.Driver.Harness.max_diff_vs_serial);
    alloc_words_per_update = None;
  }

let write_json (rows : row list) =
  let path = Bench_paths.artifact "BENCH_exec.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"bench\": \"exec\",\n  \"entries\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"mode\": %S, \"overlap\": %s, \"interp_s\": \
         %.6f, \"compiled_s\": %.6f, \"speedup\": %.3f, \"host_cores\": %d, \
         \"oversubscribed\": %b, \"max_abs_diff\": %.17g, \
         \"alloc_words_per_update\": %s}%s\n"
        r.workload r.mode
        (match r.overlap with
        | Some b -> string_of_bool b
        | None -> "null")
        r.interp_s r.compiled_s r.speedup r.host_cores r.oversubscribed
        r.max_abs_diff
        (match r.alloc_words_per_update with
        | Some w -> Printf.sprintf "%.4f" w
        | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  path

let run ?(smoke = false) () =
  Printf.printf "== Measured executor comparison (interp vs compiled) ==\n";
  let timesteps = 8 in
  (* (name, module, point-updates per run) *)
  let devito name
      (make :
        ?grid: int list -> ?timesteps: int -> dims: int -> unit ->
        Workloads.devito_workload) n =
    ( name,
      (make ~grid: [ n; n ] ~timesteps ~dims: 2 ()).Workloads.module_,
      float_of_int (n * n * timesteps) )
  in
  let heat = devito "heat2d-so2" (Workloads.heat ~so: 2)
  and wave = devito "wave2d-so4" (Workloads.wave ~so: 4) in
  let workloads = if smoke then [ heat 64 ] else [ heat 96; wave 96 ] in
  let reps = if smoke then 1 else 3 in
  Printf.printf "   %-12s %7s %10s %12s %8s %10s %12s\n" "workload" "mode"
    "interp_s" "compiled_s" "speedup" "diff" "words/update";
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun r ->
            Printf.printf "   %-12s %7s %10.4f %12.4f %7.1fx %10.2e %12s%s\n%!"
              r.workload r.mode r.interp_s r.compiled_s r.speedup
              r.max_abs_diff
              (match r.alloc_words_per_update with
              | Some w -> Printf.sprintf "%.3f" w
              | None -> "-")
              (if r.max_abs_diff <> 0. then "  MISMATCH" else "");
            r)
          [
            run_serial ~reps w;
            run_par ~reps ~ranks: 4 ~overlap: true w;
            run_par ~reps ~ranks: 4 ~overlap: false w;
          ])
      workloads
  in
  let path = write_json rows in
  Printf.printf "   (machine-readable copy: %s)\n" path;
  let bad = List.filter (fun r -> r.max_abs_diff <> 0.) rows in
  if bad <> [] then begin
    Printf.printf "   FAIL: %d row(s) diverged between executors\n"
      (List.length bad);
    exit 1
  end;
  print_newline ()
