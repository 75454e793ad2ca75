(* The two run workloads: a Devito operator compiled once (set-up), then
   executed repeatedly on the mpi_par runtime through
   [Driver.Simulate.Par_exec.run_spmd], scatter → run → gather.  Every
   gathered result is checked bitwise against the interpreter oracle. *)

module R = Interp.Rtval

type cfg = {
  wl : string;
  kind : Progs.kind;
  n : int;  (** global grid is n × n *)
  timesteps : int;
  so : int;
  ranks : int;
  threads : int;
  tiles : int list;
  overlap : bool;
}

(* Grid sizes keep the interpreter oracle (≈16 µs per update for wave,
   ≈8 µs for heat on the reference host) near ten seconds, so a run stays
   well inside its time limit; each rep is still long enough (≈0.2 s)
   that rank compute dominates its wall time. *)
let mpi_wave2d =
  { wl = "mpi-wave2d"; kind = Progs.Wave; n = 256; timesteps = 12; so = 4;
    ranks = 2; threads = 1; tiles = []; overlap = true }

let omp_heat2d =
  { wl = "omp-heat2d"; kind = Progs.Heat; n = 384; timesteps = 10; so = 2;
    ranks = 1; threads = 2; tiles = [ 32; 32 ]; overlap = true }

let target c = Progs.target ~ranks: c.ranks ~tiles: c.tiles ~overlap: c.overlap
let build c = Progs.build c.kind ~shape: [ c.n; c.n ] ~timesteps: c.timesteps ~so: c.so

(* A compiled problem, ready to scatter/run/gather. *)
type prob = {
  func : string;
  args : (Ir.Typesys.ty * Ir.Typesys.bound list) list;
  lowered : Ir.Op.t;
  program : Interp.Executor.shared;
  grid : int list;
  local_bounds : Ir.Typesys.bound list;
  interior : int list;
  origin : int list;
  domain : int list;
  updates : float;  (** point-updates per run *)
}

let prepare c (m : Ir.Op.t) (art : Service.Artifact.t) =
  let func = Driver.Harness.default_func m in
  let args = Driver.Harness.field_args m func in
  let bounds = snd (List.hd args) in
  let domain =
    List.map (fun (b : Ir.Typesys.bound) -> b.Ir.Typesys.hi + b.Ir.Typesys.lo) bounds
  in
  let lowered = art.Service.Artifact.lowered in
  let fop =
    match Ir.Op.lookup_symbol lowered func with
    | Some f -> f
    | None -> failwith ("function lost in lowering: " ^ func)
  in
  let grid = Driver.Domain.topology_of fop in
  let local_bounds = List.hd (Driver.Domain.local_field_bounds fop) in
  {
    func;
    args;
    lowered;
    program = art.Service.Artifact.program;
    grid;
    local_bounds;
    interior = List.map2 ( / ) domain grid;
    origin = List.map (fun (b : Ir.Typesys.bound) -> - b.Ir.Typesys.lo) local_bounds;
    domain;
    updates =
      float_of_int (List.fold_left ( * ) 1 domain) *. float_of_int c.timesteps;
  }

(* Digest of the bit patterns of every result's global interior, hashed
   in fixed-size chunks so checking a run allocates next to nothing. *)
let interior_digest ~domain (bufs : R.buffer list) =
  let chunk = Bytes.create 65536 and fill = ref 0 in
  let sums = Buffer.create 1024 in
  let flush () =
    Buffer.add_string sums (Digest.subbytes chunk 0 !fill);
    fill := 0
  in
  let add bits =
    if !fill = Bytes.length chunk then flush ();
    Bytes.set_int64_le chunk !fill bits;
    fill := !fill + 8
  in
  List.iter
    (fun (b : R.buffer) ->
      let strides, _ =
        List.fold_right (fun n (acc, prod) -> (prod :: acc, prod * n)) b.R.shape ([], 1)
      in
      let emit =
        match b.R.data with
        | R.F a -> fun off -> add (Int64.bits_of_float a.(off))
        | R.I a -> fun off -> add (Int64.of_int a.(off))
      in
      let rec go dims los strides off =
        match (dims, los, strides) with
        | d :: dr, l :: lr, s :: sr ->
            for c = 0 to d - 1 do
              go dr lr sr (off + ((c - l) * s))
            done
        | _ -> emit off
      in
      go domain b.R.lo strides 0)
    bufs;
  flush ();
  Digest.to_hex (Digest.string (Buffer.contents sums))

let result_buffers results =
  List.filter_map (function R.Rbuf b -> Some b | _ -> None) results

(* ---------- one distributed run ---------- *)

type stamps = float array
(** scatter start/end, gather start/end (inside [collect], after
    [run_spmd]'s collect lock is taken), end of the rank's run *)

(* End of the current domain's last traced [runf] call. *)
let run_end = Domain.DLS.new_key (fun () -> ref 0.)

(* [program] with every instance's [runf] stamping its own end into
   [run_end], so a rank's run ends where its compute does rather than
   where it gets the collect lock. *)
let stamping (program : Interp.Executor.shared) =
  {
    program with
    Interp.Executor.instantiate =
      (fun ?externs ?threads () ->
        let inst = program.Interp.Executor.instantiate ?externs ?threads () in
        {
          inst with
          Interp.Executor.runf =
            (fun f args ->
              let r = inst.Interp.Executor.runf f args in
              Domain.DLS.get run_end := Util.now ();
              r);
        });
  }

type rep = {
  wall : float;
  digest : string;
  messages : int;
  bytes : int;
  minor_words : float;
  minor_gcs : int;
  stamps : stamps array;  (** per rank; zeros when untimed *)
  timeline : Mpi_intf.timeline_event list;
  t_start : float;
}

let run_once ?(trace = false) ~program ~threads ~ranks p ~globals =
  (* Result k of every rank gathers into global buffer k, shaped like the
     first field (Devito operators return their time levels).  [collect]
     calls are serialized by [run_spmd], so lazy allocation is safe. *)
  let first = List.hd p.args in
  let lo = List.map (fun (b : Ir.Typesys.bound) -> b.Ir.Typesys.lo) (snd first) in
  let shape = List.map Ir.Typesys.bound_size (snd first) in
  let gathered = Hashtbl.create 4 in
  let target k =
    match Hashtbl.find_opt gathered k with
    | Some b -> b
    | None ->
        let b = R.alloc_buffer ~lo shape (fst first) in
        Hashtbl.replace gathered k b;
        b
  in
  let stamps = Array.init ranks (fun _ -> Array.make 5 0.) in
  let stamp r k = if trace then stamps.(r).(k) <- Util.now () in
  let make_args ctx =
    let r = Mpi_par.rank ctx in
    stamp r 0;
    let a =
      List.map
        (fun global ->
          R.Rbuf
            (Driver.Harness.rebase
               (Driver.Domain.scatter_field ~global ~grid: p.grid
                  ~local_bounds: p.local_bounds ~rank: r)))
        globals
    in
    stamp r 1;
    a
  in
  let collect ctx _args results =
    let r = Mpi_par.rank ctx in
    stamp r 2;
    if trace then stamps.(r).(4) <- !(Domain.DLS.get run_end);
    List.iteri
      (fun k local ->
        Driver.Domain.gather_interior ~origin: p.origin ~global: (target k)
          ~local ~grid: p.grid ~interior: p.interior ~rank: r ())
      (result_buffers results);
    stamp r 3
  in
  let g0 = Gc.quick_stat () in
  let t0 = Util.now () in
  let comm =
    Driver.Simulate.Par_exec.run_spmd ~trace
      ~program: (if trace then stamping program else program)
      ~threads ~ranks
      ~func: p.func ~make_args ~collect p.lowered
  in
  let t1 = Util.now () in
  let g1 = Gc.quick_stat () in
  {
    wall = t1 -. t0;
    digest =
      interior_digest ~domain: p.domain
        (List.init (Hashtbl.length gathered) (fun k -> Hashtbl.find gathered k));
    messages = Mpi_par.total_messages comm;
    bytes = Mpi_par.total_bytes comm;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    stamps;
    timeline = (if trace then Mpi_par.timeline comm else []);
    t_start = t0;
  }

(* ---------- the interpreter oracle ---------- *)

(* The serial interpreter run of the stencil-level module on the same
   seeded inputs.  Its digest is cached per (workload, seed, program) in
   the work directory, since it costs ~20× a compiled run. *)
let oracle_digest ~work c ~seed p =
  let m = build c in
  let key =
    Printf.sprintf "%s-%d-%s" c.wl seed
      (String.sub (Progs.canonical_digest m) 0 16)
  in
  let dir = Filename.concat work "oracle" in
  let file = Filename.concat dir key in
  match In_channel.with_open_text file In_channel.input_all with
  | d when String.length d = 32 -> (d, true)
  | _ | (exception Sys_error _) ->
      let inputs =
        List.map (fun a -> R.Rbuf (Driver.Harness.global_field ~seed a)) p.args
      in
      let bufs = result_buffers (Driver.Simulate.run_serial ~func: p.func m inputs) in
      let d = interior_digest ~domain: p.domain bufs in
      Util.mkdir_p dir;
      Out_channel.with_open_text file (fun oc -> output_string oc d);
      (d, false)

(* ---------- the traced rep's spans ---------- *)

(* Phase intervals of one rank from the runtime's own timeline
   (pcontrol pack/unpack spans, exchange waits), as absolute times. *)
let phase_intervals ~base (events : Mpi_intf.timeline_event list) =
  let stack = ref [] and out = ref [] in
  let open_ name ts = stack := (name, ts) :: !stack in
  let close_ ts =
    match !stack with
    | (name, t0) :: rest ->
        stack := rest;
        out := (name, base +. t0, base +. ts) :: !out
    | [] -> ()
  in
  List.iter
    (fun (e : Mpi_intf.timeline_event) ->
      match e.Mpi_intf.kind with
      | Mpi_intf.Span_begin name -> open_ name e.Mpi_intf.ts
      | Mpi_intf.Wait_begin _ | Mpi_intf.Waitall_begin _ -> open_ "wait" e.Mpi_intf.ts
      | Mpi_intf.Span_end _ | Mpi_intf.Wait_end | Mpi_intf.Waitall_end -> close_ e.Mpi_intf.ts
      | _ -> ())
    (List.sort (fun (a : Mpi_intf.timeline_event) b -> compare a.Mpi_intf.seq b.Mpi_intf.seq) events);
  List.rev !out

(* Spans of one traced rep: the rep (runtime: domain spawn/join, per-rank
   instantiate and release), and for each rank its scatter, its wait for
   [run_spmd]'s collect lock (held while another rank gathers) and its
   gather (driver), and its run (exec), whose children are the runtime's
   halo phases.  Returns the rep span id and the slowest rank's index. *)
let rep_spans spans ~req (r : rep) =
  let root = Spans.reserve spans in
  let t_end = r.t_start +. r.wall in
  Spans.close spans ~id: root ~parent: (-1) ~req ~layer: "runtime" "spmd" r.t_start t_end;
  let by_rank = Hashtbl.create 4 in
  List.iter
    (fun (e : Mpi_intf.timeline_event) ->
      Hashtbl.replace by_rank e.Mpi_intf.ev_rank
        (e :: Option.value (Hashtbl.find_opt by_rank e.Mpi_intf.ev_rank) ~default: []))
    r.timeline;
  let durations =
    Array.mapi
      (fun rank (st : stamps) ->
        let rid =
          Spans.add spans ~parent: root ~req ~layer: "runtime" (Printf.sprintf "rank%d" rank)
            st.(0) st.(3)
        in
        ignore (Spans.add spans ~parent: rid ~req ~layer: "driver" "scatter" st.(0) st.(1));
        let run = Spans.add spans ~parent: rid ~req ~layer: "exec" "run" st.(1) st.(4) in
        List.iter
          (fun (name, a, b) -> ignore (Spans.add spans ~parent: run ~req ~layer: "runtime" name a b))
          (phase_intervals ~base: r.t_start
             (Option.value (Hashtbl.find_opt by_rank rank) ~default: []));
        ignore (Spans.add spans ~parent: rid ~req ~layer: "driver" "gather_wait" st.(4) st.(2));
        ignore (Spans.add spans ~parent: rid ~req ~layer: "driver" "gather" st.(2) st.(3));
        st.(3) -. st.(0))
      r.stamps
  in
  let crit = ref 0 in
  Array.iteri (fun i d -> if d > durations.(!crit) then crit := i) durations;
  (root, !crit)

(* ---------- the workload ---------- *)

let setup_reps = 21
let traced_reps = 3
let min_steady = 10
let compile_rounds = 3

let run ~work ~seed ~seconds ~trace (c : cfg) (mt : Metrics.t) =
  let attempted = ref 0 and failed = ref 0 in
  let op f =
    incr attempted;
    match f () with
    | Ok v -> Some v
    | Error msg ->
        incr failed;
        Util.log "FAILED: %s" msg;
        None
    | exception e ->
        incr failed;
        Util.log "FAILED: %s" (Printexc.to_string e);
        None
  in
  let target = target c in
  let executor = Progs.executor in
  (* Set-up: frontend build + cold compile + instantiate, repeated. *)
  let builds = ref [] and insts = ref [] and setups = ref [] in
  let last = ref None in
  for _ = 1 to setup_reps do
    Service.Artifact.clear ();
    ignore
      (op (fun () ->
           let t0 = Util.now () in
           let m, tb = Util.time (fun () -> build c) in
           let art, flag = Service.Artifact.get_cached ~executor ~target m in
           let inst, ti =
             Util.time (fun () ->
                 art.Service.Artifact.program.Interp.Executor.instantiate
                   ~threads: c.threads ())
           in
           let t1 = Util.now () in
           inst.Interp.Executor.release ();
           if flag <> `Miss then Error "set-up compile was not a cache miss"
           else begin
             builds := tb :: !builds;
             insts := ti :: !insts;
             setups := (t1 -. t0) :: !setups;
             last := Some (m, art);
             Ok ()
           end))
  done;
  let m, art =
    match !last with Some x -> x | None -> failwith "every set-up failed"
  in
  if Service.Artifact.digest_of ~executor ~target m <> art.Service.Artifact.digest then
    failwith "artifact digest differs from digest_of";
  (* Compile latencies of this program through the artifact layer,
     [compile_rounds] of each kind after every timed run, so they are
     sampled across the whole measured window and kept or dropped with
     their run: cold (empty cache, no store), warm (cache hit) and store
     (cache cleared, restored from a store). *)
  let lookup expect =
    op (fun () ->
        let (a, flag), t = Util.time (fun () -> Service.Artifact.get_cached ~executor ~target m) in
        if flag <> expect then Error "unexpected cache outcome"
        else if a.Service.Artifact.digest <> art.Service.Artifact.digest then Error "digest mismatch"
        else Ok t)
  in
  let store = Service.Store.create (Filename.concat work (Printf.sprintf "store-%d" (Unix.getpid ()))) in
  Service.Artifact.set_store (Some store);
  Service.Artifact.clear ();
  ignore (lookup `Miss);
  Service.Artifact.set_store None;
  let sample_compiles () =
    let colds = ref [] and warms = ref [] and stores = ref [] in
    let add l = Option.iter (fun t -> l := t :: !l) in
    for _ = 1 to compile_rounds do
      Service.Artifact.clear ();
      add colds (lookup `Miss);
      add warms (lookup `Hit);
      Service.Artifact.set_store (Some store);
      Service.Artifact.clear ();
      add stores (lookup `Store);
      Service.Artifact.set_store None
    done;
    (!colds, !warms, !stores)
  in
  let p = prepare c m art in
  let globals = List.map (Driver.Harness.global_field ~seed) p.args in
  let run1 ?trace () =
    run_once ?trace ~program: p.program ~threads: c.threads ~ranks: c.ranks p ~globals
  in
  (* One untimed run first: page faults and first-touch are set-up. *)
  let warmup = op (fun () -> Ok (run1 ())) in
  (* Timed runs for [seconds]; while fewer than [min_steady] of them ran
     under low steal, keep going, up to [Util.steady_extend] times that. *)
  let ticks0 = Util.cpu_ticks () in
  let reps = ref [] and tries = ref 0 and steady = ref 0 in
  let t_start = Util.now () in
  let more () =
    let elapsed = Util.now () -. t_start in
    !tries < 3 || elapsed < seconds || (!steady < min_steady && elapsed < Util.steady_extend *. seconds)
  in
  while more () do
    incr tries;
    let before = Util.cpu_ticks () in
    let r = op (fun () -> Ok (run1 ())) in
    let compiles = sample_compiles () in
    let s = Util.steal_frac ~before ~after: (Util.cpu_ticks ()) in
    Option.iter
      (fun r ->
        if s <= Util.steady_steal then incr steady;
        reps := ((r, compiles), s) :: !reps)
      r
  done;
  Util.rm_rf (Service.Store.dir store);
  let steal = Util.steal_frac ~before: ticks0 ~after: (Util.cpu_ticks ()) in
  let rss = Util.vm_hwm_mb 0 in
  let timed = List.rev !reps in
  if timed = [] then failwith "every timed run failed";
  let reps = List.map (fun ((r, _), _) -> r) timed in
  let chosen = Util.steady ~min: min_steady timed in
  let walls = List.map (fun (r, _) -> r.wall) chosen in
  let colds, warms, stores =
    List.fold_left
      (fun (c, w, s) (_, (c', w', s')) -> (c' @ c, w' @ w, s' @ s))
      ([], [], []) chosen
  in
  let run_mpts = p.updates /. Util.median walls /. 1e6 in
  let ms xs = List.map (fun x -> x *. 1000.) xs in
  let set = Metrics.set mt in
  set "req_per_s" (float_of_int (List.length walls) /. Util.sum walls);
  set "req_ms_p50" (Util.median (ms walls));
  set "req_ms_p99" (Util.quantile 0.99 (ms walls));
  set "cold_ms_tmean" (Util.trimmed_mean (ms colds));
  set "warm_ms_tmean" (Util.trimmed_mean (ms warms));
  set "store_ms_tmean" (Util.trimmed_mean (ms stores));
  set "setup_s" (Util.median !setups);
  set "peak_rss_mb" rss;
  set "frontends.build_ms" (Util.median (ms !builds));
  set "exec.instantiate_ms" (Util.median (ms !insts));
  set "driver.run_mpts" run_mpts;
  set "host.steal_frac" steal;
  set "host.nproc" (float_of_int (Util.nproc ()));
  let r0 = List.hd reps in
  set "runtime.messages" (float_of_int r0.messages);
  set "runtime.bytes" (float_of_int r0.bytes);
  set "exec.alloc_words_per_update"
    (Util.median (List.map (fun r -> r.minor_words /. p.updates) reps));
  set "exec.minor_gcs" (Util.median (List.map (fun r -> float_of_int r.minor_gcs) reps));
  set "exec.pool_epochs"
    (float_of_int
       (Dialects.Omp.count_regions p.lowered * c.timesteps * c.ranks));
  Printf.printf "%s: %d timed runs of %.0f point-updates, %d under <= %.0f%% steal, %d used; \
                 run_mpts %.3f (median); steal %.3f, nproc %d, ocaml %s\n"
    c.wl (List.length reps) p.updates !steady (Util.steady_steal *. 100.) (List.length walls)
    run_mpts steal (Util.nproc ()) Sys.ocaml_version;
  Printf.printf "%s: run wall ms min %.1f p10 %.1f p50 %.1f p90 %.1f max %.1f\n" c.wl
    (Util.quantile 0. (ms walls)) (Util.quantile 0.1 (ms walls)) (Util.median (ms walls))
    (Util.quantile 0.9 (ms walls)) (Util.quantile 1. (ms walls));
  List.iter
    (fun (name, xs) ->
      Printf.printf "%s: %s lookup ms n=%d p10 %.3f p50 %.3f p90 %.3f trimmed mean %.3f\n" c.wl
        name (List.length xs) (Util.quantile 0.1 (ms xs)) (Util.median (ms xs))
        (Util.quantile 0.9 (ms xs)) (Util.trimmed_mean (ms xs)))
    [ ("cold", colds); ("warm", warms); ("store", stores) ];
  (* Traced extras: per-layer split of a run, compiled serial baseline,
     pool fork/join cost and the pass-by-pass compile. *)
  let traced =
    if not trace then []
    else
      List.init traced_reps (fun _ -> op (fun () -> Ok (run1 ~trace: true ())))
      |> List.filter_map Fun.id
  in
  let serial =
    if not trace then []
    else begin
      let starget = Progs.target ~ranks: 1 ~tiles: c.tiles ~overlap: c.overlap in
      let sm = build c in
      let sart = Service.Artifact.compile ~executor ~target: starget sm in
      let sp = prepare c sm sart in
      List.init 3 (fun _ ->
          op (fun () ->
              Ok (run_once ~program: sp.program ~threads: 1 ~ranks: 1 sp ~globals)))
      |> List.filter_map Fun.id
    end
  in
  (* Correctness: every run against the interpreter oracle, outside
     every timed section. *)
  let oracle, cached = oracle_digest ~work c ~seed p in
  let checked = Option.to_list warmup @ reps @ traced @ serial in
  let bad = List.filter (fun r -> r.digest <> oracle) checked in
  let traffic_drift =
    List.filter (fun r -> r.messages <> r0.messages || r.bytes <> r0.bytes)
      (Option.to_list warmup @ reps @ traced)
  in
  failed := !failed + List.length bad + List.length traffic_drift;
  Printf.printf "%s: oracle %s (%s), %d/%d runs bitwise equal (max abs diff 0), \
                 traffic drift in %d\n"
    c.wl (String.sub oracle 0 12) (if cached then "cached" else "interpreted")
    (List.length checked - List.length bad) (List.length checked)
    (List.length traffic_drift);
  if trace then begin
    let spans = Spans.create () in
    (* Set-up, pass by pass: the replay must reach Pipeline.compile's
       module. *)
    let tbl = Progs.pass_table () in
    let root = Spans.reserve spans in
    let s0 = Util.now () in
    let sm = Spans.timed spans ~parent: root ~req: 0 ~layer: "frontends" "build" (fun () -> build c) in
    let lowered = Progs.compile_by_pass spans ~parent: root ~req: 0 tbl target sm in
    let sprog, tcomp =
      Util.time (fun () ->
          Spans.timed spans ~parent: root ~req: 0 ~layer: "exec" "compile" (fun () ->
              executor.Interp.Executor.compile lowered))
    in
    let inst =
      Spans.timed spans ~parent: root ~req: 0 ~layer: "exec" "instantiate" (fun () ->
          sprog.Interp.Executor.instantiate ~threads: c.threads ())
    in
    Spans.close spans ~id: root ~parent: (-1) ~req: 0 ~layer: "driver" "setup" s0 (Util.now ());
    inst.Interp.Executor.release ();
    let reference = Core.Pipeline.compile target (build c) in
    if Progs.canonical_digest reference <> Progs.canonical_digest lowered then begin
      incr failed;
      Util.log "FAILED: pass-by-pass replay differs from Pipeline.compile"
    end;
    Progs.set_pass_metrics set tbl ~compiles: 1;
    set "exec.compile_ms" (tcomp *. 1000.);
    let setup_err = Spans.reconcile_err spans (Spans.find spans root) in
    (* Traced reps: split along the slowest rank. *)
    let errs = ref [ setup_err ] in
    let splits =
      List.mapi
        (fun i (r : rep) ->
          let root, crit = rep_spans spans ~req: (i + 1) r in
          let rank_ids = Spans.children spans root in
          let crit_span =
            List.find (fun s -> s.Spans.name = Printf.sprintf "rank%d" crit) rank_ids
          in
          let layers =
            Spans.layer_self_path spans (Spans.find spans root) crit_span.Spans.id
          in
          errs := Spans.error_of ~wall: r.wall layers :: !errs;
          let analysis = Analysis.analyze ~ranks: c.ranks r.timeline in
          (r, layers, crit_span, analysis))
        traced
    in
    let worst = List.fold_left Float.max 0. !errs in
    set "obs.reconcile_err" worst;
    if worst > Spans.tolerance then begin
      incr failed;
      Util.log "FAILED: layer self times miss the wall time by %.1f%% (tolerance %.0f%%)"
        (worst *. 100.) (Spans.tolerance *. 100.)
    end;
    (match List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a.wall b.wall) splits with
    | [] -> ()
    | sorted ->
        let r, layers, crit_span, an = List.nth sorted (List.length sorted / 2) in
        let total f = Array.fold_left (fun a b -> a +. f b) 0. an.Analysis.r_breakdown in
        set "runtime.wait_s" (total (fun b -> b.Analysis.bd_wait_s));
        set "runtime.pack_s" (total (fun b -> b.Analysis.bd_pack_s));
        set "runtime.unpack_s" (total (fun b -> b.Analysis.bd_unpack_s));
        set "runtime.critical_path_s" an.Analysis.r_critical_path_s;
        set "runtime.overlap_eff"
          (Option.value an.Analysis.r_overlap.Analysis.ov_efficiency ~default: 0.);
        set "runtime.spawn_join_s"
          (Option.value (List.assoc_opt "runtime" layers) ~default: 0.
          -. List.fold_left
               (fun a s -> if s.Spans.layer = "runtime" then a +. Spans.self_time spans s else a)
               0. (List.tl (Spans.subtree spans crit_span)));
        let run_span =
          List.find (fun s -> s.Spans.name = "run") (Spans.children spans crit_span.Spans.id)
        in
        set "exec.compute_s" (Spans.self_time spans run_span);
        (* A rank's gather runs from the end of its run: the wait for the
           collect lock is gather time the driver serializes. *)
        let phase name =
          Array.fold_left
            (fun acc st ->
              Float.max acc (match name with `Scatter -> st.(1) -. st.(0) | `Gather -> st.(3) -. st.(4)))
            0. r.stamps
        in
        set "driver.scatter_s" (phase `Scatter);
        set "driver.gather_s" (phase `Gather);
        Printf.printf "%s: traced rep %.4f s, self time by layer along rank %s:" c.wl r.wall
          crit_span.Spans.name;
        List.iter (fun (l, v) -> Printf.printf " %s=%.4f" l v) layers;
        print_newline ());
    set "obs.trace_overhead"
      (match traced with
      | [] -> 0.
      | _ -> Util.median (List.map (fun r -> r.wall) traced) /. Util.median walls -. 1.);
    (match serial with
    | [] -> ()
    | _ ->
        let smpts = p.updates /. Util.median (List.map (fun r -> r.wall) serial) /. 1e6 in
        set "exec.serial_mpts" smpts;
        set "exec.scaling_eff" (run_mpts /. (smpts *. float_of_int (c.ranks * c.threads))));
    let pool = Exec_compile.Domain_pool.create c.threads in
    let epochs = 2000 in
    let (), t =
      Util.time (fun () ->
          for _ = 1 to epochs do
            Exec_compile.Domain_pool.run pool (fun _ -> ())
          done)
    in
    Exec_compile.Domain_pool.shutdown pool;
    set "exec.pool_epoch_us" (t /. float_of_int epochs *. 1e6);
    Util.mkdir_p work;
    Spans.write spans (Filename.concat work (Printf.sprintf "trace-%s-%d.json" c.wl seed))
  end;
  (!attempted, !failed)
