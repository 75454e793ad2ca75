(* The metric catalogue (names and units, as in BENCHMARK.json) and the
   final result line.  run.py checks the printed names against
   BENCHMARK.json, so the two lists cannot drift apart silently. *)

let end_to_end =
  [
    ("req_per_s", "1/s");
    ("req_ms_p50", "ms");
    ("req_ms_p99", "ms");
    ("cold_ms_tmean", "ms");
    ("warm_ms_tmean", "ms");
    ("store_ms_tmean", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let pass_metrics =
  List.concat_map
    (fun (layer, names) ->
      List.concat_map
        (fun p ->
          [ (Printf.sprintf "%s.%s.ms" layer p, "ms");
            (Printf.sprintf "%s.%s.ops_out" layer p, "count") ])
        names)
    [ ("core", Progs.core_passes); ("transforms", Progs.transform_passes) ]

let per_layer =
  [
    ("frontends.build_ms", "ms");
    ("ir.parse_ms", "ms");
    ("ir.digest_ms", "ms");
    ("ir.payload_kb", "KB");
  ]
  @ pass_metrics
  @ [
      ("core.verify_ms", "ms");
      ("exec.compile_ms", "ms");
      ("exec.instantiate_ms", "ms");
      ("exec.compute_s", "s");
      ("exec.alloc_words_per_update", "words");
      ("exec.minor_gcs", "count");
      ("exec.pool_epochs", "count");
      ("exec.pool_epoch_us", "us");
      ("exec.serial_mpts", "Mpts/s");
      ("exec.scaling_eff", "frac");
      ("driver.run_mpts", "Mpts/s");
      ("driver.scatter_s", "s");
      ("driver.gather_s", "s");
      ("runtime.messages", "count");
      ("runtime.bytes", "bytes");
      ("runtime.wait_s", "s");
      ("runtime.pack_s", "s");
      ("runtime.unpack_s", "s");
      ("runtime.overlap_eff", "frac");
      ("runtime.critical_path_s", "s");
      ("runtime.spawn_join_s", "s");
      ("service.hits", "count");
      ("service.misses", "count");
      ("service.store_restores", "count");
      ("service.evictions", "count");
      ("service.failed_hits", "count");
      ("service.compile_ms_p50", "ms");
      ("service.queue_ms_p50", "ms");
      ("service.queue_ms_p99", "ms");
      ("service.protocol_ms_p50", "ms");
      ("service.store_save_ms", "ms");
      ("service.store_load_ms", "ms");
      ("service.store_kb", "KB");
      ("obs.trace_overhead", "frac");
      ("obs.reconcile_err", "frac");
      ("host.steal_frac", "frac");
      ("host.nproc", "count");
    ]

(* Counters that must repeat exactly between two runs of the same code
   and seed; the ones a run measured are printed on their own line as the
   determinism self-check. *)
let exact_counters =
  [ "runtime.messages"; "runtime.bytes"; "exec.pool_epochs"; "service.misses" ]
  @ List.filter_map
      (fun (n, _) ->
        if Filename.extension n = ".ops_out" then Some n else None)
      pass_metrics

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 128
let set (t : t) name v = Hashtbl.replace t name v
let get (t : t) name = Option.value (Hashtbl.find_opt t name) ~default: 0.
let mem (t : t) name = Hashtbl.mem t name

(* Numbers as measured, all digits; integers print as integers. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed catalogue (t : t) =
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Spans.json_string name) (num (get t name)) (Spans.json_string unit))
      catalogue
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " metrics)

(* Human-readable table on stdout before the result line. *)
let print_table ~title catalogue (t : t) =
  Printf.printf "== %s\n" title;
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-44s %14s %s\n" name (num (get t name)) unit)
    catalogue
