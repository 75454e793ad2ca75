(* Entry point of the repo benchmark (run it through perfbench/run.py):

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --stencilc PATH --work DIR

   Prints human-readable lines, the exact counters, and as its last line
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones (see README.md). *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload mpi-wave2d|omp-heat2d|serve-mix --seed N \
     --seconds S --trace 0|1 --stencilc PATH --work DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = float_of_int (int "seconds") and trace = int "trace" = 1 in
  let work = get "work" and stencilc = get "stencilc" in
  Util.mkdir_p work;
  (* Oversubscription guard: a shape that asks for more domains (ranks ×
     threads) or connections than the host has cores measures the
     scheduler, not the stack. *)
  let nproc = Util.nproc () in
  let need =
    match workload with
    | "mpi-wave2d" -> Runwl.mpi_wave2d.Runwl.ranks * Runwl.mpi_wave2d.Runwl.threads
    | "omp-heat2d" -> Runwl.omp_heat2d.Runwl.ranks * Runwl.omp_heat2d.Runwl.threads
    | "serve-mix" -> 2
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  if need > nproc then begin
    Printf.eprintf
      "refusing %s: it needs %d cores (ranks × threads or connections) and \
       this host has %d\n"
      workload need nproc;
    exit 3
  end;
  let mt = Metrics.create () in
  let attempted, failed =
    match workload with
    | "mpi-wave2d" -> Runwl.run ~work ~seed ~seconds ~trace Runwl.mpi_wave2d mt
    | "omp-heat2d" -> Runwl.run ~work ~seed ~seconds ~trace Runwl.omp_heat2d mt
    | _ -> Servemix.run ~work ~stencilc ~seed ~seconds ~trace mt
  in
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  (* A metric that did not come out as a finite number is a failure of
     the run, not a value to report. *)
  let bad =
    List.filter
      (fun (n, _) -> not (Float.is_finite (Metrics.get mt n)))
      catalogue
  in
  List.iter (fun (n, _) -> Util.log "FAILED: metric %s is not finite" n) bad;
  List.iter (fun (n, _) -> Metrics.set mt n 0.) bad;
  let failed = failed + List.length bad in
  Metrics.print_table
    ~title: (Printf.sprintf "%s seed=%d trace=%b" workload seed trace)
    catalogue mt;
  Printf.printf "exact: %s\n"
    (String.concat " "
       (List.filter_map
          (fun n ->
            if Metrics.mem mt n then
              Some (Printf.sprintf "%s=%s" n (Metrics.num (Metrics.get mt n)))
            else None)
          Metrics.exact_counters));
  print_endline
    (Metrics.result_line ~correct: (failed = 0) ~attempted: (max 1 attempted)
       ~failed catalogue mt)
