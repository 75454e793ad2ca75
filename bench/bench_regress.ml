(* Performance-regression gate: compare freshly produced BENCH_par.json /
   BENCH_exec.json against checked-in baselines and fail loudly on
   slowdowns beyond a tolerance band.

   Absolute wall times are machine speed; comparing them across hosts is
   meaningless.  The gate therefore checks machine-speed-independent
   quantities only:
     - par rows: the distributed/serial wall-time ratios (par_s/serial_s
       and sim_s/serial_s) may not grow by more than [tolerance] (default
       25%), and the deterministic traffic fields (messages, bytes) and
       correctness diffs must match the baseline exactly;
     - par matrix rows (the tile x threads sweep): traffic counters must
       match the baseline exactly AND be exactly invariant across tile
       variants at the same (workload, ranks, threads) — tiling only
       reorders the interior loop nest; result diffs vs serial must be 0;
       and the threaded speedup_vs_1thread may not fall under the 1.0x
       floor (gated only when the 1-thread wall clears the noise floor —
       oversubscribed cells carry a null speedup and are skipped);
     - exec rows: the compiled-vs-interpreter speedup may not drop by
       more than [tolerance] (skipped when either run was oversubscribed
       — domains time-sliced on too few cores are scheduler noise), and
       max_abs_diff must stay 0; every current serial row must report
       alloc_words_per_update (minor-heap words per point-update of the
       compiled run, a count, not a time) at or under an absolute 1.0 —
       the slot-direct kernels allocate nothing per point;
     - compile rows: the artifact cache's warm_speedup (cold compile /
       warm hit) may not drop by more than [tolerance] and must stay
       above an absolute 10x floor; cache counters must reconcile.
     - scaling rows: only the machine-independent slice is gated — the
       reference-model curve points (frozen Netmodel.reference constants,
       deterministic replay) must keep their strong-scaling efficiency
       within the tolerance band and their per-step traffic exactly, the
       tuner must never lose to the default decomposition
       (tuned_vs_default <= 1), and every current validation row must be
       within its prediction-error bound; calibrated-model rows are
       host-specific and skipped.
   A baseline row missing from the current run fails the gate (a silently
   dropped benchmark is a regression too); rows only present in the
   current run are reported but pass. *)

(* --- minimal JSON reader (objects, arrays, numbers, strings, bools,
   null) --- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'u' ->
              (* keep escaped code points verbatim; keys here are ASCII *)
              Buffer.add_string b "\\u"
          | Some c -> Buffer.add_char b c
          | None -> fail "unterminated escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Jobj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Jarr (items [])
        end
    | Some '"' -> Jstr (parse_string ())
    | Some 't' -> parse_lit "true" (Jbool true)
    | Some 'f' -> parse_lit "false" (Jbool false)
    | Some 'n' -> parse_lit "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  v

let member key = function
  | Jobj kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Jnull)
  | _ -> Jnull

let jnum = function Jnum f -> Some f | _ -> None
let jstr = function Jstr s -> Some s | _ -> None
let jbool = function Jbool b -> Some b | _ -> None
let jarr = function Jarr vs -> vs | _ -> []

let load_json path =
  let content = In_channel.with_open_text path In_channel.input_all in
  parse_json content

(* --- the gate --- *)

type outcome = { mutable failures : string list; mutable checked : int }

let fail_row out fmt =
  Printf.ksprintf (fun msg -> out.failures <- msg :: out.failures) fmt

(* Keyed rows of one BENCH file's "entries" array. *)
let entries_by_key ~key json =
  List.filter_map
    (fun e -> match key e with Some k -> Some (k, e) | None -> None)
    (jarr (member "entries" json))

let par_key e =
  match (jstr (member "workload" e), jnum (member "ranks" e)) with
  | Some w, Some r ->
      let ov =
        match jbool (member "overlap" e) with
        | Some true -> "on"
        | Some false -> "off"
        | None -> "?"
      in
      Some (Printf.sprintf "%s/ranks=%d/overlap=%s" w (int_of_float r) ov)
  | _ -> None

(* Keyed rows of BENCH_par's "matrix" array (the tile x threads sweep). *)
let matrix_key e =
  match
    ( jstr (member "workload" e),
      jnum (member "ranks" e),
      jnum (member "threads" e),
      jstr (member "tile" e) )
  with
  | Some w, Some r, Some t, Some tile ->
      Some
        (Printf.sprintf "%s/ranks=%d/threads=%d/tile=%s" w (int_of_float r)
           (int_of_float t) tile)
  | _ -> None

let matrix_rows json =
  List.filter_map
    (fun e -> match matrix_key e with Some k -> Some (k, e) | None -> None)
    (jarr (member "matrix" json))

let exec_key e =
  match (jstr (member "workload" e), jstr (member "mode" e)) with
  | Some w, Some m -> Some (w ^ "/" ^ m)
  | _ -> None

(* A wall-time this short is dominated by scheduler noise: timing ratios
   from runs under it are reported, never gated. *)
let timing_noise_floor_s = 0.02

let check_ratio out ~key ~what ~tolerance ~base ~cur =
  match (base, cur) with
  | Some b, Some c when b > 0. ->
      out.checked <- out.checked + 1;
      if c > b *. (1. +. tolerance) then
        fail_row out "%s: %s regressed %.3f -> %.3f (+%.0f%%, tolerance %.0f%%)"
          key what b c
          (100. *. ((c /. b) -. 1.))
          (100. *. tolerance)
  | _ -> ()

let check_exact_num out ~key ~what ~base ~cur =
  match (base, cur) with
  | Some b, Some c ->
      out.checked <- out.checked + 1;
      if b <> c then
        fail_row out "%s: %s changed %g -> %g (expected exact match)" key what
          b c
  | _ -> ()

let check_zero out ~key ~what v =
  match v with
  | Some d ->
      out.checked <- out.checked + 1;
      if d <> 0. then fail_row out "%s: %s is %g (expected 0)" key what d
  | None -> ()

let ratio a b =
  match (a, b) with
  | Some x, Some y when y > 0. -> Some (x /. y)
  | _ -> None

let compare_par out ~tolerance ~baseline ~current =
  let base_rows = entries_by_key ~key: par_key baseline in
  let cur_rows = entries_by_key ~key: par_key current in
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur_rows with
      | None -> fail_row out "%s: row missing from current BENCH_par" key
      | Some c ->
          let num fld e = jnum (member fld e) in
          let above_floor =
            match num "serial_s" b with
            | Some s -> s >= timing_noise_floor_s
            | None -> false
          in
          if above_floor then begin
            check_ratio out ~key ~what: "par_s/serial_s" ~tolerance
              ~base: (ratio (num "par_s" b) (num "serial_s" b))
              ~cur: (ratio (num "par_s" c) (num "serial_s" c));
            check_ratio out ~key ~what: "sim_s/serial_s" ~tolerance
              ~base: (ratio (num "sim_s" b) (num "serial_s" b))
              ~cur: (ratio (num "sim_s" c) (num "serial_s" c))
          end
          else
            Printf.printf
              "   note: %s: baseline serial %.4fs under the %.0fms noise \
               floor, timing ratios not gated\n"
              key
              (Option.value (num "serial_s" b) ~default: 0.)
              (timing_noise_floor_s *. 1e3);
          check_exact_num out ~key ~what: "messages" ~base: (num "messages" b)
            ~cur: (num "messages" c);
          check_exact_num out ~key ~what: "bytes" ~base: (num "bytes" b)
            ~cur: (num "bytes" c);
          check_zero out ~key ~what: "max_abs_diff_par_vs_sim"
            (num "max_abs_diff_par_vs_sim" c);
          check_zero out ~key ~what: "max_abs_diff_par_vs_serial"
            (num "max_abs_diff_par_vs_serial" c))
    base_rows;
  List.iter
    (fun (key, _) ->
      if List.assoc_opt key base_rows = None then
        Printf.printf "   note: %s is new (no baseline)\n" key)
    cur_rows;
  (* --- tile x threads matrix --- *)
  let base_mx = matrix_rows baseline in
  let cur_mx = matrix_rows current in
  List.iter
    (fun (key, b) ->
      let num fld e = jnum (member fld e) in
      match List.assoc_opt key cur_mx with
      | None ->
          fail_row out "%s: matrix row missing from current BENCH_par" key
      | Some c ->
          check_exact_num out ~key ~what: "messages"
            ~base: (num "messages" b) ~cur: (num "messages" c);
          check_exact_num out ~key ~what: "bytes" ~base: (num "bytes" b)
            ~cur: (num "bytes" c))
    base_mx;
  (* current-run self-checks: correctness, tiling traffic invariance and
     the threaded-speedup floor hold wherever the bench ran *)
  List.iter
    (fun (key, c) ->
      if List.assoc_opt key base_mx = None then
        Printf.printf "   note: %s is new (no baseline)\n" key;
      check_zero out ~key ~what: "max_abs_diff_par_vs_serial"
        (jnum (member "max_abs_diff_par_vs_serial" c)))
    cur_mx;
  List.iter
    (fun (key, c) ->
      List.iter
        (fun (key', c') ->
          if
            key < key'
            && jstr (member "workload" c) = jstr (member "workload" c')
            && jnum (member "ranks" c) = jnum (member "ranks" c')
            && jnum (member "threads" c) = jnum (member "threads" c')
          then begin
            out.checked <- out.checked + 1;
            if
              jnum (member "messages" c) <> jnum (member "messages" c')
              || jnum (member "bytes" c) <> jnum (member "bytes" c')
            then
              fail_row out
                "%s vs %s: tiling changed the traffic counters (must be \
                 exactly invariant)"
                key key'
          end)
        cur_mx)
    cur_mx;
  List.iter
    (fun (key, c) ->
      match jnum (member "speedup_vs_1thread" c) with
      | None -> ()  (* 1-thread baseline cell, or oversubscribed: null *)
      | Some s ->
          let one_thread_wall =
            List.find_map
              (fun (_, c') ->
                if
                  jstr (member "workload" c') = jstr (member "workload" c)
                  && jnum (member "ranks" c') = jnum (member "ranks" c)
                  && jstr (member "tile" c') = jstr (member "tile" c)
                  && jnum (member "threads" c') = Some 1.
                then jnum (member "par_s" c')
                else None)
              cur_mx
          in
          let above_floor =
            match one_thread_wall with
            | Some p -> p >= timing_noise_floor_s
            | None -> false
          in
          if above_floor then begin
            out.checked <- out.checked + 1;
            if s < 1. /. (1. +. tolerance) then
              fail_row out
                "%s: threaded speedup %.2fx is under the 1.0x floor \
                 (tolerance %.0f%%)"
                key s (100. *. tolerance)
          end
          else
            Printf.printf
              "   note: %s: 1-thread par wall under the %.0fms noise floor, \
               threaded speedup not gated\n"
              key
              (timing_noise_floor_s *. 1e3))
    cur_mx

let alloc_words_ceiling = 1.0

let compare_exec out ~tolerance ~baseline ~current =
  let base_rows = entries_by_key ~key: exec_key baseline in
  let cur_rows = entries_by_key ~key: exec_key current in
  List.iter
    (fun (key, c) ->
      if jstr (member "mode" c) = Some "serial" then begin
        out.checked <- out.checked + 1;
        match jnum (member "alloc_words_per_update" c) with
        | None -> fail_row out "%s: alloc_words_per_update missing" key
        | Some w when w > alloc_words_ceiling ->
            fail_row out
              "%s: compiled run allocates %.3f words per point-update (ceiling \
               %.1f)"
              key w alloc_words_ceiling
        | Some _ -> ()
      end)
    cur_rows;
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur_rows with
      | None -> fail_row out "%s: row missing from current BENCH_exec" key
      | Some c ->
          let above_floor =
            (* speedup = interp/compiled: when the compiled run is down at
               the noise floor the ratio swings wildly, so don't gate it *)
            match jnum (member "compiled_s" b) with
            | Some s -> s >= timing_noise_floor_s /. 2.
            | None -> false
          in
          let oversub r = jbool (member "oversubscribed" r) = Some true in
          (* Domains time-sliced on too few cores make both walls scheduler
             noise (same policy as the par gate), in either run. *)
          if oversub b || oversub c then
            Printf.printf
              "   note: %s: ranks exceed host cores, timing ratios not gated\n"
              key;
          (match (jnum (member "speedup" b), jnum (member "speedup" c)) with
          | Some sb, Some sc
            when sb > 1. && above_floor && (not (oversub b))
                 && not (oversub c) ->
              out.checked <- out.checked + 1;
              if sc < sb /. (1. +. tolerance) then
                fail_row out
                  "%s: compiled speedup regressed %.2fx -> %.2fx (-%.0f%%, \
                   tolerance %.0f%%)"
                  key sb sc
                  (100. *. (1. -. (sc /. sb)))
                  (100. *. tolerance)
          | _ -> ());
          check_zero out ~key ~what: "max_abs_diff" (jnum (member "max_abs_diff" c)))
    base_rows;
  List.iter
    (fun (key, _) ->
      if List.assoc_opt key base_rows = None then
        Printf.printf "   note: %s is new (no baseline)\n" key)
    cur_rows

(* The artifact cache's whole value is warm hits costing a vanishing
   fraction of a cold compile: gate the machine-independent warm_speedup
   both against the baseline (tolerance band) and against an absolute
   floor — a warm hit within 10x of a cold compile means the cache
   stopped caching.  The on-disk store's value is the same claim across
   a restart: restart_speedup (cold / store-restore) gets the identical
   treatment.  Counters must reconcile exactly, failed-entry hits must
   be zero (this bench compiles nothing that fails — a nonzero count
   means lookups are being misattributed), and the concurrent-client
   invariant (N clients, 2 digests, exactly 2 compiles) must hold. *)
let warm_speedup_floor = 10.
let restart_speedup_floor = 10.

let compare_compile out ~tolerance ~baseline ~current =
  let key e = jstr (member "workload" e) in
  let base_rows = entries_by_key ~key baseline in
  let cur_rows = entries_by_key ~key current in
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur_rows with
      | None -> fail_row out "%s: row missing from current BENCH_compile" key
      | Some c ->
          let num fld e = jnum (member fld e) in
          let above_floor =
            (* warm_speedup = cold/warm: a cold compile down at the noise
               floor makes the ratio meaningless, so don't gate it *)
            match num "cold_ms" b with
            | Some ms -> ms /. 1000. >= timing_noise_floor_s /. 2.
            | None -> false
          in
          (match (num "warm_speedup" b, num "warm_speedup" c) with
          | Some sb, Some sc when above_floor ->
              out.checked <- out.checked + 1;
              if sc < warm_speedup_floor then
                fail_row out
                  "%s: warm_speedup %.1fx is under the %.0fx floor (cache \
                   not caching?)"
                  key sc warm_speedup_floor
              else if sb > 1. && sc < sb /. (1. +. tolerance) then
                fail_row out
                  "%s: warm_speedup regressed %.0fx -> %.0fx (-%.0f%%, \
                   tolerance %.0f%%)"
                  key sb sc
                  (100. *. (1. -. (sc /. sb)))
                  (100. *. tolerance)
          | _ -> ());
          (match (num "restart_speedup" b, num "restart_speedup" c) with
          | Some sb, Some sc when above_floor ->
              out.checked <- out.checked + 1;
              if sc < restart_speedup_floor then
                fail_row out
                  "%s: restart_speedup %.1fx is under the %.0fx floor (store \
                   restore not skipping the pipeline?)"
                  key sc restart_speedup_floor
              else if sb > 1. && sc < sb /. (1. +. tolerance) then
                fail_row out
                  "%s: restart_speedup regressed %.0fx -> %.0fx (-%.0f%%, \
                   tolerance %.0f%%)"
                  key sb sc
                  (100. *. (1. -. (sc /. sb)))
                  (100. *. tolerance)
          | _ -> ());
          (match jbool (member "counters_ok" c) with
          | Some ok ->
              out.checked <- out.checked + 1;
              if not ok then
                fail_row out "%s: cache counters do not reconcile" key
          | None -> ()))
    base_rows;
  (* current-run self-checks: machine-independent invariants that must
     hold wherever the bench ran, baseline or not *)
  List.iter
    (fun (key, c) ->
      check_zero out ~key ~what: "failed_hits" (jnum (member "failed_hits" c));
      match jbool (member "concurrent_ok" c) with
      | Some ok ->
          out.checked <- out.checked + 1;
          if not ok then
            fail_row out
              "%s: concurrent-client invariant violated (expected 2 digests \
               -> exactly 2 compiles, no failures)"
              key
      | None -> ())
    cur_rows;
  List.iter
    (fun (key, _) ->
      if List.assoc_opt key base_rows = None then
        Printf.printf "   note: %s is new (no baseline)\n" key)
    cur_rows

(* BENCH_scaling.json: curves + validation rather than a flat entries
   array.  Gate only what is machine-independent (see header comment). *)
let compare_scale out ~tolerance ~baseline ~current =
  let curve_key e =
    match
      ( jstr (member "workload" e),
        jstr (member "model" e),
        jnum (member "ranks" e) )
    with
    | Some w, Some m, Some r ->
        Some (Printf.sprintf "%s/%s/ranks=%d" w m (int_of_float r))
    | _ -> None
  in
  let curves json =
    List.filter_map
      (fun e -> match curve_key e with Some k -> Some (k, e) | None -> None)
      (jarr (member "curves" json))
  in
  let reference (k, e) =
    jstr (member "model" e) = Some "reference" && String.length k > 0
  in
  let base_rows = List.filter reference (curves baseline) in
  let cur_rows = curves current in
  List.iter
    (fun (key, b) ->
      match List.assoc_opt key cur_rows with
      | None -> fail_row out "%s: row missing from current BENCH_scaling" key
      | Some c ->
          let num fld e = jnum (member fld e) in
          (* frozen-model efficiency: same replay, same constants — a
             drop is a real change in the predicted schedule *)
          (match (num "efficiency" b, num "efficiency" c) with
          | Some eb, Some ec when eb > 0. ->
              out.checked <- out.checked + 1;
              if ec < eb /. (1. +. tolerance) then
                fail_row out
                  "%s: reference-model efficiency regressed %.3f -> %.3f \
                   (tolerance %.0f%%)"
                  key eb ec (100. *. tolerance)
          | _ -> ());
          check_exact_num out ~key ~what: "messages_per_step"
            ~base: (num "messages_per_step" b)
            ~cur: (num "messages_per_step" c);
          check_exact_num out ~key ~what: "bytes_per_step"
            ~base: (num "bytes_per_step" b)
            ~cur: (num "bytes_per_step" c))
    base_rows;
  (* current-run self-checks: machine-independent invariants that must
     hold wherever the bench ran *)
  List.iter
    (fun (key, c) ->
      match jnum (member "tuned_vs_default" c) with
      | Some t ->
          out.checked <- out.checked + 1;
          if t > 1. +. 1e-9 then
            fail_row out
              "%s: tuner lost to the default decomposition \
               (tuned_vs_default=%.4f)"
              key t
      | None -> ())
    cur_rows;
  List.iter
    (fun v ->
      match
        ( jstr (member "workload" v),
          jnum (member "ranks" v),
          jbool (member "within_bound" v) )
      with
      | Some w, Some r, Some ok ->
          out.checked <- out.checked + 1;
          if not ok then
            fail_row out
              "%s/ranks=%d: replay prediction outside its error bound \
               (rel_error=%.3f > %.2f)"
              w (int_of_float r)
              (Option.value (jnum (member "rel_error" v)) ~default: nan)
              (Option.value (jnum (member "bound" v)) ~default: nan)
      | _ -> ())
    (jarr (member "validation" current))

let gate_file out ~tolerance ~compare ~name ~baseline_dir ~current_dir =
  let bpath = Filename.concat baseline_dir name in
  let cpath = Filename.concat current_dir name in
  if not (Sys.file_exists bpath) then
    fail_row out "%s: baseline %s does not exist" name bpath
  else if not (Sys.file_exists cpath) then
    fail_row out "%s: current %s does not exist (bench not run?)" name cpath
  else
    match (load_json bpath, load_json cpath) with
    | baseline, current -> compare out ~tolerance ~baseline ~current
    | exception Bad_json msg -> fail_row out "%s: unparseable (%s)" name msg

let run ?(baseline_dir : string option) ?(current_dir : string option)
    ?(tolerance = 0.25) () =
  let baseline_dir =
    match baseline_dir with
    | Some d -> d
    | None ->
        Filename.concat (Bench_paths.repo_root ())
          (Filename.concat "bench" "baselines")
  in
  let current_dir =
    match current_dir with Some d -> d | None -> Bench_paths.out_dir ()
  in
  Printf.printf "== Benchmark regression gate ==\n";
  Printf.printf "   baseline: %s\n   current:  %s\n   tolerance: %.0f%%\n"
    baseline_dir current_dir (100. *. tolerance);
  let out = { failures = []; checked = 0 } in
  gate_file out ~tolerance ~compare: compare_par ~name: "BENCH_par.json"
    ~baseline_dir ~current_dir;
  gate_file out ~tolerance ~compare: compare_exec ~name: "BENCH_exec.json"
    ~baseline_dir ~current_dir;
  gate_file out ~tolerance ~compare: compare_compile
    ~name: "BENCH_compile.json" ~baseline_dir ~current_dir;
  gate_file out ~tolerance ~compare: compare_scale ~name: "BENCH_scaling.json"
    ~baseline_dir ~current_dir;
  match out.failures with
  | [] ->
      Printf.printf "   PASS: %d check(s), no regression beyond %.0f%%\n\n"
        out.checked (100. *. tolerance);
      true
  | fs ->
      Printf.printf "   FAIL: %d regression(s) (%d check(s) run):\n"
        (List.length fs) out.checked;
      List.iter (fun f -> Printf.printf "     - %s\n" f) (List.rev fs);
      print_newline ();
      false
