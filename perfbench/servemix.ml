(* The serve-mix workload: the repo's own [stencilc --socket] daemon as a
   separate process, driven by a closed loop of two connections.

   The seeded stream is made of cycles.  A cycle introduces sixteen new
   programs — each of the paper's four workloads (heat2d, wave2d, pw,
   traadv) under four of the eight target variants (ranks 2/4 ×
   overlap on/off × tile on/off, a half-fraction design so every kind
   sees every factor level twice) — in a fixed order.  Each new program
   is requested cold once, then followed by [reuse] re-requests of
   earlier programs, an even draw over the four kinds, each picking a
   program of its kind with a Zipf skew over recency.  The cache
   capacity is below the reuse window, so evicted programs come back
   through store restores.  Every cycle has the same composition.

   The traffic parameters below are assumptions, not measured traffic:
   no request trace of a stencil compile service is available to fit
   them.  [reuse] (≈98% of requests repeat a program), [window], [zipf_s]
   and [capacity] only make hits, misses and store restores all occur
   in one run. *)

let reuse = 40
let window = 12
let capacity = 16
let zipf_s = 1.1
let tile = [ 8; 8 ]
let start_reps = 25

type program = {
  kind : Progs.kind;
  ranks : int;
  overlap : bool;
  tiles : int list;
  payload : string;
  line : string;  (** request line, newline included *)
  digest : string;  (** expected digest, computed locally *)
}

let target_of p = Progs.target ~ranks: p.ranks ~tiles: p.tiles ~overlap: p.overlap

type req = { prog : int; cold : bool; cycle : int }

(* ---------- stream generation ---------- *)

let kinds = [| Progs.Heat; Progs.Wave; Progs.Pw; Progs.Traadv |]

let variants k =
  List.filter
    (fun v ->
      let bits = (v land 1) + ((v lsr 1) land 1) + ((v lsr 2) land 1) in
      (bits + k) mod 2 = 0)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  |> List.map (fun v -> ((if v land 1 = 1 then 4 else 2), v land 2 <> 0, v land 4 <> 0))

(* A fresh shape for [kind] not used before in this stream, so every
   introduced program has its own digest. *)
let fresh_shape rng used kind =
  let draw () =
    let r lo hi = lo + Random.State.int rng (hi - lo + 1) in
    match kind with
    | Progs.Heat | Progs.Wave -> ([ 4 * r 8 24; 4 * r 8 24 ], r 1 4)
    | Progs.Pw -> ([ 4 * r 4 12; 4 * r 4 12; r 8 16 ], 1)
    | Progs.Traadv -> ([ 4 * r 3 10; 4 * r 3 10; r 6 12 ], 1)
  in
  let rec go tries =
    let s = draw () in
    if tries > 10_000 then failwith "stream generation ran out of distinct shapes"
    else if Hashtbl.mem used (kind, s) then go (tries + 1)
    else begin
      Hashtbl.replace used (kind, s) ();
      s
    end
  in
  go 0

let zipf_table =
  let w = Array.init window (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* Recency rank in [0, n): 0 is the most recent eligible program. *)
let zipf rng n =
  let rec pick () =
    let u = Random.State.float rng 1. in
    let r = ref 0 in
    while !r < window - 1 && zipf_table.(!r) < u do incr r done;
    if !r < n then !r else pick ()
  in
  pick ()

let generate ~seed ~cycles =
  let rng = Random.State.make [| seed; 0x5e12e |] in
  let used = Hashtbl.create 64 in
  let progs = ref [] and nprogs = ref 0 and reqs = ref [] and builds = ref [] in
  let introduced = ref [] in
  for cycle = 0 to cycles - 1 do
    (* A fixed order, expensive and cheap kinds alternating, so the way
       cold compiles queue behind each other repeats every cycle. *)
    let order =
      List.concat
        (List.init 4 (fun j ->
             List.map (fun k -> (kinds.(k), List.nth (variants k) j)) [ 3; 0; 2; 1 ]))
    in
    List.iter
      (fun (kind, (ranks, overlap, tiled)) ->
        let shape, timesteps = fresh_shape rng used kind in
        let so = match kind with Progs.Wave -> 4 | _ -> 2 in
        let m, tb = Util.time (fun () -> Progs.build kind ~shape ~timesteps ~so) in
        builds := tb :: !builds;
        let payload = Ir.Printer.module_to_string m in
        let tiles = if tiled then tile else [] in
        let line =
          Printf.sprintf
            "compile ir=%d target=distributed-cpu ranks=%d strategy=slice2d overlap=%b%s\n"
            (String.length payload) ranks overlap
            (if tiled then " tile=" ^ String.concat "," (List.map string_of_int tile) else "")
        in
        let target = Progs.target ~ranks ~tiles ~overlap in
        let digest =
          Service.Artifact.digest_of ~executor: Progs.executor ~target
            (Ir.Parser.parse_string payload)
        in
        progs := { kind; ranks; overlap; tiles; payload; line; digest } :: !progs;
        let id = !nprogs in
        incr nprogs;
        reqs := { prog = id; cold = true; cycle } :: !reqs;
        (* Re-requests take the four kinds in turn (an even draw), skip
           the newest program (its cold compile may still be in flight on
           the other connection) and pick among the [window] most recent
           programs of their kind. *)
        Array.iter
          (fun kind ->
            let eligible = List.filter (fun (k, _) -> k = kind) !introduced in
            let n = min window (List.length eligible) in
            if n > 0 then
              reqs := { prog = snd (List.nth eligible (zipf rng n)); cold = false; cycle } :: !reqs)
          (Array.init reuse (fun j -> kinds.(j mod Array.length kinds)));
        introduced := (kind, id) :: !introduced)
      order
  done;
  (Array.of_list (List.rev !progs), Array.of_list (List.rev !reqs), List.rev !builds)

(* ---------- the daemon and its clients ---------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      (* A stuck daemon must fail the request, not hang the benchmark. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close_conn (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()

let kvs_of_reply line =
  match String.split_on_char ' ' line with
  | "ok" :: rest ->
      Some
        (List.map
           (fun w ->
             match String.index_opt w '=' with
             | Some i -> (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
             | None -> (w, ""))
           rest)
  | _ -> None

let call (_, ic, oc) text =
  output_string oc text;
  flush oc;
  input_line ic

type daemon = { pid : int; dir : string; sock : string; ctl : Unix.file_descr * in_channel * out_channel }

let start_daemon ~stencilc ~dir =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Util.now () in
  let pid =
    Unix.create_process stencilc
      [| stencilc; "--socket"; sock; "--store"; Filename.concat dir "store";
         "--cache-capacity"; string_of_int capacity |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let rec wait_ready () =
    match connect sock with
    | Some c -> c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start (see daemon.log)");
        if Util.now () -. t0 > 30. then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "daemon did not start listening within 30 s"
        end;
        Unix.sleepf 0.001;
        wait_ready ()
  in
  let ctl = wait_ready () in
  if call ctl "ping\n" <> "ok pong" then failwith "daemon did not answer ping";
  ({ pid; dir; sock; ctl }, Util.now () -. t0)

let stop_daemon d =
  (try ignore (call d.ctl "shutdown\n") with _ -> ());
  close_conn d.ctl;
  let deadline = Util.now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  wait ()

let stats d =
  match Option.bind (Some (call d.ctl "stats\n")) kvs_of_reply with
  | Some kv -> fun k -> int_of_string (List.assoc k kv)
  | None -> failwith "stats request failed"

type outcome = {
  t_send : float;
  t_recv : float;
  reply : (string * string) list option;  (** None: error reply or dropped *)
}

(* A reading of the host's tick counters.  Readings are taken when a
   request is issued [window_s] or more after the last one, and at every
   cycle boundary; consecutive readings bound a steal window. *)
type reading = { r_time : float; r_ticks : (float * float) option }

let window_s = 0.5
let reading () = { r_time = Util.now (); r_ticks = Util.cpu_ticks () }

type window = { w0 : float; w1 : float; w_steal : float }

let windows_of readings =
  let rec go = function
    | a :: (b :: _ as rest) ->
        { w0 = a.r_time; w1 = b.r_time;
          w_steal = Util.steal_frac ~before: a.r_ticks ~after: b.r_ticks }
        :: go rest
    | _ -> []
  in
  go readings

let duration ws = List.fold_left (fun a w -> a +. (w.w1 -. w.w0)) 0. ws

(* The windows measured under at most [Util.steady_steal]; when they
   cover less than half the measured time, the least-stolen windows that
   cover half of it.  Selection reads only the steal counter. *)
let select_windows ws =
  let clean = List.filter (fun w -> w.w_steal <= Util.steady_steal) ws in
  let half = duration ws /. 2. in
  if duration clean >= half then clean
  else
    let rec take acc = function
      | w :: rest when duration acc < half -> take (w :: acc) rest
      | _ -> acc
    in
    take [] (List.stable_sort (fun a b -> compare a.w_steal b.w_steal) ws)

(* Drive requests [first, last) over two client domains in a closed
   loop.  At each cycle boundary [stop] sees the readings so far and
   decides whether the next cycle is issued.  Returns the first request
   not issued and the readings, the last one taken after the final
   reply. *)
let drive d progs reqs (results : outcome option array) ~first ~last ~stop =
  let m = Mutex.create () in
  let cursor = ref first and stopped = ref false and readings = ref [ reading () ] in
  let next () =
    Mutex.lock m;
    let i = !cursor in
    let boundary = i > first && i < last && reqs.(i - 1).cycle <> reqs.(i).cycle in
    (match !readings with
    | r :: _ when boundary || Util.now () -. r.r_time >= window_s ->
        readings := reading () :: !readings
    | _ -> ());
    if (not !stopped) && boundary && stop (List.rev !readings) then stopped := true;
    let r = if !stopped || i >= last then None else (incr cursor; Some i) in
    Mutex.unlock m;
    r
  in
  let client () =
    match connect d.sock with
    | None -> failwith "client could not connect"
    | Some conn ->
        let rec loop () =
          match next () with
          | None -> ()
          | Some i ->
              let p = progs.(reqs.(i).prog) in
              let t_send = Util.now () in
              let reply, alive =
                match call conn (p.line ^ p.payload) with
                | line -> (kvs_of_reply line, true)
                | exception _ -> (None, false)
              in
              results.(i) <- Some { t_send; t_recv = Util.now (); reply };
              if alive then loop ()
        in
        loop ();
        close_conn conn
  in
  let doms = List.init 2 (fun _ -> Domain.spawn client) in
  List.iter Domain.join doms;
  (!cursor, List.rev (reading () :: !readings))

(* ---------- the in-process replay ---------- *)

type replay = {
  flags : [ `Hit | `Miss | `Store ] array;
  cache_stats : Service.Cache.stats;
  parse_ms : float list;
  digest_ms : float list;
  save_ms : float list;
  load_ms : float list;
  exec_ms : float list;
  passes : (string, Progs.pass_acc) Hashtbl.t;
  colds : int;
  mismatched : int;  (** digest ≠ expected, or pass replay ≠ Pipeline.compile *)
  reconcile_err : float;  (** worst request *)
  wall : float;
}

(* Replay [reqs] sequentially in this process, calling each layer
   directly with one span per call, against a [Service.Cache] of the
   daemon's capacity and policy and a private store: parse and digest
   (ir), on a miss every pass (core, transforms), executor compile (exec)
   and store write (service), on a store restore the store read and
   executor compile. *)
let replay_traced ~dir spans progs reqs =
  Util.rm_rf dir;
  let store = Service.Store.create dir in
  let cache : unit Service.Cache.t =
    Service.Cache.create ~capacity ~eviction: Service.Cache.Lru "perfbench-replay"
  in
  let passes = Progs.pass_table () in
  let parse_ms = ref [] and digest_ms = ref [] and save_ms = ref [] in
  let load_ms = ref [] and exec_ms = ref [] in
  let mismatched = ref 0 and worst = ref 0. and colds = ref 0 and wall = ref 0. in
  let timed_into acc ~parent ~req ~layer name f =
    let t0 = Util.now () in
    let r = f () in
    let t1 = Util.now () in
    ignore (Spans.add spans ~parent ~req ~layer name t0 t1);
    acc := ((t1 -. t0) *. 1000.) :: !acc;
    r
  in
  let executor = Progs.executor in
  let flags =
    Array.mapi
      (fun req (r : req) ->
        let p = progs.(r.prog) in
        let target = target_of p in
        let fingerprint = Core.Pipeline.target_fingerprint target in
        let root = Spans.reserve spans in
        let t0 = Util.now () in
        let m =
          timed_into parse_ms ~parent: root ~req ~layer: "ir" "parse" (fun () ->
              Ir.Parser.parse_string p.payload)
        in
        let digest =
          timed_into digest_ms ~parent: root ~req ~layer: "ir" "digest" (fun () ->
              Service.Artifact.digest_of ~executor ~target m)
        in
        if digest <> p.digest then incr mismatched;
        let restored = ref false and cold = ref None in
        let compute () =
          match
            timed_into load_ms ~parent: root ~req ~layer: "service" "store_load" (fun () ->
                (* The integrity checks [Artifact.restore_persisted] makes
                   before it trusts a persisted artifact. *)
                match Service.Store.load store ~digest with
                | Some p
                  when p.Service.Store.p_target = fingerprint
                       && p.Service.Store.p_executor = executor.Interp.Executor.exec_name
                       && Service.Artifact.digest_of_parts ~fingerprint
                            ~executor_name: p.Service.Store.p_executor
                            p.Service.Store.p_canonical
                          = digest ->
                    Some p
                | Some _ ->
                    incr mismatched;
                    None
                | None -> None)
          with
          | Some persisted ->
              restored := true;
              let lowered =
                Spans.timed spans ~parent: root ~req ~layer: "service" "unmarshal" (fun () ->
                    match persisted.Service.Store.p_lowered_bin with
                    | Some bin -> (Marshal.from_string bin 0 : Ir.Op.t)
                    | None -> Ir.Parser.parse_string persisted.Service.Store.p_lowered)
              in
              ignore
                (timed_into exec_ms ~parent: root ~req ~layer: "exec" "compile" (fun () ->
                     executor.Interp.Executor.compile lowered))
          | None ->
              let t_c = Util.now () in
              let lowered = Progs.compile_by_pass spans ~parent: root ~req passes target m in
              ignore
                (timed_into exec_ms ~parent: root ~req ~layer: "exec" "compile" (fun () ->
                     executor.Interp.Executor.compile lowered));
              let compile_s = Util.now () -. t_c in
              timed_into save_ms ~parent: root ~req ~layer: "service" "store_save" (fun () ->
                  Service.Store.save store
                    {
                      Service.Store.p_digest = digest;
                      p_executor = executor.Interp.Executor.exec_name;
                      p_target = fingerprint;
                      p_compile_s = compile_s;
                      p_canonical = Ir.Printer.canonical_module_string m;
                      p_lowered = Ir.Printer.module_to_string lowered;
                      p_lowered_bin = Some (Marshal.to_string lowered []);
                    });
              cold := Some lowered
        in
        let (), flag = Service.Cache.find_or_compute cache ~key: digest compute in
        let t1 = Util.now () in
        Spans.close spans ~id: root ~parent: (-1) ~req ~layer: "service" "request" t0 t1;
        wall := !wall +. (t1 -. t0);
        worst := Float.max !worst (Spans.reconcile_err spans (Spans.find spans root));
        (* Outside the request's span: the pass-by-pass replay must reach
           the module Pipeline.compile produces. *)
        Option.iter
          (fun lowered ->
            incr colds;
            let reference = Core.Pipeline.compile target (Ir.Parser.parse_string p.payload) in
            if Progs.canonical_digest reference <> Progs.canonical_digest lowered then
              incr mismatched)
          !cold;
        match flag with `Hit -> `Hit | `Miss -> if !restored then `Store else `Miss)
      reqs
  in
  Util.rm_rf dir;
  {
    flags;
    cache_stats = Service.Cache.stats cache;
    parse_ms = !parse_ms;
    digest_ms = !digest_ms;
    save_ms = !save_ms;
    load_ms = !load_ms;
    exec_ms = !exec_ms;
    passes;
    colds = !colds;
    mismatched = !mismatched;
    reconcile_err = !worst;
    wall = !wall;
  }

(* The same stream through the program's own in-process path,
   [Service.Artifact.get_cached] with the daemon's cache and store
   configuration and no spans: the untraced reference for the tracing
   overhead, and a cross-check of the traced replay's cache outcomes. *)
let replay_untraced ~dir progs reqs =
  Util.rm_rf dir;
  Service.Artifact.clear ();
  Service.Artifact.set_policy ~capacity ~eviction: Service.Cache.Lru ();
  Service.Artifact.set_store (Some (Service.Store.create dir));
  let wall = ref 0. in
  let flags =
    Array.map
      (fun (r : req) ->
        let p = progs.(r.prog) in
        let t0 = Util.now () in
        let m = Ir.Parser.parse_string p.payload in
        let _, flag =
          Service.Artifact.get_cached ~executor: Progs.executor ~target: (target_of p) m
        in
        wall := !wall +. (Util.now () -. t0);
        flag)
      reqs
  in
  Service.Artifact.set_store None;
  Service.Artifact.clear ();
  Util.rm_rf dir;
  (flags, !wall)

(* ---------- the workload ---------- *)

let dir_size_kb dir =
  match Sys.readdir dir with
  | files ->
      let sizes =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".art")
        |> List.map (fun f -> float_of_int (Unix.stat (Filename.concat dir f)).Unix.st_size /. 1024.)
      in
      Util.mean sizes
  | exception Sys_error _ -> 0.

(* A latency statistic of the even four-kind mix: the statistic of each
   kind's samples, combined by geometric mean over the kinds.  Latencies
   of the kinds differ up to twentyfold, so a percentile of the pooled
   samples falls into the gap between two kinds' clusters, where it
   jumps with the count on either side of the gap. *)
let mix_of stat by_kind =
  match List.filter (( <> ) []) by_kind with
  | [] -> 0.
  | present -> exp (Util.mean (List.map (fun xs -> log (stat xs)) present))

let mix_quantile q = mix_of (Util.quantile q)
let mix_tmean = mix_of Util.trimmed_mean

let run ~work ~stencilc ~seed ~seconds ~trace (mt : Metrics.t) =
  let set = Metrics.set mt in
  let failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Util.log "FAILED: %s" msg)
      fmt
  in
  (* One warm-up cycle, then at most one measured cycle per second of
     the longest measuring time (a cycle takes longer than a second on any
     host we know). *)
  let cycles = 1 + max 2 (int_of_float (Float.ceil (Util.steady_extend *. seconds))) in
  let progs, reqs, builds = generate ~seed ~cycles in
  let base = Filename.concat work (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  (* Daemon start-up, repeated; the last start is the one measured. *)
  let starts = ref [] in
  for k = 1 to start_reps - 1 do
    let d, t = start_daemon ~stencilc ~dir: (Printf.sprintf "%s-%d" base k) in
    starts := t :: !starts;
    if not (stop_daemon d) then fail "daemon start %d did not shut down cleanly" k;
    Util.rm_rf d.dir
  done;
  let d, t = start_daemon ~stencilc ~dir: base in
  starts := t :: !starts;
  let n = Array.length reqs in
  let results = Array.make n None in
  let warm_end =
    let i = ref 0 in
    while !i < n && reqs.(!i).cycle = 0 do incr i done;
    !i
  in
  let finally () =
    (try ignore (stop_daemon d) with _ -> ());
    Util.rm_rf d.dir
  in
  (* Cycles run for [seconds]; while the windows under low steal cover
     less than half of that, keep going, up to [Util.steady_extend] times
     that. *)
  let enough t_b readings =
    let elapsed = Util.now () -. t_b in
    let clean =
      List.filter (fun w -> w.w_steal <= Util.steady_steal) (windows_of readings)
    in
    elapsed >= Util.steady_extend *. seconds
    || (elapsed >= seconds && duration clean >= seconds /. 2.)
  in
  let measured, readings, s0, s1, rss, store_kb =
    Fun.protect ~finally (fun () ->
        ignore (drive d progs reqs results ~first: 0 ~last: warm_end ~stop: (fun _ -> false));
        let s0 = stats d in
        let t_b = Util.now () in
        let stop, readings = drive d progs reqs results ~first: warm_end ~last: n ~stop: (enough t_b) in
        let s1 = stats d in
        let rss = Util.vm_hwm_mb d.pid in
        let store_kb = dir_size_kb (Filename.concat d.dir "store") in
        if not (stop_daemon d) then fail "daemon did not shut down cleanly";
        ((warm_end, stop), readings, s0, s1, rss, store_kb))
  in
  let steal =
    match (readings, List.rev readings) with
    | r0 :: _, r1 :: _ -> Util.steal_frac ~before: r0.r_ticks ~after: r1.r_ticks
    | _ -> 0.
  in
  let windows = windows_of readings in
  let chosen = select_windows windows in
  let chosen_s = duration chosen in
  let in_chosen t = List.exists (fun w -> w.w0 <= t && t <= w.w1) chosen in
  (* A request's latency counts when every window it overlaps is chosen. *)
  let clean_request (o : outcome) =
    List.for_all
      (fun w -> w.w1 <= o.t_send || w.w0 >= o.t_recv || List.memq w chosen)
      windows
  in
  let first, stop = measured in
  if stop = n then Util.log "note: the stream ran out before %.0f s" seconds;
  (* Correctness of every reply, warm-up included. *)
  let count = Hashtbl.create 4 in
  let bump k = Hashtbl.replace count k (1 + Option.value (Hashtbl.find_opt count k) ~default: 0) in
  (* Latencies of the requests in chosen windows, by outcome and kind. *)
  let lat = Hashtbl.create 16 and completed = ref 0 and used = ref 0 in
  let add key ms = Hashtbl.replace lat key (ms :: Option.value (Hashtbl.find_opt lat key) ~default: []) in
  let compile_ms = ref [] and queue_ms = ref [] and protocol_ms = ref [] in
  for i = 0 to stop - 1 do
    let r = reqs.(i) and p = progs.(reqs.(i).prog) in
    match results.(i) with
    | None -> fail "request %d was never answered (connection dropped)" i
    | Some { reply = None; _ } -> fail "request %d: error reply or dropped connection" i
    | Some ({ reply = Some kv; _ } as o) -> (
        let get k = Option.value (List.assoc_opt k kv) ~default: "" in
        let flag = get "cached" in
        let valid =
          if get "digest" <> p.digest then (
            fail "request %d: digest differs from the local digest" i;
            false)
          else if not (List.mem flag [ "hit"; "miss"; "store" ]) then (
            fail "request %d: unknown cached=%s" i flag;
            false)
          else if r.cold <> (flag = "miss") then (
            fail "request %d: cached=%s for a %s request" i flag
              (if r.cold then "first" else "repeat");
            false)
          else true
        in
        if valid && i >= first then begin
          bump flag;
          if in_chosen o.t_recv then incr completed
        end;
        if valid && i >= first && clean_request o then begin
          let ms = (o.t_recv -. o.t_send) *. 1000. in
          let f k = Option.value (float_of_string_opt (get k)) ~default: 0. in
          incr used;
          add ("all", p.kind) ms;
          add (flag, p.kind) ms;
          if flag = "miss" then begin
            compile_ms := f "compile_ms" :: !compile_ms;
            queue_ms := f "queue_ms" :: !queue_ms
          end;
          protocol_ms := (ms -. f "compile_ms" -. f "queue_ms") :: !protocol_ms
        end)
  done;
  let c k = Option.value (Hashtbl.find_opt count k) ~default: 0 in
  let by_kind flag =
    Array.to_list (Array.map (fun k -> Option.value (Hashtbl.find_opt lat (flag, k)) ~default: []) kinds)
  in
  (* Latency by outcome and program kind: what each percentile above is
     made of. *)
  List.iter
    (fun flag ->
      Printf.printf "serve-mix: %-5s" flag;
      List.iter2
        (fun kind xs ->
          Printf.printf "  %s n=%d p50=%.2fms tmean=%.2fms" (Progs.kind_name kind)
            (List.length xs)
            (if xs = [] then 0. else Util.median xs)
            (if xs = [] then 0. else Util.trimmed_mean xs))
        (Array.to_list kinds) (by_kind flag);
      print_newline ())
    [ "hit"; "store"; "miss" ];
  let hits = s1 "hits" - s0 "hits" and misses = s1 "misses" - s0 "misses" in
  let cold_reqs = ref 0 in
  for i = first to stop - 1 do if reqs.(i).cold then incr cold_reqs done;
  if hits <> c "hit" || misses <> c "miss" + c "store" || c "miss" <> !cold_reqs
     || s1 "failed_hits" <> 0 || s1 "failures" <> 0
  then
    fail "daemon counters disagree: hits %d/%d, misses+restores %d/%d, misses %d for %d \
          distinct programs, failed_hits %d, failures %d"
      hits (c "hit") misses (c "miss" + c "store") (c "miss") !cold_reqs (s1 "failed_hits")
      (s1 "failures");
  set "req_per_s" (float_of_int !completed /. chosen_s);
  set "req_ms_p50" (mix_quantile 0.5 (by_kind "all"));
  set "req_ms_p99" (mix_quantile 0.99 (by_kind "all"));
  set "cold_ms_tmean" (mix_tmean (by_kind "miss"));
  set "warm_ms_tmean" (mix_tmean (by_kind "hit"));
  set "store_ms_tmean" (mix_tmean (by_kind "store"));
  set "setup_s" (Util.median !starts);
  set "peak_rss_mb" rss;
  set "frontends.build_ms" (Util.median (List.map (fun t -> t *. 1000.) builds));
  set "ir.payload_kb"
    (Util.mean
       (List.init (stop - first) (fun i ->
            float_of_int (String.length progs.(reqs.(first + i).prog).payload) /. 1024.)));
  set "service.compile_ms_p50" (Util.median !compile_ms);
  set "service.queue_ms_p50" (Util.median !queue_ms);
  set "service.queue_ms_p99" (Util.quantile 0.99 !queue_ms);
  set "service.protocol_ms_p50" (Util.median !protocol_ms);
  set "service.store_kb" store_kb;
  set "host.steal_frac" steal;
  set "host.nproc" (float_of_int (Util.nproc ()));
  Printf.printf
    "serve-mix: %d measured requests (hit %d, store %d, miss %d; evictions %d), daemon counters \
     reconcile; %d of %d steal windows under <= %.0f%% steal, %.2f of %.2f s chosen, %d \
     requests inside them; steal %.3f, nproc %d, ocaml %s\n"
    (stop - first) (c "hit") (c "store") (c "miss")
    (s1 "evictions" - s0 "evictions")
    (List.length (List.filter (fun w -> w.w_steal <= Util.steady_steal) windows))
    (List.length windows) (Util.steady_steal *. 100.) chosen_s (duration windows) !used steal
    (Util.nproc ()) Sys.ocaml_version;
  if trace then begin
    (* The warm-up cycle plus the first measured one: a fixed request set,
       so the replay's counters repeat exactly for a seed. *)
    let sub = Array.of_list (List.filter (fun r -> r.cycle <= 1) (Array.to_list reqs)) in
    let rdir = Filename.concat work (Printf.sprintf "replay-%d" (Unix.getpid ())) in
    let flags_u, wall_u = replay_untraced ~dir: rdir progs sub in
    let spans = Spans.create () in
    let rp = replay_traced ~dir: rdir spans progs sub in
    if rp.mismatched > 0 then fail "traced replay: %d digest mismatches" rp.mismatched;
    if flags_u <> rp.flags then fail "traced replay's cache outcomes differ from Artifact.get_cached's";
    let st = rp.cache_stats in
    let restores = Array.fold_left (fun a f -> if f = `Store then a + 1 else a) 0 rp.flags in
    set "service.hits" (float_of_int st.Service.Cache.hits);
    set "service.misses" (float_of_int (st.Service.Cache.misses - restores));
    set "service.store_restores" (float_of_int restores);
    set "service.evictions" (float_of_int st.Service.Cache.evictions);
    set "service.failed_hits" (float_of_int st.Service.Cache.failed_hits);
    set "service.store_save_ms" (Util.mean rp.save_ms);
    set "service.store_load_ms" (Util.mean rp.load_ms);
    set "ir.parse_ms" (Util.mean rp.parse_ms);
    set "ir.digest_ms" (Util.mean rp.digest_ms);
    set "exec.compile_ms" (Util.mean rp.exec_ms);
    Progs.set_pass_metrics set rp.passes ~compiles: rp.colds;
    set "obs.trace_overhead" (rp.wall /. wall_u -. 1.);
    set "obs.reconcile_err" rp.reconcile_err;
    if rp.reconcile_err > Spans.tolerance then
      fail "layer self times miss a request's wall time by %.1f%% (tolerance %.0f%%)"
        (rp.reconcile_err *. 100.) (Spans.tolerance *. 100.);
    let layers =
      List.fold_left
        (fun acc s ->
          if s.Spans.parent = -1 then
            List.fold_left
              (fun acc (l, v) ->
                (l, v +. Option.value (List.assoc_opt l acc) ~default: 0.)
                :: List.remove_assoc l acc)
              acc (Spans.layer_self spans s)
          else acc)
        [] spans.Spans.spans
      |> List.sort compare
    in
    Printf.printf "serve-mix: replay of %d requests (%d cold), %.3f s traced vs %.3f s untraced; \
                   self time by layer:" (Array.length sub) rp.colds rp.wall wall_u;
    List.iter (fun (l, v) -> Printf.printf " %s=%.4f" l v) layers;
    print_newline ();
    Util.mkdir_p work;
    Spans.write spans (Filename.concat work (Printf.sprintf "trace-serve-mix-%d.json" seed))
  end;
  (stop, !failed)
