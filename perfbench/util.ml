(* Small shared helpers: clocks, order statistics, host context. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (position q·(n−1)), the
   same definition numpy calls "linear". *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

let mean xs =
  match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* Mean of the middle samples, the lowest and highest tenth (rounded
   down) left out.  Short samples on a shared host fall into a
   fast and a slow cluster whose mixture shifts from run to run; a mean
   moves in proportion to that shift where a median jumps between the
   clusters, and the trim keeps single preempted samples out. *)
let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = n / 10 in
  if n = 0 then nan
  else mean (Array.to_list (Array.sub a k (n - (2 * k))))

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------- host context ---------- *)

(* CPUs this process may run on, as nproc(1) counts them (the affinity
   mask in /proc/self/status); the runtime's online-CPU count when that
   is unreadable. *)
let nproc () =
  let count_list l =
    String.split_on_char ',' (String.trim l)
    |> List.fold_left
         (fun n range ->
           match String.split_on_char '-' range |> List.map int_of_string_opt with
           | [ Some _ ] -> n + 1
           | [ Some a; Some b ] -> n + (b - a + 1)
           | _ -> n)
         0
  in
  let prefix = "Cpus_allowed_list:" in
  let from_status =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | text ->
        String.split_on_char '\n' text
        |> List.find_map (fun l ->
               let k = String.length prefix in
               if String.length l > k && String.sub l 0 k = prefix then
                 Some (count_list (String.sub l k (String.length l - k)))
               else None)
    | exception Sys_error _ -> None
  in
  match from_status with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* The aggregate "cpu" line of /proc/stat: (steal ticks, total ticks). *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
          let v = List.map (fun s -> float_of_string_opt s) fields in
          let v = List.map (Option.value ~default: 0.) v in
          let total = sum v in
          let steal = match List.nth_opt v 7 with Some s -> s | None -> 0. in
          Some (steal, total)
      | _ -> None)
  | None | (exception Sys_error _) -> None

let steal_frac ~before ~after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> (s1 -. s0) /. (t1 -. t0)
  | _ -> 0.

(* VmHWM (peak resident set) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
               String.split_on_char ' ' l
               |> List.filter_map int_of_string_opt
               |> List.find_map (fun kb -> Some (float_of_int kb /. 1024.))
             else None)
      |> Option.value ~default: 0.
  | exception Sys_error _ -> 0.

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* ---------- steal-aware sample selection ---------- *)

(* A rep or cycle counts as steady when the host stole at most this share
   of CPU time while it ran.  On a shared VM, steal on either vCPU stalls
   both ranks of a two-domain run, so its wall time measures the
   neighbours rather than the stack. *)
let steady_steal = 0.05

(* While too few samples are steady, measuring goes on up to this many
   times the requested seconds; the cap keeps a run's length bounded. *)
let steady_extend = 1.5

(* The samples measured under at most [steady_steal]; when fewer than
   [min] qualify, the [min] least-stolen ones.  Selection looks only at
   the host's steal counter, never at the sample's own value. *)
let steady ~min (samples : ('a * float) list) =
  let ok = List.filter (fun (_, s) -> s <= steady_steal) samples in
  if List.length ok >= min then List.map fst ok
  else
    List.stable_sort (fun (_, a) (_, b) -> compare a b) samples
    |> List.filteri (fun i _ -> i < min)
    |> List.map fst
