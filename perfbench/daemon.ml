(* kvd as a child process: spawn, readiness, /proc probes, teardown.

   Every child is recorded until it has been reaped, and an at_exit
   hook SIGKILLs and reaps whatever is left, so no run leaves a daemon
   behind — not even one that fails a check half way. *)

type t = { pid : int; log : string }

let live : t list ref = ref []
let reap d = live := List.filter (fun x -> x != d) !live

let rec waitpid_eintr flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr flags pid

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_eintr [] d.pid))
    !live;
  live := []

let () = at_exit kill_all

(* Read to EOF: /proc files report a length of 0 and cannot seek. *)
let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let spawn ~exe ~args ~log =
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd)
  in
  let d = { pid; log } in
  live := d :: !live;
  d

(* Whether the process has a handler installed for SIGINT (signal 2,
   bit 1 of the SigCgt mask in /proc/<pid>/status). *)
let catches_sigint pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.exists
    (fun line ->
      match String.split_on_char ':' line with
      | [ "SigCgt"; mask ] ->
          Int64.logand (Int64.of_string ("0x" ^ String.trim mask)) 2L <> 0L
      | _ -> false)
    (String.split_on_char '\n' s)

(* Ready once the daemon has printed its serving line (it prints it
   after the listener is up and, with a WAL, after recovery) and has
   installed its SIGINT handler, which it does just after that line: a
   SIGINT before then would kill it instead of stopping it. *)
let wait_ready ?(timeout = 60.0) d =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if contains (read_file d.log) "kvd: serving" && catches_sigint d.pid then ()
    else begin
      (match waitpid_eintr [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
          reap d;
          failwith
            (Printf.sprintf "kvd exited before serving:\n%s" (read_file d.log)));
      if Unix.gettimeofday () > deadline then
        failwith "kvd did not become ready in time";
      Unix.sleepf 0.0002;
      go ()
    end
  in
  go ()

(* SIGINT and wait for a clean exit; a daemon that does not exit in
   time is killed and reported. *)
let stop d =
  (try Unix.kill d.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match waitpid_eintr [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill d.pid Sys.sigkill;
          ignore (waitpid_eintr [] d.pid);
          reap d;
          failwith "kvd did not exit on SIGINT"
        end;
        Unix.sleepf 0.001;
        go ()
    | _, Unix.WEXITED 0 -> reap d
    | _, _ ->
        reap d;
        failwith
          (Printf.sprintf "kvd exited uncleanly on SIGINT:\n%s" (read_file d.log))
  in
  go ()

let kill9 d =
  Unix.kill d.pid Sys.sigkill;
  ignore (waitpid_eintr [] d.pid);
  reap d

(* CPU seconds used so far by every thread of [pid]: the sum of the
   nanosecond run times in /proc/<pid>/task/*/schedstat (finer than the
   clock ticks of /proc/<pid>/stat).  Threads that have exited are not
   counted, so take differences over windows in which the process keeps
   its threads. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let s = read_file (Printf.sprintf "%s/%s/schedstat" dir tid) in
      match String.split_on_char ' ' s with
      | ns :: _ -> (
          match float_of_string_opt ns with
          | Some v -> acc +. (v /. 1e9)
          | None -> acc)
      | [] -> acc)
    0.0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* CPU seconds used so far by the calling thread (an OCaml domain). *)
let thread_cpu_s () =
  match String.split_on_char ' ' (read_file "/proc/thread-self/schedstat") with
  | ns :: _ -> Option.fold ~none:0.0 ~some:(fun v -> v /. 1e9) (float_of_string_opt ns)
  | [] -> 0.0

(* Host CPU time stolen from this machine so far, in clock ticks: the
   steal column of /proc/stat.  On a shared host it marks the stretches
   in which another tenant held the physical cores. *)
let steal () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _user :: _nice :: _sys :: _idle :: _iow :: _irq :: _sirq :: st :: _
        -> ( try int_of_string st with Failure _ -> 0)
      | _ -> 0)
  | [] -> 0

let status_kb pid field =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ k; v ] when k = field ->
          Scanf.sscanf (String.trim v) "%d" (fun kb -> kb)
      | _ -> acc)
    0
    (String.split_on_char '\n' s)

let hwm_mb pid = float (status_kb pid "VmHWM") /. 1024.0

(* Records replayed at boot, summed over the daemon's per-shard WAL
   lines ("kvd: shard I wal: ..., N replayed"). *)
let replayed d =
  let rec count = function
    | n :: ("replayed" | "replayed,") :: _ -> int_of_string_opt n
    | _ :: tl -> count tl
    | [] -> None
  in
  List.fold_left
    (fun acc line ->
      match count (String.split_on_char ' ' line) with
      | Some n when contains line " wal: " -> acc + n
      | _ -> acc)
    0
    (String.split_on_char '\n' (read_file d.log))
