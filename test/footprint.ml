(* Process state from /proc, for the leak checks of the suites that
   fork: child processes, open descriptors and threads. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let proc_entries dir = Array.length (Sys.readdir dir)

(* Children of every thread of this process, zombies included. *)
let children () =
  let dir = "/proc/self/task" in
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun tid ->
         match read_file (Printf.sprintf "%s/%s/children" dir tid) with
         | s ->
             String.split_on_char ' ' (String.trim s) |> List.filter_map int_of_string_opt
         | exception Sys_error _ -> [])

(* Child processes, open descriptors and threads of this process. *)
let take () =
  (List.length (children ()), proc_entries "/proc/self/fd", proc_entries "/proc/self/task")

(* A baseline taken just after a thread was joined could still count
   it: read until two readings 10 ms apart agree. *)
let rec settled ?(prev = take ()) () =
  Unix.sleepf 0.01;
  let now = take () in
  if now = prev then now else settled ~prev:now ()

(* A joined thread may take a moment to leave /proc/self/task, so the
   footprint gets up to a second to settle back to [before]. *)
let check name before =
  let deadline = Triolet_runtime.Clock.monotonic_ns () + 1_000_000_000 in
  let rec settle () =
    let now = take () in
    if now = before || Triolet_runtime.Clock.monotonic_ns () > deadline then now
    else (
      Unix.sleepf 0.001;
      settle ())
  in
  let c, f, t = settle () and c0, f0, t0 = before in
  Alcotest.(check int) (name ^ ": child processes") c0 c;
  Alcotest.(check int) (name ^ ": descriptors") f0 f;
  Alcotest.(check int) (name ^ ": threads") t0 t
