(* tip_serve child processes and the files they leave behind.

   A server is started on port 0 with its stderr sent to a log file; the
   bound port is read back from the server's own "listening on port N"
   line, polled every millisecond. The client then connects once, with
   no retry loop, so start-up time carries no jittered back-off. *)

let server_exe = Filename.concat "_build" "default/bin/tip_serve.exe"

type t = { pid : int; port : int; mutable alive : bool }

let live : t list ref = ref []

(* The host's own TIP_* and OCAMLRUNPARAM settings are dropped, and the
   pool is pinned to two domains: every run serves under the same
   configuration. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"TIP_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> List.cons "TIP_PARALLEL=2"
  |> Array.of_list

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let port_of_log text =
  let marker = "listening on port " in
  match find_sub text marker with
  | None -> None
  | Some i ->
    let j = ref (i + String.length marker) in
    let start = !j in
    while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
      incr j
    done;
    if !j = start || !j >= String.length text then None
    else int_of_string_opt (String.sub text start (!j - start))

let rec waitpid_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec reap () =
      match Unix.waitpid [] t.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    live := List.filter (fun s -> s != t) !live
  end

let kill_all () = List.iter kill !live

let spawn ~log args =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (server_exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process_env server_exe argv (child_env ()) null out out in
  Unix.close out;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec await () =
    match port_of_log (read_file log) with
    | Some port -> port
    | None ->
      if waitpid_nohang pid then
        failwith ("tip_serve exited during start-up:\n" ^ read_file log)
      else if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        failwith "tip_serve did not report its port within 60 s"
      end
      else begin
        Unix.sleepf 0.001;
        await ()
      end
  in
  let port = await () in
  let t = { pid; port; alive = true } in
  live := t :: !live;
  t

(* VmHWM: the process's peak resident set, in MiB. *)
let peak_rss_mib t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  match find_sub status "VmHWM:" with
  | None -> nan
  | Some i ->
    let rest = String.sub status (i + 6) (String.length status - i - 6) in
    Scanf.sscanf rest " %d" (fun kb -> float_of_int kb /. 1024.)

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path
