(* The daemon outlives descriptor exhaustion.

   Run under a low descriptor limit (test/dune runs it under
   `ulimit -n 64`).  Host a server in-process and take every free
   descriptor with [dup] while its accept loop is blocked in [accept].
   Free one, and connect a client on it: the pending [accept] completes,
   and the loop's next [accept] finds no descriptor (EMFILE).  Then
   free a few more and require a reply to one valid request on a new
   connection within a bounded wait.  A server whose accept loop ends
   on EMFILE never accepts that connection, and the wait times out:
   exit 1, no hang.  Exit 0 when the reply arrives. *)

open Hsp_service

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "accept_emfile: FAIL %s\n%!" msg;
      exit 1)
    fmt

let max_dups = 256
let reply_timeout = 10.0
let sample = {|{"op":"sample","dims":[8,8],"moduli":[4,2],"count":1}|}
let ok reply = Option.bind (Jsonv.member "ok" reply) Jsonv.to_bool_opt = Some true

(* a reply to [sample] on [fd] within [reply_timeout] *)
let served fd =
  Protocol.write_frame fd sample;
  match Unix.select [ fd ] [] [] reply_timeout with
  | [], _, _ -> false
  | _ -> (
      match Option.map Jsonv.of_string (Protocol.read_frame fd) with
      | Some (Ok reply) -> ok reply
      | _ -> false)

let () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsp_emfile_%d.sock" (Unix.getpid ()))
  in
  let server_thread = Server.run_in_background ~socket_path:socket (Service.create ~seed:7 ()) in
  (* one request first, so nothing in the server opens a descriptor
     lazily once they are all taken; the connection stays open, so no
     descriptor frees itself later either *)
  let warm = Server.connect ~socket_path:socket in
  if not (served warm) then fail "no reply before the descriptors were taken";
  (* let the accept loop block in accept again *)
  Thread.delay 0.1;
  let rec exhaust held tries =
    if tries >= max_dups then
      fail "no EMFILE after %d dups: is the descriptor limit lowered?" max_dups
    else
      match Unix.dup Unix.stdin with
      | fd -> exhaust (fd :: held) (tries + 1)
      | exception Unix.Unix_error (Unix.EMFILE, _, _) -> held
  in
  let held = ref (exhaust [] 0) in
  let release n =
    for _ = 1 to n do
      match !held with
      | fd :: rest ->
          Unix.close fd;
          held := rest
      | [] -> fail "ran out of held descriptors"
    done
  in
  (* the blocked accept takes this client; the next one hits EMFILE *)
  release 1;
  let first = Server.connect ~socket_path:socket in
  if not (served first) then fail "no reply on the connection accepted before EMFILE";
  Thread.delay 0.3;
  release 4;
  let fd = Server.connect ~socket_path:socket in
  if not (served fd) then fail "no reply within %.0f s after accept hit EMFILE" reply_timeout;
  release (List.length !held);
  ignore (Server.request fd (Jsonv.Obj [ ("op", Jsonv.String "shutdown") ]));
  List.iter Unix.close [ fd; first; warm ];
  Thread.join server_thread;
  print_endline "accept_emfile: ok"
