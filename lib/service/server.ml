(* Unix-domain socket front end: accept loop + one thread per
   connection, each reading length-prefixed JSON frames and blocking on
   the engine for replies.

   Error containment is the contract: nothing a client sends can kill
   its connection, let alone the daemon.  Malformed JSON or an unknown
   op produce a [malformed] reply on the same connection; solver
   exceptions are classified by the engine ([retryable] / [rejected] /
   [crashed]); only EOF or a transport-level error closes the
   connection.  A [shutdown] request is acknowledged on its own
   connection first, then the accept loop is woken and the engine
   drained. *)

type t = {
  service : Service.t;
  socket_path : string;
  listener : Unix.file_descr;
  mutable accepting : bool;
  slock : Mutex.t;
  mutable conn_threads : Thread.t list;
}

let handle_frame server payload =
  match Protocol.parse_request payload with
  | Error msg -> Protocol.error_response ~id:Jsonv.Null Protocol.Malformed msg
  | Ok env ->
      let reply = Service.submit server.service env in
      (match env.Protocol.req with
      | Protocol.Shutdown ->
          (* wake the accept loop after the reply is on its way back *)
          Mutex.protect server.slock (fun () -> server.accepting <- false);
          (try Unix.shutdown server.listener Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      | _ -> ());
      reply

let connection_loop server fd =
  let rec loop () =
    match Protocol.read_frame fd with
    | None -> ()
    | Some payload ->
        let reply = handle_frame server payload in
        Protocol.write_frame fd (Jsonv.to_string reply);
        loop ()
    | exception Protocol.Frame_too_large n ->
        (* unrecoverable: the stream position is inside the oversized
           frame, so reply once and drop the connection *)
        Protocol.write_frame fd
          (Jsonv.to_string
             (Protocol.error_response ~id:Jsonv.Null Protocol.Malformed
                (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                   Protocol.max_frame)))
  in
  (* EOF or a transport error on a read or a write (EPIPE from a client
     that hung up before its reply) closes this connection only *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with End_of_file | Unix.Unix_error _ -> ())

let listen ~socket_path service =
  (* a reply written to a client that already hung up must fail with
     EPIPE on that connection, not end the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 64;
  Service.start service;
  {
    service;
    socket_path;
    listener;
    accepting = true;
    slock = Mutex.create ();
    conn_threads = [];
  }

(* seconds the accept loop waits before retrying after EMFILE/ENFILE *)
let accept_backoff = 0.01

let accept_loop server =
  let rec loop () =
    let accepting = Mutex.protect server.slock (fun () -> server.accepting) in
    if accepting then begin
      match Unix.accept server.listener with
      | fd, _ ->
          let th = Thread.create (fun () -> connection_loop server fd) () in
          Mutex.protect server.slock (fun () ->
              server.conn_threads <- th :: server.conn_threads);
          loop ()
      | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _) ->
          (* listener shut down by a shutdown request *)
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          (* out of descriptors: back-pressure, not the end of the
             daemon.  The pending connection stays queued on the
             listener; retry once a connection has closed. *)
          Thread.delay accept_backoff;
          loop ()
    end
  in
  loop ();
  let threads =
    Mutex.protect server.slock (fun () ->
        let ts = server.conn_threads in
        server.conn_threads <- [];
        ts)
  in
  List.iter Thread.join threads;
  Service.stop server.service;
  (try Unix.close server.listener with Unix.Unix_error _ -> ());
  try Unix.unlink server.socket_path with Unix.Unix_error _ -> ()

let run ~socket_path service =
  let server = listen ~socket_path service in
  accept_loop server

let run_in_background ~socket_path service =
  let server = listen ~socket_path service in
  Thread.create accept_loop server

(* ------------------------------------------------------------------ *)
(* Client helper                                                       *)
(* ------------------------------------------------------------------ *)

let connect ~socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

let request fd (v : Jsonv.t) =
  Protocol.write_frame fd (Jsonv.to_string v);
  match Protocol.read_frame fd with
  | Some payload -> (
      match Jsonv.of_string payload with
      | Ok reply -> reply
      | Error msg -> failwith ("hsp_served client: bad reply JSON: " ^ msg))
  | None -> failwith "hsp_served client: connection closed before reply"
