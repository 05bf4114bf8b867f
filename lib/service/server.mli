(** Unix-domain socket front end for the {!Service} engine.

    One accept loop, one thread per connection, length-prefixed JSON
    frames ({!Protocol}).  Client input can never kill the daemon:
    malformed frames get a [malformed] reply on the live connection,
    solver exceptions come back classified, and only EOF or transport
    errors (a client gone before its reply included) close a
    connection.  A [shutdown] request is acknowledged, then the accept
    loop drains connections and stops the engine. *)

type t

val listen : socket_path:string -> Service.t -> t
(** Bind the socket (unlinking any stale file), start the engine's
    executor, and return without accepting yet.  Sets SIGPIPE to
    ignored for the whole process, so a client that hangs up before
    its reply costs only its own connection (the write fails with
    EPIPE) instead of killing the daemon. *)

val accept_loop : t -> unit
(** Serve until a [shutdown] request; joins connection threads, stops
    the engine and removes the socket file before returning. *)

val run : socket_path:string -> Service.t -> unit
(** [listen] + [accept_loop] — the daemon main. *)

val run_in_background : socket_path:string -> Service.t -> Thread.t
(** Same, with the accept loop on its own thread (tests, smoke runs);
    join the returned thread after sending [shutdown]. *)

(** {2 Minimal client} *)

val connect : socket_path:string -> Unix.file_descr

val request : Unix.file_descr -> Jsonv.t -> Jsonv.t
(** Send one request frame, block for the reply frame.
    @raise Failure on transport errors or unparseable replies. *)
