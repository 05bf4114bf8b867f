(** Unix-domain socket front end for the {!Service} engine.

    One accept loop, one thread per connection, length-prefixed JSON
    frames ({!Protocol}).  Client input can never kill the daemon:
    malformed frames get a [malformed] reply on the live connection,
    solver exceptions come back classified, and only EOF or transport
    errors (a client gone before its reply included) close a
    connection.  Running out of descriptors ([EMFILE] / [ENFILE] from
    [accept]) is back-pressure: the accept loop waits briefly and
    retries, and the pending client is served once a descriptor is
    free.  A [shutdown] request is acknowledged, then the accept loop
    drains connections and stops the engine. *)

type t

val run : socket_path:string -> Service.t -> unit
(** The daemon main.  Binds the socket (unlinking any stale file),
    starts the engine's executor and serves until a [shutdown] request;
    then joins connection threads, stops the engine and removes the
    socket file.  Sets SIGPIPE to ignored for the whole process, so a
    client that hangs up before its reply costs only its own connection
    (the write fails with EPIPE) instead of killing the daemon. *)

val run_in_background : socket_path:string -> Service.t -> Thread.t
(** Same, with the accept loop on its own thread (tests, smoke runs);
    join the returned thread after sending [shutdown]. *)

(** {2 Minimal client} *)

val connect : socket_path:string -> Unix.file_descr

val request : Unix.file_descr -> Jsonv.t -> Jsonv.t
(** Send one request frame, block for the reply frame.
    @raise Failure on transport errors or unparseable replies. *)
