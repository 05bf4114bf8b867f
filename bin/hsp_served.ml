(* hsp_served — the HSP-as-a-service daemon.

     hsp_served serve --socket /tmp/hsp.sock --cache-entries 64 --cache-mb 256
     hsp_served client --socket /tmp/hsp.sock --json '{"op":"sample","dims":["2^200"],"moduli":["2^100","1^100"],"count":4}'
     hsp_served smoke

   [serve] runs the daemon on a Unix socket speaking the
   length-prefixed JSON protocol of lib/service: solve / sample /
   check-circuit / stats / shutdown, with prep artifacts (CSR coset
   buckets, canonicalised HNF subgroups) cached across requests, so
   every request on an oracle after the first reuses its prep.  [client]
   sends one request and prints the reply.  [smoke] hosts a daemon on a
   temporary socket and drives the CI scenario against it: one request
   per backend route including a 2^120 symbolic instance, cache-hit
   assertions on a second pass (whose metrics delta must not charge a
   prep), no zero field in any reply's metrics delta, malformed-input
   survival, clean shutdown. *)

open Hsp_service
open Cmdliner

let socket_arg =
  let doc = "Unix-domain socket path." in
  Arg.(value & opt string "/tmp/hsp_served.sock" & info [ "socket"; "s" ] ~doc ~docv:"PATH")

let jobs_arg =
  let doc = "Worker domains for the dense backend's parallel kernels." in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~doc ~docv:"N")

let set_jobs = function None -> () | Some j -> Quantum.Parallel.set_jobs j

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let cache_entries =
    let doc = "Artifact cache capacity in entries." in
    Arg.(value & opt int 64 & info [ "cache-entries" ] ~doc ~docv:"N")
  in
  let cache_mb =
    let doc = "Artifact cache capacity in approximate megabytes." in
    Arg.(value & opt int 256 & info [ "cache-mb" ] ~doc ~docv:"MB")
  in
  let seed =
    let doc = "Base PRNG seed for requests that do not carry their own." in
    Arg.(value & opt int 2026 & info [ "seed" ] ~doc)
  in
  let run socket cache_entries cache_mb seed jobs =
    set_jobs jobs;
    let service =
      Service.create ~cache_entries ~cache_bytes:(cache_mb * 1024 * 1024) ~seed ()
    in
    Printf.printf "hsp_served: listening on %s\n%!" socket;
    Server.run ~socket_path:socket service;
    Printf.printf "hsp_served: shut down cleanly\n%!";
    0
  in
  let info = Cmd.info "serve" ~doc:"Run the HSP daemon on a Unix socket." in
  Cmd.v info Term.(const run $ socket_arg $ cache_entries $ cache_mb $ seed $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let json_arg =
    let doc = "Request JSON (read from stdin when omitted)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"JSON")
  in
  let run socket json =
    let payload =
      match json with
      | Some s -> s
      | None -> In_channel.input_all In_channel.stdin
    in
    match Jsonv.of_string payload with
    | Error msg ->
        Printf.eprintf "hsp_served client: request is not valid JSON: %s\n" msg;
        2
    | Ok req -> (
        match Server.connect ~socket_path:socket with
        | exception Unix.Unix_error (err, _, _) ->
            Printf.eprintf "hsp_served client: cannot connect to %s: %s\n" socket
              (Unix.error_message err);
            1
        | fd ->
            Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            @@ fun () ->
            let reply = Server.request fd req in
            print_endline (Jsonv.to_string reply);
            (match Jsonv.member "ok" reply with Some (Jsonv.Bool true) -> 0 | _ -> 1))
  in
  let info = Cmd.info "client" ~doc:"Send one request to a running daemon." in
  Cmd.v info Term.(const run $ socket_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

let smoke_cmd =
  let run jobs =
    set_jobs jobs;
    let socket =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "hsp_served_smoke_%d.sock" (Unix.getpid ()))
    in
    let failures = ref 0 in
    let check name cond =
      if cond then Printf.printf "ok   %s\n%!" name
      else begin
        incr failures;
        Printf.printf "FAIL %s\n%!" name
      end
    in
    let service = Service.create ~seed:7 () in
    let server_thread = Server.run_in_background ~socket_path:socket service in
    let obj fields = Jsonv.Obj fields in
    let str s = Jsonv.String s in
    let bool_at path reply =
      let rec go v = function
        | [] -> Jsonv.to_bool_opt v
        | k :: rest -> Option.bind (Jsonv.member k v) (fun v' -> go v' rest)
      in
      go reply path
    in
    let is_ok reply = bool_at [ "ok" ] reply = Some true in
    let cache_hit reply = bool_at [ "cache"; "hit" ] reply = Some true in
    (* replies send only the metrics fields a request moved *)
    let zero_fields = ref [] in
    let metric reply k = Option.bind (Jsonv.member "metrics" reply) (Jsonv.member k) in
    let note_zero_fields reply =
      match Jsonv.member "metrics" reply with
      | Some (Jsonv.Obj fields) ->
          List.iter
            (fun (k, v) ->
              match v with
              | Jsonv.Int 0 -> zero_fields := k :: !zero_fields
              | Jsonv.Float f when Float.equal f 0.0 -> zero_fields := k :: !zero_fields
              | _ -> ())
            fields
      | _ -> ()
    in
    let request fd req =
      let reply = Server.request fd req in
      note_zero_fields reply;
      reply
    in
    let fd = Server.connect ~socket_path:socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* one instance per backend route *)
        let dense =
          [ ("dims", Jsonv.List [ Jsonv.Int 8; Jsonv.Int 8 ]);
            ("moduli", Jsonv.List [ Jsonv.Int 4; Jsonv.Int 2 ]);
            ("backend", str "dense") ]
        in
        let sparse =
          [ ("dims", Jsonv.List [ str "2^16" ]);
            ("moduli", Jsonv.List [ str "2^8"; str "1^8" ]);
            ("backend", str "sparse") ]
        in
        let symbolic =
          [ ("dims", Jsonv.List [ str "2^120" ]);
            ("moduli", Jsonv.List [ str "2^60"; str "1^60" ]) ]
        in
        List.iter
          (fun (name, inst) ->
            let reply =
              request fd (obj (("op", str "check-circuit") :: inst))
            in
            check (name ^ " check-circuit ok") (is_ok reply))
          [ ("dense", dense); ("sparse", sparse); ("symbolic", symbolic) ];
        (* symbolic route must resolve for the >= 2^100 instance *)
        let reply = request fd (obj (("op", str "check-circuit") :: symbolic)) in
        check "2^120 routes symbolic"
          (match Jsonv.member "route" reply with
          | Some (Jsonv.String "symbolic") -> true
          | _ -> false);
        (* first pass: misses; second pass: hits *)
        List.iter
          (fun (name, inst) ->
            let req = obj (("op", str "sample") :: ("count", Jsonv.Int 4) :: inst) in
            let cold = request fd req in
            check (name ^ " sample ok") (is_ok cold);
            check (name ^ " cold pass misses cache") (not (cache_hit cold));
            (* a symbolic artifact is a subgroup, built without a prep *)
            check (name ^ " cold delta charges its prep")
              (metric cold "sampler_preps"
               = if String.equal name "symbolic" then None else Some (Jsonv.Int 1));
            let warm = request fd req in
            check (name ^ " warm pass hits cache") (is_ok warm && cache_hit warm);
            check (name ^ " warm delta charges no prep") (metric warm "sampler_preps" = None))
          [ ("dense", dense); ("sparse", sparse); ("symbolic", symbolic) ];
        (* solve on the symbolic instance, verified in closed form *)
        let reply =
          request fd (obj (("op", str "solve") :: ("seed", Jsonv.Int 5) :: symbolic))
        in
        check "2^120 solve verified" (is_ok reply && bool_at [ "verified" ] reply = Some true);
        (* malformed requests get structured errors; connection survives *)
        Protocol.write_frame fd "this is not json";
        (match Protocol.read_frame fd with
        | Some payload ->
            check "malformed JSON -> structured error"
              (match Jsonv.of_string payload with
              | Ok reply -> bool_at [ "ok" ] reply = Some false
              | Error _ -> false)
        | None -> check "malformed JSON -> structured error" false);
        let reply = request fd (obj [ ("op", str "frobnicate") ]) in
        check "unknown op -> structured error, connection alive" (not (is_ok reply));
        let reply =
          request fd
            (obj
               [ ("op", str "sample");
                 ("dims", Jsonv.List [ Jsonv.Int 8 ]);
                 ("moduli", Jsonv.List [ Jsonv.Int 3 ]) ])
        in
        check "invalid moduli -> rejected"
          (match Jsonv.member "error" reply with
          | Some err -> (
              match Jsonv.member "kind" err with
              | Some (Jsonv.String "rejected") -> true
              | _ -> false)
          | None -> false);
        (* stats: cache populated, hits recorded *)
        let reply = request fd (obj [ ("op", str "stats") ]) in
        let stat_int path =
          let rec go v = function
            | [] -> Jsonv.to_int_opt v
            | k :: rest -> Option.bind (Jsonv.member k v) (fun v' -> go v' rest)
          in
          go reply path
        in
        (* one artifact per sample route; check-circuit caches nothing *)
        check "stats: 3 cached artifacts" (stat_int [ "cache"; "entries" ] = Some 3);
        check "stats: cache hits recorded"
          (match stat_int [ "cache"; "hits" ] with Some h -> h >= 3 | None -> false);
        check "no reply carries a zero metrics field"
          (match !zero_fields with
          | [] -> true
          | ks ->
              Printf.printf "zero fields: %s\n" (String.concat ", " (List.rev ks));
              false);
        let reply = request fd (obj [ ("op", str "shutdown") ]) in
        check "shutdown acknowledged" (is_ok reply));
    Thread.join server_thread;
    check "socket removed on shutdown" (not (Sys.file_exists socket));
    if !failures = 0 then begin
      Printf.printf "smoke: all checks passed\n";
      0
    end
    else begin
      Printf.printf "smoke: %d check(s) FAILED\n" !failures;
      1
    end
  in
  let info =
    Cmd.info "smoke"
      ~doc:
        "Host a daemon on a temporary socket and drive the CI scenario: every backend \
         route incl. a 2^120 symbolic instance, cache hits on the second pass, \
         malformed-input survival, clean shutdown."
  in
  Cmd.v info Term.(const run $ jobs_arg)

let main =
  let doc = "HSP sampling and solving as a daemon, with a shared prep cache" in
  let info = Cmd.info "hsp_served" ~version:"%%VERSION%%" ~doc in
  Cmd.group info [ serve_cmd; client_cmd; smoke_cmd ]

let () = exit (Cmd.eval' main)
