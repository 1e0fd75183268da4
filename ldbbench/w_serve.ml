(** [serve]: two scripted clients speaking {!Swire} over sim links to one
    {!Evloop} and {!Server}, sessions recycled.

    Set up as [bin/ldb_main.ml]'s daemon is: a shared image cache, the
    expression server's condition compiler injected, and a binder that
    launches a fresh process per connection.  Each client is a closed
    loop — it sends its next command only after the previous answer
    arrived — and an op is one command round trip, from sealing the
    frame to decoding the reply.  Every reply is checked against the
    OCaml oracle where it carries a value, and against the answer the
    same command gets from a direct {!Server.exec} where it carries an
    address or rendered text. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Server = Ldb_ldb.Server
module Evloop = Ldb_ldb.Evloop
module Swire = Ldb_ldb.Swire
module Chan = Ldb_nub.Chan

let clients = 2

(** What a step of the script sends and what it must get back. *)
type step =
  | Hello
  | Cmd of Server.command * Server.reply  (** fixed command, exact reply *)
  | Condition of string  (** on the address the break answered *)
  | Bye

(** The scripted replies of a direct, wire-less run of one script. *)
type reference = {
  rf_addr : int;  (** the break address *)
  rf_stop : Server.reply;  (** first continue *)
  rf_backtrace : Server.reply;
  rf_where : Server.reply;
  rf_step : Server.reply;
}

let compiler () : Server.cond_compiler =
  let sessions = Hashtbl.create 4 in
  fun d tg ~addr cond ->
    let sess =
      match Hashtbl.find_opt sessions tg.Ldb.tg_arch with
      | Some s -> s
      | None ->
          let s = Ldb_exprserver.Eval.start ~arch:tg.Ldb.tg_arch in
          Hashtbl.replace sessions tg.Ldb.tg_arch s;
          s
    in
    Meter.span "exprserver.compile_cond" (fun () ->
        Ldb_exprserver.Eval.compile_condition d tg sess ~addr cond)

let exec sv id cmd =
  match Server.exec sv id cmd with
  | Ok r -> r
  | Error e -> failwith ("reference: " ^ Server.refusal_to_string e)

(** Run a script's commands directly against a private server and
    check the value-bearing answers against the oracle. *)
let reference (built : Ldb_link.Link.image * string) (p : Gen.serve_program)
    (shape : Gen.serve_script) : reference =
  let sv = Server.create () in
  Server.set_cond_compiler sv (compiler ());
  let proc = Host.launch_image built in
  let id =
    match
      Server.open_session sv ~name:"reference" ~loader_ps:proc.Host.hp_loader_ps
        (Host.open_channel proc)
    with
    | Ok id -> id
    | Error e -> failwith ("reference: " ^ Server.refusal_to_string e)
  in
  let fn, var, value =
    match shape with
    | Gen.Plain -> ("once", "x", p.Gen.sv_x)
    | Gen.Cond _ -> ("work", "n", 1)
  in
  let addr =
    match exec sv id (Server.Break_function fn) with
    | Server.R_addr a -> a
    | r -> failwith ("reference break: " ^ Server.reply_to_string r)
  in
  let stop = exec sv id Server.Continue in
  let read = exec sv id (Server.Read_int var) in
  Run.expect (read = Server.R_int value) "reference %s: %s" var (Server.reply_to_string read);
  let bt = exec sv id Server.Backtrace in
  let text = Server.reply_to_string bt in
  Run.expect
    (String.length text > 6 && String.sub text 0 (4 + String.length fn) = "#0 " ^ fn ^ " "
    && List.length (String.split_on_char '\n' text) = 2)
    "reference backtrace in %s: %S" fn text;
  let where = exec sv id Server.Where in
  let step = exec sv id Server.Step_source in
  Server.close_session ~kill:true sv id;
  { rf_addr = addr; rf_stop = stop; rf_backtrace = bt; rf_where = where; rf_step = step }

let script (p : Gen.serve_program) (rf : reference) (shape : Gen.serve_script) : step array =
  let fn, extra, var, value, pvar, pvalue =
    match shape with
    | Gen.Plain -> ("once", [], "x", p.Gen.sv_x, "y", p.Gen.sv_y)
    | Gen.Cond c -> ("work", [ Condition (Printf.sprintf "n == %d" c) ], "n", c, "k", p.Gen.sv_k)
  in
  Array.of_list
    ([ Hello; Cmd (Server.Break_function fn, Server.R_addr rf.rf_addr) ]
    @ extra
    @ [ Cmd (Server.Continue, rf.rf_stop);
        Cmd (Server.Read_int var, Server.R_int value);
        Cmd (Server.Print pvar, Server.R_text (string_of_int pvalue));
        Cmd (Server.Backtrace, rf.rf_backtrace);
        Cmd (Server.Where, rf.rf_where);
        Cmd (Server.Step_source, rf.rf_step);
        Cmd (Server.Continue, Server.R_state (Ldb.Exited 0));
        Bye ])

(* --- clients ------------------------------------------------------------------ *)

type client = {
  mutable ep : Chan.endpoint option;  (** [None] between sessions *)
  mutable rx : string;
  mutable seq : int;
  mutable steps : step array;
  mutable pos : int;  (** the step whose answer is awaited *)
  mutable sent_at : int;
  mutable hello_at : int;
  mutable conn : int;  (** the loop's id for this connection *)
  mutable addr : int;  (** the address the break answered *)
}

type state = {
  prog : Gen.serve_program;
  built : (Ldb_link.Link.image * string) array;  (** per target *)
  refs : (reference * reference) array;  (** (plain, cond) per target *)
  shapes : Random.State.t;
  sv : Server.t;
  loop : Evloop.t;
  arch_of_conn : (int, int) Hashtbl.t;
  nub_links : (int, Chan.endpoint) Hashtbl.t;  (** conn -> debugger end of its nub link *)
  procs : (int, Host.process) Hashtbl.t;  (** conn -> process, while its session lives *)
  mutable retired_insns : int;
  mutable sessions : int;
  tick_ms : Run.fvec;  (** per tick *)
  queued : Run.fvec;  (** commands queued after each tick *)
  mutable base : Server.stats * Evloop.stats * int;  (** at the start of a phase *)
}

let binder (s : state) ~conn_id =
  Meter.span "server.bind" (fun () ->
      let ix = Option.value ~default:0 (Hashtbl.find_opt s.arch_of_conn conn_id) in
      let p = Common.launch s.built.(ix) in
      let ep = Meter.open_channel p in
      Hashtbl.replace s.nub_links conn_id ep;
      Hashtbl.replace s.procs conn_id p;
      Server.open_session s.sv ~name:(Printf.sprintf "wire-%d" conn_id)
        ~loader_ps:p.Host.hp_loader_ps ep)

let snap (s : state) () =
  let tr =
    List.fold_left
      (fun acc ss -> Run.add acc (Run.of_target ss.Server.ss_tg))
      Run.zero (Server.sessions s.sv)
  in
  let insns =
    Hashtbl.fold (fun _ p n -> n + (Run.of_proc p).Run.insns) s.procs s.retired_insns
  in
  let im =
    Hashtbl.fold (fun _ im acc -> Run.add acc (Run.of_image im)) s.sv.Server.sv_images Run.zero
  in
  Run.add (Run.add tr im) (Run.add (Run.of_debugger (Server.debugger s.sv)) { Run.zero with insns })

(** A finished connection's process is gone: drop the link's pump so the
    server's record of the closed session does not pin its 4 MiB of
    simulated RAM, as a real socket to an exited process would not. *)
let release (s : state) conn_id =
  (match Hashtbl.find_opt s.nub_links conn_id with
  | Some ep -> Chan.set_pump ep (fun () -> ())
  | None -> ());
  (match Hashtbl.find_opt s.procs conn_id with
  | Some p -> s.retired_insns <- s.retired_insns + (Run.of_proc p).Run.insns
  | None -> ());
  Hashtbl.remove s.nub_links conn_id;
  Hashtbl.remove s.procs conn_id

let send (c : client) (m : Swire.client_msg) =
  match c.ep with
  | None -> ()
  | Some ep ->
      let frame =
        Meter.span "swire.seal" (fun () -> Swire.seal ~seq:c.seq (Swire.encode_client m))
      in
      c.seq <- c.seq + 1;
      Chan.send ep frame

let send_step (c : client) =
  c.sent_at <- Meter.now_ns ();
  send c
    (match c.steps.(c.pos) with
    | Hello -> Swire.C_hello { magic = Swire.version_magic }
    | Cmd (cmd, _) -> Swire.C_cmd cmd
    | Condition cond -> Swire.C_cmd (Server.Condition { addr = c.addr; cond })
    | Bye -> Swire.C_bye)

(** Open a fresh connection for the next script and send its hello. *)
let connect (s : state) (c : client) =
  let ep, io, _ = Evloop.sim_link () in
  let ix = s.sessions mod Array.length s.built in
  s.sessions <- s.sessions + 1;
  (match Evloop.accept s.loop io with
  | `Conn id ->
      Hashtbl.replace s.arch_of_conn id ix;
      c.conn <- id
  | `Refused -> c.conn <- 0);
  let plain, cond = s.refs.(ix) in
  c.steps <-
    (if Random.State.bool s.shapes then script s.prog plain Gen.Plain
     else script s.prog cond (Gen.Cond (Gen.between s.shapes 1 s.prog.Gen.sv_n)));
  c.ep <- Some ep;
  c.rx <- "";
  c.seq <- 0;
  c.pos <- 0;
  c.hello_at <- Meter.now_ns ();
  send_step c

let check (c : client) (m : Swire.server_msg) =
  let got () = Swire.server_msg_to_string m in
  match (c.steps.(c.pos), m) with
  | Hello, Swire.S_hello _ -> ()
  | Cmd (Server.Break_function _, Server.R_addr want), Swire.S_reply (Server.R_addr a) ->
      Run.expect (a = want) "break: expected %#x, got %#x" want a;
      c.addr <- a
  | Cmd (cmd, want), Swire.S_reply r ->
      Run.expect (r = want) "%s: expected %s, got %s" (Server.command_name cmd)
        (Server.reply_to_string want) (Server.reply_to_string r)
  | Condition _, Swire.S_reply (Server.R_text "nub") -> ()
  | Bye, Swire.S_bye "goodbye" -> ()
  | Hello, _ -> raise (Run.Mismatch ("hello answered " ^ got ()))
  | Cmd (cmd, _), _ -> raise (Run.Mismatch (Server.command_name cmd ^ " answered " ^ got ()))
  | Condition _, _ -> raise (Run.Mismatch ("condition answered " ^ got ()))
  | Bye, _ -> raise (Run.Mismatch ("bye answered " ^ got ()))

(** A client whose session went wrong hangs up; the loop sees the
    disconnect and releases the session. *)
let abandon (c : client) =
  (match c.ep with Some ep -> Chan.disconnect ep | None -> ());
  c.ep <- None

let on_message (s : state) (r : Run.t) (c : client) (m : Swire.server_msg) =
  match check c m with
  | exception e ->
      Run.fail r e;
      abandon c
  | () ->
      Run.completed r ~t0:c.sent_at;
      (match (c.steps.(c.pos), m) with
      | Cmd (Server.Continue, Server.R_state (Ldb.Stopped _)), _ ->
          Run.push r.Run.first_stop (Meter.ms_of_ns (Meter.now_ns () - c.hello_at))
      | Cmd (Server.Step_source, _), _ ->
          Run.sample r "ldb.step_ms" (Meter.ms_of_ns (Meter.now_ns () - c.sent_at))
      | Cmd (Server.Backtrace, _), Swire.S_reply (Server.R_text t) ->
          Run.sample r "frame.depth" (float_of_int (List.length (String.split_on_char '\n' t)))
      | _ -> ());
      c.pos <- c.pos + 1;
      if c.pos < Array.length c.steps then send_step c
      else begin
        release s c.conn;
        c.ep <- None
      end

(** Take every complete reply off the client's endpoint. *)
let poll (s : state) (r : Run.t) (c : client) =
  match c.ep with
  | None -> ()
  | Some ep ->
      let n = Chan.available ep in
      if n > 0 then begin
        c.rx <- c.rx ^ Chan.peek ep n;
        Chan.skip ep n
      end;
      let rec drain () =
        if c.ep <> None then
          match
            Meter.span "swire.decode" (fun () ->
                match Swire.scan ~max_payload:Swire.max_server_payload c.rx with
                | Swire.S_frame { payload; used; _ } ->
                    c.rx <- String.sub c.rx used (String.length c.rx - used);
                    Some (Swire.decode_server payload)
                | Swire.S_skip { error; _ } -> Some (Error error)
                | Swire.S_need -> None)
          with
          | None -> ()
          | Some (Ok m) ->
              on_message s r c m;
              drain ()
          | Some (Error e) ->
              Run.fail r (Run.Mismatch ("reply frame: " ^ Swire.error_to_string e));
              abandon c
      in
      drain ()

let tick (s : state) =
  let t0 = Meter.now_ns () in
  Meter.span "evloop.tick" (fun () -> Evloop.tick s.loop);
  Run.push s.tick_ms (Meter.ms_of_ns (Meter.now_ns () - t0));
  Run.push s.queued (float_of_int (Evloop.queued s.loop))

(** Serve both clients until [stop] holds; a client that finishes its
    session starts the next one while [more] holds. *)
let serve ?(more = fun () -> true) (s : state) (r : Run.t) (cs : client array)
    ~(stop : unit -> bool) =
  while not (stop ()) do
    Array.iter (fun c -> if c.ep = None && more () then connect s c) cs;
    tick s;
    Array.iter (poll s r) cs
  done

let copy_server_stats (st : Server.stats) = { st with Server.sv_opened = st.Server.sv_opened }
let copy_loop_stats (st : Evloop.stats) = { st with Evloop.es_admitted = st.Evloop.es_admitted }

(** Server and loop metrics over the phase just run: per op unless a
    ratio or a per-tick figure. *)
let layers (s : state) (r : Run.t) : (string * float) list =
  let sv0, el0, tick0 = s.base in
  let sv1 = Server.stats s.sv and el1 = Evloop.stats s.loop in
  let ops = float_of_int (max 1 r.Run.attempted) in
  let per a b = float_of_int (b - a) /. ops in
  let since (v : Run.fvec) =
    let w = Run.fvec () in
    for i = tick0 to v.Run.n - 1 do Run.push w v.Run.a.(i) done;
    w
  in
  let lookups = sv1.Server.sv_cache_hits + sv1.Server.sv_cache_misses
                - sv0.Server.sv_cache_hits - sv0.Server.sv_cache_misses in
  let ticks = since s.tick_ms in
  let queued = since s.queued in
  [ ("server.cache_hit_ratio",
      float_of_int (sv1.Server.sv_cache_hits - sv0.Server.sv_cache_hits)
      /. float_of_int (max 1 lookups));
    ("server.cache_lookups", float_of_int lookups /. ops);
    ("server.refused", per sv0.Server.sv_refused sv1.Server.sv_refused);
    ("server.failed", per sv0.Server.sv_failed sv1.Server.sv_failed);
    ("evloop.tick_ms", Run.median ticks);
    ("evloop.tick_p99_ms", Run.quantile ticks 0.99);
    ("evloop.ticks_per_cmd",
      float_of_int ticks.Run.n
      /. float_of_int (max 1 (el1.Evloop.es_served - el0.Evloop.es_served)));
    ("evloop.queued", Run.sum queued /. float_of_int (max 1 queued.Run.n));
    ("evloop.bytes_in", per el0.Evloop.es_bytes_in el1.Evloop.es_bytes_in);
    ("evloop.bytes_out", per el0.Evloop.es_bytes_out el1.Evloop.es_bytes_out);
    ("evloop.protocol_errors", per el0.Evloop.es_protocol_errors el1.Evloop.es_protocol_errors) ]

let new_client () =
  { ep = None; rx = ""; seq = 0; steps = [||]; pos = 0; sent_at = 0; hello_at = 0; conn = 0;
    addr = 0 }

let setup ~seed (warm : Run.t) : Run.bench =
  let prog = Gen.serve_program (Gen.rng ~seed ~salt:5) in
  let built =
    Array.of_list (List.map (fun arch -> Common.build_image warm ~arch prog.Gen.sv_sources) Arch.all)
  in
  let refs =
    Array.map
      (fun b -> (reference b prog Gen.Plain, reference b prog (Gen.Cond 1)))
      built
  in
  let sv = Server.create () in
  Server.set_cond_compiler sv (compiler ());
  let self = ref None in
  let bind ~conn_id =
    match !self with Some s -> binder s ~conn_id | None -> assert false
  in
  let loop = Evloop.create sv ~bind in
  let s =
    { prog; built; refs; shapes = Gen.rng ~seed ~salt:6; sv; loop;
      arch_of_conn = Hashtbl.create 64; nub_links = Hashtbl.create 64;
      procs = Hashtbl.create 64; retired_insns = 0; sessions = 0; tick_ms = Run.fvec ();
      queued = Run.fvec ();
      base = (copy_server_stats (Server.stats sv), copy_loop_stats (Evloop.stats loop), 0) }
  in
  self := Some s;
  let cs = Array.init clients (fun _ -> new_client ()) in
  (* warm-up: two sessions per target load the image cache, force the
     units and start the expression server on every architecture *)
  let warm_sessions = 2 * Array.length built in
  serve s warm cs
    ~more:(fun () -> s.sessions < warm_sessions)
    ~stop:(fun () -> s.sessions >= warm_sessions && Array.for_all (fun c -> c.ep = None) cs);
  { Run.snap = snap s;
    round =
      (fun r ~deadline ->
        s.base <-
          ( copy_server_stats (Server.stats sv),
            copy_loop_stats (Evloop.stats s.loop),
            s.tick_ms.Run.n );
        serve s r cs ~stop:(fun () -> Meter.now_ns () >= deadline));
    layers = (fun r -> layers s r) }
