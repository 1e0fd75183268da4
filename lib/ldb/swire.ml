(** The server's wire protocol: versioned, length-prefixed, CRC-framed
    messages between a debug client and the {!Server}.

    This is the nub transport's robustness discipline ({!Ldb_nub.Frame},
    PR 2) applied one layer up, where the peers are debug {e clients}
    rather than nubs — and a client, unlike a nub, must be presumed
    hostile.  The contract is therefore the same but stricter:

    - every message travels in a {!Ldb_util.Codec} frame with second
      magic byte [0x5B], so corruption and truncation are detectable and
      a receiver can {e resynchronize} by scanning for the next magic;
    - the connection opens with a versioned hello carrying the literal
      {!version_magic} ([LDBSRV1]); anything else is a typed protocol
      error, answered and closed before a session is ever bound;
    - every decoder is {b total}: arbitrary bytes yield a typed
      {!error}, never an exception, and every length field is bounded
      before it is trusted, so a lying header cannot demand an absurd
      allocation or stall the stream (qcheck holds the never-raises and
      round-trip properties in [test_swire.ml]).

    The codec is pure — framing over actual byte endpoints, deadlines
    and scheduling live in {!Evloop}, which consumes {!scan} results
    over whatever bytes have arrived. *)

open Ldb_util
open Ldb_machine
include Codec.Framing

let version_magic = "LDBSRV1"

let magic1 = '\x5b'

(** Client→server payloads are commands: small by construction.  A frame
    claiming more is a lying length field, not a big command. *)
let max_client_payload = 8192

(** Server→client payloads include serialized core dumps. *)
let max_server_payload = (1 lsl 24) + 4096

let max_text = 1 lsl 16
let max_addrs = 4096
let max_core_wire = 1 lsl 24

(* --- framing ------------------------------------------------------------------ *)

(** Wrap [payload] in a frame. *)
let seal ~seq payload = Codec.seal ~magic1 ~max_payload:max_server_payload ~seq payload

(** Scan [buf] for the next frame.  Total, consumes nothing itself.
    [max_payload] is the receiver's trust bound: servers scan client
    bytes with {!max_client_payload}, clients scan replies with
    {!max_server_payload}. *)
let scan ?(max_payload = max_client_payload) buf = Codec.scan ~magic1 ~max_payload buf

(** The resync step a receiver applies when buffered bytes stall as a
    forever-incomplete frame: {!Codec.resync_skip}. *)
let force_resync (buf : string) : string =
  let n = Codec.resync_skip (String.length buf) in
  String.sub buf n (String.length buf - n)

(* --- message bodies ----------------------------------------------------------- *)

type client_msg =
  | C_hello of { magic : string }  (** must carry {!version_magic} *)
  | C_cmd of Server.command
  | C_bye

type server_msg =
  | S_hello of { session : int }  (** handshake accepted; session bound *)
  | S_reply of Server.reply
  | S_refused of Server.refusal
  | S_error of string  (** typed protocol error, echoed to the client *)
  | S_bye of string  (** server-initiated goodbye (drain, quarantine) *)

open Codec.Reader

(* --- commands ----------------------------------------------------------------- *)

let encode_command (cmd : Server.command) : string =
  let b = Buffer.create 32 in
  (match cmd with
  | Server.Break_function f ->
      Buffer.add_char b 'f';
      Codec.add_str b f
  | Server.Break_line { file; line } ->
      Buffer.add_char b 'l';
      (match file with
      | None -> Buffer.add_char b '\000'
      | Some f ->
          Buffer.add_char b '\001';
          Codec.add_str b f);
      Codec.add_u32 b line
  | Server.Condition { addr; cond } ->
      Buffer.add_char b 'k';
      Codec.add_u32 b addr;
      Codec.add_str b cond
  | Server.Continue -> Buffer.add_char b 'c'
  | Server.Step_source -> Buffer.add_char b 's'
  | Server.Where -> Buffer.add_char b 'w'
  | Server.Backtrace -> Buffer.add_char b 'b'
  | Server.Print v ->
      Buffer.add_char b 'p';
      Codec.add_str b v
  | Server.Read_int v ->
      Buffer.add_char b 'r';
      Codec.add_str b v
  | Server.Fetch_core -> Buffer.add_char b 'o'
  | Server.Detach -> Buffer.add_char b 'd'
  | Server.Kill -> Buffer.add_char b 'x');
  Buffer.contents b

let decode_command (c : t) : Server.command =
  match Char.chr (u8 c "command opcode") with
  | 'f' -> Server.Break_function (str c ~limit:max_text "function name")
  | 'l' ->
      let file =
        match u8 c "file flag" with
        | 0 -> None
        | 1 -> Some (str c ~limit:max_text "file name")
        | f -> hardf "bad file flag %d" f
      in
      let line = u32 c "line" in
      Server.Break_line { file; line }
  | 'k' ->
      let addr = u32 c "condition addr" in
      let cond = str c ~limit:max_text "condition text" in
      Server.Condition { addr; cond }
  | 'c' -> Server.Continue
  | 's' -> Server.Step_source
  | 'w' -> Server.Where
  | 'b' -> Server.Backtrace
  | 'p' -> Server.Print (str c ~limit:max_text "variable name")
  | 'r' -> Server.Read_int (str c ~limit:max_text "variable name")
  | 'o' -> Server.Fetch_core
  | 'd' -> Server.Detach
  | 'x' -> Server.Kill
  | op -> hardf "unknown command opcode %C" op

(* --- replies ------------------------------------------------------------------ *)

let encode_state (b : Buffer.t) : Ldb.state -> unit = function
  | Ldb.Running -> Buffer.add_char b 'r'
  | Ldb.Stopped { signal; code; ctx_addr } ->
      Buffer.add_char b 's';
      Codec.add_u32 b (Signal.number signal);
      Codec.add_u32 b code;
      Codec.add_u32 b ctx_addr
  | Ldb.Exited n ->
      Buffer.add_char b 'x';
      Codec.add_u32 b n
  | Ldb.Detached -> Buffer.add_char b 'd'

let decode_state (c : t) : Ldb.state =
  match Char.chr (u8 c "state tag") with
  | 'r' -> Ldb.Running
  | 's' ->
      let sign = u32 c "stop signal" in
      let code = u32 c "stop code" in
      let ctx_addr = u32 c "stop ctx" in
      let signal =
        match Signal.of_number sign with
        | Some s -> s
        | None -> hardf "unknown signal %d" sign
      in
      Ldb.Stopped { signal; code; ctx_addr }
  | 'x' -> Ldb.Exited (i32 c "exit status")
  | 'd' -> Ldb.Detached
  | t -> hardf "unknown state tag %C" t

let encode_reply (r : Server.reply) : string =
  let b = Buffer.create 64 in
  (match r with
  | Server.R_unit -> Buffer.add_char b 'u'
  | Server.R_addr a ->
      Buffer.add_char b 'a';
      Codec.add_u32 b a
  | Server.R_addrs addrs ->
      Buffer.add_char b 'A';
      Codec.add_u32 b (List.length addrs);
      List.iter (Codec.add_u32 b) addrs
  | Server.R_state st ->
      Buffer.add_char b 's';
      encode_state b st
  | Server.R_text t ->
      Buffer.add_char b 't';
      Codec.add_str b t
  | Server.R_int n ->
      Buffer.add_char b 'i';
      Codec.add_u32 b (n land 0xffffffff)
  | Server.R_core co ->
      Buffer.add_char b 'C';
      Codec.add_str b (Core.to_string co));
  Buffer.contents b

let decode_reply (c : t) : Server.reply =
  match Char.chr (u8 c "reply opcode") with
  | 'u' -> Server.R_unit
  | 'a' -> Server.R_addr (u32 c "addr")
  | 'A' ->
      let n = u32 c "addr count" in
      if n > max_addrs then hardf "%d addresses over the limit" n;
      Server.R_addrs (List.init n (fun _ -> u32 c "addr"))
  | 's' -> Server.R_state (decode_state c)
  | 't' -> Server.R_text (str c ~limit:max_text "reply text")
  | 'i' -> Server.R_int (i32 c "reply int")
  | 'C' -> (
      let bytes = str c ~limit:max_core_wire "core bytes" in
      match Core.of_string bytes with
      | Ok (co, []) -> Server.R_core co
      | Ok (_, _ :: _) -> hard "damaged core in reply"
      | Error m -> hard ("bad core in reply: " ^ m))
  | op -> hardf "unknown reply opcode %C" op

(* --- refusals ----------------------------------------------------------------- *)

let encode_refusal (r : Server.refusal) : string =
  let b = Buffer.create 32 in
  (match r with
  | Server.No_such_session id ->
      Buffer.add_char b 'n';
      Codec.add_u32 b id
  | Server.Session_closed id ->
      Buffer.add_char b 'c';
      Codec.add_u32 b id
  | Server.Session_down { reason; salvaged } ->
      Buffer.add_char b 'd';
      Buffer.add_char b (if salvaged then '\001' else '\000');
      Codec.add_str b reason
  | Server.Overloaded m ->
      Buffer.add_char b 'o';
      Codec.add_str b m
  | Server.Failed m ->
      Buffer.add_char b 'f';
      Codec.add_str b m);
  Buffer.contents b

let decode_refusal (c : t) : Server.refusal =
  match Char.chr (u8 c "refusal opcode") with
  | 'n' -> Server.No_such_session (u32 c "session id")
  | 'c' -> Server.Session_closed (u32 c "session id")
  | 'd' ->
      let salvaged =
        match u8 c "salvage flag" with
        | 0 -> false
        | 1 -> true
        | f -> hardf "bad salvage flag %d" f
      in
      Server.Session_down { reason = str c ~limit:max_text "down reason"; salvaged }
  | 'o' -> Server.Overloaded (str c ~limit:max_text "overload reason")
  | 'f' -> Server.Failed (str c ~limit:max_text "failure reason")
  | op -> hardf "unknown refusal opcode %C" op

(* --- whole messages ----------------------------------------------------------- *)

let encode_client (m : client_msg) : string =
  let b = Buffer.create 32 in
  (match m with
  | C_hello { magic } ->
      Buffer.add_char b 'H';
      Codec.add_str b magic
  | C_cmd cmd ->
      Buffer.add_char b 'C';
      Buffer.add_string b (encode_command cmd)
  | C_bye -> Buffer.add_char b 'B');
  Buffer.contents b

let encode_server (m : server_msg) : string =
  let b = Buffer.create 64 in
  (match m with
  | S_hello { session } ->
      Buffer.add_char b 'H';
      Codec.add_str b version_magic;
      Codec.add_u32 b session
  | S_reply r ->
      Buffer.add_char b 'R';
      Buffer.add_string b (encode_reply r)
  | S_refused r ->
      Buffer.add_char b 'F';
      Buffer.add_string b (encode_refusal r)
  | S_error m ->
      Buffer.add_char b 'E';
      Codec.add_str b m
  | S_bye m ->
      Buffer.add_char b 'D';
      Codec.add_str b m);
  Buffer.contents b

(* a whole-payload decoder whose every fault is a typed {!Bad_message} *)
let decode f payload =
  Result.map_error (fun e -> Bad_message (fault_to_string e)) (run f payload)

(** Decode a client payload.  Total: anything undecodable is a typed
    {!Bad_message}, never an exception. *)
let decode_client : string -> (client_msg, error) result =
  decode (fun c ->
      match Char.chr (u8 c "message opcode") with
      | 'H' -> C_hello { magic = str c ~limit:64 "hello magic" }
      | 'C' -> C_cmd (decode_command c)
      | 'B' -> C_bye
      | op -> hardf "unknown client opcode %C" op)

(** Decode a server payload.  Total, like {!decode_client}. *)
let decode_server : string -> (server_msg, error) result =
  decode (fun c ->
      match Char.chr (u8 c "message opcode") with
      | 'H' ->
          let magic = str c ~limit:64 "hello magic" in
          if magic <> version_magic then
            hardf "hello answers %S, not %S" magic version_magic;
          S_hello { session = u32 c "session id" }
      | 'R' -> S_reply (decode_reply c)
      | 'F' -> S_refused (decode_refusal c)
      | 'E' -> S_error (str c ~limit:max_text "error text")
      | 'D' -> S_bye (str c ~limit:max_text "bye text")
      | op -> hardf "unknown server opcode %C" op)

(** Render a server message the way transcripts and logs want it. *)
let server_msg_to_string = function
  | S_hello { session } -> Printf.sprintf "hello: session %d" session
  | S_reply r -> "ok: " ^ Server.reply_to_string r
  | S_refused r -> "refused: " ^ Server.refusal_to_string r
  | S_error m -> "protocol error: " ^ m
  | S_bye m -> "bye: " ^ m
