(** Length-prefixed, checksummed, sequence-numbered frames over {!Chan}.

    The raw protocol ({!Proto}) is a stream of opcode-prefixed messages;
    a single flipped bit in a length byte used to desynchronize the
    stream forever, and truncation was indistinguishable from a slow
    peer.  Every message therefore travels inside a frame — the layout,
    scanner and resync rule are {!Ldb_util.Codec}'s, with second magic
    byte [0xDB].  The two magic bytes exist for {e resynchronization}: a
    receiver that finds garbage (a truncated frame's tail, a corrupted
    header) scans forward for the next magic, so one damaged frame can
    never poison the rest of the stream.  [seq] implements at-most-once
    request semantics: the debugger retries a lost request under the same
    sequence number, the nub caches its last reply and retransmits it
    instead of re-executing (re-running a [Continue] would skip a
    breakpoint), and stale duplicate replies are discarded by number.

    [try_recv] never blocks and consumes bytes only when it can make a
    definite decision, so a frame that is merely {e incomplete} stays
    buffered until its remaining bytes (or the retry that follows them)
    arrive. *)

open Ldb_util
include Codec.Framing

let magic1 = '\xdb'

(** Upper bound on a frame payload.  Protocol messages are tiny (the
    largest is an error string); anything claiming to be bigger is a
    corrupted length field, and treating it as garbage keeps a bit-flip
    from stalling the stream while the receiver waits for megabytes that
    will never come. *)
let max_payload = Proto.max_string + 64

type frame = { fr_seq : int; fr_payload : string }

(** Wrap [payload] in a frame. *)
let seal ~seq payload = Codec.seal ~magic1 ~max_payload ~seq payload

let send (ep : Chan.endpoint) ~(seq : int) (payload : string) : unit =
  Chan.send ep (seal ~seq payload)

(* --- receiving --------------------------------------------------------- *)

type recv_status =
  [ `Frame of frame  (** a complete, checksum-valid frame was consumed *)
  | `Corrupt of string
    (** damaged bytes were found and (partially) discarded; calling again
        resumes scanning for the next frame *)
  | `Incomplete
    (** not enough bytes buffered for a decision; nothing was consumed
        beyond leading garbage *) ]

(** Non-blocking receive over whatever is buffered: {!Codec.scan} over
    the endpoint's bytes, consuming what it decides. *)
let rec try_recv (ep : Chan.endpoint) : recv_status =
  match Codec.scan ~magic1 ~max_payload (Chan.peek ep (Chan.available ep)) with
  | S_need -> `Incomplete
  | S_skip { skip; error = Garbage _ } ->
      Chan.skip ep skip;
      try_recv ep
  | S_skip { skip; error } ->
      Chan.skip ep skip;
      `Corrupt (error_to_string error)
  | S_frame { seq; payload; used } ->
      Chan.skip ep used;
      `Frame { fr_seq = seq; fr_payload = payload }

(** Apply {!Codec.resync_skip} to a stalled endpoint. *)
let resync (ep : Chan.endpoint) = Chan.skip ep (Codec.resync_skip (Chan.available ep))

(** Blocking receive: pump the peer until a frame (or damage) shows up.
    Returns [Error] on a corrupt frame so the caller can retry the
    request.  Raises {!Chan.Timeout} after [deadline] unproductive pumps
    and {!Chan.Disconnected} when the link is down and the buffered bytes
    cannot form a frame. *)
let recv ?(deadline = 8) (ep : Chan.endpoint) : (frame, string) result =
  let stalled = ref 0 in
  let rec loop () =
    match try_recv ep with
    | `Frame f -> Ok f
    | `Corrupt m -> Error m
    | `Incomplete ->
        if not (Chan.is_connected ep) then raise Chan.Disconnected;
        let before = Chan.available ep in
        (Chan.pump_of ep) ();
        if Chan.available ep = before then begin
          incr stalled;
          if !stalled > deadline then
            if before > 0 then begin
              (* buffered bytes never complete a frame: resync *)
              resync ep;
              stalled := 0
            end
            else if Chan.is_connected ep then raise Chan.Timeout
            else raise Chan.Disconnected
        end
        else stalled := 0;
        loop ()
  in
  loop ()
