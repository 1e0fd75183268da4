(** The byte codecs every wire and file format shares: one CRC frame
    scanner, little-endian [Buffer] writers, and one bounded reader.

    Two links carry frames: the debugger↔nub link ({!Ldb_nub.Frame},
    magic [F5 DB]) and the client↔server link ({!Ldb_ldb.Swire}, magic
    [F5 5B]).  Both use the same layout:

    {v
      +------+--------+---------+---------+---------+=============+
      | 0xF5 | magic1 | seq u32 | len u32 | crc u32 | len payload |
      +------+--------+---------+---------+---------+=============+
    v}

    all fields little-endian; [crc] is the CRC-32 of seq, len and the
    payload.  The scanner is pure and total: it looks at the front of a
    receive buffer and says what to consume ({!scan}), so each link only
    adapts it to its own byte source.

    The message and file formats on top (the nub protocol, execution
    traces, core dumps, condition bytecode, the server wire, binary
    stabs) all decode through {!Reader}: every length is bounded before
    it is trusted, and every failure is a typed {!Reader.fault}, never an
    out-of-bounds exception.  Each field picks its signedness
    explicitly: {!Reader.u32} for addresses, offsets, lengths and counts,
    {!Reader.i32} for exit statuses and signed integers. *)

(** The framing names both links export as their own. *)
module Framing = struct
  let magic0 = '\xf5'
  let header_len = 14

  (** [v]'s low 32 bits, little-endian. *)
  let u32_le (v : int) =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Bytes.unsafe_to_string b

  (** What a hostile or damaged byte stream did.  Every decoder failure is
      one of these; none of them raises. *)
  type error =
    | Garbage of int  (** bytes discarded scanning for the next magic *)
    | Bad_length of { seq : int; claimed : int; limit : int }
        (** a header whose length field cannot be a real frame *)
    | Bad_crc of { seq : int }
    | Bad_message of string  (** a checksum-valid payload that does not decode *)

  let error_to_string = function
    | Garbage n -> Printf.sprintf "%d byte%s of garbage before a frame" n
                     (if n = 1 then "" else "s")
    | Bad_length { seq; claimed; limit } ->
        Printf.sprintf "frame %d claims a %d-byte payload (limit %d)" seq claimed limit
    | Bad_crc { seq } -> Printf.sprintf "frame %d fails its checksum" seq
    | Bad_message m -> "undecodable message: " ^ m

  (** One scanning decision over the front of a receive buffer.  The
      caller consumes exactly what the result says and calls again;
      [S_need] consumes nothing — the frame is merely incomplete so far. *)
  type scan =
    | S_frame of { seq : int; payload : string; used : int }
    | S_skip of { skip : int; error : error }
    | S_need
end

include Framing

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xffff_ffff

(* the CRC of a frame: 8 header bytes (seq, len) at [hpos] of [head], then
   [len] payload bytes at [ppos] of [payload] *)
let frame_crc head ~hpos payload ~ppos ~len =
  let c = Crc32.update (Crc32.init ()) head ~pos:hpos ~len:8 in
  Crc32.finish (Crc32.update c payload ~pos:ppos ~len)

(** Wrap [payload] in a frame whose second magic byte is [magic1]. *)
let seal ~magic1 ~max_payload ~(seq : int) (payload : string) : string =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Codec.seal: payload too long";
  let head = u32_le seq ^ u32_le len in
  let crc = frame_crc head ~hpos:0 payload ~ppos:0 ~len in
  String.make 1 magic0 ^ String.make 1 magic1 ^ head ^ u32_le crc ^ payload

(** The resync rule.  A damaged header (bad length, bad CRC) and a buffer
    that stalls as a forever-incomplete frame (a torn frame's lying header
    promising a payload that will never arrive) are both answered the
    same way: discard the presumed magic, never the span the header
    claims, and rescan — a genuine frame behind or inside the lie is
    recovered.  [resync_skip avail] is how many of [avail] buffered bytes
    to drop. *)
let resync_skip avail = min 2 avail

(** Scan [buf] for the next frame with second magic byte [magic1] and a
    payload of at most [max_payload] bytes.  Total; consumes nothing
    itself. *)
let scan ~magic1 ~max_payload (buf : string) : scan =
  let avail = String.length buf in
  (* garbage in front of the next possible magic is skipped, typed *)
  let rec find i =
    if i >= avail then avail
    else if buf.[i] = magic0 && (i + 1 >= avail || buf.[i + 1] = magic1) then i
    else find (i + 1)
  in
  let start = find 0 in
  if start > 0 then S_skip { skip = start; error = Garbage start }
  else if avail < header_len then S_need
  else
    let seq = get_u32 buf 2 and len = get_u32 buf 6 and crc = get_u32 buf 10 in
    if len > max_payload then
      S_skip { skip = resync_skip avail;
               error = Bad_length { seq; claimed = len; limit = max_payload } }
    else if avail < header_len + len then S_need
    else if frame_crc buf ~hpos:2 buf ~ppos:header_len ~len <> crc then
      S_skip { skip = resync_skip avail; error = Bad_crc { seq } }
    else S_frame { seq; payload = String.sub buf header_len len; used = header_len + len }

(* --- writers ------------------------------------------------------------ *)

let u16_le v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 (v land 0xffff);
  Bytes.unsafe_to_string b

let int32_le (v : int32) = u32_le (Int32.to_int v)

let int64_le (v : int64) =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.unsafe_to_string b

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)
let add_u16 b v = Buffer.add_uint16_le b (v land 0xffff)
let add_int32 b (v : int32) = Buffer.add_int32_le b v

(** [v]'s low 32 bits: an unsigned field, or a signed one in two's
    complement — the bytes are the same. *)
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)

(** A u32 length, then the bytes. *)
let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* --- the bounded reader -------------------------------------------------- *)

module Reader = struct
  type fault =
    | Short of { what : string; need : int; have : int }
        (** the input ends inside [what]: it needs [need] more bytes and
            [have] remain *)
    | Hard of string  (** a field holds a value no encoder writes *)

  exception Malformed of fault

  (** The generic rendering; decoders with an established wording map
      {!Short} themselves. *)
  let fault_to_string = function
    | Short { what; need; have } ->
        Printf.sprintf "truncated %s: need %d bytes, have %d" what need have
    | Hard m -> m

  let hard m = raise (Malformed (Hard m))
  let hardf fmt = Printf.ksprintf hard fmt

  type t = { src : string; mutable pos : int }

  let of_string ?(pos = 0) src = { src; pos }
  let pos r = r.pos
  let remaining r = String.length r.src - r.pos
  let at_end r = r.pos >= String.length r.src

  let need r n what =
    if n > remaining r then
      raise (Malformed (Short { what; need = n; have = remaining r }))

  let advance r n v =
    r.pos <- r.pos + n;
    v

  let u8 r what =
    need r 1 what;
    advance r 1 (String.get_uint8 r.src r.pos)

  let u16 r what =
    need r 2 what;
    advance r 2 (String.get_uint16_le r.src r.pos)

  let i16 r what =
    need r 2 what;
    advance r 2 (String.get_int16_le r.src r.pos)

  let int32 r what =
    need r 4 what;
    advance r 4 (String.get_int32_le r.src r.pos)

  (** 0 .. 2{^32}-1: addresses, offsets, lengths, counts. *)
  let u32 r what = Int32.to_int (int32 r what) land 0xffff_ffff

  (** -2{^31} .. 2{^31}-1: exit statuses and signed integers. *)
  let i32 r what = Int32.to_int (int32 r what)

  let take r n what =
    if n < 0 then hard ("negative length for " ^ what);
    need r n what;
    advance r n (String.sub r.src r.pos n)

  (** A u32 length, bounded by [limit] before it is trusted, then the
      bytes. *)
  let str r ~limit what =
    let n = u32 r (what ^ " length") in
    if n > limit then hardf "%s of %d bytes over the %d limit" what n limit;
    take r n what

  let finish r v =
    if not (at_end r) then hard "trailing bytes";
    v

  (** Decode all of [s] with [f]: total, and trailing bytes are an error. *)
  let run (f : t -> 'a) (s : string) : ('a, fault) result =
    let r = of_string s in
    match finish r (f r) with v -> Ok v | exception Malformed e -> Error e
end
