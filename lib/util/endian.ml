(** Byte-order primitives shared by the machine simulators, the nub wire
    protocol, and the abstract-memory layer.

    All multi-byte accessors operate on [Bytes.t] at a byte offset and never
    allocate; they are the stdlib's fixed-order accessors, chosen by
    [order].  Values are carried as [int32]/[int64] so that 32-bit target
    words are exact regardless of the host word size. *)

type order = Little | Big

(* 8-bit *)

let get_u8 b off = Bytes.get_uint8 b off
let set_u8 b off v = Bytes.set_uint8 b off (v land 0xff)

(* 16-bit *)

let get_u16 order b off =
  match order with Little -> Bytes.get_uint16_le b off | Big -> Bytes.get_uint16_be b off

let set_u16 order b off v =
  match order with
  | Little -> Bytes.set_uint16_le b off (v land 0xffff)
  | Big -> Bytes.set_uint16_be b off (v land 0xffff)

(* 32-bit *)

let get_u32 order b off =
  match order with Little -> Bytes.get_int32_le b off | Big -> Bytes.get_int32_be b off

let set_u32 order b off (v : int32) =
  match order with Little -> Bytes.set_int32_le b off v | Big -> Bytes.set_int32_be b off v

(* 64-bit, used for doubles travelling over the wire *)

let get_u64 order b off =
  match order with Little -> Bytes.get_int64_le b off | Big -> Bytes.get_int64_be b off

let set_u64 order b off (v : int64) =
  match order with Little -> Bytes.set_int64_le b off v | Big -> Bytes.set_int64_be b off v

(** Sign-extend the low [bits] bits of [v]. *)
let sext v bits =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift
