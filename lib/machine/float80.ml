(** 80-bit extended-precision floats, as on the Motorola 68020's FPU.

    The paper notes that the 68020 port needs assembly code to fetch and
    store 80-bit values; our SIM-68020 stores extended floats in the m68k
    memory format (big-endian: 2-byte sign+exponent, 2 bytes of zero
    padding is NOT used here — we use the packed 10-byte form: sexp(2) then
    64-bit mantissa with explicit integer bit).

    OCaml floats are IEEE doubles, so conversion double->extended->double is
    exact; extended values produced by the simulated FPU are therefore
    doubles carried in extended format, which is faithful enough for the
    debugger experiments (what matters is that the {e format in target
    memory} is 10 bytes with an explicit-integer-bit layout the debugger
    must decode). *)

type repr = { sign : int; exponent : int; mantissa : int64 }
(** [exponent] is the biased 15-bit exponent; [mantissa] has the explicit
    integer bit at bit 63. *)

let bias80 = 16383
let bias64 = 1023

(** Decompose an OCaml double into the extended representation. *)
let of_float (x : float) : repr =
  let bits = Int64.bits_of_float x in
  let sign = Int64.to_int (Int64.shift_right_logical bits 63) land 1 in
  let exp64 = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.logand bits 0xF_FFFF_FFFF_FFFFL in
  if exp64 = 0 && frac = 0L then { sign; exponent = 0; mantissa = 0L }
  else if exp64 = 0x7ff then
    (* inf / nan *)
    { sign; exponent = 0x7fff; mantissa = Int64.logor Int64.min_int (Int64.shift_left frac 11) }
  else if exp64 = 0 then begin
    (* subnormal double: normalize *)
    let rec norm f e =
      if Int64.logand f 0x10_0000_0000_0000L <> 0L then (f, e)
      else norm (Int64.shift_left f 1) (e - 1)
    in
    let f, e = norm frac (1 - bias64) in
    let mant = Int64.logor Int64.min_int (Int64.shift_left (Int64.logand f 0xF_FFFF_FFFF_FFFFL) 11) in
    { sign; exponent = e + bias80; mantissa = mant }
  end
  else
    let e = exp64 - bias64 + bias80 in
    let mant = Int64.logor Int64.min_int (Int64.shift_left frac 11) in
    { sign; exponent = e; mantissa = mant }

(** Recompose; values outside double range become infinities. *)
let to_float (r : repr) : float =
  if r.exponent = 0 && r.mantissa = 0L then if r.sign = 1 then -0.0 else 0.0
  else if r.exponent = 0x7fff then
    if Int64.logand r.mantissa 0x7FFF_FFFF_FFFF_FFFFL = 0L then
      if r.sign = 1 then neg_infinity else infinity
    else nan
  else
    let e = r.exponent - bias80 + bias64 in
    if e >= 0x7ff then if r.sign = 1 then neg_infinity else infinity
    else if e <= 0 then if r.sign = 1 then -0.0 else 0.0 (* flush tiny to zero *)
    else
      let frac = Int64.logand (Int64.shift_right_logical r.mantissa 11) 0xF_FFFF_FFFF_FFFFL in
      let bits =
        Int64.logor
          (Int64.logor
             (Int64.shift_left (Int64.of_int r.sign) 63)
             (Int64.shift_left (Int64.of_int e) 52))
          frac
      in
      Int64.float_of_bits bits

(** Serialize to the 10-byte m68k memory format (big-endian within the
    record: sign+exponent word first, then the 8 mantissa bytes most
    significant first). *)
let to_bytes (x : float) : string =
  let r = of_float x in
  let b = Bytes.create 10 in
  Bytes.set_uint16_be b 0 ((r.sign lsl 15) lor (r.exponent land 0x7fff));
  Bytes.set_int64_be b 2 r.mantissa;
  Bytes.to_string b

let of_bytes (s : string) : float =
  if String.length s <> 10 then invalid_arg "Float80.of_bytes";
  let se = String.get_uint16_be s 0 in
  to_float { sign = (se lsr 15) land 1; exponent = se land 0x7fff; mantissa = String.get_int64_be s 2 }
