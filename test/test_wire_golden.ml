(** Wire-byte goldens: the exact bytes every codec puts on a wire or in a
    file, pinned as hex.  A refactor of the codecs must leave each of
    these encodings byte-identical — a peer built from an older tree
    must keep understanding a newer one.  Payloads too large to pin
    verbatim are pinned by their 14-byte header and an MD5 of the whole
    frame. *)

open Ldb_util
open Ldb_machine
module Frame = Ldb_nub.Frame
module Proto = Ldb_nub.Proto
module Trace = Ldb_nub.Trace
module Bpcode = Ldb_nub.Bpcode
module Swire = Ldb_ldb.Swire
module Server = Ldb_ldb.Server
module Ldb = Ldb_ldb.Ldb

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(** Header hex plus a digest: for frames too big to pin verbatim. *)
let big s = hex (String.sub s 0 14) ^ " md5:" ^ Digest.to_hex (Digest.string s)

let payload n = String.init n (fun i -> Char.chr ((i * 7 + 3) land 0xff))

let core =
  let sec name base bytes =
    { Core.sec_name = name; sec_base = base; sec_bytes = bytes;
      sec_crc = Crc32.string bytes; sec_ok = true }
  in
  { Core.co_arch = Arch.Sparc; co_signal = 11; co_code = 0x80001234; co_pc = 0x1040;
    co_ctx_addr = Ram.Layout.context_base;
    co_regs = [| 0l; -1l; 0x7fffffffl; 0x80000000l |];
    co_freg_bytes = 8; co_fregs = [| payload 8; String.make 8 '\000' |];
    co_sections = [ sec "code" 0x1000 (payload 24); sec "stack" 0x3ff0 (String.make 16 'z') ] }

let trace =
  { Trace.tr_arch = Arch.M68k; tr_fuel = 1_000_000; tr_can_step = true; tr_spacing = 5000;
    tr_events =
      [ Trace.Checkpoint
          { ck_ev = 0; ck_delta = 0; ck_status = Trace.Ck_stopped { signal = 5; code = 0 };
            ck_core = Core.to_string core };
        Trace.Req (Proto.Store { space = 'd'; addr = 0x2000; bytes = "\x01\x02\x03\x04" });
        Trace.Req Proto.Continue;
        Trace.Stop { signal = 5; code = 0; pc = 0x1044; instrs = 77 };
        Trace.Checkpoint
          { ck_ev = 2; ck_delta = 12; ck_status = Trace.Ck_running; ck_core = Core.to_string core };
        Trace.Exit { status = 3; instrs = 120 } ] }

let bpcode =
  Bpcode.
    [| Push (-5l); Load_reg 3; Load { space = 'd'; size = 4; signed = true }; Bin Add;
       Cmp { rel = Lt; signed = true }; Not; Jz 2; Jnz (-3); Jmp 0; Load_pc;
       Push 0x7fffffffl |]

let encodings : (string * (unit -> string)) list =
  [
    ("frame empty", fun () -> hex (Frame.seal ~seq:1 ""));
    ("frame short", fun () -> hex (Frame.seal ~seq:0x01020304 "fetch me"));
    ("frame bound", fun () -> big (Frame.seal ~seq:0xfffffffe (payload Frame.max_payload)));
    ("swire empty", fun () -> hex (Swire.seal ~seq:0 ""));
    ("swire short", fun () -> hex (Swire.seal ~seq:7 "C\x77"));
    ("swire client bound", fun () -> big (Swire.seal ~seq:9 (payload Swire.max_client_payload)));
    ("swire server bound", fun () -> big (Swire.seal ~seq:10 (payload Swire.max_server_payload)));
    ("proto fetch", fun () ->
        hex (Proto.encode_request (Proto.Fetch { space = 'd'; addr = 0x80000010; size = 4 })));
    ("proto store", fun () ->
        hex (Proto.encode_request (Proto.Store { space = 'c'; addr = 0x1000; bytes = "\xde\xad" })));
    ("proto fetch_block", fun () ->
        hex (Proto.encode_request
               (Proto.Fetch_block { space = 'd'; addr = 0x80000100; len = Proto.max_block })));
    ("proto block reply", fun () -> hex (Proto.encode_reply (Proto.Block (payload 16))));
    ("proto set_cond", fun () ->
        hex (Proto.encode_request (Proto.Set_cond { addr = 0x1040; prog = Bpcode.encode bpcode })));
    ("proto hello reply", fun () ->
        hex (Proto.encode_reply
               (Proto.Hello_reply
                  { arch = "mips"; can_step = true;
                    state = Proto.St_stopped { signal = 5; code = 0; ctx_addr = 0x3000 } })));
    ("proto exit reply", fun () -> hex (Proto.encode_reply (Proto.Exit_event (-1))));
    ("proto core chunk", fun () ->
        hex (Proto.encode_reply (Proto.Core_chunk { total = 9000; offset = 2048; chunk = "LDBCORE1" })));
    ("swire client", fun () ->
        hex (Swire.encode_client
               (Swire.C_cmd (Server.Break_line { file = Some "fib.c"; line = 12 }))));
    ("swire server", fun () ->
        hex (Swire.encode_server
               (Swire.S_reply
                  (Server.R_state
                     (Ldb.Stopped { signal = Signal.SIGTRAP; code = 0; ctx_addr = 0x3000 })))));
    ("swire server exit", fun () ->
        hex (Swire.encode_server (Swire.S_reply (Server.R_state (Ldb.Exited (-1))))));
    ("trace", fun () -> hex (Trace.to_string trace));
    ("trace raw", fun () -> hex (Trace.to_string ~compress:false trace));
    ("core", fun () -> hex (Core.to_string core));
    ("bpcode", fun () -> hex (Bpcode.encode bpcode));
  ]

(** Captured from the codecs before they were unified; never regenerate
    these to make a failing case pass — a mismatch is a wire break. *)
let golden : (string * string) list =
  [
    ("frame empty",
     "f5db0100000000000000f7df88a9");
    ("frame short",
     "f5db040302010800000078977cb96665746368206d65");
    ("frame bound",
     "f5dbfeffffff401000007592eaad md5:bee7ee5731003375c0fe879df2432bbe");
    ("swire empty",
     "f55b000000000000000069df2265");
    ("swire short",
     "f55b07000000020000005d2aab594377");
    ("swire client bound",
     "f55b0900000000200000e4d606a1 md5:71b43f7614b08a5495887e336eb9008f");
    ("swire server bound",
     "f55b0a00000000100001b7d200c1 md5:97ca55d103543c401224976d2345f4bb");
    ("proto fetch",
     "46641000008004");
    ("proto store",
     "53630010000002dead");
    ("proto fetch_block",
     "4d64000100800001");
    ("proto block reply",
     "6d1000030a11181f262d343b424950575e656c");
    ("proto set_cond",
     "42401000002000000050fbffffff72036d6404016100630201217a02006efdff6a00007850ffffff7f");
    ("proto hello reply",
     "687305000000000000000030000053040000006d697073");
    ("proto exit reply",
     "58ffffffff");
    ("proto core chunk",
     "752823000000080000080000004c4442434f524531");
    ("swire client",
     "436c01050000006669622e630c000000");
    ("swire server",
     "527373050000000000000000300000");
    ("swire server exit",
     "527378ffffffff");
    ("trace",
     "4c4442545241434532040000006d36386b40420f008813000053439300000000000000000000007305000000000000004c7d0000004c880819f2444a91180500249c03278c9c310b1202a02101002020102202f8008040c688ff4086fcf7272220011111441ca02002860f265ad0f018f164c28e09c7bc2153060046001822aa62b140d4ca962f63ee109204ca152f65d8ccd11308d1234b9d4821544827cc9835f07e24f4094051b6371cf4a455bb96ad1e69d5561a510b0000005364002000000401020304844e59c9510100000043a7ffd73d53100000000500000000000000441000004d0000007a4695354393000000020000000c0000007200000000000000004c7d0000004c880819f2444a91180500249c03278c9c310b1202a02101002020102202f8008040c688ff4086fcf7272220011111441ca02002860f265ad0f018f164c28e09c7bc2153060046001822aa62b140d4ca962f63ee109204ca152f65d8ccd11308d1234b9d4821544827cc9835f07e24f4094051b6371cf4a455bb96ad1e6b08571d58080000000300000078000000f9502645");
    ("trace raw",
     "4c4442545241434532040000006d36386b40420f00881300005343b8000000000000000000000073050000000000000052a20000004c4442434f5245310500000073706172630b000000341200804010000000001f000400000000000000ffffffffffffff7f000000800200000008000000030a11181f262d3400000000000000000200000004000000636f64650010000018000000aa2c0ba2030a11181f262d343b424950575e656c737a81888f969da405000000737461636bf03f0000100000008ad96f1c7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7ab33e988f510b0000005364002000000401020304844e59c9510100000043a7ffd73d53100000000500000000000000441000004d0000007a46953543b8000000020000000c00000072000000000000000052a20000004c4442434f5245310500000073706172630b000000341200804010000000001f000400000000000000ffffffffffffff7f000000800200000008000000030a11181f262d3400000000000000000200000004000000636f64650010000018000000aa2c0ba2030a11181f262d343b424950575e656c737a81888f969da405000000737461636bf03f0000100000008ad96f1c7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7ae067f10d58080000000300000078000000f9502645");
    ("core",
     "4c4442434f5245310500000073706172630b000000341200804010000000001f000400000000000000ffffffffffffff7f000000800200000008000000030a11181f262d3400000000000000000200000004000000636f64650010000018000000aa2c0ba2030a11181f262d343b424950575e656c737a81888f969da405000000737461636bf03f0000100000008ad96f1c7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a");
    ("bpcode",
     "50fbffffff72036d6404016100630201217a02006efdff6a00007850ffffff7f");
  ]

let case (name, f) =
  Alcotest.test_case name `Quick (fun () ->
      match List.assoc_opt name golden with
      | Some want -> Alcotest.check Alcotest.string name want (f ())
      | None -> Alcotest.failf "no golden for %s" name)

let () = Alcotest.run "wire_golden" [ ("bytes", List.map case encodings) ]
