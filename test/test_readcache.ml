(** The stop-epoch read cache under the wire memory.

    The contract: a fetch served from cached blocks answers exactly what
    a plain [Fetch] of the same state answers — same bytes, same error —
    on every target, including fetches that straddle two blocks, the
    context's register words and the SIM-MIPS word-swapped FP save
    slots; every request that can change the target empties the cache;
    and a nub without [Fetch_block] gets identical answers through plain
    fetches. *)

open Ldb_machine
module Ldb = Ldb_ldb.Ldb
module Host = Ldb_ldb.Host
module Transport = Ldb_ldb.Transport
module A = Ldb_amemory.Amemory
module Chan = Ldb_nub.Chan
module Nub = Ldb_nub.Nub
module Proto = Ldb_nub.Proto

let check = Alcotest.check
let sources = [ ("walk.c", Testkit.walk_c) ]
let bsize = Proto.max_block

(** A session stopped at the first hit of [bottom]. *)
let stopped ~arch : Testkit.session =
  let s = Testkit.debug_session ~arch sources in
  ignore (Ldb.break_function s.Testkit.d s.Testkit.tg "bottom" : int);
  (match Testkit.ok (Ldb.continue_ s.Testkit.d s.Testkit.tg) with
  | Ldb.Stopped _ -> ()
  | _ -> Alcotest.failf "%s: no stop at bottom" (Arch.name arch));
  s

let rpcs (s : Testkit.session) = (Transport.stats (Ldb.transport s.Testkit.tg)).Transport.st_rpcs
let ram (s : Testkit.session) = s.Testkit.proc.Host.hp_proc.Proc.ram

let fetch (m : A.t) ~space ~addr ~size =
  match A.fetch m (A.absolute space addr) ~size with
  | b -> Ok b
  | exception A.Error e -> Error e

(* --- differential: cached = plain ------------------------------------------- *)

(** Per target: a stopped session whose FP save slots and a data window
    hold distinctive bytes, beside a second, uncached wire memory over
    the same transport.  Plain fetches do not invalidate, so the cached
    memory stays warm across the comparison. *)
let sessions =
  lazy
    (List.map
       (fun arch ->
         let s = stopped ~arch in
         let t = s.Testkit.tg.Ldb.tg_tdesc in
         let rng = Random.State.make [| Hashtbl.hash (Arch.name arch) |] in
         let scribble addr len =
           for i = 0 to len - 1 do
             Ram.set_u8 (ram s) (addr + i) (Random.State.int rng 256)
           done
         in
         for f = 0 to Target.nfregs t - 1 do
           scribble (Ram.Layout.context_base + t.Target.ctx_freg_off f) t.Target.ctx_freg_bytes
         done;
         scribble Ram.Layout.data_base (4 * bsize);
         (* the pokes went behind the nub's back: a heartbeat empties the cache *)
         ignore (Transport.rpc (Ldb.transport s.Testkit.tg) Proto.Hello : Proto.reply);
         let plain = A.rpc_wire (Transport.rpc (Ldb.transport s.Testkit.tg)) in
         (arch, (s, plain)))
       Arch.all)

(** Addresses worth a differential: block edges (straddles), the stop
    context's register, pc and FP slots, code, data, stack, and the end
    of memory (faults). *)
let gen_case : (Arch.t * char * int * int) QCheck.arbitrary =
  let open QCheck.Gen in
  let size = int_range 1 Proto.max_transfer in
  let addr arch sz =
    let t = Target.of_arch arch in
    let ctx = Ram.Layout.context_base in
    oneof
      [ map2 (fun k back -> (k * bsize) - back)
          (oneof [ int_range 0x10 0x20; int_range 0x1000 0x1004; int_range 0x3ff0 0x4000 ])
          (int_range 0 (sz - 1));
        map (fun r -> ctx + t.Target.ctx_reg_off r) (int_bound (Target.nregs t - 1));
        return (ctx + t.Target.ctx_pc_off);
        map (fun f -> ctx + t.Target.ctx_freg_off f) (int_bound (Target.nfregs t - 1));
        int_range ctx (ctx + 0x200);
        int_range Ram.Layout.code_base (Ram.Layout.code_base + 0x800);
        int_range Ram.Layout.data_base (Ram.Layout.data_base + (4 * bsize));
        int_range (Ram.Layout.stack_top - 0x400) Ram.Layout.size;
        int_range 0 (Ram.Layout.size + 64) ]
  in
  let gen =
    oneofl Arch.all >>= fun arch ->
    (* FP slots want their natural sizes too, not only 1..16 at random *)
    oneof [ size; oneofl [ 4; 8; 10 ] ] >>= fun sz ->
    map2 (fun space a -> (arch, space, a, sz)) (oneofl [ 'c'; 'd' ]) (addr arch sz)
  in
  QCheck.make
    ~print:(fun (arch, space, a, sz) -> Printf.sprintf "%s %c:%#x/%d" (Arch.name arch) space a sz)
    gen

let prop_cached_is_plain =
  Testkit.qtest "cached fetch = plain fetch on all targets" ~count:1000 gen_case
    (fun (arch, space, addr, size) ->
      let s, plain = List.assoc arch (Lazy.force sessions) in
      let cached = s.Testkit.tg.Ldb.tg_wire in
      (* every other case starts a new epoch, whose first fetch is plain
         and answers only its exact repeat *)
      if (addr + size) land 1 = 0 then
        ignore (Transport.rpc (Ldb.transport s.Testkit.tg) Proto.Hello : Proto.reply);
      let other = 1 + (size mod Proto.max_transfer) in
      let a = fetch cached ~space ~addr ~size in
      let b = fetch cached ~space ~addr ~size in
      let c = fetch cached ~space ~addr ~size:other in
      let want = fetch plain ~space ~addr ~size in
      a = want && b = want && c = fetch plain ~space ~addr ~size:other)

(** The differential above is only worth something if blocks serve most
    reads: re-reading a warm block costs no round trip. *)
let test_warm_reads_are_free () =
  List.iter
    (fun arch ->
      let s = stopped ~arch in
      let w = s.Testkit.tg.Ldb.tg_wire in
      let sp = Ram.Layout.stack_top - 0x40 in
      ignore (fetch w ~space:'d' ~addr:sp ~size:4);
      ignore (fetch w ~space:'d' ~addr:sp ~size:4);
      let before = rpcs s in
      for i = 0 to 15 do
        ignore (fetch w ~space:'d' ~addr:(sp + i) ~size:4)
      done;
      check Alcotest.int (Arch.name arch ^ ": sixteen warm reads") before (rpcs s))
    Arch.all

(* --- invalidation ------------------------------------------------------------ *)

(** A data word the program never touches. *)
let spare = Ram.Layout.context_base - 0x1000

(** Warm the block holding [spare], change the target behind the cache
    (by [poke], straight into RAM), run [op], and read [spare] again
    after one unrelated fetch (the epoch's first fetch is plain anyway):
    the read must see the new value. *)
let expect_invalidated (s : Testkit.session) name ~(op : unit -> unit) ~(want : int32)
    ~(poke : bool) =
  let w () = s.Testkit.tg.Ldb.tg_wire in
  let read () = A.fetch_i32 (w ()) (A.absolute 'd' spare) in
  ignore (read ());
  ignore (read ());
  let before = rpcs s in
  ignore (read ());
  check Alcotest.int (name ^ ": warm read is cached") before (rpcs s);
  if poke then Ram.set_u32 (ram s) spare want;
  op ();
  ignore (A.fetch_i32 (w ()) (A.absolute 'd' (Ram.Layout.stack_top - 0x40)));
  check Alcotest.int32 (name ^ ": read after the request") want (read ())

let test_invalidation () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let s = stopped ~arch in
      let d = s.Testkit.d and tg = s.Testkit.tg in
      let tr = Ldb.transport tg in
      expect_invalidated s (an ^ " store") ~poke:false ~want:0x1234l ~op:(fun () ->
          A.store_i32 tg.Ldb.tg_wire (A.absolute 'd' spare) 0x1234l);
      expect_invalidated s (an ^ " store elsewhere in the block") ~poke:true ~want:0x55l
        ~op:(fun () -> A.store_i32 tg.Ldb.tg_wire (A.absolute 'd' (spare + 8)) 7l);
      expect_invalidated s (an ^ " continue") ~poke:true ~want:0x1001l ~op:(fun () ->
          match Testkit.ok (Ldb.continue_ d tg) with
          | Ldb.Stopped _ -> ()
          | _ -> Alcotest.fail (an ^ ": no second stop"));
      expect_invalidated s (an ^ " step") ~poke:true ~want:0x1002l ~op:(fun () ->
          ignore (Testkit.ok (Ldb.step_instruction d tg) : Ldb.state));
      expect_invalidated s (an ^ " heartbeat") ~poke:true ~want:0x1003l ~op:(fun () ->
          ignore (Transport.rpc tr Proto.Hello : Proto.reply));
      expect_invalidated s (an ^ " record") ~poke:true ~want:0x1004l ~op:(fun () ->
          Ldb.start_record tg ~spacing:1000);
      expect_invalidated s (an ^ " reattach") ~poke:true ~want:0x1005l ~op:(fun () ->
          Chan.disconnect (Transport.endpoint tr);
          ignore (Host.reattach d tg s.Testkit.proc : Ldb.state)))
    Arch.all

(** A warm block must not answer over a dead link: the plain fetch's
    typed [Disconnected] is what the server turns into [Session_down]. *)
let test_dead_link_not_served () =
  let s = stopped ~arch:Arch.Sparc in
  let w = s.Testkit.tg.Ldb.tg_wire in
  let sp = Ram.Layout.stack_top - 0x40 in
  ignore (fetch w ~space:'d' ~addr:sp ~size:4);
  ignore (fetch w ~space:'d' ~addr:sp ~size:4);
  Chan.disconnect (Transport.endpoint (Ldb.transport s.Testkit.tg));
  match fetch w ~space:'d' ~addr:sp ~size:4 with
  | exception Transport.Error (Transport.Disconnected, _) -> ()
  | _ -> Alcotest.fail "a cached block answered over a dead link"

(* --- a nub without Fetch_block ---------------------------------------------- *)

(** {!Testkit.inspect_script} over a fresh process, with the nub's
    [Block] replies counted; [old_nub] hides the extension. *)
let inspect_run ~arch ~old_nub : string * int * int =
  let d = Ldb.create () in
  let p = Host.launch ~paused:true ~arch sources in
  (* {!Host.open_channel}, keeping the nub's end to count its replies *)
  let ep, nub_end = Chan.pair ~labels:("ldb", "nub") () in
  Nub.attach p.Host.hp_nub nub_end;
  Chan.set_pump ep (fun () -> Nub.pump p.Host.hp_nub);
  let blocks = ref 0 in
  Chan.set_on_send nub_end
    (Some
       (fun frame ->
         if frame.[Ldb_util.Codec.Framing.header_len] = 'm' then incr blocks;
         Chan.deliver nub_end frame));
  let rewritten = if old_nub then Testkit.without_block_fetch ep else ref 0 in
  let tg = Ldb.connect d ~name:(Arch.name arch) ~loader_ps:p.Host.hp_loader_ps ep in
  let transcript = Testkit.inspect_script d tg ^ Host.output p in
  (transcript, !blocks, !rewritten)

let test_old_nub_fallback () =
  List.iter
    (fun arch ->
      let an = Arch.name arch in
      let fresh, fresh_blocks, _ = inspect_run ~arch ~old_nub:false in
      let old, old_blocks, rewritten = inspect_run ~arch ~old_nub:true in
      check Alcotest.string (an ^ ": identical answers") fresh old;
      Alcotest.(check bool) (an ^ ": the extension is used when present") true
        (fresh_blocks > 0);
      check Alcotest.int (an ^ ": no Block reply from an old nub") 0 old_blocks;
      check Alcotest.int (an ^ ": asked once, then never again") 1 rewritten)
    Arch.all

(** The transport gained the cache's table without growing: see the
    layout note on [Transport.t]. *)
let test_transport_fields () =
  let s = stopped ~arch:Arch.Mips in
  check Alcotest.int "fields of Transport.t" 7 (Obj.size (Obj.repr (Ldb.transport s.Testkit.tg)))

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "readcache"
    [
      ("differential", [ prop_cached_is_plain; case "warm reads are free" test_warm_reads_are_free ]);
      ( "invalidation",
        [ case "store, continue, step, heartbeat, record, reattach" test_invalidation;
          case "a dead link is never served from cache" test_dead_link_not_served ] );
      ("fallback", [ case "a nub without Fetch_block" test_old_nub_fallback ]);
      ("layout", [ case "the transport stays at seven fields" test_transport_fields ]);
    ]
